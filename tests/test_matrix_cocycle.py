"""Tests for matrix families, Lyapunov estimates, and cocycle pressure curves.

Renormalized products are checked against exact rational arithmetic, the
estimator against spectral closed forms, and the pressure curves against the
scalar reductions (a 1x1 cocycle is a weighted full shift).
"""

import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from thermoshift.gibbs import (
    MeasureKindError,
    entropy_markov,
    finite_gibbs_nu,
    markov_measure,
    uniform_bernoulli,
)
from thermoshift.matrix_cocycle import (
    LyapunovEstimate,
    MatrixFamily,
    _sample_paths,
    cocycle_pressure,
    entry_sum_norm,
    log_norm_of_path,
    max_lyapunov,
)
from thermoshift import numerics
from thermoshift.numerics import log_norms
from thermoshift.pressure import gurevich_pressure
from thermoshift import potentials
from thermoshift.potentials import (
    check_cone_condition,
    cocycle_potential,
    estimate_regularity,
    geometric_tail,
    zero_potential,
)
from thermoshift.shift_core import (
    full_shift,
    golden_mean_shift,
    model_from_arcs,
    truncate,
)

from helpers import plain_tree_log_norms, random_stationary_markov

SYMMETRIC = {1: [[2.0, 1.0], [1.0, 2.0]]}


def single_symbol_measure():
    sub = truncate(model_from_arcs([(1, 1)]), 1)
    return markov_measure((1,), [1.0], [[1.0]], sub)


# -- norms and family validation ------------------------------------------------

def test_entry_sum_norm_examples():
    assert entry_sum_norm([[2.0, 1.0], [1.0, 2.0]]) == 6.0
    assert entry_sum_norm(np.eye(3)) == 3.0
    assert entry_sum_norm([[0.5]]) == 0.5


def test_family_accessors_and_validation():
    fam = MatrixFamily(2, [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]])
    assert fam.symbols == (1, 2)
    assert fam.norm(1) == 10.0
    assert fam.norm(2) == 26.0
    with pytest.raises(ValueError, match="negative entry"):
        MatrixFamily(2, {1: [[1.0, -0.5], [1.0, 1.0]]})
    with pytest.raises(ValueError, match="shape"):
        MatrixFamily(2, {1: [[1.0, 2.0, 3.0]]})
    with pytest.raises(ValueError, match="no positive entry"):
        MatrixFamily(1, {1: [[0.0]]})
    with pytest.raises(ValueError, match="dimension"):
        MatrixFamily(0, {})
    lazy = MatrixFamily(2, lambda a: np.full((2, 2), float(a)))
    assert lazy.symbols is None
    assert lazy.norm(3) == 12.0


# -- Lyapunov estimates -----------------------------------------------------------

def test_single_matrix_exponent_near_spectral_radius():
    fam = MatrixFamily(2, SYMMETRIC)
    est = max_lyapunov(fam, single_symbol_measure(), 200, 3, seed=5)
    assert abs(est.lambda_hat - math.log(3.0)) < 1e-2
    # The entry sums of the powers are exactly 2 * 3^n, so the finite-n
    # offset is exactly (log 2)/n and every sampled path agrees.
    assert est.lambda_hat == pytest.approx(math.log(3.0) + math.log(2.0) / 200)
    assert est.standard_error == 0.0
    assert est.n_used == 200
    assert est.sample_count == 3


def test_scalar_family_mean_is_exact_at_every_n():
    fam = MatrixFamily(1, {1: [[2.0]], 2: [[8.0]]})
    mu = uniform_bernoulli(2)
    for n in (1, 7, 500):
        est = max_lyapunov(fam, mu, n, 4, seed=n)
        assert est.lambda_hat == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
        assert est.standard_error == 0.0


def test_scalar_family_uses_stationary_weights():
    rng = np.random.default_rng(9)
    sub = truncate(golden_mean_shift(), 2)
    mu = random_stationary_markov(sub, rng)
    fam = MatrixFamily(1, {1: [[3.0]], 2: [[5.0]]})
    est = max_lyapunov(fam, mu, 11, 2)
    expected = mu.pi(1) * math.log(3.0) + mu.pi(2) * math.log(5.0)
    assert est.lambda_hat == pytest.approx(expected, abs=1e-14)


def test_identity_family_reports_log_d_over_n():
    fam = MatrixFamily(3, lambda a: np.eye(3))
    mu = uniform_bernoulli(4)
    for n in (1, 10, 100):
        est = max_lyapunov(fam, mu, n, 5, seed=1)
        assert est.lambda_hat == pytest.approx(math.log(3.0) / n, abs=1e-15)
        assert est.standard_error == 0.0


def test_estimator_is_deterministic_given_seed():
    mats = {1: [[2.0, 1.0], [1.0, 2.0]], 2: [[0.5, 0.1], [0.3, 0.9]]}
    fam = MatrixFamily(2, mats)
    mu = uniform_bernoulli(2)
    a = max_lyapunov(fam, mu, 50, 20, seed=7)
    b = max_lyapunov(fam, mu, 50, 20, seed=7)
    assert a == b
    c = max_lyapunov(fam, mu, 50, 20, seed=8)
    assert c.lambda_hat != a.lambda_hat
    assert a.standard_error > 0.0


def test_estimator_argument_validation():
    fam = MatrixFamily(2, SYMMETRIC)
    mu = single_symbol_measure()
    with pytest.raises(ValueError):
        max_lyapunov(fam, mu, 0, 5)
    with pytest.raises(ValueError):
        max_lyapunov(fam, mu, 5, 0)
    nu = finite_gibbs_nu(
        truncate(golden_mean_shift(), 2), zero_potential(golden_mean_shift()), 3
    )
    with pytest.raises(MeasureKindError):
        max_lyapunov(fam, nu, 5, 5)
    with pytest.raises(ValueError, match="no entry for symbol 2"):
        max_lyapunov(MatrixFamily(1, {1: [[2.0]]}), uniform_bernoulli(2), 5, 5)



def reference_paths(mu, n, samples, seed):
    """Per-step rng.choice paths, each from its own generator seeded by (seed, k)."""
    symbols = tuple(mu.symbols)
    weights = np.array([mu.pi(s) for s in symbols])
    paths = []
    for k in range(samples):
        rng = np.random.default_rng((seed, k))
        path = [symbols[rng.choice(len(symbols), p=weights / weights.sum())]]
        for _ in range(n - 1):
            outs = [t for t in symbols if mu.transition(path[-1], t) > 0.0]
            probs = np.array([mu.transition(path[-1], t) for t in outs])
            path.append(outs[rng.choice(len(outs), p=probs / probs.sum())])
        paths.append(path)
    return paths


def reference_lyapunov(family, mu, n, samples, seed):
    """Estimate and standard error from reference_paths, multiplied a step at a time."""
    values = []
    for path in reference_paths(mu, n, samples, seed):
        prod, log_scale = np.eye(family.d), 0.0
        for s in path:
            prod = family.matrix(s) @ prod
            log_scale += math.log(prod.sum())
            prod /= prod.sum()
        values.append(log_scale / n)
    lam = math.fsum(values) / samples
    var = math.fsum((v - lam) ** 2 for v in values) / (samples - 1)
    return lam, math.sqrt(var / samples)


def test_estimator_samples_the_paths_of_rng_choice():
    # Symbol 2 has the single successor 1, so some draws have one outcome.
    model = model_from_arcs([(1, 1), (1, 2), (1, 3), (2, 1), (3, 1), (3, 2)])
    sub = truncate(model, 3)
    rng = np.random.default_rng(17)
    mu = random_stationary_markov(sub, rng)
    fam = MatrixFamily(3, {s: rng.uniform(0.2, 3.0, (3, 3)) for s in (1, 2, 3)})
    for seed in (0, 5):
        est = max_lyapunov(fam, mu, 120, 16, seed=seed)
        lam, se = reference_lyapunov(fam, mu, 120, 16, seed)
        assert est.lambda_hat == pytest.approx(lam, rel=1e-12)
        assert est.standard_error == pytest.approx(se, rel=1e-12)


def kernel_measure(sub, kernel):
    """The stationary Markov measure of a kernel on the truncation's symbols."""
    kernel = np.asarray(kernel, dtype=float)
    w, vecs = np.linalg.eig(kernel.T)
    pi = np.real(vecs[:, np.argmin(abs(w - 1.0))])
    pi /= pi.sum()
    return markov_measure(sub.symbols, pi, kernel, sub)


@pytest.mark.parametrize("n", [1, 255, 256, 257, 515])
def test_paths_and_estimate_across_chunk_boundaries(n):
    # Symbol 2 has the single successor 1, and the admissible arc 1 -> 1 has
    # probability 0, so it must never be sampled.
    model = model_from_arcs([(1, 1), (1, 2), (1, 3), (2, 1), (3, 1), (3, 2)])
    sub = truncate(model, 3)
    mu = kernel_measure(sub, [[0.0, 0.4, 0.6], [1.0, 0.0, 0.0], [0.3, 0.7, 0.0]])
    rng = np.random.default_rng(23)
    fam = MatrixFamily(3, {s: rng.uniform(0.2, 3.0, (3, 3)) for s in (1, 2, 3)})
    symbols = np.array(mu.symbols)
    paths = np.concatenate(list(_sample_paths(mu, n, 6, 4)), axis=1)
    expected = reference_paths(mu, n, 6, 4)
    assert symbols[paths].tolist() == expected
    assert not any((a, b) == (1, 1) for path in expected for a, b in zip(path, path[1:]))
    est = max_lyapunov(fam, mu, n, 6, seed=4)
    lam, se = reference_lyapunov(fam, mu, n, 6, 4)
    assert est.lambda_hat == pytest.approx(lam, rel=1e-12)
    assert est.standard_error == pytest.approx(se, rel=1e-12)


def test_vanishing_product_reports_zero_standard_error():
    # A_1 A_1 = 0, so every path that repeats symbol 1 has a zero product.
    fam = MatrixFamily(2, {1: [[0.0, 1.0], [0.0, 0.0]], 2: [[1.0, 1.0], [1.0, 1.0]]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = max_lyapunov(fam, uniform_bernoulli(2), 30, 4)
    assert est.lambda_hat == -math.inf
    assert est.standard_error == 0.0
    assert log_norm_of_path(fam, [1, 1]) == -math.inf


def exact_log_norm(mats, word):
    """log 1^T A_{w_{n-1}} ... A_{w_0} 1 of float matrices, in exact rationals."""
    d = len(mats[word[0]])
    vec = [Fraction(1)] * d
    for a in word:
        vec = [sum(Fraction(mats[a][i][j]) * vec[j] for j in range(d)) for i in range(d)]
    total = sum(vec)
    return math.log(total.numerator) - math.log(total.denominator)


@pytest.mark.parametrize("layout", [[1], [3], [7], [3, 1, 5], [9, 9, 2], [31, 33]])
def test_log_norms_match_exact_products_for_any_block_layout(layout):
    rng = np.random.default_rng(len(layout) * 100 + layout[0])
    mats = rng.uniform(0.1, 2.0, (3, 2, 2))
    paths = rng.integers(0, 3, (4, sum(layout)))
    cuts = np.cumsum([0] + layout)
    blocks = [paths[:, a:b] for a, b in zip(cuts, cuts[1:])]
    got = log_norms(mats, blocks, 4)
    for k in range(4):
        assert got[k] == pytest.approx(exact_log_norm(mats, paths[k]), abs=1e-12)


def test_product_vanishing_at_an_inner_tree_level():
    # A_1 A_2 = A_2 A_1 = 0 while A_1 A_1 = A_1 and A_2 A_2 = A_2. On 1^4 2^4
    # the tree's first level is nonzero and its second vanishes; on 1^8 2 the
    # odd last factor is carried up and meets the rest only at the top.
    fam = MatrixFamily(2, {1: [[1.0, 0.0], [0.0, 0.0]], 2: [[0.0, 0.0], [0.0, 1.0]]})
    mats = np.stack([fam.matrix(1), fam.matrix(2)])
    idx = np.array([[0] * 4 + [1] * 4, [0] * 8, [1] * 8])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert log_norms(mats, [idx], 3).tolist() == [-math.inf, 0.0, 0.0]
        assert log_norm_of_path(fam, [1] * 4 + [2] * 4) == -math.inf
        assert log_norm_of_path(fam, [1] * 8 + [2]) == -math.inf
        est = max_lyapunov(fam, uniform_bernoulli(2), 300, 5, seed=2)
    assert est.lambda_hat == -math.inf
    assert est.standard_error == 0.0


def test_nonnegative_family_with_positive_pair_products_matches_integers():
    # M_a = [[a, 1], [1, 0]] has a zero entry, but every product of two is
    # positive: the continued-fraction family.
    fam = MatrixFamily(2, {a: [[a, 1], [1, 0]] for a in (1, 2)})

    def exact(word):
        prod = [[1, 0], [0, 1]]
        for a in word:
            prod = [[a * prod[0][j] + prod[1][j] for j in range(2)], [prod[0][0], prod[0][1]]]
        return math.log(sum(prod[0]) + sum(prod[1]))

    words = [w for n in range(1, 9) for w in itertools.product((1, 2), repeat=n)]
    rng = np.random.default_rng(8)
    words += [tuple(rng.integers(1, 3, n).tolist()) for n in range(9, 41) for _ in range(4)]
    for word in words:
        assert log_norm_of_path(fam, word) == pytest.approx(exact(word), rel=1e-14)


def test_log_norm_of_path_keeps_huge_and_tiny_entries_in_range():
    # c J with J the 2 x 2 ones matrix: (c J)^n has entry sum c^n 2^(n+1).
    for c in (1e200, 1e-200):
        fam = MatrixFamily(2, {1: [[c, c], [c, c]]})
        expected = 40 * math.log(c) + 41 * math.log(2.0)
        assert log_norm_of_path(fam, [1] * 40) == pytest.approx(expected, rel=1e-14)


def test_estimator_memory_does_not_grow_with_n():
    fam = MatrixFamily(2, {1: [[2.0, 1.0], [1.0, 2.0]], 2: [[0.5, 0.1], [0.3, 0.9]]})
    tracemalloc.start()
    try:
        max_lyapunov(fam, uniform_bernoulli(2), 40_000, 128)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Drawing every uniform up front would take 40_000 * 128 * 8 B = 41 MB.
    assert peak < 8 * 2**20

def table_sweep_family(rng, d, k, kind):
    """k random d x d matrices: positive, sparse, vanishing across symbols, or scaled."""
    mats = rng.uniform(0.1, 3.0, (k, d, d))
    if kind == "sparse":
        mats[rng.random((k, d, d)) < 0.4] = 0.0
    elif kind == "vanishing":
        # Even symbols live on the first coordinates, odd ones on the rest:
        # a product mixing the two vanishes, at whatever level they meet.
        half = max(d // 2, 1)
        mats[0::2, half:, :] = mats[0::2, :, half:] = 0.0
        mats[1::2, :half, :] = mats[1::2, :, :half] = 0.0
    elif kind == "scaled":
        mats *= 10.0 ** rng.choice([-150.0, 150.0], (k, 1, 1))
    return mats


def test_log_norms_tables_give_the_plain_tree_bits(monkeypatch):
    built = []
    pair_table = numerics._pair_table
    monkeypatch.setattr(numerics, "_pair_table", lambda t: built.append(len(t)) or pair_table(t))
    rng = np.random.default_rng(31)
    layouts = ([256, 256, 88], [255, 1, 37], [1, 1, 1], [2], [64, 63, 2, 1], [128, 128])
    kinds = ("positive", "sparse", "vanishing", "scaled")
    for case in range(160):
        d, k = 1 + case % 8, 1 + case // 8 % 5
        samples = int(rng.integers(1, 41))
        layout = layouts[case % len(layouts)] if case % 3 else rng.integers(1, 200, 3).tolist()
        mats = table_sweep_family(rng, d, k, kinds[case % len(kinds)])
        paths = rng.integers(0, k, (samples, sum(layout)))
        if case % 5 == 0:
            # Runs of one symbol, so the vanishing family meets zero only at inner levels.
            paths = np.repeat(paths[:, :: 8], 8, axis=1)[:, : paths.shape[1]]
        cuts = np.cumsum([0] + list(layout))
        blocks = [paths[:, a:b] for a, b in zip(cuts, cuts[1:])]
        with np.errstate(over="ignore", under="ignore"):
            got = log_norms(mats, blocks, samples)
            want = plain_tree_log_norms(mats, blocks, samples)
            assert np.array_equal(got, want), (case, d, k, samples, layout)
            if not mats.reshape(k, -1).any(axis=1).all():
                continue  # a family needs a positive entry in every matrix
            fam = MatrixFamily(d, {a + 1: mats[a] for a in range(k)})
            symbols = sorted(set(paths[0].tolist()))
            path = np.searchsorted(symbols, paths[0])[None, :]
            want = plain_tree_log_norms(mats[symbols], [path], 1)[0]
            assert log_norm_of_path(fam, (paths[0] + 1).tolist()) == want, case
    # Tables of 1, 2, 3 and 4 words were built, so the sweep climbed them.
    assert {1, 2, 3, 4} <= set(built)


def test_a_block_with_more_symbols_than_nodes_builds_no_table(monkeypatch):
    monkeypatch.setattr(numerics, "_pair_table", None)
    rng = np.random.default_rng(5)
    mats = rng.uniform(0.1, 2.0, (40, 2, 2))
    paths = rng.integers(0, 40, (3, 300))
    blocks = [paths[:, :256], paths[:, 256:]]
    assert np.array_equal(log_norms(mats, blocks, 3), plain_tree_log_norms(mats, blocks, 3))


# -- pressure curves ---------------------------------------------------------------

def test_scalar_geometric_family_pressure():
    fam = MatrixFamily(
        1, lambda a: [[3.0 ** (-a)]], norm_tail=geometric_tail(3.0)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = cocycle_pressure(fam, full_shift(), [1.0], n_max=30)
    _, est = curve[0]
    assert est.converged
    assert est.value == pytest.approx(-math.log(2.0), abs=1e-6)


def test_single_matrix_pressure_is_t_log_rho():
    fam = MatrixFamily(2, SYMMETRIC)
    model = model_from_arcs([(1, 1)])
    curve = cocycle_pressure(fam, model, [0.5, 1.0, 2.0], n_max=40)
    for t, est in curve:
        assert est.value == pytest.approx(t * math.log(3.0), abs=1e-8)


def test_scalar_halves_curve_is_affine_and_decreasing():
    fam = MatrixFamily(1, {1: [[0.5]], 2: [[0.5]]})
    model = model_from_arcs([(1, 1), (1, 2), (2, 1), (2, 2)])
    curve = cocycle_pressure(fam, model, [0.0, 0.5, 1.0, 2.0], n_max=30)
    for t, est in curve:
        assert est.value == pytest.approx(
            math.log(2.0) - t * math.log(2.0), abs=1e-12
        )


def test_missing_tail_warns_but_computes():
    fam = MatrixFamily(1, lambda a: [[3.0 ** (-a)]])
    with pytest.warns(RuntimeWarning, match="truncations only"):
        curve = cocycle_pressure(fam, full_shift(), [1.0], n_max=12)
    assert curve[0][1].value == pytest.approx(-math.log(2.0), abs=1e-4)


def test_listed_family_sums_only_its_symbols():
    # Two listed symbols on the countable full shift: the potential defines
    # no other, so their norms are the whole sum and no tail is missing.
    fam = MatrixFamily(2, [SYMMETRIC[1], SYMMETRIC[1]])
    p = cocycle_potential(fam, full_shift())
    assert p.defined_symbols == (1, 2)
    report = potentials.summability_report(p)
    assert (report.partial_sum, report.tail_bound, report.total_bound) == (12.0, 0.0, 12.0)
    assert report.verdict == "summable"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = cocycle_pressure(fam, full_shift(), [1.0], m_list=[2])
    est = gurevich_pressure(full_shift(), p, m_list=[2])
    assert curve[0][1].value == est.value
    assert curve[0][1].value == pytest.approx(math.log(6.0), abs=1e-6)
    # A callable family defines every symbol and keeps the probe.
    assert cocycle_potential(MatrixFamily(2, lambda a: SYMMETRIC[1]), full_shift()).defined_symbols is None


def test_degenerating_family_fails_cone_preflight():
    fam = MatrixFamily(2, lambda a: [[1.0, 4.0 ** (-a)], [1.0, 1.0]])
    with pytest.raises(ValueError, match="cone condition"):
        cocycle_pressure(fam, full_shift(), [1.0])


# -- structural invariants ----------------------------------------------------------

def mixed_family():
    return MatrixFamily(
        2,
        {
            1: np.array([[2.0, 1.0], [1.0, 2.0]]),
            2: np.array([[1.0, 0.5], [0.5, 3.0]]),
            3: np.array([[0.3, 0.2], [0.1, 0.4]]),
        },
    )


def complete_model(k):
    return model_from_arcs([(i + 1, j + 1) for i in range(k) for j in range(k)])


def cone_families():
    """(family, model, k) for the families the tests here build.

    The cone report probes the model's first k symbols: every listed symbol
    the model has, or the first 16 for a callable family.
    """
    degenerating = {1: [[1.0, 0.5], [0.5, 1.0]], 2: [[1.0, 1e-3], [1.0, 1.0]]}
    return [
        (MatrixFamily(2, SYMMETRIC), model_from_arcs([(1, 1)]), 1),
        (mixed_family(), complete_model(3), 3),
        (MatrixFamily(2, lambda a: [[1.0, 4.0 ** (-a)], [1.0, 1.0]]), complete_model(20), 16),
        (mixed_family(), model_from_arcs([(1, 2), (2, 1), (2, 2)]), 2),
        (MatrixFamily(1, {1: [[0.5]], 2: [[0.5]]}), full_shift(), 2),
        (MatrixFamily(1, lambda a: [[3.0 ** (-a)]]), full_shift(), 16),
        (MatrixFamily(2, lambda a: [[1.0, 4.0 ** (-a)], [1.0, 1.0]]), full_shift(), 16),
        (MatrixFamily(2, lambda a: np.array([[1.0, 0.5], [0.5, 2.0]]) * a), golden_mean_shift(), 2),
        (MatrixFamily(2, degenerating), full_shift(), 2),
        (MatrixFamily(2, lambda a: [[1.0, 4.0 ** (-a)], [1.0, 1.0]]), complete_model(3), 3),
        (mixed_family(), golden_mean_shift(), 2),
    ]


@pytest.mark.parametrize("family, model, k", cone_families())
def test_cocycle_cone_is_the_report_on_the_probed_symbols(family, model, k):
    p = cocycle_potential(family, model)
    assert p.probe == model.symbols_for(k)
    report = check_cone_condition(family, p.probe)
    assert p.cone.best_C == report.best_C
    # A probe of the whole family or finite model is uniform whenever the
    # constant is positive; only a sample of a larger family is judged by
    # the degeneration heuristic.
    whole = family.symbols is not None or k == model.alphabet_size
    assert p.cone.uniform == (whole or report.uniform)
    # The constant as the potential computed it in a loop of its own.
    ratios = [family.matrix(a).min() / family.matrix(a).max() for a in p.probe]
    assert p.declared_C.hex() == (-math.log(min(ratios) / family.d)).hex()


def test_listed_family_declares_its_constant_from_every_matrix():
    # Twenty listed matrices on the complete graph: the last one alone has
    # entry ratio 1e-3, so C = -log(1e-3 / 2), whatever the first sixteen say.
    family = MatrixFamily(2, [[[2.0, 1.0], [1.0, 2.0]]] * 19 + [[[1.0, 1e-3], [1.0, 1.0]]])
    model = complete_model(20)
    p = cocycle_potential(family, model)
    assert p.probe == list(range(1, 21))
    assert p.cone.uniform and p.cone.best_C == 0.0005
    assert p.declared_C == -math.log(0.0005)
    # The column-sum bound adds that C to the transfer norm; on this finite
    # alphabet the Collatz-Wielandt bound, which needs no C, is the smaller.
    [(_, est)] = cocycle_pressure(family, model, [1.0], m_list=[20], n_max=4)
    assert est.lower <= est.value <= est.upper
    assert est.upper == est.series.bracket[2] < -math.log(0.0005) + est.series.log_norm


def test_listed_family_on_a_countable_model_probes_its_own_symbols():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    B = np.array([[1.0, 0.5], [0.5, 3.0]])
    p = cocycle_potential(MatrixFamily(2, [A, B]), full_shift())
    assert p.cone.uniform and p.probe == [1, 2]
    est = gurevich_pressure(full_shift(), p, m_list=[2])
    rho = max(abs(np.linalg.eigvals(A + B)))
    assert abs(est.value - math.log(rho)) <= 1e-8


def test_cocycle_pressure_runs_one_cone_pass(monkeypatch):
    calls = []

    def counting(family, symbols):
        calls.append(list(symbols))
        return check_cone_condition(family, symbols)

    monkeypatch.setattr(potentials, "check_cone_condition", counting)
    model = model_from_arcs([(i + 1, j + 1) for i in range(3) for j in range(3)])
    cocycle_pressure(mixed_family(), model, [0.5, 1.0], m_list=[3], n_max=8)
    assert calls == [[1, 2, 3]]


def test_short_family_names_itself_and_the_symbol():
    fam = MatrixFamily(2, SYMMETRIC, name="pair")
    p = cocycle_potential(fam, full_shift())
    assert gurevich_pressure(full_shift(), p, m_list=[1]).value == pytest.approx(math.log(3.0))
    with pytest.raises(ValueError, match="^pair: no entry for symbol 2$"):
        gurevich_pressure(full_shift(), p, m_list=[1, 2])
    with pytest.raises(ValueError, match="^pair: no entry for symbol 2$"):
        cocycle_pressure(fam, golden_mean_shift(), [1.0])
    # A list that has none of the model's symbols is probed on the first one.
    with pytest.raises(ValueError, match="^pair: no entry for symbol 1$"):
        cocycle_potential(MatrixFamily(2, {5: SYMMETRIC[1]}, name="pair"), golden_mean_shift())


def test_log_norm_subadditive_over_all_short_words():
    fam = mixed_family()
    prods = {(): np.eye(2)}
    for n in range(1, 9):
        for w in [w for w in prods if len(w) == n - 1]:
            for b in (1, 2, 3):
                prods[w + (b,)] = fam.matrix(b) @ prods[w]
    log_norm = {w: math.log(p.sum()) for w, p in prods.items() if w}
    for w in log_norm:
        for k in range(1, len(w)):
            gap = log_norm[w[:k]] + log_norm[w[k:]] - log_norm[w]
            assert gap >= -1e-9


def test_renormalized_products_match_exact_rationals():
    mats_frac = {
        1: [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]],
        2: [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]],
    }
    fam = MatrixFamily(
        2, {a: [[float(x) for x in r] for r in m] for a, m in mats_frac.items()}
    )
    rng = np.random.default_rng(3)
    for _ in range(30):
        length = int(rng.integers(1, 21))
        word = [int(rng.integers(1, 3)) for _ in range(length)]
        prod = mats_frac[word[0]]
        for b in word[1:]:
            prod = [
                [sum(mats_frac[b][i][k] * prod[k][j] for k in range(2))
                 for j in range(2)]
                for i in range(2)
            ]
        total = sum(prod[i][j] for i in range(2) for j in range(2))
        exact = math.log(total.numerator) - math.log(total.denominator)
        assert abs(log_norm_of_path(fam, word) - exact) < 1e-10


def test_cone_family_regularity_bounded_across_depths():
    single_model = model_from_arcs([(1, 1)])
    p1 = cocycle_potential(MatrixFamily(2, SYMMETRIC), single_model)
    depths = (4, 6, 8, 10, 12)
    chats1 = [
        estimate_regularity(
            p1, single_model, depth=d, samples=50, seed=0, truncation=1
        ).C_hat
        for d in depths
    ]
    # Powers of the symmetric matrix have entry sums exactly 2 * 3^n, so the
    # defect at every split is exactly log 2.
    for c in chats1:
        assert c == pytest.approx(math.log(2.0), abs=1e-12)
    model3 = complete_model(3)
    p3 = cocycle_potential(mixed_family(), model3)
    chats3 = [
        estimate_regularity(
            p3, model3, depth=d, samples=200, seed=0, truncation=3
        ).C_hat
        for d in depths
    ]
    for a, b in zip(chats3, chats3[1:]):
        assert b <= a + 1e-6


def test_pressure_dominates_entropy_plus_exponent():
    rng = np.random.default_rng(42)
    margins = []
    checked = 0
    while checked < 50:
        size = int(rng.integers(2, 5))
        mat = (rng.random((size, size)) < 0.7).astype(int)
        mat[0, :] = 1
        mat[:, 0] = 1
        arcs = [
            (i + 1, j + 1) for i in range(size) for j in range(size) if mat[i, j]
        ]
        model = model_from_arcs(arcs)
        sub = truncate(model, size)
        d = int(rng.integers(1, 4))
        fam = MatrixFamily(d, {s: rng.uniform(0.3, 3.0, (d, d)) for s in sub.symbols})
        curve = cocycle_pressure(
            fam, model, [1.0], m_list=[size], n_max=40, slope_window=6
        )
        P = curve[0][1].value
        mu = random_stationary_markov(sub, rng)
        est = max_lyapunov(fam, mu, 200, 30, seed=1000 + checked)
        margin = P - (
            entropy_markov(mu) + est.lambda_hat - 3.0 * est.standard_error
        )
        margins.append(margin)
        checked += 1
    assert min(margins) >= 0.0
