"""Tests for cylinder measures, Gibbs certificates, and the variational bound.

The transfer-matrix equilibrium (eigendata of the arc-weighted matrix) is the
oracle for pressures and measures; certificates are checked against hand
computations on the golden-mean and full shifts.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from thermoshift import gibbs, shift_core
from thermoshift.gibbs import (
    MarkovCylinderMeasure,
    MeasureKindError,
    bernoulli_measure,
    count_admissible_words,
    entropy_markov,
    finite_gibbs_nu,
    iter_admissible_words,
    lyapunov_functional,
    markov_measure,
    rpf_equilibrium,
    uniform_bernoulli,
    variational_defect,
    verify_gibbs,
)
from thermoshift.matrix_cocycle import _sample_paths
from thermoshift.potentials import (
    birkhoff_potential,
    cocycle_potential,
    fiber_count_potential,
    weighted_fullshift_potential,
    zero_potential,
)
from thermoshift.shift_core import (
    EnumerationBudgetError,
    NonMixingTruncationError,
    full_shift,
    golden_mean_shift,
    model_from_arcs,
    star_shift,
    truncate,
)

from helpers import (
    DictMarkovMasses,
    admits_word,
    certificate_rows,
    dict_bernoulli_measure,
    dict_entropy_markov,
    dict_lyapunov_functional,
    dict_markov_measure,
    dict_rpf_equilibrium,
    dict_uniform_bernoulli,
    explicit_gibbs_masses,
    extreme_rows,
    log_mass_plus_n_pressure,
    random_mixing_subshift,
    random_stationary_kernel,
    random_stationary_markov,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


# -- word iteration ----------------------------------------------------------

def test_admissible_word_iteration_and_count():
    sub = truncate(golden_mean_shift(), 2)
    words = list(iter_admissible_words(sub, 3))
    assert words == [
        (1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 1, 2)
    ]
    assert count_admissible_words(sub, 3) == 5
    for n in range(1, 10):
        assert count_admissible_words(sub, n) == len(
            list(iter_admissible_words(sub, n))
        )


# -- finite-approximation measures --------------------------------------------

def test_finite_gibbs_uniform_on_full_shift():
    sub = truncate(full_shift(), 2)
    nu = finite_gibbs_nu(sub, zero_potential(full_shift()), 2)
    for w in iter_admissible_words(sub, 2):
        assert nu.mass(w) == pytest.approx(0.25, abs=1e-15)


def test_finite_gibbs_golden_mean_thirds():
    sub = truncate(golden_mean_shift(), 2)
    nu = finite_gibbs_nu(sub, zero_potential(golden_mean_shift()), 2)
    for w in [(1, 1), (1, 2), (2, 1)]:
        assert nu.mass(w) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert nu.mass((2, 2)) == 0.0


def test_finite_gibbs_level_one_normalizes_weights():
    lam = {1: 2.0 / 3.0, 2: 1.0 / 3.0}
    p = birkhoff_potential(lambda i, j: math.log(lam[i]), full_shift())
    sub = truncate(full_shift(), 2)
    nu = finite_gibbs_nu(sub, p, 1)
    assert nu.mass((1,)) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert nu.mass((2,)) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_finite_gibbs_marginal_consistency_and_normalization():
    sub = truncate(golden_mean_shift(), 2)
    p = birkhoff_potential(lambda i, j: 0.2 * i - 0.5 * j, golden_mean_shift())
    nu = finite_gibbs_nu(sub, p, 6)
    for n in range(1, 7):
        total = math.fsum(nu.mass(w) for w in iter_admissible_words(sub, n))
        assert total == pytest.approx(1.0, abs=1e-12)
        assert nu.level_mass_total(n) == pytest.approx(1.0, abs=1e-12)
    for n in range(1, 6):
        for w in iter_admissible_words(sub, n):
            children = math.fsum(
                nu.mass(w + (j,)) for j in sub.out_neighbors(w[-1])
            )
            assert nu.mass(w) == pytest.approx(children, abs=1e-12)


def test_pair_recursion_matches_explicit_enumeration():
    gm = golden_mean_shift()
    cases = [
        (truncate(full_shift(), 5), weighted_fullshift_potential(lambda a: 3.0 ** (-a))),
        # The sup over the last hop of this one depends on the next symbol.
        (truncate(gm, 2), birkhoff_potential(lambda i, j: 0.2 * i - 0.5 * j, gm).scaled(-0.7)),
    ]
    for sub, p in cases:
        recursive = finite_gibbs_nu(sub, p, 6)
        assert recursive.strategy == "pair"
        explicit = explicit_gibbs_masses(sub, p, 6)
        for n in (1, 2, 4, 6):
            words = list(iter_admissible_words(sub, n))
            assert set(words) == {w for w in explicit if len(w) == n}
            for w in words:
                assert recursive.log_mass(w) == pytest.approx(
                    math.log(explicit[w]), abs=1e-12
                )
        for n in range(1, 7):
            assert recursive.level_mass_total(n) == pytest.approx(1.0, abs=1e-12)


def test_pair_recursion_stays_finite_at_deep_levels():
    # An unnormalized arc product (3^-60)^40 underflows to zero.
    sub = truncate(full_shift(), 60)
    p = weighted_fullshift_potential(lambda a: 3.0 ** (-a))
    nu = finite_gibbs_nu(sub, p, 40, cap=10)
    assert nu.strategy == "pair"
    log_s = math.log(math.fsum(3.0 ** (-b) for b in sub.symbols))
    for n in range(1, 41):
        assert nu.level_mass_total(n) == pytest.approx(1.0, abs=1e-12)
        for a in (1, 60):
            # The measure is Bernoulli: each symbol weighs 3^-a / sum of 3^-b.
            expected = n * (-a * math.log(3.0) - log_s)
            assert nu.log_mass((a,) * n) == pytest.approx(expected, rel=1e-12)


def test_block_recursion_matches_explicit_enumeration():
    sub = truncate(golden_mean_shift(), 2)
    mats = {
        1: np.array([[2.0, 1.0], [1.0, 2.0]]),
        2: np.array([[1.0, 0.5], [0.5, 3.0]]),
    }
    p = cocycle_potential(lambda a: mats[a], golden_mean_shift())
    recursive = finite_gibbs_nu(sub, p, 8)
    assert recursive.strategy == "block"
    explicit = explicit_gibbs_masses(sub, p, 8)
    for n in (1, 3, 5, 8):
        words = list(iter_admissible_words(sub, n))
        assert set(words) == {w for w in explicit if len(w) == n}
        for w in words:
            assert recursive.log_mass(w) == pytest.approx(
                math.log(explicit[w]), abs=1e-12
            )
    assert recursive.level_mass_total(8) == pytest.approx(1.0, abs=1e-12)


def test_explicit_route_serves_potentials_without_an_operator():
    sub = truncate(star_shift(), 4)
    p = fiber_count_potential()
    level = 5
    total = count_admissible_words(sub, level)
    nu = finite_gibbs_nu(sub, p, level, cap=total)
    assert nu.strategy == "explicit"
    explicit = explicit_gibbs_masses(sub, p, level)
    for n in range(1, level + 1):
        assert nu.level_mass_total(n) == pytest.approx(1.0, abs=1e-12)
        for w in iter_admissible_words(sub, n):
            assert nu.mass(w) == pytest.approx(explicit[w], rel=1e-12)
            if n < level:
                children = math.fsum(nu.mass(w + (j,)) for j in sub.out_neighbors(w[-1]))
                assert nu.mass(w) == pytest.approx(children, rel=1e-12)
    with pytest.raises(EnumerationBudgetError, match="beyond the enumeration cap"):
        finite_gibbs_nu(sub, p, level, cap=total - 1)


# -- transfer-matrix equilibrium ------------------------------------------------

def test_rpf_golden_mean_maximal_entropy():
    sub = truncate(golden_mean_shift(), 2)
    P, mu = rpf_equilibrium(sub, zero_potential(golden_mean_shift()))
    assert P == pytest.approx(math.log(PHI), abs=1e-13)
    assert mu.transition(1, 1) == pytest.approx(1.0 / PHI, abs=1e-12)
    assert mu.transition(1, 2) == pytest.approx(1.0 / PHI ** 2, abs=1e-12)
    assert mu.transition(2, 1) == pytest.approx(1.0, abs=1e-12)
    assert mu.pi(1) == pytest.approx(PHI ** 2 / (1.0 + PHI ** 2), abs=1e-10)


def test_rpf_rank_one_gives_bernoulli():
    sub = truncate(full_shift(), 2)
    lam = {1: 2.0 / 3.0, 2: 1.0 / 3.0}
    f = lambda i, j: math.log(lam[j])
    P, mu = rpf_equilibrium(sub, birkhoff_potential(f, full_shift()))
    assert P == pytest.approx(0.0, abs=1e-12)
    for i in (1, 2):
        for j in (1, 2):
            assert mu.transition(i, j) == pytest.approx(lam[j], abs=1e-12)
        assert mu.pi(i) == pytest.approx(lam[i], abs=1e-12)
    # A bare arc function is not a potential, and a potential without pair
    # structure is refused.
    with pytest.raises(TypeError, match="takes a potential"):
        rpf_equilibrium(sub, f)
    with pytest.raises(ValueError, match="no pair structure"):
        rpf_equilibrium(sub, fiber_count_potential())


def test_rpf_uniform_full_shift():
    sub = truncate(full_shift(), 4)
    P, mu = rpf_equilibrium(sub, zero_potential(full_shift()))
    assert P == pytest.approx(math.log(4.0), abs=1e-12)
    assert mu.pi(3) == pytest.approx(0.25, abs=1e-12)
    assert mu.transition(2, 4) == pytest.approx(0.25, abs=1e-12)


def test_rpf_requires_mixing():
    model = model_from_arcs([(1, 2), (2, 1)])
    with pytest.raises(NonMixingTruncationError):
        rpf_equilibrium(truncate(model, 2), zero_potential(model))


def test_rpf_shift_invariance_under_constant():
    gm = golden_mean_shift()
    sub = truncate(gm, 2)
    P0, mu0 = rpf_equilibrium(sub, zero_potential(gm))
    P1, mu1 = rpf_equilibrium(sub, birkhoff_potential(lambda i, j: 0.7, gm))
    assert P1 - P0 == pytest.approx(0.7, abs=1e-12)
    for i in (1, 2):
        for j in (1, 2):
            assert mu1.transition(i, j) == pytest.approx(
                mu0.transition(i, j), abs=1e-10
            )


# -- measure validation -----------------------------------------------------------

def test_markov_measure_rejects_bad_data():
    sub = truncate(full_shift(), 2)
    with pytest.raises(ValueError, match="not stationary"):
        markov_measure((1, 2), [0.5, 0.5], [[0.9, 0.1], [0.5, 0.5]], sub)
    with pytest.raises(ValueError, match="sums to"):
        markov_measure((1, 2), [0.7, 0.7], [[0.5, 0.5], [0.5, 0.5]], sub)
    gm_sub = truncate(golden_mean_shift(), 2)
    # A Bernoulli kernel restricted to the golden-mean graph loses the 2->2
    # mass, so it fails as a non-stochastic row.
    with pytest.raises(ValueError, match="sums to"):
        bernoulli_measure({1: 0.5, 2: 0.5}, gm_sub)
    with pytest.raises(ValueError, match="admissible arc"):
        markov_measure((1, 2), [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], gm_sub)


def test_markov_measure_accepts_zero_probability_symbol():
    # Symbol 2 has pi = 0 but an arc into symbol 1; the measure is stationary.
    mu = markov_measure((1, 2), [1.0, 0.0], [[1.0, 0.0], [1.0, 0.0]])
    assert mu.pi(1) == 1.0 and mu.pi(2) == 0.0
    assert math.isfinite(entropy_markov(mu))


def test_lyapunov_functional_skips_zero_probability_symbol():
    # Only the arc 1 -> 1 carries mass, with value 0.3 - 0.1.
    mu = markov_measure((1, 2), [1.0, 0.0], [[1.0, 0.0], [1.0, 0.0]], truncate(full_shift(), 2))
    p = birkhoff_potential(lambda i, j: 0.3 * i - 0.1 * j, full_shift())
    assert lyapunov_functional(mu, p, 4) == pytest.approx(0.2, abs=1e-15)
    h = entropy_markov(mu)
    assert variational_defect(mu, p, 1.0, 4) == pytest.approx(1.0 - h - 0.2, abs=1e-15)


def test_markov_measure_checks_its_arrays():
    full2 = [[0.5, 0.5], [0.5, 0.5]]
    for pi in ([1.0], [0.5, 0.5, 0.0], [[0.5, 0.5]], [0.5, math.nan], {1: 0.5, 2: 0.5}):
        with pytest.raises(ValueError, match=r"^pi must be .* shape \(2,\)"):
            markov_measure((1, 2), pi, full2)
    bad_p = ([0.5, 0.5], [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[1.0], [0.5, 0.5]],
             [[0.5, math.inf], [0.5, 0.5]], [[0.5, 0.5], [math.nan, 1.0]], [[10 ** 400, 0], [0, 1]],
             "p")
    for p in bad_p:
        with pytest.raises(ValueError, match=r"^p must be .* shape \(2, 2\)"):
            markov_measure((1, 2), [0.5, 0.5], p)
    # Row 2 of this arc dict summed to 1 only through symbol 3, outside the
    # measure, and sampling from it failed; a (k, k) matrix has no such arc.
    with pytest.raises(ValueError, match="^pi must be"):
        markov_measure((1, 2), {1: 1.0, 2: 0.0}, {(1, 1): 1.0, (2, 3): 1.0})
    with pytest.raises(ValueError, match="row of symbol 2 sums to 0"):
        markov_measure((1, 2), [1.0, 0.0], [[1.0, 0.0], [0.0, 0.0]])


# -- the array form against the dict form it replaced ----------------------------


def _dict_measure_cases():
    """(name, array measure, dict measure, model, sub), each pair from the same inputs."""
    full = full_shift()
    for m in (1, 2, 3, 4, 5, 64):
        sub = truncate(full, m)
        yield f"uniform_{m}", uniform_bernoulli(m), dict_uniform_bernoulli(m), full, sub
    # Symbol 2 has probability 0, and the truncation has symbols the measure lacks.
    probs, sub5 = {1: 0.5, 2: 0.0, 3: 0.2, 4: 0.3}, truncate(full, 5)
    yield ("bernoulli_zero", bernoulli_measure(probs, sub5), dict_bernoulli_measure(probs, sub5),
           full, sub5)
    rng = np.random.default_rng(41)
    for k in range(4):
        model, sub = random_mixing_subshift(rng, max_symbols=6)
        pi, kernel = random_stationary_kernel(sub, rng)
        ref = dict_markov_measure(
            sub.symbols,
            {s: float(pi[i]) for i, s in enumerate(sub.symbols)},
            {(a, b): float(kernel[i, j]) for i, a in enumerate(sub.symbols)
             for j, b in enumerate(sub.symbols) if kernel[i, j] > 0},
            sub,
        )
        yield f"markov_{k}", markov_measure(sub.symbols, pi, kernel, sub), ref, model, sub
    for k in range(4):
        model, sub = random_mixing_subshift(rng, max_symbols=6)
        table = rng.uniform(-2.0, 2.0, (sub.size, sub.size))
        p = birkhoff_potential(lambda i, j, t=table: float(t[i - 1, j - 1]), model)
        (P, mu), (P_ref, ref) = rpf_equilibrium(sub, p), dict_rpf_equilibrium(sub, p)
        assert P == P_ref
        yield f"rpf_{k}", mu, ref, model, sub


@pytest.mark.parametrize("case", list(_dict_measure_cases()), ids=lambda c: c[0])
def test_array_measure_matches_the_dict_form_bit_for_bit(case, monkeypatch):
    _, mu, ref, model, sub = case
    assert mu.symbols == ref.symbols
    assert mu.log_pi.tolist() == [ref.log_pi.get(s, -math.inf) for s in mu.symbols]
    assert mu.log_p.tolist() == [
        [ref.log_p.get((a, b), -math.inf) for b in mu.symbols] for a in mu.symbols
    ]
    assert np.array_equal(mu.p, ref.p)
    # The first six symbols and one outside the truncation.
    symbols = sub.symbols[:6] + (sub.symbols[-1] + 1,)
    assert [mu.pi(a) for a in symbols] == [ref.pi(a) for a in symbols]
    pairs = list(itertools.product(symbols, repeat=2))
    assert [mu.transition(*w) for w in pairs] == [ref.transition(*w) for w in pairs]
    for n in range(1, 5):
        words = list(itertools.product(symbols, repeat=n))
        assert [mu.log_mass(w) for w in words] == [ref.log_mass(w) for w in words]
    assert entropy_markov(mu) == dict_entropy_markov(ref)
    p = birkhoff_potential(lambda i, j: 0.3 * i - 0.2 * j + 0.05 * i * j, model)
    for n in (1, 3):
        assert lyapunov_functional(mu, p, n) == dict_lyapunov_functional(ref, p, n)
    depth = 3 if sub.size <= 6 else 2
    cert, rows = verify_gibbs(mu, p, 0.4, depth, sub=sub), certificate_rows(mu, p, 0.4, depth, sub)
    monkeypatch.setattr(gibbs, "_cylinder_masses", DictMarkovMasses)
    assert verify_gibbs(ref, p, 0.4, depth, sub=sub) == cert
    assert certificate_rows(ref, p, 0.4, depth, sub) == rows
    blocks = list(_sample_paths(mu, 300, 5, 7))
    ref_blocks = list(_sample_paths(ref, 300, 5, 7))
    assert len(blocks) == len(ref_blocks) == 2
    assert all(np.array_equal(b, r) for b, r in zip(blocks, ref_blocks))


# -- certificates -----------------------------------------------------------------

def test_uniform_bernoulli_certificate_is_exactly_one():
    for m in (2, 3, 5):
        mu = uniform_bernoulli(m)
        cert = verify_gibbs(mu, zero_potential(full_shift()), math.log(m), depth=4)
        assert cert.ratio_min == 1.0
        assert cert.ratio_max == 1.0
        assert cert.passed


def test_golden_mean_certificate_bounded_spread():
    gm = golden_mean_shift()
    sub = truncate(gm, 2)
    spreads = []
    for l in (8, 10, 12):
        nu = finite_gibbs_nu(sub, zero_potential(gm), l)
        cert = verify_gibbs(
            nu, zero_potential(gm), math.log(PHI), depth=8,
            sub=sub, ratio_bound=3.0,
        )
        assert cert.passed
        spreads.append(cert.ratio_max / cert.ratio_min)
    # Spread stays under the bound and tightens toward the eigenvector
    # constant as the approximation level grows.
    assert max(spreads) <= 3.0
    assert spreads == sorted(spreads, reverse=True)
    assert spreads[-1] == pytest.approx(PHI, abs=0.01)


def test_certificate_fails_on_zero_mass_cylinder():
    sub3 = truncate(full_shift(), 3)
    mu = bernoulli_measure({1: 0.6, 2: 0.4}, truncate(full_shift(), 2))
    cert = verify_gibbs(
        mu, zero_potential(full_shift()), math.log(3.0), depth=2, sub=sub3
    )
    assert not cert.passed
    assert cert.ratio_min == 0.0


def test_rpf_measure_certifies_against_its_own_pressure():
    sub = truncate(golden_mean_shift(), 2)
    p = birkhoff_potential(lambda i, j: 0.3 * i - 0.4 * j, golden_mean_shift())
    P, mu = rpf_equilibrium(sub, p)
    cert = verify_gibbs(mu, p, P, depth=8, sub=sub, ratio_bound=50.0)
    assert cert.passed
    # Markov-Gibbs identity: ratios are controlled by the eigenvector spread
    # (squared) and a single sup-versus-pointwise hop, uniformly in depth.
    cert4 = verify_gibbs(mu, p, P, depth=4, sub=sub, ratio_bound=50.0)
    assert cert.ratio_max / cert.ratio_min == pytest.approx(
        cert4.ratio_max / cert4.ratio_min, rel=1e-9
    )


def test_certificate_row_sink_sees_every_word():
    # The certificate tests every word and keeps two rows of positive mass a length.
    sub = truncate(golden_mean_shift(), 2)
    nu = finite_gibbs_nu(sub, zero_potential(golden_mean_shift()), 4)
    cert = verify_gibbs(nu, zero_potential(golden_mean_shift()), math.log(PHI), depth=3, sub=sub)
    assert cert.words_tested == 2 + 3 + 5
    for rows in (cert.least, cert.largest):
        assert [r[0] for r in rows] == [1, 2, 3]
        assert all(len(r[1]) == r[0] and r[2] > 0 for r in rows)


def _per_word_certificate(mu, p, P, depth, sub, ratio_bound=100.0):
    """Reference scan, one word at a time: (rows, ratio_min, ratio_max, words tested, passed)."""
    rows = []
    log_lo, log_hi = math.inf, -math.inf
    zero_mass_hit = False
    tested = 0
    for n in range(1, depth + 1):
        for w in itertools.product(sub.symbols, repeat=n):
            if not admits_word(sub, w):
                continue
            weight = p.cylinder_log_weight(w, sub)
            if isinstance(mu, MarkovCylinderMeasure):
                numer = log_mass_plus_n_pressure(mu, w, P)
            else:
                numer = mu.log_mass(w) + n * P
            tested += 1
            if numer == -math.inf:
                if weight > -math.inf:
                    zero_mass_hit = True
                    rows.append((n, w, 0.0, weight, 0.0))
                continue
            log_lo, log_hi = min(log_lo, numer - weight), max(log_hi, numer - weight)
            rows.append((n, w, mu.mass(w), weight, math.exp(numer - weight)))
    ratio_min = 0.0 if zero_mass_hit else math.exp(log_lo)
    ratio_max = math.exp(log_hi)
    passed = (not zero_mass_hit and math.isfinite(ratio_max) and ratio_min > 0
              and ratio_max / ratio_min <= ratio_bound)
    return rows, ratio_min, ratio_max, tested, passed


def _certificate_cases():
    gm, full = golden_mean_shift(), full_shift()
    sub2, sub3 = truncate(full, 2), truncate(full, 3)
    # Level 12 spans two walk slices, so the walk interleaves levels 12 and 13.
    yield "uniform_bernoulli", uniform_bernoulli(2), zero_potential(full), math.log(2.0), 13, sub2
    p = birkhoff_potential(lambda i, j: 0.3 * i - 0.4 * j, gm)
    P, mu = rpf_equilibrium(truncate(gm, 2), p)
    yield "rpf_markov", mu, p, P, 7, truncate(gm, 2)
    table = np.random.default_rng(5).uniform(-0.5, 0.5, (3, 3))
    p = birkhoff_potential(lambda i, j: float(table[i - 1, j - 1]), full)
    P = math.log(np.abs(np.linalg.eigvals(np.exp(table))).max())
    yield "pair_transfer", finite_gibbs_nu(sub3, p, 6), p, P, 5, sub3
    # At t < 0 the best closing hop is the smallest arc value of the base.
    p = birkhoff_potential(lambda i, j: 0.2 * i - 0.5 * j, gm).scaled(-0.7)
    yield "scaled_pair", finite_gibbs_nu(truncate(gm, 2), p, 6), p, 0.3, 5, truncate(gm, 2)
    p = weighted_fullshift_potential(lambda a: 3.0 ** (-a))
    yield "symbol_weight", finite_gibbs_nu(truncate(full, 4), p, 5), p, -1.2, 4, truncate(full, 4)
    mats = {1: np.array([[2.0, 1.0], [1.0, 2.0]]), 2: np.array([[1.0, 0.5], [0.5, 3.0]])}
    p = cocycle_potential(lambda a: mats[a], gm)
    yield "block_transfer", finite_gibbs_nu(truncate(gm, 2), p, 8), p, 1.1, 6, truncate(gm, 2)
    star = truncate(star_shift(), 4)
    p = fiber_count_potential()
    yield "fiber_explicit", finite_gibbs_nu(star, p, 5), p, 0.4, 4, star
    mu = bernoulli_measure({1: 0.6, 2: 0.4}, sub2)
    yield "zero_mass", mu, zero_potential(full), math.log(3.0), 3, sub3
    # exp(-800) underflows: the measure loses the arc 1 -> 2, the weight keeps it.
    p = birkhoff_potential(lambda i, j: -800.0 if (i, j) == (1, 2) else 0.1 * (i + j), full)
    yield "underflow_arc", finite_gibbs_nu(sub2, p, 5), p, 0.2, 4, sub2
    # An arc of value -inf: the words through it weigh 0 and have ratio inf.
    p = birkhoff_potential(lambda i, j: -math.inf if (i, j) == (1, 2) else 0.1 * (i + j), full)
    yield "neg_inf_arc", bernoulli_measure({1: 0.5, 2: 0.3, 3: 0.2}), p, 1.0, 3, sub3


@pytest.mark.parametrize("case", list(_certificate_cases()), ids=lambda c: c[0])
def test_batched_certificate_matches_per_word_scan(case):
    name, mu, p, P, depth, sub = case
    cert = verify_gibbs(mu, p, P, depth, sub=sub)
    pairs = certificate_rows(mu, p, P, depth, sub)
    rows = [row for row, _ in pairs]
    expected, ratio_min, ratio_max, tested, passed = _per_word_certificate(mu, p, P, depth, sub)
    assert cert.words_tested == tested
    assert cert.passed == passed
    assert cert.ratio_min == pytest.approx(ratio_min, rel=1e-13, abs=0.0)
    assert cert.ratio_max == pytest.approx(ratio_max, rel=1e-13, abs=0.0)
    extremes = extreme_rows(pairs)
    assert list(cert.least) == extremes[::2] and list(cert.largest) == extremes[1::2]
    assert [r[:2] for r in rows] == [r[:2] for r in expected]
    for got, want in zip(rows, expected):
        assert got[2] == pytest.approx(want[2], rel=1e-13, abs=0.0)
        assert got[3] == pytest.approx(want[3], rel=1e-13, abs=1e-13)
        assert got[4] == pytest.approx(want[4], rel=1e-13, abs=0.0)
    if name == "uniform_bernoulli":
        assert {r[4] for r in rows} == {1.0}
    if name in ("zero_mass", "underflow_arc"):
        assert not cert.passed and cert.ratio_min == 0.0
        assert any(r[2] == 0.0 and math.isfinite(r[3]) for r in rows)
    if name == "neg_inf_arc":
        assert not cert.passed and cert.ratio_max == math.inf
        assert cert.ratio_min == pytest.approx(0.0266, abs=1e-4)
        assert [r[1] for r in cert.largest] == [(1,), (1, 2), (1, 1, 2)]


def test_certificate_memory_is_bounded_by_the_walk():
    mu = uniform_bernoulli(2)
    depth = 17
    # The last level holds 2**17 words, far more than one slice may hold.
    assert 2 ** depth >= 64 * shift_core._FRONTIER
    tracemalloc.start()
    try:
        cert = verify_gibbs(mu, zero_potential(full_shift()), math.log(2.0), depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.words_tested == 2 ** (depth + 1) - 2
    assert cert.ratio_min == cert.ratio_max == 1.0
    # Measured 2.0 MB with the words carried (0.8 MB without); a walk holding
    # whole levels peaks near 62 MB.
    assert peak < 5e6, f"peak {peak / 1e6:.1f} MB"


# -- entropy and the variational inequality ------------------------------------------

def test_entropy_examples():
    assert entropy_markov(uniform_bernoulli(2)) == pytest.approx(
        math.log(2.0), abs=1e-15
    )
    mu = bernoulli_measure({1: 2.0 / 3.0, 2: 1.0 / 3.0})
    expected = (2.0 / 3.0) * math.log(1.5) + (1.0 / 3.0) * math.log(3.0)
    assert entropy_markov(mu) == pytest.approx(expected, abs=1e-14)
    assert expected == pytest.approx(0.636514, abs=1e-6)
    sub = truncate(golden_mean_shift(), 2)
    _, mu_gm = rpf_equilibrium(sub, zero_potential(golden_mean_shift()))
    assert entropy_markov(mu_gm) == pytest.approx(math.log(PHI), abs=1e-12)


def test_entropy_requires_markov_kind():
    sub = truncate(golden_mean_shift(), 2)
    nu = finite_gibbs_nu(sub, zero_potential(golden_mean_shift()), 3)
    with pytest.raises(MeasureKindError):
        entropy_markov(nu)


def test_lyapunov_zero_potential_is_zero():
    mu = uniform_bernoulli(2)
    for n in (1, 5, 17):
        assert lyapunov_functional(mu, zero_potential(full_shift()), n) == 0.0


def test_lyapunov_bernoulli_weighted_arcs():
    lam = {1: 2.0 / 3.0, 2: 1.0 / 3.0}
    p = birkhoff_potential(lambda i, j: math.log(lam[i]), full_shift())
    mu = bernoulli_measure(lam)
    expected = sum(v * math.log(v) for v in lam.values())
    for n in (2, 7):
        assert lyapunov_functional(mu, p, n) == pytest.approx(expected, abs=1e-14)


def test_lyapunov_geometric_bernoulli_weighted_fullshift():
    m = 20
    sub = truncate(full_shift(), m)
    Z = sum(2.0 ** (-i) for i in range(1, m + 1))
    mu = bernoulli_measure({i: 2.0 ** (-i) / Z for i in range(1, m + 1)}, sub)
    p = weighted_fullshift_potential(lambda a: 3.0 ** (-a))
    value = lyapunov_functional(mu, p, 10)
    assert value == pytest.approx(-2.0 * math.log(3.0), abs=1e-3)


def test_lyapunov_generic_fallback_matches_direct_sum():
    sub = truncate(golden_mean_shift(), 2)
    gm = golden_mean_shift()
    p = birkhoff_potential(lambda i, j: 0.2 * i - 0.5 * j, gm)
    nu = finite_gibbs_nu(sub, p, 5)
    got = lyapunov_functional(nu, p, 3, sub)
    direct = math.fsum(
        nu.mass(w) * p.cylinder_log_weight(w, sub)
        for w in iter_admissible_words(sub, 3)
    ) / 3.0
    assert got == pytest.approx(direct, abs=1e-15)


def test_variational_defect_examples():
    z = zero_potential(full_shift())
    assert variational_defect(uniform_bernoulli(2), z, math.log(2.0), 5) == 0.0
    lopsided = bernoulli_measure({1: 0.9, 2: 0.1})
    defect = variational_defect(lopsided, z, math.log(2.0), 5)
    binary_h = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
    assert defect == pytest.approx(math.log(2.0) - binary_h, abs=1e-14)
    assert defect == pytest.approx(0.368, abs=1e-3)


def test_variational_defect_vanishes_at_equilibrium():
    sub = truncate(golden_mean_shift(), 2)
    gm = golden_mean_shift()
    p = birkhoff_potential(lambda i, j: 0.3 * i - 0.4 * j, gm)
    P, mu = rpf_equilibrium(sub, p)
    assert abs(variational_defect(mu, p, P, 8)) < 1e-10


def test_variational_inequality_over_random_measures():
    rng = np.random.default_rng(77)
    for _ in range(100):
        model, sub = random_mixing_subshift(rng)
        size = sub.size
        weights = rng.uniform(-1.5, 1.5, (size, size))
        f = lambda i, j, w=weights: float(w[i - 1, j - 1])
        p = birkhoff_potential(f, model)
        P, _ = rpf_equilibrium(sub, p)
        mu = random_stationary_markov(sub, rng)
        defect = variational_defect(mu, p, P, 4)
        assert defect >= -1e-9
