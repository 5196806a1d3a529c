"""Tests for partition series, pressure estimation, brackets, and curves.

Matrix-power identities (Fibonacci counts, rank-one weighted shifts, spectral
radii from numpy eigendecompositions) serve as independent oracles for the
enumeration and slope-estimation code paths.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    HiddenStructure,
    brute_force_preimage_count,
    closed_form_fullshift_pressure,
    enumerate_periodic_words,
    geometric_power_sum,
    growth_floor_margin,
    near_superadditivity_margin,
    one_matrix_power_diagonal,
    per_potential_series,
    per_t_curve,
    power_law_sum,
    symbol_independence_check,
)
from thermoshift import shift_core
from thermoshift.gibbs import finite_gibbs_nu
from thermoshift.dimension import bowen_dimension, product_construction
from thermoshift.matrix_cocycle import cocycle_pressure
from thermoshift.numerics import logsumexp, logsumexp_groups, scaled_power_diagonal
from thermoshift.potentials import (
    CocyclePotential,
    MatrixFamily,
    PairTable,
    PotentialSequence,
    TransferOperator,
    birkhoff_potential,
    block_matrix,
    cocycle_potential,
    fiber_count_potential,
    geometric_tail,
    transfer_operator,
    weighted_fullshift_potential,
    zero_potential,
)
from thermoshift.pressure import (
    EnumerationBudgetError,
    NonMixingTruncationError,
    PartitionSeries,
    curve_second_differences,
    gurevich_pressure,
    mixed_truncation,
    partition_series,
    pressure_curve,
    transfer_norm,
)
from thermoshift.shift_core import (
    star_shift,
    full_shift,
    golden_mean_shift,
    model_from_arcs,
    renewal_shift,
    truncate,
    walk_counts,
)

LOG_PHI = math.log((1.0 + math.sqrt(5.0)) / 2.0)
# Independently computed as log(sum of j^-3) via partial sums with an
# integral tail bracket; the series value is 1.2020569031595942.
LOG_ZETA_3 = 0.1840341753914914


def weighted_third():
    return weighted_fullshift_potential(
        lambda a: 3.0 ** (-a), lam_tail_power=geometric_tail(3.0)
    )


# -- partition functions -------------------------------------------------------

def test_partition_function_counts_full_shift():
    sub = truncate(full_shift(), 2)
    z = zero_potential(full_shift())
    assert partition_series(sub, z, 4, 1).log_z(4) == pytest.approx(math.log(8.0), abs=1e-12)


def test_partition_function_counts_golden_mean():
    sub = truncate(golden_mean_shift(), 2)
    z = zero_potential(golden_mean_shift())
    assert partition_series(sub, z, 5, 1).log_z(5) == pytest.approx(math.log(8.0), abs=1e-12)


def test_partition_function_weighted_two_symbols():
    sub = truncate(full_shift(), 2)
    # Words (1,1) and (1,2): 3^-2 + 3^-3 = 4/27.
    assert partition_series(sub, weighted_third(), 2, 1).log_z(2) == pytest.approx(
        math.log(4.0 / 27.0), abs=1e-12
    )


def test_empty_periodic_levels_are_neg_inf_not_errors():
    sub = truncate(renewal_shift(), 3)
    z = zero_potential(renewal_shift())
    series = partition_series(sub, z, 4, 3)
    assert series.empty_levels == (1, 2)
    assert series.log_z(1) == -math.inf
    # Unique cycles 3->2->1(->3) and 3->2->1->1(->3).
    assert series.log_z(3) == pytest.approx(0.0, abs=1e-12)
    assert series.log_z(4) == pytest.approx(0.0, abs=1e-12)


def test_strategies_agree_pair_vs_enumeration():
    gm = golden_mean_shift()
    sub = truncate(gm, 2)
    p = birkhoff_potential(lambda i, j: 0.4 * i - 0.7 * j, gm)
    fast = partition_series(sub, p, 12, 1)
    slow = partition_series(sub, HiddenStructure(p), 12, 1)
    assert fast.strategy == "pair" and slow.strategy == "enumerate"
    for (n, a), (_, b) in zip(fast.entries, slow.entries):
        assert a == pytest.approx(b, abs=1e-10), f"mismatch at n={n}"


def test_strategies_agree_block_vs_enumeration():
    gm = golden_mean_shift()
    sub = truncate(gm, 2)
    rng = np.random.default_rng(2)
    mats = {a: rng.random((2, 2)) + 0.3 for a in (1, 2)}
    p = cocycle_potential(lambda a: mats[a], gm)
    fast = partition_series(sub, p, 10, 1)
    slow = partition_series(sub, HiddenStructure(p), 10, 1)
    assert fast.strategy == "block" and slow.strategy == "enumerate"
    for (n, a), (_, b) in zip(fast.entries, slow.entries):
        assert a == pytest.approx(b, rel=1e-10), f"mismatch at n={n}"


def test_block_sums_of_vector_iteration_match_matrix_powers():
    rng = np.random.default_rng(17)
    sub = truncate(full_shift(), 3)
    mats = {a: rng.uniform(0.1, 1.0, size=(2, 2)) for a in sub.symbols}
    B = block_matrix(sub, mats.__getitem__, 2)
    for ki, i in enumerate(sub.symbols):
        for kj in range(3):
            assert np.array_equal(B[2 * ki:2 * ki + 2, 2 * kj:2 * kj + 2], mats[i].T)
    for k in (0, 2, 4):
        values = scaled_power_diagonal(B, slice(k, k + 2), 30)
        for n, v in enumerate(values, start=1):
            block = np.linalg.matrix_power(B, n)[k:k + 2, k:k + 2]
            assert v == pytest.approx(math.log(block.sum()), rel=1e-12)


def route_cases():
    gm, full = golden_mean_shift(), full_shift()
    table = np.random.default_rng(3).uniform(-0.5, 0.5, (3, 3))
    birkhoff = birkhoff_potential(lambda i, j: float(table[i - 1, j - 1]), full)
    yield "birkhoff table", truncate(full, 3), birkhoff, "pair", "pair"
    yield "weighted shift", truncate(full, 3), weighted_third(), "pair", "pair"
    mats = {a: np.array([[2.0, 1.0], [1.0, 3.0]]) * a for a in (1, 2)}
    q = cocycle_potential(mats.__getitem__, gm)
    yield "cocycle d=2 t=1", truncate(gm, 2), q, "block", "block"
    yield "cocycle d=2 t=0.5", truncate(gm, 2), q.scaled(0.5), "enumerate", "explicit"
    scalar = cocycle_potential(lambda a: np.array([[0.5 ** a]]), full)
    yield "scalar cocycle", truncate(full, 3), scalar, "pair", "pair"
    yield "fiber count", truncate(star_shift(), 6), fiber_count_potential(), "enumerate", "explicit"


@pytest.mark.parametrize("case", list(route_cases()), ids=lambda case: case[0])
def test_route_follows_from_the_potential(case):
    _, sub, p, series_route, gibbs_route = case
    assert partition_series(sub, p, 4, sub.symbols[0]).strategy == series_route
    assert finite_gibbs_nu(sub, p, 3).strategy == gibbs_route
    base = getattr(p, "base", p)
    if isinstance(base, CocyclePotential):
        # Even at d = 1, where the series takes the pair route, the hooks are the block operator.
        hooks = base.word_hooks(sub)
        assert isinstance(hooks, TransferOperator)
        assert (hooks.kind, hooks.d) == ("block", base.d)


def test_cocycle_tail_is_its_family_tail():
    family = MatrixFamily(1, lambda a: [[3.0 ** (-a)]], norm_tail=geometric_tail(3.0))
    p = cocycle_potential(family, full_shift())
    for m in (1, 5, 20):
        assert p.sup_f1_tail(m) == family.norm_tail(m)
    bare = cocycle_potential(lambda a: np.array([[3.0 ** (-a)]]), full_shift())
    assert bare.sup_f1_tail(5) is None


def test_enumeration_budget_is_enforced():
    sub = truncate(full_shift(), 10)
    p = HiddenStructure(zero_potential(full_shift()))
    with pytest.raises(EnumerationBudgetError):
        partition_series(sub, p, 8, 1, cap=1000)
    # The cap is exact: 3 + 9 + 27 + 81 + 243 extensions reach every word of
    # length 2..6 on three symbols.
    sub = truncate(full_shift(), 3)
    series = partition_series(sub, p, 6, 1, cap=363)
    assert series.prefixes == 363
    assert series.log_z(6) == pytest.approx(5 * math.log(3.0), rel=1e-12)
    with pytest.raises(EnumerationBudgetError, match="362"):
        partition_series(sub, p, 6, 1, cap=362)


def brute_log_z(sub, n, a, weight):
    """log of the fsum of exp(weight(w)) over the periodic words, one by one."""
    values = [weight(w) for w in enumerate_periodic_words(sub, n, a)]
    if not values:
        return -math.inf
    hi = max(values)
    return hi + math.log(math.fsum(math.exp(v - hi) for v in values))


def cocycle_weight(mats, t):
    def weight(word):
        prod = np.eye(len(mats[1]))
        for a in word:
            prod = mats[a] @ prod
        return t * math.log(prod.sum())
    return weight


def walk_cases():
    gm = golden_mean_shift()
    rng = np.random.default_rng(23)
    mats = {a: rng.uniform(0.1, 1.5, size=(3, 3)) for a in (1, 2)}
    q = cocycle_potential(mats.__getitem__, gm)
    # From a = 2 the closing arc matters: words ending in 2 do not close.
    for t in (0.5, 1.7):
        for a in (1, 2):
            yield f"cocycle t={t} a={a}", truncate(gm, 2), q.scaled(t), 12, a, cocycle_weight(mats, t)
    fiber = truncate(star_shift(), 8)
    yield "fiber star m=8", fiber, fiber_count_potential(), 6, 1, lambda w: -math.log(brute_force_preimage_count(w))
    zero = HiddenStructure(zero_potential(renewal_shift()))
    yield "hidden renewal m=3", truncate(renewal_shift(), 3), zero, 7, 3, zero.eval


@pytest.mark.parametrize("case", list(walk_cases()), ids=lambda case: case[0])
def test_level_walk_matches_brute_force(case):
    _, sub, p, n_max, a, weight = case
    series = partition_series(sub, p, n_max, a)
    assert series.strategy == "enumerate"
    for n, value in series.entries:
        expected = brute_log_z(sub, n, a, weight)
        if expected == -math.inf:
            assert value == -math.inf, f"n={n}"
        else:
            assert value == pytest.approx(expected, rel=1e-12, abs=1e-15), f"n={n}"


def test_enumeration_counts_its_prefix_extensions():
    gm = golden_mean_shift()
    q = cocycle_potential(lambda a: np.array([[1.0, 0.5], [0.5, 2.0]]) * a, gm)
    for sub, p, n_max, a in (
        (truncate(star_shift(), 8), fiber_count_potential(), 6, 1),
        (truncate(gm, 2), q.scaled(0.5), 15, 2),
    ):
        series = partition_series(sub, p, n_max, a)
        ones = np.ones(sub.size, dtype=object)
        # Each extension makes one word of length 2..n_max starting at a.
        words = sum(walk_counts(sub, k, ones)[sub.position(a)] for k in range(1, n_max))
        assert series.prefixes == words
    assert partition_series(truncate(gm, 2), q, 15, 2).prefixes == 0
    assert partition_series(truncate(gm, 2), zero_potential(gm), 15, 2).prefixes == 0


def test_enumeration_memory_is_bounded_by_the_frontier():
    mats = {1: np.array([[2.0, 1.0], [1.0, 3.0]]), 2: np.array([[1.0, 0.5], [0.5, 1.0]])}
    p = cocycle_potential(MatrixFamily(2, mats), full_shift()).scaled(0.5)
    sub = truncate(full_shift(), 2)
    n_max = 17
    # The last level holds 2**16 words, far more than one slice may hold.
    assert 2 ** (n_max - 1) >= 16 * shift_core._FRONTIER
    tracemalloc.start()
    try:
        series = partition_series(sub, p, n_max, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.prefixes == 2 ** n_max - 2
    # Measured 1.4 MB; a walk holding whole levels peaks near 30 MB.
    assert peak < 5e6, f"peak {peak / 1e6:.1f} MB"


def star_fiber_partition(m, n):
    """Z_n(1) of the fiber count on the star truncation at m, as an exact fraction.

    A periodic word from 1 is a {1, *} pattern with no ** that starts at 1,
    each * one of the m - 1 symbols other than 1, and its preimage count
    depends on the pattern alone (2 stands for every *).
    """
    total = Fraction(0)
    for tail in itertools.product((1, 2), repeat=n - 1):
        word = (1,) + tail
        if any(u == v == 2 for u, v in zip(word, word[1:])):
            continue
        total += Fraction((m - 1) ** word.count(2), brute_force_preimage_count(word))
    return total


@pytest.mark.parametrize("m, n_max", [(8, 10), (64, 8), (1000, 5)])
def test_fiber_series_matches_exact_pattern_sum(m, n_max):
    sub = truncate(star_shift(), m)
    series = partition_series(sub, fiber_count_potential(), n_max, 1)
    for n, value in series.entries:
        assert value == pytest.approx(math.log(star_fiber_partition(m, n)), rel=1e-13), f"n={n}"
    ones = np.ones(sub.size, dtype=object)
    words = sum(walk_counts(sub, k, ones)[sub.position(1)] for k in range(1, n_max))
    assert series.prefixes == words
    # (64, 8) makes 19.6 M extensions, just under the default cap.
    assert words <= 20_000_000


def test_fiber_enumeration_counts_words_not_rows():
    sub = truncate(star_shift(), 64)
    p = fiber_count_potential()
    assert partition_series(sub, p, 6, 1).prefixes == 290687
    assert partition_series(sub, p, 6, 1, cap=290687).prefixes == 290687
    with pytest.raises(EnumerationBudgetError, match="^enumeration exceeded 290686 prefix extensions$"):
        partition_series(sub, p, 6, 1, cap=290686)
    tracemalloc.start()
    try:
        series = partition_series(sub, p, 8, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.prefixes == 19644352
    # Measured 0.2 MB; the 18.3 M words of length 8 alone take 1.2 GB as int64 rows.
    assert peak < 5e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("m", [8, 16, 32, 64])
def test_fiber_series_matches_the_word_walk(m):
    sub = truncate(star_shift(), m)
    for t in (0.5, 1.0, 2.0):
        p = fiber_count_potential().scaled(t)
        merged = [v for _, v in partition_series(sub, p, 6, 1).entries]
        # The word walk closes the same words in more slices, so it may round differently.
        assert merged == pytest.approx(per_potential_series(sub, p, 6, 1), rel=1e-15, abs=0)


def test_fiber_series_is_merged_whatever_the_cap():
    # Multiplicities stay int64 past cap = 2**63: the walk stops first.
    sub = truncate(star_shift(), 16)
    p = fiber_count_potential().scaled(2.0)
    default = partition_series(sub, p, 7, 1)
    huge = partition_series(sub, p, 7, 1, cap=2 ** 64)
    assert repr(huge.entries) == repr(default.entries)
    assert huge.prefixes == default.prefixes


def test_counted_logsumexp_adds_every_copy():
    rng = np.random.default_rng(5)
    for _ in range(50):
        values = rng.normal(0.0, 20.0, 12)
        values[0] = -math.inf
        counts = rng.integers(1, 40, 12)
        assert logsumexp(values, counts) == logsumexp(np.repeat(values, counts))
        counts = rng.integers(1, 2 ** 62, 12)
        hi = values.max()
        exact = sum(Fraction(int(c)) * Fraction(float(x)) for c, x in zip(counts, np.exp(values - hi)))
        assert logsumexp(values, counts) == hi + math.log(float(exact))


# -- pressure estimates ----------------------------------------------------------

def test_full_shift_pressure_is_exact():
    est = gurevich_pressure(full_shift(), zero_potential(full_shift()),
                            m_list=[2], n_max=10)
    assert est.value == pytest.approx(math.log(2.0), abs=1e-12)
    assert est.converged
    assert est.upper == pytest.approx(math.log(2.0), abs=1e-12)
    assert est.lower <= est.value + 1e-9


def test_golden_mean_pressure_matches_golden_ratio():
    est = gurevich_pressure(golden_mean_shift(), zero_potential(golden_mean_shift()),
                            n_max=40)
    assert est.value == pytest.approx(LOG_PHI, abs=1e-6)
    assert est.converged
    assert est.lower <= est.value + 1e-9
    assert est.value <= est.upper + 1e-9
    assert est.truncation_level == 2


def test_weighted_pressure_reaches_closed_form():
    est = gurevich_pressure(full_shift(), weighted_third(),
                            m_list=[5, 10, 20], n_max=12)
    assert est.value == pytest.approx(math.log(0.5), abs=1e-3)
    assert est.monotone
    assert est.converged
    assert not est.diverged
    assert est.lower <= est.value + 1e-9
    assert est.value <= est.upper + 1e-9
    # Rank-one structure makes the slope exact for the truncated model.
    truncated = math.log(sum(3.0 ** (-j) for j in range(1, 21)))
    assert est.value == pytest.approx(truncated, abs=1e-12)


def test_upper_bracket_includes_the_known_tail():
    # From m = 64 on, the column sum loses its last bits; the padded,
    # upward-rounded bracket still holds log(1/2) with no tolerance.
    for m in (5, 20, 64, 128, 256):
        est = gurevich_pressure(full_shift(), weighted_third(), m_list=[m], n_max=30)
        assert est.lower <= math.log(0.5) <= est.upper, f"m={m}"
    # A divergent tail (t <= 0 on geometric weights) leaves no finite bound.
    est = gurevich_pressure(full_shift(), weighted_third().scaled(-0.5), m_list=[5], n_max=8)
    assert est.upper == math.inf


def test_each_arc_is_weighed_once_per_truncation():
    calls = []

    def arc(i, j):
        calls.append((i, j))
        return -0.1 * i - 0.05 * j

    gurevich_pressure(full_shift(), birkhoff_potential(arc, full_shift()), m_list=[8, 16, 32])
    assert len(calls) == 8 ** 2 + 16 ** 2 + 32 ** 2


def test_opaque_rule_is_evaluated_once_per_candidate_pair():
    calls = []

    def rule(i, j):
        calls.append((i, j))
        return True

    model = shift_core.TransitionModel(rule, None, 1, "counted")
    curve = pressure_curve(
        model, zero_potential(model), [0.5, 0.75, 1.0, 1.25, 1.5], m_list=[8, 16, 32], n_max=6
    )
    assert len(curve) == 5
    assert len(calls) == 8 ** 2 + 16 ** 2 + 32 ** 2


def test_mixed_truncations_are_shared_read_only_and_per_model():
    model, other = full_shift(), full_shift()
    sub = mixed_truncation(model, 4)
    gurevich_pressure(model, zero_potential(model), m_list=[4], n_max=6)
    assert mixed_truncation(model, 4) is sub
    with pytest.raises(ValueError):
        sub.matrix[0, 0] = 0
    assert sub.out_neighbors(1) == (1, 2, 3, 4)
    assert other._mixed == {}
    assert mixed_truncation(other, 4) is not sub


def test_non_mixing_truncation_is_named():
    period2 = model_from_arcs([(1, 2), (2, 1)])
    with pytest.raises(NonMixingTruncationError, match="m=2"):
        gurevich_pressure(period2, zero_potential(period2), m_list=[2], n_max=8)


def test_unconverged_flag_when_tolerance_is_unreachable():
    est = gurevich_pressure(golden_mean_shift(), zero_potential(golden_mean_shift()),
                            n_max=8, tol=1e-30)
    assert not est.converged
    assert est.value == pytest.approx(LOG_PHI, abs=1e-2)


def test_fiber_count_pressure_diverges():
    est = gurevich_pressure(
        star_shift(), fiber_count_potential(),
        m_list=[8, 16, 32, 64], n_max=6, divergence_threshold=0.25,
    )
    assert est.diverged
    assert est.value == math.inf
    assert not est.converged
    levels = [m for m, _ in est.truncation_values]
    assert levels == [8, 16, 32, 64]


@pytest.mark.parametrize("param", ["slope_window", "divergence_run"])
def test_slope_window_and_divergence_run_below_one_are_rejected(param):
    model = full_shift()
    with pytest.raises(ValueError, match=param):
        gurevich_pressure(model, zero_potential(model), m_list=[2], n_max=4, **{param: 0})


def test_slope_diagnostics_cover_final_window():
    est = gurevich_pressure(golden_mean_shift(), zero_potential(golden_mean_shift()),
                            n_max=20)
    assert len(est.slopes) == 19
    n_last, slope_last = est.slopes[-1]
    assert n_last == 19
    assert abs(slope_last - LOG_PHI) < 1e-6


# -- brackets ------------------------------------------------------------------

def test_near_superadditivity_of_counting_series():
    sub = truncate(golden_mean_shift(), 2)
    series = partition_series(sub, zero_potential(golden_mean_shift()), 16, 1)
    # Exactly additive potential: k = 0.
    assert near_superadditivity_margin(series, 0.0) >= -1e-9


def test_near_superadditivity_of_fiber_series():
    sub = truncate(star_shift(), 12)
    series = partition_series(sub, fiber_count_potential(), 10, 1)
    assert near_superadditivity_margin(series, math.log(4.0)) >= -1e-9


def test_declared_constant_rescues_non_superadditive_series():
    # A parity-dependent length factor breaks plain superadditivity; the
    # declared constant log 2 restores the inequality.
    bumpy = weighted_fullshift_potential(
        lambda a: 0.9 if a == 1 else 0.05,
        log_c=lambda n: math.log(2.0) if n % 2 == 0 else 0.0,
        c_regularity=math.log(2.0),
    )
    sub = truncate(full_shift(), 2)
    series = partition_series(sub, bumpy, 12, 1)
    assert near_superadditivity_margin(series, 0.0) < -0.5
    assert near_superadditivity_margin(series, math.log(2.0)) >= -1e-9


def test_growth_floor():
    gm = golden_mean_shift()
    sub = truncate(gm, 2)
    p = birkhoff_potential(lambda i, j: -0.3 * i - 0.2 * j, gm)
    series = partition_series(sub, p, 14, 1)
    assert growth_floor_margin(series, sub, p) >= -1e-9
    fib_sub = truncate(star_shift(), 8)
    fib = fiber_count_potential()
    fib_series = partition_series(fib_sub, fib, 8, 1)
    assert growth_floor_margin(fib_series, fib_sub, fib) >= -1e-9


# -- transfer norms --------------------------------------------------------------

def test_transfer_norm_examples():
    assert transfer_norm(
        truncate(full_shift(), 2), zero_potential(full_shift())
    ) == pytest.approx(math.log(2.0), abs=1e-12)
    assert transfer_norm(
        truncate(golden_mean_shift(), 2), zero_potential(golden_mean_shift())
    ) == pytest.approx(math.log(2.0), abs=1e-12)
    tn = transfer_norm(truncate(full_shift(), 20), weighted_third())
    assert tn == pytest.approx(math.log(sum(3.0 ** (-j) for j in range(1, 21))), abs=1e-12)


def test_transfer_norm_is_the_largest_column_sum():
    gm = golden_mean_shift()
    sub = truncate(gm, 2)
    arc = {(1, 1): 0.4, (1, 2): 0.5, (2, 1): 0.7}
    p = birkhoff_potential(lambda i, j: arc[(i, j)], gm)
    # Symbol 1 is entered from 1 and 2, symbol 2 from 1 only.
    columns = (math.exp(0.4) + math.exp(0.7), math.exp(0.5))
    assert transfer_norm(sub, p) == pytest.approx(math.log(max(columns)), rel=1e-15)
    mats = {1: np.array([[2.0, 1.0], [1.0, 2.0]]), 2: np.array([[1.0, 0.5], [0.5, 3.0]])}
    q = cocycle_potential(lambda a: mats[a], gm)
    norms = {a: mats[a].sum() for a in mats}
    columns = (norms[1] + norms[2], norms[1])
    assert transfer_norm(sub, q) == pytest.approx(math.log(max(columns)), rel=1e-15)
    # Off t = 1 the cocycle has no transfer matrix; sup f_1 stands in.
    columns = (norms[1] ** 0.5 + norms[2] ** 0.5, norms[1] ** 0.5)
    assert transfer_norm(sub, q.scaled(0.5)) == pytest.approx(
        math.log(max(columns)), rel=1e-15
    )


# -- closed forms ----------------------------------------------------------------

def test_closed_form_geometric():
    assert closed_form_fullshift_pressure(
        0.0, geometric_power_sum(1.0 / 3.0, 1.0), 1.0
    ) == pytest.approx(math.log(0.5), abs=1e-12)
    t_star = math.log(2.0) / math.log(3.0)
    assert closed_form_fullshift_pressure(
        0.0, geometric_power_sum(1.0 / 3.0, t_star), t_star
    ) == pytest.approx(0.0, abs=1e-12)
    assert closed_form_fullshift_pressure(
        0.0, geometric_power_sum(1.0 / 3.0, 0.0), 0.0
    ) == math.inf


def test_closed_form_includes_length_factor():
    # log c_n = gamma * n contributes gamma * t.
    assert closed_form_fullshift_pressure(
        0.25, geometric_power_sum(0.5, 1.0), 1.0
    ) == pytest.approx(0.25 + math.log(1.0), abs=1e-12)


def test_power_law_sum_matches_reference():
    assert power_law_sum(3.0, 1.0) == pytest.approx(1.2020569031595942, abs=1e-12)
    assert math.log(power_law_sum(3.0, 1.0)) == pytest.approx(LOG_ZETA_3, abs=1e-12)
    assert power_law_sum(3.0, 0.25) == math.inf


# -- curves ----------------------------------------------------------------------

def test_pressure_curve_is_convex_and_consistent():
    curve = pressure_curve(
        full_shift(), weighted_third(),
        [0.5, 0.75, 1.0, 1.25, 1.5], m_list=[5, 10, 20], n_max=12,
    )
    assert all(math.isfinite(e.value) for _, e in curve)
    assert min(curve_second_differences(curve)) >= -1e-6
    single = gurevich_pressure(full_shift(), weighted_third(),
                               m_list=[5, 10, 20], n_max=12)
    t1 = dict((t, e.value) for t, e in curve)[1.0]
    assert t1 == single.value


def test_pressure_curve_rejects_unsorted_grid():
    with pytest.raises(ValueError):
        pressure_curve(full_shift(), weighted_third(), [1.0, 0.5])


def test_power_law_curve_flags_divergent_points():
    p = weighted_fullshift_potential(lambda a: float(a) ** (-3.0))
    curve = pressure_curve(
        full_shift(), p, [0.2, 1.0],
        m_list=[8, 16, 32, 64], n_max=12, divergence_threshold=0.25,
    )
    by_t = dict(curve)
    assert by_t[0.2].diverged
    assert by_t[0.2].value == math.inf
    assert not by_t[1.0].diverged
    assert by_t[1.0].value == pytest.approx(LOG_ZETA_3, abs=1e-3)


def curve_cases():
    """(name, model, potential, t grid, params) for the curve bit-equality tests."""
    yield "weighted geometric", full_shift(), weighted_third(), [-0.5, 0.5, 0.8, 1.0, 1.7], {
        "m_list": [8, 16, 32], "n_max": 30}
    yield "weighted geometric scaled", full_shift(), weighted_third().scaled(0.7), [0.5, 1, 2], {
        "m_list": [8, 16], "n_max": 20}
    bumpy = weighted_fullshift_potential(
        lambda a: 3.0 ** (-a), log_c=lambda n: math.log(2.0) if n % 2 == 0 else 0.0,
        c_regularity=math.log(2.0), lam_tail_power=geometric_tail(3.0),
    )
    yield "weighted with length factor", full_shift(), bumpy, [0.5, 1.0, 1.5], {
        "m_list": [8, 16], "n_max": 20}
    # At m = 128 a 1 MB stack holds 8 matrices, so ten points take two stacks.
    grid = [0.5 + 0.1 * k for k in range(10)]
    yield "weighted geometric m=128", full_shift(), weighted_third(), grid, {
        "m_list": [128], "n_max": 12}
    rng = np.random.default_rng(31)
    table = np.zeros((12, 12))
    table[0, :] = -0.4 * np.arange(1, 13) + rng.uniform(-0.3, 0.3, 12)
    for i in range(1, 12):
        table[i, i - 1] = rng.uniform(-0.1, 0.1)
    renewal = renewal_shift()
    p = birkhoff_potential(lambda i, j: float(table[i - 1, j - 1]), renewal)
    yield "renewal birkhoff table", renewal, p, [0.5, 1.0, 1.5], {"m_list": [6, 12], "n_max": 30}
    gm = golden_mean_shift()
    p = birkhoff_potential(lambda i, j: -0.3 * i - 0.2 * j, gm)
    yield "golden mean", gm, p, [-1.0, 0.0, 0.5, 1.0, 2.0], {"n_max": 25}
    yield "fiber count", star_shift(), fiber_count_potential(), [0.5, 1.0, 2.0], {
        "m_list": [8, 16], "n_max": 5, "slope_window": 3}
    mats = {a: rng.uniform(0.2, 1.0, size=(2, 2)) for a in (1, 2, 3)}
    k3 = model_from_arcs([(i, j) for i in (1, 2, 3) for j in (1, 2, 3)])
    p = cocycle_potential(mats.__getitem__, k3)
    yield "cocycle d=2 k=3", k3, p, [0.5, 1.0, 2.0], {"m_list": [3], "n_max": 9}
    scalar = {1: np.array([[3.0]]), 2: np.array([[0.5]])}
    p = cocycle_potential(MatrixFamily(1, scalar), full_shift())
    yield "scalar cocycle", full_shift(), p, [0.5, 1.0, 2.0], {"m_list": [2], "n_max": 20}


def estimate_fields(est):
    return (est.value, est.lower, est.upper, est.slopes, est.truncation_values,
            est.series.entries, est.series.strategy, est.series.log_norm,
            est.series.prefixes, est.series.empty_levels, est.truncation_level,
            est.converged, est.monotone, est.diverged)


class VanishingSymbol(PotentialSequence):
    """sup f_1 is 3^-a, and 0 on symbol 2, whose log_sup_f1 is -inf; no exact structure."""

    def eval(self, word):
        return sum(-a * math.log(3.0) for a in word)

    def sup_f1(self, a):
        return 0.0 if a == 2 else 3.0 ** -a


def per_symbol_transfer_norm(sub, p):
    """transfer_norm's reference: a logsumexp over each symbol's predecessors."""
    return max(
        logsumexp(p.log_sup_f1(z) for z in sub.in_neighbors(x0)) for x0 in sub.symbols
    )


def transfer_norm_cases():
    for m in (8, 64):
        yield f"fiber count m={m}", truncate(star_shift(), m), fiber_count_potential()
    rng = np.random.default_rng(12)
    mats = {a: rng.uniform(0.1, 2.0, size=(2, 2)) for a in (1, 2, 3)}
    p = cocycle_potential(MatrixFamily(2, mats), full_shift()).scaled(0.5)
    yield "cocycle t=0.5", truncate(full_shift(), 3), p
    yield "vanishing symbol", truncate(full_shift(), 4), VanishingSymbol()
    # Symbol 3's only predecessor is 2, so its column holds -inf alone.
    arcs = model_from_arcs([(1, 1), (1, 2), (2, 1), (2, 3), (3, 1)])
    yield "vanishing column", truncate(arcs, 3), VanishingSymbol()


@pytest.mark.parametrize("case", list(transfer_norm_cases()), ids=lambda case: case[0])
def test_transfer_norm_matches_per_symbol_logsumexp_bit_for_bit(case):
    _, sub, p = case
    assert transfer_operator(sub, p) is None
    assert repr(transfer_norm(sub, p)) == repr(per_symbol_transfer_norm(sub, p))


def test_group_logsumexp_matches_logsumexp_per_group():
    rng = np.random.default_rng(4)
    values = rng.normal(0.0, 30.0, size=300)
    values[rng.random(values.size) < 0.3] = -math.inf
    starts = np.concatenate(([0, 5, 6], np.sort(rng.choice(np.arange(8, 300), 40, replace=False))))
    values[:5] = -math.inf
    values[6] = math.inf
    got = logsumexp_groups(values, starts)
    groups = np.split(values, starts[1:])
    assert repr(got) == repr([logsumexp(group) for group in groups])
    assert got[0] == -math.inf and got[2] == math.inf


@pytest.mark.parametrize("case", list(curve_cases()), ids=lambda case: case[0])
def test_curve_matches_per_t_loop_bit_for_bit(case):
    _, model, p, grid, params = case
    curve = pressure_curve(model, p, grid, **params)
    reference = per_t_curve(model, p, grid, **params)
    assert [t for t, _ in curve] == grid
    for (t, est), (_, ref) in zip(curve, reference):
        # repr tells -0.0 from 0.0 and shows every bit a CSV would.
        assert repr(estimate_fields(est)) == repr(estimate_fields(ref)), f"t={t}"
        sub = mixed_truncation(model, est.truncation_level)
        alone = per_potential_series(sub, p.scaled(t), est.n_max, est.base_symbol)
        assert repr([v for _, v in est.series.entries]) == repr(alone), f"t={t}"
    strategies = {est.series.strategy for _, est in curve}
    if case[0] == "cocycle d=2 k=3":
        assert strategies == {"block", "enumerate"}


@pytest.mark.parametrize("m", [1, 2, 7, 64, 130, 384])
def test_stacked_power_diagonal_matches_single_matrix(m):
    rng = np.random.default_rng(m)
    stack = rng.random((4, m, m)) * (rng.random((4, m, m)) < 0.5)
    stack[:, :, 0] += 0.1
    if m > 1:
        # A nilpotent matrix: its levels from m on are -inf.
        stack[3] = np.triu(rng.random((m, m)) + 0.1, 1)
    for index in (0, m - 1):
        got = scaled_power_diagonal(stack, index, 40)
        assert len(got) == 4
        for W, values in zip(stack, got):
            assert repr(values) == repr(one_matrix_power_diagonal(W, index, 40))
            assert repr(values) == repr(scaled_power_diagonal(W, index, 40))
    if m > 1:
        assert got[3][m - 1:] == [-math.inf] * (41 - m)


def test_stacked_power_diagonal_matches_single_matrix_on_blocks():
    rng = np.random.default_rng(8)
    sub = truncate(full_shift(), 3)
    stack = np.stack([
        block_matrix(sub, {a: rng.uniform(0.1, 1.0, (2, 2)) for a in (1, 2, 3)}.__getitem__, 2)
        for _ in range(3)
    ])
    for index in (slice(0, 2), slice(2, 4)):
        got = scaled_power_diagonal(stack, index, 30)
        for W, values in zip(stack, got):
            assert repr(values) == repr(one_matrix_power_diagonal(W, index, 30))


def renewal_table(m, seed):
    """A renewal shift's pair matrix: returns of length j to symbol 1 weigh about e^{-0.4 j}."""
    rng = np.random.default_rng(seed)
    W = np.zeros((m, m))
    W[0, :] = np.exp(-0.4 * np.arange(1, m + 1) + rng.uniform(-0.3, 0.3, m))
    W[np.arange(1, m), np.arange(m - 1)] = np.exp(rng.uniform(-0.1, 0.1, m - 1))
    return W


def swap_pair():
    """Symbol 4 leads once into the swapped pair 0, 1; symbol 2 keeps its weight.

    From {2, 4} the vector runs (1/2, 0, 1/2, 0, 0), (0, 1/2, 1/2, 0, 0) and
    back: a 2-cycle whose two vectors share their block sum 1/2, so the level
    that repeats is not the last level with that key.
    """
    W = np.zeros((5, 5))
    W[0, 1] = W[1, 0] = W[2, 2] = W[0, 4] = 1.0
    return W


WEIGHTS = 3.0 ** -np.arange(1.0, 21.0)
# (W, index, n_max): the first seven repeat an earlier vector at levels 3, 2,
# 2, 39, 3, 4 and 40; the renewal table, the golden mean at n_max = 38 and
# the nilpotent matrix never do.
POWER_CASES = {
    "rank-one-weighted": (np.tile(WEIGHTS, (20, 1)), 0, 200),
    "all-ones": (np.ones((6, 6)), 0, 200),
    "cantor": (np.full((2, 2), 3.0 ** -0.63), 0, 200),
    # The block matrix A^T of one symbol's 2 x 2 cocycle matrix.
    "cocycle-block": (np.array([[2.0, 1.0], [1.0, 3.0]]).T, slice(0, 2), 200),
    "swap-pair": (swap_pair(), slice(2, 5, 2), 200),
    "rotation-3": (np.roll(np.eye(3), 1, axis=0), 0, 200),
    "golden-mean": (np.array([[1.0, 1.0], [1.0, 0.0]]), 0, 200),
    "golden-mean-38": (np.array([[1.0, 1.0], [1.0, 0.0]]), 0, 38),
    "renewal": (renewal_table(48, 4), 0, 40),
    "nilpotent": (np.triu(np.ones((5, 5)), 1), 4, 60),
}


@pytest.mark.parametrize("name", list(POWER_CASES))
def test_power_diagonal_stops_at_its_cycle_with_the_loop_bits(name):
    W, index, n_max = POWER_CASES[name]
    # Every n_max up to a few levels past the cycle, and the case's own.
    for n in [*range(1, 45), n_max]:
        expected = repr(one_matrix_power_diagonal(W, index, n))
        assert repr(scaled_power_diagonal(W, index, n)) == expected, n
    stack = np.stack([W, W.T, 2.0 * W])
    for M, values in zip(stack, scaled_power_diagonal(stack, index, n_max)):
        assert repr(values) == repr(one_matrix_power_diagonal(M, index, n_max))


class CountedMatrix(np.ndarray):
    """A matrix that counts the products it takes part in: W.dot and np.matmul."""

    products = 0

    def dot(self, *args, **kwargs):
        CountedMatrix.products += 1
        return self.view(np.ndarray).dot(*args, **kwargs)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            CountedMatrix.products += 1
        inputs = tuple(x.view(np.ndarray) if isinstance(x, CountedMatrix) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("name", ["rank-one-weighted", "swap-pair"])
def test_power_diagonal_stops_within_a_few_levels(name, stacked):
    W, index, n_max = POWER_CASES[name]
    if stacked:
        W = np.stack([W, 2.0 * W])
    CountedMatrix.products = 0
    values = scaled_power_diagonal(W.view(CountedMatrix), index, n_max)
    # Level 3's vector repeats level 2's (the swap's, level 1's): three products, not 200.
    assert CountedMatrix.products == 3
    if stacked:
        W, values = W[-1], values[-1]
    assert repr(values) == repr(one_matrix_power_diagonal(W, index, n_max))


def counted_power_diagonal(W, index, n_max):
    """(scaled_power_diagonal of W, the matrix products it took)."""
    CountedMatrix.products = 0
    values = scaled_power_diagonal(W.view(CountedMatrix), index, n_max)
    return values, CountedMatrix.products


def mixed_cycle_stack():
    """3 x 3 matrices that stop alone after 2, 3, 4 and about 40 products.

    The rotation repeats its level-0 vector at level 3; the golden mean, on
    symbols 1 and 2 of the three, only at level 39; the nilpotent matrix's
    sum vanishes at level 2.
    """
    golden = np.zeros((3, 3))
    golden[:2, :2] = [[1.0, 1.0], [1.0, 0.0]]
    golden[2, 2] = 1.0
    nilpotent = np.zeros((3, 3))
    nilpotent[1, 0] = nilpotent[2, 1] = 1.0
    stack = np.stack([
        np.roll(np.eye(3), 1, axis=0), np.ones((3, 3)), golden, nilpotent,
        np.full((3, 3), 3.0 ** -0.63),
    ])
    return stack, 0, 60


# A curve stack whose matrices stop alone within 3 to 8 products, while its
# vectors never all repeat at one level within its 40: the weighted full
# shift with weights base^-a at m = 64 and 21 t (pressure_sweep, seed 101,
# pass 0, wfs_curve_m64). A nilpotent matrix whose sum vanishes at level 5
# rides along.
FOUND_BASE = 3.3381805491383316
FOUND_GRID = [
    0.62216, 0.691848, 0.828391, 0.883471, 1.01833, 1.110854, 1.198264, 1.271848,
    1.423688, 1.504418, 1.593418, 1.691281, 1.809118, 1.890822, 2.000455, 2.092256,
    2.173312, 2.285025, 2.420458, 2.519089, 2.61004,
]


def found_curve_stack():
    p = weighted_fullshift_potential(lambda a: FOUND_BASE ** (-a))
    stack, _ = PairTable(truncate(full_shift(), 64), p.pair_structure()).matrices(FOUND_GRID)
    nilpotent = np.zeros((64, 64))
    nilpotent[np.arange(1, 6), np.arange(5)] = 1.0
    return np.concatenate((stack, nilpotent[None])), 0, 40


def vanishing_slowest_stack():
    """A chain whose sum vanishes at level 5, the slowest of its stack."""
    chain = np.zeros((7, 7))
    chain[np.arange(1, 6), np.arange(5)] = 1.0
    rotation = np.eye(7)
    rotation[:3, :3] = np.roll(np.eye(3), 1, axis=0)
    return np.stack([chain, np.ones((7, 7)), rotation]), 0, 30


@pytest.mark.parametrize("make", [mixed_cycle_stack, found_curve_stack, vanishing_slowest_stack])
def test_stacked_power_diagonal_stops_each_matrix_at_its_own_cycle(make):
    stack, index, n_max = make()
    alone = [counted_power_diagonal(W, index, n_max) for W in stack]
    values, products = counted_power_diagonal(stack, index, n_max)
    assert len({count for _, count in alone}) > 2
    # As many products as the slowest matrix takes alone, not n_max.
    assert products == max(count for _, count in alone) < n_max
    for W, row, (single, _) in zip(stack, values, alone):
        assert repr(row) == repr(one_matrix_power_diagonal(W, index, n_max))
        assert repr(row) == repr(single)
    # The vanishing matrix: every level from the one whose sum vanished is -inf.
    vanishing = {mixed_cycle_stack: 3, found_curve_stack: -1, vanishing_slowest_stack: 0}[make]
    assert values[vanishing][-1] == -math.inf


def test_power_diagonal_keeps_a_bounded_number_of_past_vectors():
    # Symbol 0 feeds every symbol, which keeps a share 1 - k / 4m of its
    # weight: the vector tends to the Perron vector at rate 1 - 1/1200 and
    # repeats no earlier one by n_max, and its entry falls at every level,
    # so no level's key matches an earlier one.
    m, n_max = 300, 3000
    W = np.diag(1.0 - np.arange(m) / (4.0 * m))
    W[:, 0] = 1.0
    tracemalloc.start()
    try:
        values = scaled_power_diagonal(W, 0, n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert repr(values) == repr(one_matrix_power_diagonal(W, 0, n_max))
    # Keeping every level's vector would take 7.2 MB.
    assert peak < 1.5e6, f"peak {peak / 1e6:.2f} MB"


def test_underflowing_weights_are_factored_out_of_their_t_alone():
    # At t = 700 every weight 3^(-700 a) underflows to 0.0, and at t = 670 the
    # largest is subnormal. The largest t * L, at a = 1, is factored out of
    # the matrix and kept as the series' shift.
    ts = [1.0, 670.0, 700.0]
    curve = pressure_curve(full_shift(), weighted_third(), ts, m_list=[20], n_max=12)
    alone = pressure_curve(full_shift(), weighted_third(), [1.0], m_list=[20], n_max=12)
    assert repr(estimate_fields(curve[0][1])) == repr(estimate_fields(alone[0][1]))
    assert curve[0][1].series.shift == 0.0
    for t, est in curve[1:]:
        c = t * math.log(3.0 ** -1)
        # The factored weights are 1 into symbol 1 and at most 3^-t elsewhere,
        # so each factored log Z_n rounds to 0.0.
        assert est.series.shift == c
        assert [v for _, v in est.series.entries] == [0.0] * 12
        assert [est.series.log_z(n) for n in range(1, 13)] == [n * c for n in range(1, 13)]
        assert est.series.log_norm == 0.0
        assert est.value == pytest.approx(-t * math.log(3.0), abs=1e-9)
        assert est.lower <= -t * math.log(3.0) <= est.upper
        assert est.lower <= est.value <= est.upper
        assert est.truncation_values == ((20, est.value),)


def test_underflow_shift_rounds_both_bounds_outward():
    # Every weight exp(-800 + d_ij) underflows, so c = max(-800 + d_ij) is
    # factored out and added back to the lower bound and to the norm under
    # the upper one. Both sums round at the size of c, and each must round
    # outward: the exact sums lie inside the bounds. The declared C cancels
    # most of c in the upper bound, whose last rounding is then fine enough
    # to show how the norm's sum was rounded.
    d = [[0.468, 0.408, 0.001], [0.429, 0.017, 0.365], [0.088, 0.432, 0.271]]
    p = birkhoff_potential(lambda i, j: -800.0 + d[i - 1][j - 1], full_shift())
    p.declared_C = 800.0
    est = gurevich_pressure(full_shift(), p, m_list=[3], n_max=12)
    c, norm = est.series.shift, est.series.log_norm
    assert c == -800.0 + 0.468
    lower = max((zn - 800.0) / n for n, zn in est.series.entries)
    assert lower != 0.0
    exact_lower = Fraction(lower) + Fraction(c)
    exact_upper = 800 + Fraction(norm) + Fraction(c) + Fraction(3 + 2, 2 ** 52)
    assert Fraction(est.lower) <= exact_lower
    assert Fraction(est.upper) >= exact_upper
    # Rounded to nearest, the lower sum rounds up and the norm's rounds down.
    assert Fraction(lower + c) > exact_lower
    assert Fraction(norm + c) < Fraction(norm) + Fraction(c)


def test_curve_holds_a_bounded_stack_of_pair_matrices():
    t_grid = [0.5 + 0.02 * k for k in range(40)]
    tracemalloc.start()
    try:
        curve = pressure_curve(full_shift(), weighted_third(), t_grid, m_list=[256], n_max=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(curve) == 40
    # The 40 matrices at m = 256 take 21 MB; they are iterated 1 MB at a time.
    assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"


def test_curve_weighs_each_arc_once_per_truncation():
    calls = []

    def arc(i, j):
        calls.append((i, j))
        return -0.1 * i - 0.05 * j

    p = birkhoff_potential(arc, full_shift())
    pressure_curve(full_shift(), p, [0.5, 1.0, 1.5, 2.0], m_list=[8, 16], n_max=10)
    assert len(calls) == 8 ** 2 + 16 ** 2


def test_slopes_are_computed_once_per_series(monkeypatch):
    calls = []
    slopes = PartitionSeries.slopes
    monkeypatch.setattr(PartitionSeries, "slopes", lambda self: calls.append(self) or slopes(self))
    est = gurevich_pressure(full_shift(), weighted_third(), m_list=[4, 8, 16], n_max=12)
    assert len(calls) == 3
    assert est.slopes == slopes(est.series)


def test_curve_errors_are_the_named_errors():
    with pytest.raises(EnumerationBudgetError):
        pressure_curve(star_shift(), fiber_count_potential(), [0.5, 1.0, 2.0],
                       m_list=[8], n_max=6, cap=100)
    # t = 1 takes the block operator, t = 2 enumerates and hits the cap.
    mats = {1: np.array([[2.0, 1.0], [1.0, 3.0]]), 2: np.array([[1.0, 0.5], [0.5, 1.0]])}
    p = cocycle_potential(MatrixFamily(2, mats), full_shift())
    assert pressure_curve(full_shift(), p, [1.0], m_list=[2], n_max=12, cap=100)
    with pytest.raises(EnumerationBudgetError, match="100"):
        pressure_curve(full_shift(), p, [1.0, 2.0], m_list=[2], n_max=12, cap=100)
    period2 = model_from_arcs([(1, 2), (2, 1)])
    with pytest.raises(NonMixingTruncationError, match="m=2"):
        pressure_curve(period2, zero_potential(period2), [0.5, 1.0], m_list=[2], n_max=8)


def test_fiber_curve_matches_per_t_estimates_bit_for_bit():
    grid = [0.5, 1.0, 2.0]
    params = {"m_list": [8, 16, 32, 64], "n_max": 6, "slope_window": 4}
    curve = pressure_curve(star_shift(), fiber_count_potential(), grid, **params)
    for t, est in curve:
        alone = gurevich_pressure(star_shift(), fiber_count_potential().scaled(t), **params)
        assert repr(estimate_fields(est)) == repr(estimate_fields(alone)), f"t={t}"
        assert est.series.strategy == "enumerate" and est.series.prefixes == 290687


def unknown_keyword_calls():
    pair = MatrixFamily(1, lambda a: [[0.5 ** a]])
    yield "gurevich_pressure", lambda: gurevich_pressure(full_shift(), weighted_third(), max_iter=5)
    yield "pressure_curve", lambda: pressure_curve(full_shift(), weighted_third(), [1.0], max_iter=5)
    yield "cocycle_pressure", lambda: cocycle_pressure(pair, full_shift(), [1.0], max_iter=5)
    yield "bowen_dimension", lambda: bowen_dimension(
        product_construction([1 / 3, 1 / 3]), full_shift(), max_iter=5, m_list=[2]
    )


@pytest.mark.parametrize("case", list(unknown_keyword_calls()), ids=lambda case: case[0])
def test_unknown_keyword_names_the_public_function(case):
    name, call = case
    with pytest.raises(TypeError, match=rf"^{name}\(\) got an unexpected keyword argument 'max_iter'$"):
        call()


def test_empty_curve_is_empty():
    assert pressure_curve(full_shift(), weighted_third(), []) == []


# -- symbol independence -----------------------------------------------------------

def test_symbol_independence_golden_mean():
    dev = symbol_independence_check(
        golden_mean_shift(), zero_potential(golden_mean_shift()), [1, 2], n_max=40
    )
    assert dev < 1e-6


def test_symbol_independence_full_shift_exact():
    dev = symbol_independence_check(
        full_shift(), zero_potential(full_shift()), [1, 2, 3],
        m_list=[3], n_max=12,
    )
    assert dev == 0.0


def test_symbol_independence_weighted():
    dev = symbol_independence_check(
        full_shift(), weighted_third(), [1, 2], m_list=[20], n_max=12
    )
    assert dev < 1e-3


# -- spectral oracle ---------------------------------------------------------------

def spectral_pressure_oracle(mat, weights):
    """log spectral radius of the arc-weighted matrix, via numpy eigenvalues."""
    W = mat * np.exp(weights)
    return math.log(max(abs(np.linalg.eigvals(W))))


def test_slope_estimator_matches_spectral_radius():
    # Random mixing subshifts with a hub symbol; instances are conditioned on
    # a subdominant eigenvalue ratio <= 0.62 so the geometric slope error at
    # n_max = 60 sits far below the comparison tolerance.
    rng = np.random.default_rng(12345)
    accepted = 0
    while accepted < 30:
        size = int(rng.integers(2, 7))
        mat = (rng.random((size, size)) < 0.6).astype(int)
        mat[0, :] = 1
        mat[:, 0] = 1
        weights = rng.uniform(-2.0, 2.0, (size, size))
        mags = np.sort(np.abs(np.linalg.eigvals(mat * np.exp(weights))))[::-1]
        if mags[1] / mags[0] > 0.62:
            continue
        accepted += 1
        arcs = [(i + 1, j + 1) for i in range(size) for j in range(size) if mat[i, j]]
        model = model_from_arcs(arcs)
        p = birkhoff_potential(lambda i, j, w=weights: float(w[i - 1, j - 1]), model)
        est = gurevich_pressure(model, p, m_list=[size], n_max=60, slope_window=8)
        oracle = spectral_pressure_oracle(mat, weights)
        assert abs(est.value - oracle) <= 1e-8
        assert est.lower <= est.value + 1e-9
        assert est.value <= est.upper + 1e-9
