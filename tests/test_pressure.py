"""Tests for partition series, pressure estimation, brackets, and curves.

Matrix-power identities (Fibonacci counts, rank-one weighted shifts, spectral
radii from numpy eigendecompositions) serve as independent oracles for the
enumeration and slope-estimation code paths.
"""

import math
import tracemalloc

import numpy as np
import pytest

from helpers import brute_force_preimage_count
from thermoshift import pressure
from thermoshift.numerics import scaled_power_diagonal
from thermoshift.potentials import (
    PotentialSequence,
    birkhoff_potential,
    block_matrix,
    cocycle_potential,
    fiber_count_potential,
    geometric_tail,
    weighted_fullshift_potential,
    zero_potential,
)
from thermoshift.pressure import (
    EnumerationBudgetError,
    NonMixingTruncationError,
    closed_form_fullshift_pressure,
    curve_second_differences,
    geometric_power_sum,
    growth_floor_margin,
    gurevich_pressure,
    near_superadditivity_margin,
    partition_function,
    partition_series,
    power_law_sum,
    pressure_curve,
    symbol_independence_check,
    transfer_norm,
)
from thermoshift.shift_core import (
    enumerate_periodic_words,
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


class HiddenStructure(PotentialSequence):
    """Facade that hides a potential's exact structure to force enumeration."""

    def __init__(self, base):
        self.base = base
        self.name = f"hidden({base.name})"
        self.declared_C = base.declared_C
        self.declared_M = base.declared_M

    def eval(self, word):
        return self.base.eval(word)

    def sup_f1(self, a):
        return self.base.sup_f1(a)


# -- partition functions -------------------------------------------------------

def test_partition_function_counts_full_shift():
    sub = truncate(full_shift(), 2)
    z = zero_potential(full_shift())
    assert partition_function(sub, z, 4, 1) == pytest.approx(math.log(8.0), abs=1e-12)


def test_partition_function_counts_golden_mean():
    sub = truncate(golden_mean_shift(), 2)
    z = zero_potential(golden_mean_shift())
    assert partition_function(sub, z, 5, 1) == pytest.approx(math.log(8.0), abs=1e-12)


def test_partition_function_weighted_two_symbols():
    sub = truncate(full_shift(), 2)
    # Words (1,1) and (1,2): 3^-2 + 3^-3 = 4/27.
    assert partition_function(sub, weighted_third(), 2, 1) == pytest.approx(
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
    fast = partition_series(sub, p, 12, 1, strategy="pair")
    slow = partition_series(sub, p, 12, 1, strategy="enumerate")
    assert fast.strategy == "pair" and slow.strategy == "enumerate"
    for (n, a), (_, b) in zip(fast.entries, slow.entries):
        assert a == pytest.approx(b, abs=1e-10), f"mismatch at n={n}"


def test_strategies_agree_block_vs_enumeration():
    gm = golden_mean_shift()
    sub = truncate(gm, 2)
    rng = np.random.default_rng(2)
    mats = {a: rng.random((2, 2)) + 0.3 for a in (1, 2)}
    p = cocycle_potential(lambda a: mats[a], gm, symbol_bound=2)
    fast = partition_series(sub, p, 10, 1, strategy="block")
    slow = partition_series(sub, p, 10, 1, strategy="enumerate")
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


def test_strategy_the_potential_lacks_is_a_named_error():
    star = truncate(star_shift(), 6)
    with pytest.raises(ValueError, match="'pair'"):
        partition_series(star, fiber_count_potential(), 4, 1, strategy="pair")
    gm = golden_mean_shift()
    p = birkhoff_potential(lambda i, j: 0.1 * i, gm)
    with pytest.raises(ValueError, match="'block'"):
        partition_series(truncate(gm, 2), p, 4, 1, strategy="block")


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
    q = cocycle_potential(mats.__getitem__, gm, symbol_bound=2)
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
    series = partition_series(sub, p, n_max, a, strategy="enumerate")
    assert series.strategy == "enumerate"
    for n, value in series.entries:
        expected = brute_log_z(sub, n, a, weight)
        if expected == -math.inf:
            assert value == -math.inf, f"n={n}"
        else:
            assert value == pytest.approx(expected, rel=1e-12, abs=1e-15), f"n={n}"


def test_enumeration_counts_its_prefix_extensions():
    gm = golden_mean_shift()
    q = cocycle_potential(lambda a: np.array([[1.0, 0.5], [0.5, 2.0]]) * a, gm, symbol_bound=2)
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
    p = cocycle_potential(mats.__getitem__, full_shift(), symbol_bound=2).scaled(0.5)
    sub = truncate(full_shift(), 2)
    n_max = 17
    # The last level holds 2**16 words, far more than one slice may hold.
    assert 2 ** (n_max - 1) >= 16 * pressure._FRONTIER
    tracemalloc.start()
    try:
        series = partition_series(sub, p, n_max, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.prefixes == 2 ** n_max - 2
    # Measured 1.4 MB; a walk holding whole levels peaks near 30 MB.
    assert peak < 5e6, f"peak {peak / 1e6:.1f} MB"


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
    q = cocycle_potential(lambda a: mats[a], gm, symbol_bound=2)
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
