"""Tests for partition series, pressure estimation, brackets, and curves.

Matrix-power identities (Fibonacci counts, rank-one weighted shifts, spectral
radii from numpy eigendecompositions) serve as independent oracles for the
enumeration and slope-estimation code paths.
"""

import csv
import itertools
import json
import math
import tracemalloc
from decimal import Decimal, localcontext
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
    per_potential_series,
    per_t_curve,
    power_law_sum,
    reference_slope_fit,
    symbol_independence_check,
)
from thermoshift import cli, numerics, shift_core
from thermoshift.gibbs import finite_gibbs_nu
from thermoshift.dimension import bowen_dimension, product_construction
from thermoshift.matrix_cocycle import cocycle_pressure
from thermoshift.numerics import (
    PowerIterationError,
    logsumexp,
    logsumexp_groups,
    perron_data,
    scaled_power_diagonal,
)
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
from thermoshift.pressure import _slope_fit
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
    # The operator's vector is uniform from level 1, so it stops at level 2;
    # the walk counts all four levels.
    series = partition_series(sub, z, 4, 1)
    assert series.n_max == 2
    for n in (1, 2):
        assert series.log_z(n) == pytest.approx(math.log(2.0 ** (n - 1)), abs=1e-12)
    walked = partition_series(sub, HiddenStructure(z), 4, 1)
    assert walked.log_z(4) == pytest.approx(math.log(8.0), abs=1e-12)


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
    assert [n for n, v in enumerate(series.values, 1) if v == -math.inf] == [1, 2]
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
    for n, (a, b) in enumerate(zip(fast.values, slow.values), 1):
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
    for n, (a, b) in enumerate(zip(fast.values, slow.values), 1):
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
        values = scaled_power_diagonal(B, slice(k, k + 2), 30).values
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
    for n, value in enumerate(series.values, 1):
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
    for n, value in enumerate(series.values, 1):
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
        merged = list(partition_series(sub, p, 6, 1).values)
        # The word walk closes the same words in more slices, so it may round differently.
        assert merged == pytest.approx(per_potential_series(sub, p, 6, 1), rel=1e-15, abs=0)


def test_fiber_series_is_merged_whatever_the_cap():
    # Multiplicities stay int64 past cap = 2**63: the walk stops first.
    sub = truncate(star_shift(), 16)
    p = fiber_count_potential().scaled(2.0)
    default = partition_series(sub, p, 7, 1)
    huge = partition_series(sub, p, 7, 1, cap=2 ** 64)
    assert repr(huge.values) == repr(default.values)
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


def slope_fit_cases():
    renewal = renewal_shift()
    # Levels 1 and 2 are -inf: no periodic word of length 1 or 2 from 3.
    yield "renewal m=3 from 3", partition_series(truncate(renewal, 3), zero_potential(renewal), 12, 3).values
    # A nilpotent chain's whole entry sum: levels 5 on are -inf.
    chain = np.triu(np.random.default_rng(3).random((5, 5)) + 0.1, 1)
    yield "nilpotent chain", tuple(scaled_power_diagonal(chain, slice(0, 5), 12).values)
    yield "holes", (0.25, -math.inf, 0.5, 0.875, -math.inf, 1.25, 1.75, math.inf, 2.0)
    for n_max in (1, 2):
        yield f"n_max={n_max}", partition_series(truncate(full_shift(), 4), weighted_third(), n_max, 1).values
    d = [[0.468, 0.408, 0.001], [0.429, 0.017, 0.365], [0.088, 0.432, 0.271]]
    p = birkhoff_potential(lambda i, j: -800.0 + d[i - 1][j - 1], full_shift())
    shifted = partition_series(truncate(full_shift(), 3), p, 12, 1)
    assert shifted.shift == -800.0 + 0.468
    yield "shifted", shifted.values


@pytest.mark.parametrize("case", list(slope_fit_cases()), ids=lambda case: case[0])
def test_slope_fit_reads_the_values_as_the_slopes_tuple_did(case):
    _, values = case
    # Windows from one slope to two past the number of levels.
    for window in range(1, len(values) + 2):
        assert repr(_slope_fit(values, window)) == repr(reference_slope_fit(values, window)), window


def test_slope_diagnostics_cover_final_window():
    est = gurevich_pressure(golden_mean_shift(), zero_potential(golden_mean_shift()),
                            n_max=20)
    assert len(est.slopes) == 19
    n_last, slope_last = est.slopes[-1]
    assert n_last == 19
    assert abs(slope_last - LOG_PHI) < 1e-6


# -- brackets ------------------------------------------------------------------

def closed_form_brackets(tmp_path):
    """(name, value, lower, upper, exact P) of estimates whose pressure has a closed form.

    P is a Decimal: t log 3 for the scalar cocycle [[3]] on one loop, and
    log(b^-t / (1 - b^-t)) for the weighted full shift with lambda(a) = b^-a.
    """
    loop = model_from_arcs([(1, 1)])
    scalar = cocycle_potential(MatrixFamily(1, {1: np.array([[3.0]])}), loop)
    for t, est in pressure_curve(loop, scalar, [0.5, 0.953749, 1.0, 1.520372, 2.00515, 2.5], n_max=20):
        yield f"scalar cocycle t={t}", est.value, est.lower, est.upper, Decimal(t) * Decimal(3).ln()
    # The geometric tail closes the bracket on the countable shift. At b = 3,
    # t = 454.398 an upper bound padded for the column sum alone falls short
    # of P; float(5^-1) is above 1/5, which lifts an unpadded lower bound
    # past P. t = 600 and 700 are factored.
    for b, grid in ((3, [30.0, 123.4, 300.0, 454.398, 555.5, 700.0]), (5, [303.005, 600.0])):
        p = weighted_fullshift_potential(lambda a, b=float(b): b ** -a, lam_tail_power=geometric_tail(float(b)))
        for t, est in pressure_curve(full_shift(), p, grid, m_list=[20]):
            x = Decimal(b) ** -Decimal(t)
            yield f"weighted b={b} t={t}", est.value, est.lower, est.upper, (x / (1 - x)).ln()
    # As t -> 0 the tail's 1 - 3^-t keeps its precision: it is -expm1(-t log 3).
    for t, est in pressure_curve(full_shift(), weighted_third(), [1e-5, 1e-4, 5e-4], m_list=[20], n_max=12):
        x = Decimal(3) ** -Decimal(t)
        yield f"weighted b=3 t={t}", est.value, est.lower, est.upper, (x / (1 - x)).ln()
    # One level has no slope to fit.
    path = tmp_path / "n_max_1.json"
    path.write_text(json.dumps({
        "model": {"name": "full"},
        "potential": {"kind": "weighted", "lambda": {"geometric": {"base": 3}}},
        "params": {"truncations": [4, 8], "n_max": 1},
    }))
    cli.main(["pressure", "--model", str(path), "--out", str(tmp_path)])
    with open(tmp_path / "estimate.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    yield "n_max 1 file", *(float(row[key]) for key in ("value", "lower", "upper")), -Decimal(2).ln()


def test_brackets_contain_closed_form_pressures_exactly(tmp_path):
    # Decimal logs at 60 digits against the floats' exact values, no tolerance.
    with localcontext() as ctx:
        ctx.prec = 60
        for name, value, lower, upper, exact in closed_form_brackets(tmp_path):
            assert Decimal(lower) <= exact <= Decimal(upper), name
            assert lower <= value <= upper, name


def operator_closed_forms():
    """(name, estimate, exact P as a Decimal) of operator routes whose pressure has a closed form.

    Each is on a finite alphabet, where the Collatz-Wielandt ratios bound
    the pressure from both sides. The exact P is a Decimal of the given
    numbers: 3, the table's floats L and the ratio float(1 / 3).
    """
    gm = golden_mean_shift()
    yield "golden mean", gurevich_pressure(gm, zero_potential(gm), n_max=40), ((1 + Decimal(5).sqrt()) / 2).ln()
    loop = model_from_arcs([(1, 1)])
    scalar = cocycle_potential(MatrixFamily(1, {1: np.array([[3.0]])}), loop)
    for t, est in pressure_curve(loop, scalar, [0.5, 1.0, 2.5], n_max=20):
        yield f"scalar cocycle t={t}", est, Decimal(t) * Decimal(3).ln()
    # rho of a 2 x 2 matrix [[a, b], [c, d]] is (a + d + sqrt((a - d)^2 + 4 b c)) / 2.
    table = [[0.3, -0.7], [0.2, -1.1]]
    full2 = model_from_arcs([(i, j) for i in (1, 2) for j in (1, 2)])
    p = birkhoff_potential(lambda i, j: table[i - 1][j - 1], full2)
    a, b, c, d = (Decimal(x).exp() for row in table for x in row)
    rho = (a + d + ((a - d) ** 2 + 4 * b * c).sqrt()) / 2
    yield "2-symbol table", gurevich_pressure(full2, p, n_max=40), rho.ln()
    # Cantor: two maps of ratio 1/3 have P(t) = log 2 + t log(1/3), 0 at t = log 2 / log 3.
    t = math.log(2.0) / math.log(3.0)
    cantor = product_construction([1 / 3, 1 / 3]).potential(full2).scaled(t)
    exact = Decimal(2).ln() + Decimal(t) * Decimal(1 / 3).ln()
    yield "cantor", gurevich_pressure(full2, cantor, n_max=30), exact


def test_operator_brackets_hold_closed_forms_and_are_narrow():
    with localcontext() as ctx:
        ctx.prec = 60
        for name, est, exact in operator_closed_forms():
            assert Decimal(est.lower) <= exact <= Decimal(est.upper), name
            assert est.upper - est.lower <= 1e-11, name
            assert est.converged and est.series.strategy in ("pair", "block"), name
        # On the countable weighted full shift the lower bound holds the
        # closed form log(x / (1 - x)), x = 3^-t, at every truncation.
        for m in (8, 20, 64):
            for t, est in pressure_curve(full_shift(), weighted_third(), [0.5, 1.0, 2.0], m_list=[m]):
                x = Decimal(3) ** -Decimal(t)
                assert Decimal(est.lower) <= (x / (1 - x)).ln(), (m, t)


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
    # Enumerated, so that all twelve levels are there: the operator's
    # rank-one matrix stops at level 2.
    series = partition_series(sub, HiddenStructure(bumpy), 12, 1)
    assert series.n_max == 12
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
            est.series.values, est.series.strategy, est.series.log_norm,
            est.series.prefixes, est.truncation_level,
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
        assert repr(list(est.series.values)) == repr(alone), f"t={t}"
    strategies = {est.series.strategy for _, est in curve}
    if case[0] == "cocycle d=2 k=3":
        assert strategies == {"block", "enumerate"}


def assert_same_levels(got, alone):
    """Equal PowerLevels: repr shows every bit of the floats, but rounds an array's."""
    assert repr(got) == repr(alone)
    # A vector whose sum vanished is nan.
    assert np.array_equal(got.vector, alone.vector, equal_nan=True)


@pytest.mark.parametrize("m", [1, 2, 7, 64, 130, 384])
def test_stacked_power_diagonal_matches_single_matrix(m):
    rng = np.random.default_rng(m)
    stack = rng.random((4, m, m)) * (rng.random((4, m, m)) < 0.5)
    stack[:, :, 0] += 0.1
    if m > 1:
        # A nilpotent matrix: its sum vanishes by level m, and that level is -inf.
        stack[3] = np.triu(rng.random((m, m)) + 0.1, 1)
    for index in (0, m - 1):
        got = scaled_power_diagonal(stack, index, 40)
        assert len(got) == 4
        for W, levels in zip(stack, got):
            assert_same_levels(levels, scaled_power_diagonal(W, index, 40))
    if m > 1:
        assert len(got[3].values) <= m and got[3].values[-1] == -math.inf


def test_stacked_power_diagonal_matches_single_matrix_on_blocks():
    rng = np.random.default_rng(8)
    sub = truncate(full_shift(), 3)
    stack = np.stack([
        block_matrix(sub, {a: rng.uniform(0.1, 1.0, (2, 2)) for a in (1, 2, 3)}.__getitem__, 2)
        for _ in range(3)
    ])
    for index in (slice(0, 2), slice(2, 4)):
        got = scaled_power_diagonal(stack, index, 30)
        for W, levels in zip(stack, got):
            assert_same_levels(levels, scaled_power_diagonal(W, index, 30))


def renewal_table(m, seed):
    """A renewal shift's pair matrix: returns of length j to symbol 1 weigh about e^{-0.4 j}."""
    rng = np.random.default_rng(seed)
    W = np.zeros((m, m))
    W[0, :] = np.exp(-0.4 * np.arange(1, m + 1) + rng.uniform(-0.3, 0.3, m))
    W[np.arange(1, m), np.arange(m - 1)] = np.exp(rng.uniform(-0.1, 0.1, m - 1))
    return W


GOLDEN = np.array([[1.0, 1.0], [1.0, 0.0]])
WEIGHTS = 3.0 ** -np.arange(1.0, 21.0)
# (W, index, n_max, rho): matrices whose Perron root is known in closed form.
POWER_CASES = {
    "rank-one-weighted": (np.tile(WEIGHTS, (20, 1)), 0, 200, WEIGHTS.sum()),
    "all-ones": (np.ones((6, 6)), 0, 200, 6.0),
    # The block matrix A^T of one symbol's 2 x 2 cocycle matrix.
    "cocycle-block": (np.array([[2.0, 1.0], [1.0, 3.0]]).T, slice(0, 2), 200, (5.0 + math.sqrt(5.0)) / 2.0),
    "golden-mean": (GOLDEN, 0, 200, (1.0 + math.sqrt(5.0)) / 2.0),
}


@pytest.mark.parametrize("name", list(POWER_CASES))
def test_power_diagonal_ratios_bracket_the_perron_root(name):
    W, index, n_max, rho = POWER_CASES[name]
    levels = scaled_power_diagonal(W, index, n_max)
    assert len(levels.values) < n_max
    # The ratios agree within (M + 1) 2^-52; the root's own float is within a
    # few units of it, and the last sum is a mean of the ratios.
    assert levels.high <= levels.low * (1.0 + (len(W) + 1) * 2.0 ** -52)
    for x in (rho, levels.total):
        assert levels.low * (1.0 - 2.0 ** -50) <= x <= levels.high * (1.0 + 2.0 ** -50)
    n = len(levels.values)
    power = np.linalg.matrix_power(W, n)[index, index].sum()
    assert levels.values[-1] == pytest.approx(math.log(power), abs=1e-12)


class CountedMatrix(np.ndarray):
    """A stack of matrices that counts the np.matmul products it takes part in."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            CountedMatrix.products += 1
        inputs = tuple(x.view(np.ndarray) if isinstance(x, CountedMatrix) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def counted_power_diagonal(stack, index, n_max):
    """(scaled_power_diagonal of a stack, the stacked products it took)."""
    CountedMatrix.products = 0
    levels = scaled_power_diagonal(stack.view(CountedMatrix), index, n_max)
    return levels, CountedMatrix.products


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("name", ["rank-one-weighted", "all-ones"])
def test_power_diagonal_stops_within_a_few_levels(name, stacked):
    W, index, n_max, _ = POWER_CASES[name]
    # Level 2 multiplies a positive vector whose ratios agree: two levels, not 200.
    alone = scaled_power_diagonal(W, index, n_max)
    assert len(alone.values) == 2
    if stacked:
        got, products = counted_power_diagonal(np.stack([2.0 * W, W]), index, n_max)
        assert products == 2
        assert_same_levels(got[-1], alone)


def mixed_stop_stack():
    """3 x 3 matrices that stop alone after 1, 40, 3 and 1 products, from the ones vector.

    The all-ones and the rank-one matrix's ratios agree at once; the
    tribonacci matrix's near level 40. The chain's sum vanishes at level 3.
    """
    chain = np.zeros((3, 3))
    chain[0, 1] = chain[1, 2] = 1.0
    tribonacci = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    return np.stack([np.ones((3, 3)), tribonacci, chain, np.full((3, 3), 3.0 ** -0.63)]), slice(0, 3), 60, 2


FOUND_BASE = 3.3381805491383316
FOUND_GRID = [
    0.62216, 0.691848, 0.828391, 0.883471, 1.01833, 1.110854, 1.198264, 1.271848,
    1.423688, 1.504418, 1.593418, 1.691281, 1.809118, 1.890822, 2.000455, 2.092256,
    2.173312, 2.285025, 2.420458, 2.519089, 2.61004,
]


def found_curve_stack():
    """The weighted full shift with weights base^-a at m = 64 and 21 t (pressure_sweep,
    seed 101, pass 0, wfs_curve_m64), each stopping at level 2, with a chain
    whose sum vanishes at level 5 riding along."""
    p = weighted_fullshift_potential(lambda a: FOUND_BASE ** (-a))
    stack, _ = PairTable(truncate(full_shift(), 64), p.pair_structure()).matrices(FOUND_GRID)
    chain = np.zeros((64, 64))
    chain[np.arange(4), np.arange(1, 5)] = 1.0
    return np.concatenate((stack, chain[None])), 0, 40, -1


def vanishing_slowest_stack():
    """A chain whose sum vanishes at level 6, the slowest of its stack."""
    chain = np.zeros((7, 7))
    chain[np.arange(5), np.arange(1, 6)] = 1.0
    return np.stack([chain, np.ones((7, 7)), np.full((7, 7), 0.5)]), 0, 30, 0


@pytest.mark.parametrize("make", [mixed_stop_stack, found_curve_stack, vanishing_slowest_stack])
def test_stacked_power_diagonal_stops_each_matrix_at_its_own_level(make):
    stack, index, n_max, chain = make()
    alone = [scaled_power_diagonal(W, index, n_max) for W in stack]
    got, products = counted_power_diagonal(stack, index, n_max)
    # A single matrix takes one product per level.
    counts = [len(single.values) for single in alone]
    assert len(set(counts)) > 1
    # As many products as the slowest matrix takes alone, not n_max.
    assert products == max(counts) < n_max
    for levels, single in zip(got, alone):
        assert_same_levels(levels, single)
    # The chain: the level whose sum vanished is the last, and -inf.
    assert got[chain].values[-1] == -math.inf


# Its eigenvalues are about 9.3 and -8.3, so the ratios settle within a few
# hundred levels, but their spread bottoms out at 8 ulps: above the agreement
# bound of this matrix, (2 + 1) 2^-52, and of diag(W^T, W), (4 + 1) 2^-52.
ROUNDING_FLOOR = np.array([[1.0, 7.0], [11.0, 0.0078]])


@pytest.mark.parametrize("stacked", [False, True])
def test_power_diagonal_stops_at_the_rounding_floor(stacked):
    alone = scaled_power_diagonal(ROUNDING_FLOOR, slice(None), 10_000)
    assert len(alone.values) < 1_000
    assert alone.high > alone.low * (1.0 + 3 * 2.0 ** -52)
    if stacked:
        got, products = counted_power_diagonal(np.stack([ROUNDING_FLOOR, np.ones((2, 2))]), slice(None), 10_000)
        assert products == len(alone.values)
        assert_same_levels(got[0], alone)


def test_perron_data_returns_at_the_rounding_floor():
    assert_matches_lapack(ROUNDING_FLOOR, *perron_data(ROUNDING_FLOOR))


def assert_matches_lapack(W, rho, v, u):
    """rho to 1e-13 relative, and the unit-sum right and left vectors v, u to 1e-11, against np.linalg.eig."""
    (values, right), (left_values, left) = np.linalg.eig(W), np.linalg.eig(W.T)
    k, j = np.argmax(values.real), np.argmax(left_values.real)
    assert rho == pytest.approx(values[k].real, rel=1e-13)
    for got, ref in ((v, right[:, k].real), (u, left[:, j].real)):
        assert np.abs(got - ref / ref.sum()).max() <= 1e-11


@pytest.mark.parametrize("stacked", [False, True])
def test_power_diagonal_iterates_every_level_of_an_infinite_spread(stacked):
    # From e_1 the 2-cycle's vector alternates between e_1 and e_2: a zero
    # entry at every level makes the spread inf, which is no rounding floor.
    cycle = np.array([[0.0, 1.0], [1.0, 0.0]])
    alone = scaled_power_diagonal(cycle, 0, 50)
    assert len(alone.values) == 50 and alone.high == math.inf
    assert alone.values[:4] == [-math.inf, 0.0, -math.inf, 0.0]
    if stacked:
        got, products = counted_power_diagonal(np.stack([cycle, 2.0 * cycle]), 0, 50)
        assert products == 50
        assert_same_levels(got[0], alone)


def primitive_tables(count, seed=7):
    """Random primitive weight tables: m in [2, 12), log-weights t U(-3, 3) on
    arcs drawn with probability 0.7, the diagonal and the cycle i -> i + 1
    always on, t drawn from 0.3, 1 and 3."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(2, 12))
        L = rng.uniform(-3.0, 3.0, (m, m))
        arcs = rng.random((m, m)) < 0.7
        arcs[np.arange(m), np.arange(m)] = True
        arcs[np.arange(m), (np.arange(m) + 1) % m] = True
        yield arcs * np.exp(float(rng.choice([0.3, 1.0, 3.0])) * L)


def test_perron_data_matches_lapack(monkeypatch):
    # A smaller cap, so that a table whose spectral gap keeps the iteration
    # from settling raises within it: |lambda_2 / lambda_1|^cap near 1.
    cap = 20_000
    monkeypatch.setattr(numerics, "_PERRON_MAX_ITER", cap)
    raised = 0
    for W in primitive_tables(40):
        second, first = np.sort(np.abs(np.linalg.eigvals(W)))[-2:]
        if (second / first) ** cap > 1e-3:
            with pytest.raises(PowerIterationError, match="did not settle"):
                perron_data(W)
            raised += 1
        else:
            assert_matches_lapack(W, *perron_data(W))
    # The draw holds one table of gap 2.3e-5 (m = 2, t = 3).
    assert raised == 1


def test_perron_data_raises_on_a_nilpotent_matrix():
    with pytest.raises(PowerIterationError, match="collapsed"):
        perron_data(np.triu(np.ones((4, 4)), 1))


def test_power_diagonal_keeps_a_bounded_number_of_past_vectors():
    # Symbol 0 feeds every symbol, which keeps a share 1 - k / 4m of its
    # weight: the ratios settle at rate 1 - 1/1200 and do not agree by
    # n_max, so every level is iterated.
    m, n_max = 300, 3000
    W = np.diag(1.0 - np.arange(m) / (4.0 * m))
    W[:, 0] = 1.0
    tracemalloc.start()
    try:
        levels = scaled_power_diagonal(W, 0, n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(levels.values) == n_max
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
        # The factored weights are 1 out of symbol 1 and at most 3^-t
        # elsewhere: the vector is uniform from level 1, its ratios agree at
        # level 2, and each factored log Z_n rounds to within 2 ulps of 0.0.
        assert est.series.shift == c
        values = est.series.values
        assert len(values) == 2 and max(map(abs, values)) <= 2 ** -51
        assert [est.series.log_z(n) for n in (1, 2)] == [v + n * c for n, v in enumerate(values, 1)]
        assert est.slopes == ((1, values[1] - values[0] + c),)
        assert est.series.log_norm == 0.0
        assert est.value == pytest.approx(-t * math.log(3.0), abs=1e-9)
        assert est.lower <= -t * math.log(3.0) <= est.upper
        assert est.lower <= est.value <= est.upper
        assert est.truncation_values == ((20, est.value),)


def test_underflowing_weights_are_left_out_of_the_arc_pad():
    # At t = 300 the weights 3^(-300 a) of a >= 3 underflow, and at t = 670
    # and 700 (factored) all but the first; the pad counts |t L| of the
    # normal weights only. The truncation's pressure is log sum_a exp(t L_a)
    # over the table's floats L_a, rank one on the full shift.
    p = weighted_third()
    values = PairTable(truncate(full_shift(), 20), p.pair_structure()).values.tolist()
    with localcontext() as ctx:
        ctx.prec = 60
        for t, est in pressure_curve(full_shift(), p, [300.0, 670.0, 700.0], m_list=[20], n_max=12):
            lower, _, upper = est.series.bracket
            exact = sum((Decimal(t) * Decimal(x)).exp() for x in values).ln()
            assert Decimal(lower) <= exact <= Decimal(upper), t
            assert upper - lower <= 2.5e-12, t


def test_underflow_shift_rounds_both_bounds_outward():
    # Every weight exp(-800 + d_ij) underflows, so c = max(-800 + d_ij) is
    # factored out and added back to the lower bound and to the norm under
    # the upper one. Both sums round at the size of c, and each must round
    # outward: the exact sums lie inside the bounds. The declared C puts the
    # offset's rate in [-800 / 12, 800 / 12], and cancels most of c in the
    # upper bound, whose last rounding is then fine enough to show how the
    # norm's sum was rounded.
    d = [[0.468, 0.408, 0.001], [0.429, 0.017, 0.365], [0.088, 0.432, 0.271]]
    p = birkhoff_potential(lambda i, j: -800.0 + d[i - 1][j - 1], full_shift())
    p.declared_C = 800.0
    est = gurevich_pressure(full_shift(), p, m_list=[3], n_max=12)
    c, norm = est.series.shift, est.series.log_norm
    assert c == -800.0 + 0.468
    # The least Collatz-Wielandt ratio of the factored matrix's last vector.
    (W,), _ = PairTable(truncate(full_shift(), 3), p.pair_structure()).matrices((1.0,))
    low = math.log(scaled_power_diagonal(W, 0, 12).low)
    exact_lower = Fraction(low) + Fraction(-800, 12) + Fraction(c)
    exact_upper = 800 + Fraction(norm) + Fraction(c) + Fraction(3 + 2, 2 ** 52)
    assert Fraction(est.lower) <= exact_lower
    assert Fraction(est.upper) >= exact_upper
    # Rounded to nearest, the lower sum rounds up and the norm's rounds down.
    assert Fraction(low + -800 / 12 + c) > exact_lower
    assert Fraction(norm + c) < Fraction(norm) + Fraction(c)
    # The rate bounds' middle is 0: the value is the log of the last sum plus c.
    assert est.value == math.log(scaled_power_diagonal(W, 0, 12).total) + c


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
    # The fits read the values; only the estimate's own series builds its slopes.
    calls = []
    slopes = PartitionSeries.slopes
    monkeypatch.setattr(PartitionSeries, "slopes", lambda self: calls.append(self) or slopes(self))
    est = gurevich_pressure(full_shift(), weighted_third(), m_list=[4, 8, 16], n_max=12)
    assert len(calls) == 1 and calls[0] is est.series
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
