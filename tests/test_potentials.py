"""Tests for potential sequences, their declared constants, and diagnostics.

Expected values are frozen from hand computation or from an independent
brute-force enumeration inside the test.
"""

import math

import numpy as np
import pytest

from helpers import brute_force_preimage_count
from thermoshift.potentials import (
    birkhoff_potential,
    check_cone_condition,
    cocycle_potential,
    estimate_regularity,
    fiber_count_potential,
    geometric_tail,
    summability_report,
    weighted_fullshift_potential,
    zero_potential,
)
from thermoshift.shift_core import (
    InadmissibleWordError,
    star_shift,
    full_shift,
    golden_mean_shift,
    truncate,
)


# -- arc-sum potentials ------------------------------------------------------

def affine_arc(i, j):
    return 0.3 * i + 0.1 * j


def test_birkhoff_eval_is_cyclic_arc_sum():
    p = birkhoff_potential(affine_arc, golden_mean_shift())
    # arcs 1->2 and 2->1: (0.3 + 0.2) + (0.6 + 0.1)
    assert p.eval((1, 2)) == pytest.approx(1.2, abs=1e-15)
    assert p.eval((1,)) == pytest.approx(affine_arc(1, 1), abs=1e-15)


def test_birkhoff_rejects_bad_words():
    p = birkhoff_potential(affine_arc, golden_mean_shift())
    with pytest.raises(InadmissibleWordError):
        p.eval((1, 2, 2))
    # (2, 2) closure is also the wrap arc of the single word (2, ...) ending
    # in a symbol that cannot return to the start.
    q = birkhoff_potential(affine_arc, golden_mean_shift())
    with pytest.raises(InadmissibleWordError):
        q.eval((2, 2))


def test_birkhoff_is_exactly_additive_at_periodic_points():
    p = birkhoff_potential(affine_arc, golden_mean_shift())
    w = (1, 1, 2, 1, 2)
    for n in range(1, len(w)):
        rotated = w[n:] + w[:n]
        total = p.eval_point(w, n) + p.eval_point(rotated, len(w) - n)
        assert p.eval(w) == pytest.approx(total, abs=1e-12)


def test_birkhoff_cylinder_weight_optimizes_last_hop():
    sub = truncate(golden_mean_shift(), 2)
    p = birkhoff_potential(affine_arc, golden_mean_shift())
    # From symbol 1 the next hop is 1 or 2: f(1,1) = 0.4, f(1,2) = 0.5.
    assert p.cylinder_log_weight((1,), sub) == pytest.approx(0.5, abs=1e-15)
    assert p.cylinder_log_weight((1,), sub, lower=True) == pytest.approx(0.4, abs=1e-15)
    # Symbol 2 can only go to 1.
    assert p.cylinder_log_weight((2,), sub) == pytest.approx(0.7, abs=1e-15)


def test_zero_potential_weights_are_one():
    p = zero_potential(golden_mean_shift())
    assert p.eval((1, 1, 2)) == 0.0
    assert p.sup_f1(1) == 1.0
    assert p.declared_C == 0.0


# -- weighted full shift -----------------------------------------------------

def test_weighted_eval_and_tail():
    p = weighted_fullshift_potential(
        lambda a: 3.0 ** (-a), lam_tail_power=geometric_tail(3.0)
    )
    assert p.eval((1, 2)) == pytest.approx(-3 * math.log(3.0), abs=1e-12)
    assert p.sup_f1(1) == pytest.approx(1.0 / 3.0, abs=1e-15)
    # Exact geometric tail: sum_{a >= 3} 3^-a = 1/18.
    assert p.sup_f1_tail(2) == pytest.approx(1.0 / 18.0, rel=1e-12)


def test_weighted_rejects_weights_outside_unit_interval():
    p = weighted_fullshift_potential(lambda a: 1.5)
    with pytest.raises(ValueError):
        p.eval((1,))
    q = weighted_fullshift_potential(lambda a: 0.0)
    with pytest.raises(ValueError):
        q.sup_f1(1)
    # Weight exactly 1 is legitimate (leading symbol of a zeta-type family).
    r = weighted_fullshift_potential(lambda a: float(a) ** (-2.0) if a > 1 else 1.0)
    assert r.eval((1,)) == 0.0


def test_weighted_summability_report():
    p = weighted_fullshift_potential(
        lambda a: 3.0 ** (-a), lam_tail_power=geometric_tail(3.0)
    )
    rep = summability_report(p, probe_bound=10)
    assert rep.verdict == "summable"
    assert rep.partial_sum == pytest.approx(0.5 - 3.0 ** (-10) / 2, rel=1e-12)
    assert rep.tail_bound == pytest.approx(3.0 ** (-10) / 2, rel=1e-12)
    assert rep.total_bound == pytest.approx(0.5, rel=1e-12)


def test_constant_weight_is_not_summable():
    p = weighted_fullshift_potential(lambda a: 1.0)
    rep = summability_report(p, probe_bound=64)
    assert rep.verdict == "not_summable"
    assert rep.partial_sum == pytest.approx(64.0, abs=1e-9)


def test_finite_alphabet_is_always_summable():
    p = zero_potential(golden_mean_shift())
    rep = summability_report(p, probe_bound=64)
    assert rep.verdict == "summable"
    assert rep.total_bound == pytest.approx(2.0, abs=1e-12)


def test_length_factor_enters_offset_and_constant():
    # Constant c_n = 2 gives |log c_{n+m} - log c_n - log c_m| = log 2 at
    # every split, so the sampled maximum is known exactly.
    p = weighted_fullshift_potential(
        lambda a: 2.0 ** (-a), log_c=lambda n: math.log(2.0), c_regularity=math.log(2.0)
    )
    assert p.eval((1, 1)) == pytest.approx(-math.log(2.0), abs=1e-12)
    rep = estimate_regularity(p, full_shift(), depth=10, samples=300, seed=3)
    assert rep.C_hat == pytest.approx(math.log(2.0), abs=1e-12)
    assert not rep.violates_declared
    lying = weighted_fullshift_potential(
        lambda a: 2.0 ** (-a), log_c=lambda n: math.log(2.0), c_regularity=0.1
    )
    rep_bad = estimate_regularity(lying, full_shift(), depth=10, samples=300, seed=3)
    assert rep_bad.violates_declared


# -- scaling -----------------------------------------------------------------

def test_scaled_potential_scales_everything():
    p = weighted_fullshift_potential(lambda a: 3.0 ** (-a))
    q = p.scaled(2.0)
    assert q.eval((1, 2)) == pytest.approx(2.0 * p.eval((1, 2)), abs=1e-12)
    assert q.sup_f1(1) == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert q.declared_C == 0.0
    assert p.scaled(1.0) is p
    assert q.scaled(0.5).t == pytest.approx(1.0)


def test_scaled_negative_power_swaps_sup_and_inf():
    p = weighted_fullshift_potential(lambda a: 3.0 ** (-a))
    q = p.scaled(-1.0)
    # Families constant on 1-cylinders have inf = sup, so sup of f^-1 is 3.
    assert q.sup_f1(1) == pytest.approx(3.0, rel=1e-12)


def test_scaled_pair_structure_matches_eval():
    p = weighted_fullshift_potential(lambda a: 3.0 ** (-a))
    ps = p.scaled(0.7).pair_structure()
    w = (2, 1, 3)
    total = ps.offset(3) + sum(
        ps.pair(w[k], w[(k + 1) % 3]) for k in range(3)
    )
    assert total == pytest.approx(p.scaled(0.7).eval(w), abs=1e-12)


def test_scaled_declared_constant_uses_absolute_value():
    f = fiber_count_potential()
    assert f.scaled(0.5).declared_C == pytest.approx(0.5 * math.log(4.0))
    assert f.scaled(-2.0).declared_C == pytest.approx(2.0 * math.log(4.0))


# -- matrix cocycle norms ------------------------------------------------------

def test_cocycle_eval_on_constant_family():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    p = cocycle_potential(lambda a: A, golden_mean_shift(), symbol_bound=2)
    assert p.eval((1,)) == pytest.approx(math.log(6.0), rel=1e-12)
    assert p.eval((1, 2)) == pytest.approx(math.log(18.0), rel=1e-12)
    assert p.eval((1, 2, 1)) == pytest.approx(math.log(54.0), rel=1e-12)
    assert p.declared_C == pytest.approx(math.log(4.0), rel=1e-12)
    assert p.sup_f1(1) == pytest.approx(6.0, rel=1e-12)


def test_cocycle_prefix_protocol_matches_eval():
    rng = np.random.default_rng(11)
    mats = {a: rng.random((3, 3)) + 0.2 for a in (1, 2)}
    p = cocycle_potential(lambda a: mats[a], golden_mean_shift(), symbol_bound=2)
    words = np.array([(1, 1, 2, 1, 2, 1), (1, 2, 1, 1, 2, 1)])
    # Fold both words as one batch: the first step branches row 0 in two.
    state = p.prefix_start(1)
    parent = np.array([0, 0])
    for k in range(1, words.shape[1]):
        state = p.prefix_extend(state, parent, words[:, k])
        parent = np.array([0, 1])
    closed = p.periodic_close(state, np.array([1, 0]), words)
    for value, word in zip(closed, words[[1, 0]].tolist()):
        assert value == pytest.approx(p.eval(word), rel=1e-12)
        # Independent oracle: plain numpy product in the reversed order.
        prod = np.eye(3)
        for a in word:
            prod = mats[a] @ prod
        assert value == pytest.approx(math.log(prod.sum()), rel=1e-10)


def test_cocycle_rejects_nonpositive_entries():
    with pytest.raises(ValueError):
        cocycle_potential(
            lambda a: np.array([[1.0, 0.0], [1.0, 1.0]]),
            golden_mean_shift(),
            symbol_bound=1,
        )


def test_one_dimensional_cocycle_has_pair_structure():
    p = cocycle_potential(
        lambda a: np.array([[3.0 ** (-a)]]), full_shift(), symbol_bound=8
    )
    ps = p.pair_structure()
    assert ps is not None
    assert ps.pair(2, 1) == pytest.approx(-2 * math.log(3.0), rel=1e-12)
    A2 = np.array([[2.0, 1.0], [1.0, 2.0]])
    q = cocycle_potential(lambda a: A2, golden_mean_shift(), symbol_bound=2)
    assert q.pair_structure() is None
    entries, d = q.block_entries()
    assert d == 2
    np.testing.assert_array_equal(entries(1), A2)
    # Scaling breaks the exact matrix-product structure for t != 1.
    assert q.scaled(2.0).block_entries() is None


def test_cone_condition_reports():
    good = check_cone_condition(lambda k: np.array([[2.0, 1.0], [1.0, 2.0]]), 10)
    assert good.uniform
    assert good.best_C == pytest.approx(0.25, rel=1e-12)
    bad = check_cone_condition(
        lambda k: np.array([[1.0, float(k)], [float(k), 1.0]]), 100
    )
    assert not bad.uniform
    assert bad.best_C == pytest.approx(1.0 / 200.0, rel=1e-12)


# -- fiber-count potential -----------------------------------------------------

def test_fiber_counts_small_words():
    f = fiber_count_potential()
    assert f.preimage_word_count((1,)) == 2
    assert f.preimage_word_count((1, 1)) == 3
    assert f.preimage_word_count((1, 1, 1)) == 5
    assert f.preimage_word_count((1, 2)) == 2
    assert f.preimage_word_count((1, 2, 1, 2)) == 4
    assert f.eval((1, 1)) == pytest.approx(-math.log(3.0), rel=1e-15)
    # 1^n lifts to the 0/1 words without two adjacent 1s: Fibonacci(n + 2),
    # past the int64 range at n = 100.
    fib = [0, 1]
    while len(fib) < 103:
        fib.append(fib[-1] + fib[-2])
    assert f.preimage_word_count((1,) * 100) == fib[102] > 2 ** 63


def test_fiber_counts_match_brute_force():
    f = fiber_count_potential()
    rng = np.random.default_rng(5)
    sub = truncate(star_shift(), 6)
    for _ in range(40):
        length = int(rng.integers(1, 9))
        word = [1]
        for _k in range(length - 1):
            outs = sub.out_neighbors(word[-1])
            word.append(outs[rng.integers(0, len(outs))])
        word = tuple(word)
        assert f.preimage_word_count(word) == brute_force_preimage_count(word)


def test_fiber_eval_requires_star_admissibility():
    f = fiber_count_potential()
    with pytest.raises(InadmissibleWordError):
        f.eval((2, 3))


def test_fiber_regularity_within_declared_constant():
    f = fiber_count_potential()
    rep = estimate_regularity(
        f, star_shift(), depth=14, samples=400, seed=9, truncation=10
    )
    assert rep.samples > 300
    assert rep.C_hat <= math.log(4.0) + 1e-12
    assert not rep.violates_declared
    assert rep.M_hat == 1.0


def test_fiber_sup_is_one_half_everywhere():
    f = fiber_count_potential()
    assert all(f.sup_f1(a) == 0.5 for a in (1, 2, 7, 40))
    rep = summability_report(f, probe_bound=64)
    assert rep.verdict == "not_summable"


def test_cocycle_regularity_bounded_by_cone_constant():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    p = cocycle_potential(lambda a: A, golden_mean_shift(), symbol_bound=2)
    rep = estimate_regularity(
        p, golden_mean_shift(), depth=12, samples=300, seed=4
    )
    assert 0.0 < rep.C_hat <= math.log(4.0) + 1e-12
    assert not rep.violates_declared


# -- regularity falsifier ------------------------------------------------------

def test_regularity_of_exactly_additive_families_is_zero():
    # Summation order differs between the whole word and its two halves, so
    # the defect of an exactly additive family is only zero to rounding.
    p = birkhoff_potential(affine_arc, golden_mean_shift())
    rep = estimate_regularity(p, golden_mean_shift(), depth=12, samples=200, seed=0)
    assert rep.C_hat <= 1e-12
    assert rep.depth == 12
    assert not rep.violates_declared

    w = weighted_fullshift_potential(lambda a: 2.0 ** (-a))
    rep_w = estimate_regularity(w, full_shift(), depth=12, samples=200, seed=1)
    assert rep_w.C_hat <= 1e-12
