"""Tests for potential sequences, their declared constants, and diagnostics.

Expected values are frozen from hand computation or from an independent
brute-force enumeration inside the test.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from helpers import HiddenStructure, admits_word, brute_force_preimage_count, unscaled
from thermoshift.dimension import product_construction
from thermoshift.matrix_cocycle import MatrixFamily, log_norm_of_path
from thermoshift.potentials import (
    PairStructure,
    PotentialSequence,
    birkhoff_potential,
    check_cone_condition,
    cocycle_potential,
    estimate_regularity,
    fiber_count_potential,
    geometric_tail,
    pair_log_table,
    pair_matrix,
    summability_report,
    weighted_fullshift_potential,
    zero_potential,
)
from thermoshift.shift_core import (
    InadmissibleWordError,
    TransitionModel,
    star_shift,
    full_shift,
    golden_mean_shift,
    model_from_arcs,
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


def test_birkhoff_sup_searches_a_finite_alphabet_whole():
    # The only arc worth 1 leads to symbol 200, past the 128-symbol successor
    # probe of a countable model; with and without model.table.
    def f(i, j):
        return 1.0 if j == 200 else 0.0

    with_table = model_from_arcs([(i, j) for i in range(1, 201) for j in range(1, 201)])
    rule_only = TransitionModel(lambda i, j: True, 200, 1, "complete200")
    for model in (with_table, rule_only):
        p = birkhoff_potential(f, model)
        assert p.sup_f1(1) == math.e
        assert p.log_inf_f1(1) == 0.0


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
    rep = summability_report(p)
    assert rep.verdict == "summable"
    assert rep.partial_sum == pytest.approx(0.5 - 3.0 ** (-64) / 2, rel=1e-12)
    assert rep.tail_bound == pytest.approx(3.0 ** (-64) / 2, rel=1e-12)
    assert rep.total_bound == pytest.approx(0.5, rel=1e-12)


def test_constant_weight_is_not_summable():
    p = weighted_fullshift_potential(lambda a: 1.0)
    rep = summability_report(p)
    assert rep.verdict == "not_summable"
    assert rep.partial_sum == pytest.approx(64.0, abs=1e-9)


def test_finite_alphabet_is_always_summable():
    p = zero_potential(golden_mean_shift())
    rep = summability_report(p)
    assert rep.verdict == "summable"
    assert rep.total_bound == pytest.approx(2.0, abs=1e-12)


def test_finite_alphabet_beyond_the_probe_is_summable():
    k = 70
    model = model_from_arcs([(i, j) for i in range(1, k + 1) for j in range(1, k + 1)])
    rep = summability_report(zero_potential(model))
    assert rep.verdict == "summable"
    # The probe sums the first 64 symbols; the other six leave tail and total unknown.
    assert rep.partial_sum == 64.0
    assert rep.tail_bound is None and rep.total_bound is None


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


def test_regularity_refuses_to_sample_nothing():
    p = weighted_fullshift_potential(lambda a: 2.0 ** (-a))
    with pytest.raises(ValueError, match="depth"):
        estimate_regularity(p, full_shift(), depth=1)
    with pytest.raises(ValueError, match="samples"):
        estimate_regularity(p, full_shift(), samples=0)


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


def test_row_hook_tables_equal_the_per_arc_tables():
    weighted = weighted_fullshift_potential(lambda a: 3.0 ** (-a))
    ratios = product_construction([0.2, 0.3, 0.45]).potential(full_shift())
    full = truncate(full_shift(), 40)
    cycle = truncate(model_from_arcs([(1, 2), (2, 1), (2, 3), (3, 1)]), 3)
    for p, sub in (
        (weighted, full), (weighted.scaled(0.7), full), (weighted.scaled(-1.3), full),
        (ratios, cycle), (ratios.scaled(0.631), cycle),
    ):
        ps = p.pair_structure()
        assert ps.row is not None
        per_arc = PairStructure(ps.pair, ps.offset)
        for table in (pair_matrix, pair_log_table):
            np.testing.assert_array_equal(table(sub, ps), table(sub, per_arc))


def test_pair_matrix_names_t_when_every_weight_underflows():
    sub = truncate(full_shift(), 4)
    ps = weighted_fullshift_potential(lambda a: 3.0 ** (-a)).scaled(700.0).pair_structure()
    with pytest.raises(ValueError, match=r"^t = 1\.0: every transfer weight exp\(t \* pair\) "
                                         r"underflows$"):
        pair_matrix(sub, ps)


def test_scaled_declared_constant_uses_absolute_value():
    f = fiber_count_potential()
    assert f.scaled(0.5).declared_C == pytest.approx(0.5 * math.log(4.0))
    assert f.scaled(-2.0).declared_C == pytest.approx(2.0 * math.log(4.0))


# -- matrix cocycle norms ------------------------------------------------------

def test_cocycle_eval_on_constant_family():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    p = cocycle_potential(lambda a: A, golden_mean_shift())
    assert p.eval((1,)) == pytest.approx(math.log(6.0), rel=1e-12)
    assert p.eval((1, 2)) == pytest.approx(math.log(18.0), rel=1e-12)
    assert p.eval((1, 2, 1)) == pytest.approx(math.log(54.0), rel=1e-12)
    assert p.declared_C == pytest.approx(math.log(4.0), rel=1e-12)
    assert p.sup_f1(1) == pytest.approx(6.0, rel=1e-12)


def cocycle_oracle(mats, t):
    """t log of the entry sum of the plain numpy product in the reversed order."""
    def value(word):
        prod = np.eye(3)
        for a in word:
            prod = mats[a] @ prod
        return t * math.log(prod.sum())
    return value


def word_hook_cases():
    rng = np.random.default_rng(11)
    mats = {a: rng.random((3, 3)) + 0.2 for a in (1, 2)}
    gm = golden_mean_shift()
    q = cocycle_potential(lambda a: mats[a], gm)
    words = np.array([(1, 1, 2, 1, 2, 1), (1, 2, 1, 1, 2, 1)])
    yield "cocycle", truncate(gm, 2), q, words, cocycle_oracle(mats, 1.0)
    yield "scaled_cocycle", truncate(gm, 2), q.scaled(0.5), words, cocycle_oracle(mats, 0.5)
    yield ("fiber_count", truncate(star_shift(), 6), fiber_count_potential(),
           np.array([(1, 3, 1, 1, 5, 1, 2), (1, 1, 1, 6, 1, 4, 1)]),
           lambda w: -math.log(brute_force_preimage_count(w)))
    f = lambda i, j: 0.4 * i - 0.7 * j
    yield ("per_word", truncate(gm, 2), birkhoff_potential(f, gm), words,
           lambda w: math.fsum(f(a, b) for a, b in zip(w, w[1:] + w[:1])))


@pytest.mark.parametrize("case", list(word_hook_cases()), ids=lambda case: case[0])
def test_word_hooks_close_matches_eval(case):
    _, sub, p, words, oracle = case
    # A scaled potential is walked as the partition series walks it: with its
    # base's hooks, each closed value times t.
    base, t = unscaled(p)
    hooks = base.word_hooks(sub)
    pos = np.array([[sub.position(a) for a in w] for w in words.tolist()])
    # Walk both words as one batch: the first step branches the root in two.
    state = hooks.start(pos[:1, 0])
    parent = np.array([0, 0])
    for k in range(1, words.shape[1]):
        state = hooks.extend(state, parent, pos[:, k - 1], pos[:, k])
        parent = np.array([0, 1])
    # Close the rows in reverse order, selecting them from the state.
    rows = np.array([1, 0])
    closed = t * hooks.close(tuple(x[rows] for x in state), words.shape[1], pos[rows, -1])
    for value, word in zip(closed, words[rows].tolist()):
        assert value == pytest.approx(p.eval(word), rel=1e-12)
        assert value == pytest.approx(oracle(tuple(word)), rel=1e-10)


def test_cocycle_eval_is_the_path_norm():
    family = MatrixFamily(2, [[[2.0, 1.0], [0.5, 3.0]], [[1.0, 0.25], [2.0, 1.0]]])
    p = cocycle_potential(family, full_shift())
    for word in ((1,), (2, 1), (1, 1, 2, 1, 2, 2, 1)):
        assert p.eval(word) == log_norm_of_path(family, word)


def test_cocycle_rejects_nonpositive_entries():
    with pytest.raises(ValueError):
        cocycle_potential(lambda a: np.array([[1.0, 0.0], [1.0, 1.0]]), golden_mean_shift())


def test_one_dimensional_cocycle_has_pair_structure():
    p = cocycle_potential(lambda a: np.array([[3.0 ** (-a)]]), full_shift())
    ps = p.pair_structure()
    assert ps is not None
    assert ps.pair(2, 1) == pytest.approx(-2 * math.log(3.0), rel=1e-12)
    A2 = np.array([[2.0, 1.0], [1.0, 2.0]])
    q = cocycle_potential(lambda a: A2, golden_mean_shift())
    assert q.pair_structure() is None
    entries, d = q.block_entries()
    assert d == 2
    np.testing.assert_array_equal(entries(1), A2)
    # Scaling breaks the exact matrix-product structure for t != 1.
    assert q.scaled(2.0).block_entries() is None


def test_cone_condition_reports():
    good = check_cone_condition(
        lambda k: np.array([[2.0, 1.0], [1.0, 2.0]]), range(1, 11)
    )
    assert good.uniform
    assert good.best_C == pytest.approx(0.25, rel=1e-12)
    bad = check_cone_condition(
        lambda k: np.array([[1.0, float(k)], [float(k), 1.0]]), range(1, 101)
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


def test_fiber_word_count_matches_the_batched_word_hooks():
    # The route partition sums take: one state row per word, Python ints once
    # the counts pass 2^61.
    f = fiber_count_potential()
    sub = truncate(star_shift(), 6)
    rng = np.random.default_rng(11)
    for length in (1, 2, 5, 40, 70, 130):
        words = []
        for _ in range(8):
            word = [int(rng.integers(1, 7))]
            while len(word) < length:
                outs = sub.out_neighbors(word[-1])
                word.append(outs[rng.integers(0, len(outs))])
            words.append(tuple(word))
        pos = np.array([[sub.symbols.index(a) for a in w] for w in words])
        hooks, rows = f.word_hooks(sub), np.arange(len(words))
        state = hooks.start(pos[:, 0])
        for k in range(1, length):
            state = hooks.extend(state, rows, pos[:, k - 1], pos[:, k])
        counts = [int(c) for c in state[0] + state[1]]
        assert [f.preimage_word_count(w) for w in words] == counts
    with pytest.raises(ValueError, match="nonempty"):
        f.preimage_word_count(())


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


def test_fiber_sup_is_one_half_everywhere():
    f = fiber_count_potential()
    assert all(f.sup_f1(a) == 0.5 for a in (1, 2, 7, 40))
    rep = summability_report(f)
    assert rep.verdict == "not_summable"


def test_cocycle_regularity_bounded_by_cone_constant():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    p = cocycle_potential(lambda a: A, golden_mean_shift())
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


class Recorder(PotentialSequence):
    """Zero potential without a pair structure that records what it is called on."""

    def __init__(self):
        self.words, self.points = [], []

    def eval(self, word):
        self.words.append(tuple(word))
        return 0.0

    def eval_point(self, cycle, k):
        self.points.append((tuple(cycle), k))
        return 0.0


def test_regularity_samples_follow_their_law():
    # Length uniform on [2, depth]; first symbol uniform, each successor
    # uniform among out-neighbours, conditioned on the closing arc; split
    # uniform on [1, L - 1]. Each (word, split) frequency is checked within
    # five binomial standard deviations of its exact probability.
    depth, count = 3, 20_000
    sub = truncate(golden_mean_shift(), 2)
    law = {}
    for length in range(2, depth + 1):
        weights = {}
        for w in itertools.product(sub.symbols, repeat=length):
            if admits_word(sub, w) and sub.arc(w[-1], w[0]):
                weights[w] = math.prod(1 / len(sub.out_neighbors(a)) for a in w[:-1])
        total = math.fsum(weights.values())
        for w, q in weights.items():
            for n in range(1, length):
                law[(w, n)] = q / total / (depth - 1) / (length - 1)
    rec = Recorder()
    rep = estimate_regularity(rec, golden_mean_shift(), depth=depth, samples=count,
                              seed=0, truncation=2)
    assert rep.samples == count == len(rec.words)
    splits = rec.points[0::2]
    assert [w for w, _ in splits] == rec.words
    assert rec.points[1::2] == [(w[n:] + w[:n], len(w) - n) for w, n in splits]
    seen = {}
    for cell in splits:
        seen[cell] = seen.get(cell, 0) + 1
    assert set(seen) <= set(law)
    for cell, prob in law.items():
        freq = seen.get(cell, 0) / count
        assert abs(freq - prob) <= 5 * math.sqrt(prob * (1 - prob) / count), cell


@pytest.mark.parametrize("potential", [
    birkhoff_potential(affine_arc, golden_mean_shift()),
    # Defects |log c_L - log c_n - log c_{L-n}| that vary with (L, n).
    weighted_fullshift_potential(lambda a: 2.0 ** (-a), log_c=math.sin, c_regularity=3.0),
], ids=["birkhoff", "length-factor"])
def test_regularity_routes_agree(potential):
    model = potential.model
    pair = estimate_regularity(potential, model, depth=12, samples=300, seed=5, truncation=3)
    word = estimate_regularity(
        HiddenStructure(potential), model, depth=12, samples=300, seed=5, truncation=3
    )
    assert pair.samples == word.samples > 0
    assert abs(pair.C_hat - word.C_hat) <= 1e-12
    # Defects that tie to rounding may pick different worst words: every
    # birkhoff defect is rounding, and a length factor's depends on (L, n) alone.
    if pair.C_hat > 1e-9:
        assert len(pair.worst_word) == len(word.worst_word)


def test_regularity_without_closed_words_uses_no_sample():
    # A 3-cycle has no closed word of length 2.
    model = model_from_arcs([(1, 2), (2, 3), (3, 1)])
    for p in (zero_potential(model), Recorder()):
        rep = estimate_regularity(p, model, depth=2, samples=50, truncation=3)
        assert rep.samples == 0 and rep.C_hat == 0.0 and rep.worst_word is None


def test_regularity_memory_follows_the_block_not_the_samples():
    # 200 000 words of length up to 64 hold 12.8 million symbols, 100 MB as
    # int64; a block holds 65 536.
    p = birkhoff_potential(affine_arc, full_shift())
    tracemalloc.start()
    try:
        rep = estimate_regularity(p, full_shift(), depth=64, samples=200_000, truncation=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.samples == 200_000 and rep.C_hat <= 1e-12
    assert peak < 8 << 20
