"""Tests for transition models, truncations, and periodic-word machinery."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from helpers import count_periodic, enumerate_periodic_words, wielandt_exponent
from thermoshift.gibbs import count_admissible_words
from thermoshift.potentials import WordHooks, fiber_count_potential
from thermoshift.shift_core import (
    BipCertificate,
    BipFailure,
    DegenerateTruncationError,
    FiniteSubshift,
    MODEL_REGISTRY,
    SymbolDomainError,
    TransitionModel,
    check_bip,
    check_mixing,
    star_cover_shift,
    star_shift,
    full_shift,
    golden_mean_shift,
    is_admissible,
    model_from_arcs,
    renewal_shift,
    symbol_lookup,
    truncate,
    walk,
    walk_counts,
)


def test_registry_has_all_builtin_models():
    assert set(MODEL_REGISTRY) == {
        "full", "golden_mean", "star_cover", "star", "renewal"
    }
    for name, builder in MODEL_REGISTRY.items():
        assert builder().name == name


def test_golden_mean_truncation_matrix():
    sub = truncate(golden_mean_shift(), 2)
    assert sub.symbols == (1, 2)
    assert sub.dropped == ()
    np.testing.assert_array_equal(sub.matrix, [[1, 1], [1, 0]])


def test_star_cover_truncation_starts_at_zero():
    sub = truncate(star_cover_shift(), 2)
    assert sub.symbols == (0, 1)
    np.testing.assert_array_equal(sub.matrix, [[1, 1], [1, 0]])


def test_admissibility_uses_consecutive_pairs_only():
    gm = golden_mean_shift()
    assert is_admissible((1, 2, 1, 1, 2), gm)
    assert not is_admissible((1, 2, 2), gm)
    # No cyclic closure requirement: 1 2 is fine even though 2 -> 1 wraps.
    assert is_admissible((2, 1), gm)


def test_symbol_domain_errors():
    gm = golden_mean_shift()
    with pytest.raises(SymbolDomainError):
        is_admissible((0, 1), gm)
    with pytest.raises(SymbolDomainError):
        is_admissible((1, 3), gm)
    with pytest.raises(SymbolDomainError):
        gm.admits(1, "2")


def test_golden_mean_periodic_words_length_three():
    sub = truncate(golden_mean_shift(), 2)
    words = list(enumerate_periodic_words(sub, 3, 1))
    # Cyclic closures from symbol 1: exactly the (1,1) entry of the cube.
    assert words == [(1, 1, 1), (1, 1, 2), (1, 2, 1)]
    assert count_periodic(sub, 3, 1) == 3


def test_golden_mean_periodic_counts_follow_fibonacci():
    sub = truncate(golden_mean_shift(), 2)
    assert count_periodic(sub, 5, 1) == 8
    # Trace of M^n is the Lucas sequence; the (1,1) entry alone obeys the
    # Fibonacci recursion count(n) = count(n-1) + count(n-2) from n = 3 on.
    counts = [count_periodic(sub, n, 1) for n in range(1, 12)]
    for n in range(2, len(counts)):
        assert counts[n] == counts[n - 1] + counts[n - 2]


def test_full_shift_truncation_counts():
    sub = truncate(full_shift(), 3)
    assert count_periodic(sub, 4, 1) == 27
    words = list(enumerate_periodic_words(sub, 4, 1))
    assert len(words) == 27
    assert all(w[0] == 1 for w in words)
    assert words == sorted(words)


def test_enumeration_agrees_with_matrix_count():
    rng = np.random.default_rng(7)
    for _ in range(20):
        size = int(rng.integers(2, 6))
        mat = (rng.random((size, size)) < 0.6).astype(int)
        mat[0, :] = 1  # keep symbol 1 alive
        mat[:, 0] = 1
        arcs = [(i + 1, j + 1) for i in range(size) for j in range(size) if mat[i, j]]
        sub = truncate(model_from_arcs(arcs), size)
        for n in (1, 2, 3, 5):
            assert len(list(enumerate_periodic_words(sub, n, 1))) == count_periodic(sub, n, 1)


def test_truncation_prunes_dead_symbols():
    # Symbol 3 has no outgoing arc and must be pruned.
    sub = truncate(model_from_arcs([(1, 2), (2, 1), (1, 3)]), 3)
    assert sub.symbols == (1, 2)
    assert sub.dropped == (3,)


def test_truncation_can_degenerate():
    with pytest.raises(DegenerateTruncationError):
        truncate(model_from_arcs([(1, 2), (2, 3)]), 3)


def test_long_chains_prune_to_their_loop():
    m = 2048
    forward = truncate(model_from_arcs([(i, i + 1) for i in range(1, m)] + [(m, m)]), m)
    assert forward.symbols == (m,) and forward.dropped == tuple(range(1, m))
    backward = truncate(model_from_arcs([(i + 1, i) for i in range(1, m)] + [(1, 1)]), m)
    assert backward.symbols == (1,) and backward.dropped == tuple(range(2, m + 1))
    assert forward.matrix.tolist() == backward.matrix.tolist() == [[1]]


def test_renewal_truncation_and_mixing():
    sub = truncate(renewal_shift(), 3)
    assert sub.symbols == (1, 2, 3)
    np.testing.assert_array_equal(sub.matrix, [[1, 1, 1], [1, 0, 0], [0, 1, 0]])
    assert check_mixing(sub) is True
    assert check_mixing(truncate(renewal_shift(), 8)) is True


def test_mixing_certificates():
    gm = truncate(golden_mean_shift(), 2)
    assert check_mixing(gm) is True
    full3 = truncate(full_shift(), 3)
    assert check_mixing(full3) is True
    period2 = truncate(model_from_arcs([(1, 2), (2, 1)]), 2)
    assert check_mixing(period2) is False


def mixing_cases():
    rng = np.random.default_rng(20)
    for k in range(500):
        size = 1 + k % 9
        mat = (rng.random((size, size)) < rng.uniform(0.1, 0.9)).astype(np.int8)
        yield f"random {k}", FiniteSubshift(tuple(range(1, size + 1)), mat)
    for model in (renewal_shift(), star_shift(), star_cover_shift(), full_shift()):
        for m in (1, 2, 3, 5, 8, 13):
            yield f"{model.name} m={m}", truncate(model, m)
    yield "golden mean", truncate(golden_mean_shift(), 2)
    perm = [int(s) for s in rng.permutation(48) + 1]
    cycle = model_from_arcs([(perm[i], perm[(i + 1) % 48]) for i in range(48)])
    yield "48-cycle", truncate(cycle, 48)
    yield "period 2", truncate(model_from_arcs([(1, 2), (2, 1)]), 2)


def test_mixing_matches_the_wielandt_loop():
    primitive = 0
    for name, sub in mixing_cases():
        mixing = check_mixing(sub)
        assert mixing == (wielandt_exponent(sub) is not None), name
        primitive += mixing
    assert primitive > 50


def truncation_or_none(model, m):
    try:
        sub = truncate(model, m)
    except DegenerateTruncationError:
        return None
    assert sub.matrix.dtype == np.int8
    return sub.symbols, sub.dropped, sub.matrix.tolist()


def table_models():
    for name, build in MODEL_REGISTRY.items():
        yield name, build()
    yield "sink", model_from_arcs([(1, 2), (2, 1), (1, 3)])
    yield "chain", model_from_arcs([(1, 2), (2, 3)])
    yield "gaps", model_from_arcs([(3, 3), (1, 3), (5, 1), (7, 7), (6, 7), (7, 9), (40, 2)])
    rng = np.random.default_rng(21)
    for k in range(12):
        size = int(rng.integers(3, 45))
        mat = rng.random((size, size)) < 2.0 / size
        arcs = [(i + 1, j + 1) for i, j in zip(*np.nonzero(mat))] or [(size, size)]
        yield f"random arcs {k}", model_from_arcs(arcs)


@pytest.mark.parametrize("name, model", list(table_models()))
def test_table_and_rule_truncate_alike(name, model):
    by_rule = dataclasses.replace(model, table=None)
    assert model.table is not None and by_rule.table is None
    for m in range(1, 41):
        assert truncation_or_none(model, m) == truncation_or_none(by_rule, m), m


def test_pruning_and_degeneracy_are_covered_by_the_table_models():
    outcomes = [truncation_or_none(model, 40) for _, model in table_models()]
    assert None in outcomes
    assert any(out is not None and out[1] for out in outcomes)


def test_arc_table_is_sized_by_the_arcs_not_the_symbol_ids():
    tracemalloc.start()
    try:
        model = model_from_arcs([(1, 1), (1, 2), (2, 1), (3, 10 ** 9)])
        sub = truncate(model, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sub.symbols == (1, 2) and sub.dropped == (3,)
    assert peak < 1 << 20
    hits = model.table(np.array([3, 10 ** 9, 4, 2]), np.array([10 ** 9, 3, 4, 10 ** 9]))
    assert hits.tolist() == [True, False, False, False]


def test_model_without_table_uses_its_rule():
    model = TransitionModel(lambda i, j: i != j, None, 1, "no_loops")
    sub = truncate(model, 3)
    np.testing.assert_array_equal(sub.matrix, 1 - np.eye(3))
    assert check_mixing(sub) is True


def test_count_periodic_has_no_overflow():
    sub = truncate(full_shift(), 10)
    # 10^120 overflows any fixed-width integer; the exact count must not.
    assert count_periodic(sub, 120, 1) == 10 ** 119
    assert count_admissible_words(sub, 120) == 10 ** 120


def test_neighbor_queries():
    sub = truncate(renewal_shift(), 4)
    assert sub.out_neighbors(1) == (1, 2, 3, 4)
    assert sub.out_neighbors(3) == (2,)
    assert sub.in_neighbors(3) == (1, 4)
    assert sub.arc(4, 3) and sub.arc(1, 4)
    assert not sub.arc(2, 3)
    with pytest.raises(SymbolDomainError):
        sub.out_neighbors(9)


def test_successor_layout_is_cached_outside_equality():
    sub = truncate(renewal_shift(), 4)
    start, succ = sub.successors
    assert start.tolist() == [0, 4, 5, 6, 7] and succ.tolist() == [0, 1, 2, 3, 0, 1, 2]
    assert sub.successors is sub.successors
    with pytest.raises(ValueError):
        succ[0] = 1
    for k, s in enumerate(sub.symbols):
        assert tuple(sub.symbols[j] for j in succ[start[k]:start[k + 1]]) == sub.out_neighbors(s)
    # A position without successors has an empty run.
    hollow = FiniteSubshift((1, 2, 3), np.array([[0, 1, 1], [0, 0, 0], [1, 0, 0]], dtype=np.int8))
    assert [a.tolist() for a in hollow.successors] == [[0, 2, 2, 3], [1, 2, 0]]
    assert hollow.out_neighbors(2) == () and hollow.in_neighbors(1) == (3,)
    fresh = FiniteSubshift(sub.symbols, sub.matrix, sub.dropped)
    assert "successors" not in {f.name for f in dataclasses.fields(sub)}
    assert "successors" not in vars(fresh) and fresh == sub


def test_subshifts_compare_by_value():
    ones = FiniteSubshift((1, 2), np.ones((2, 2), dtype=np.int8))
    assert ones == FiniteSubshift((1, 2), np.ones((2, 2), dtype=np.int8))
    assert ones != FiniteSubshift((1, 2), np.eye(2, dtype=np.int8))
    assert ones != FiniteSubshift((1, 3), np.ones((2, 2), dtype=np.int8))
    assert ones != FiniteSubshift((1, 2), np.ones((2, 2), dtype=np.int8), dropped=(3,))
    assert ones != FiniteSubshift((1,), np.ones((1, 1), dtype=np.int8))
    assert ones != (1, 2)
    with pytest.raises(TypeError):
        hash(ones)


def test_bip_star_shift_certificate():
    cert = check_bip(star_shift(), {1}, up_to=50)
    assert isinstance(cert, BipCertificate)
    assert cert.witness_set == (1,)
    assert cert.verified_up_to == 50


def test_bip_renewal_fails_just_past_witnesses():
    # Witnesses 1..k cover images only down from symbol k+1; symbol k+2
    # steps to k+1 which no witness provides.
    failure = check_bip(renewal_shift(), {1, 2, 3}, up_to=50)
    assert isinstance(failure, BipFailure)
    assert failure.symbol == 5
    assert failure.missing == "image"


def test_bip_full_shift_any_witness():
    cert = check_bip(full_shift(), {7}, up_to=200)
    assert isinstance(cert, BipCertificate)


def test_bip_refuses_to_check_no_symbol():
    with pytest.raises(ValueError, match="up_to 0"):
        check_bip(full_shift(), {1}, up_to=0)


def test_symbol_lookup_reads_dicts_sequences_and_callables():
    lookup, symbols = symbol_lookup([0.5, 0.25], "rates")
    assert symbols == (1, 2) and lookup(2) == 0.25
    with pytest.raises(ValueError, match="^rates: no entry for symbol 3$"):
        lookup(3)
    lookup, symbols = symbol_lookup({4: "d", 2: "b"}, "table")
    assert symbols == (2, 4) and lookup(4) == "d"
    with pytest.raises(ValueError, match="^table: no entry for symbol 1$"):
        lookup(1)
    assert symbol_lookup(abs, "unused") == (abs, None)


def test_walk_merges_the_fiber_counts_into_rows_with_multiplicities():
    sub = truncate(star_shift(), 64)
    hooks = fiber_count_potential().word_hooks(sub)
    rows, words = 0, [0] * 6
    for n, last, (lo, hi), mult in walk(sub, [0], 6, hooks.start, hooks.extend):
        assert mult.dtype == np.int64 and len(mult) == len(last) == len(lo) == len(hi)
        rows += len(last)
        words[n - 1] += int(mult.sum())
    assert rows == 650
    assert sum(words) == 290688
    ones = np.zeros(sub.size, dtype=object)
    ones[0] = 1
    assert words == [int(walk_counts(sub, n - 1, ones).sum()) for n in range(1, 7)]


def test_walk_with_word_hooks_yields_every_length_in_lexicographic_order():
    model = model_from_arcs([[i, j] for i in range(1, 7) for j in range(1, 7) if (i + j) % 4])
    cases = [(truncate(model, 6), 5)]
    # Hand-built subshifts with empty rows and columns: parents without children.
    cases += [(sub, 4) for _, sub in mixing_cases() if sub.size <= 6]
    for sub, depth in cases:
        hooks = WordHooks(sub)
        found = {n: [] for n in range(1, depth + 1)}
        slices = [0] * (depth + 1)
        for n, last, (words,), mult in walk(sub, range(sub.size), depth, hooks.start, hooks.extend):
            assert mult is None and words.shape == (len(last), n)
            assert words[:, -1].tolist() == [sub.symbols[k] for k in last]
            found[n].extend(map(tuple, words.tolist()))
            slices[n] += 1
        arcs = sub.matrix.tolist()
        for n, words in found.items():
            brute = [
                tuple(sub.symbols[k] for k in w)
                for w in itertools.product(range(sub.size), repeat=n)
                if all(arcs[a][b] for a, b in zip(w, w[1:]))
            ]
            assert words == brute, (sub, n)
        if depth == 5:
            assert slices[5] > 1  # the longest words of the first case span several slices


def test_walk_carries_python_int_states_unmerged_with_their_multiplicities():
    sub = truncate(full_shift(), 3)

    def extend(state, parent, prev, child):
        # The length as the state, moving to Python ints from length 4 on.
        c = state[0][parent] + 1
        return (c.astype(object) if c.max() >= 4 else c,)

    start = lambda roots: (np.ones(len(roots), dtype=np.int64),)
    seen = []
    for n, last, (c,), mult in walk(sub, [0], 6, start, extend):
        assert mult.dtype == np.int64 and c.tolist() == [n] * len(last)
        seen.append((n, len(last), sorted(set(mult.tolist())), int(mult.sum())))
    # Merged by last symbol up to length 3, then one row per parent and arc,
    # each keeping the 3 words its length-3 parent stood for.
    assert seen == [(1, 1, [1], 1), (2, 3, [1], 3), (3, 3, [3], 9),
                    (4, 9, [3], 27), (5, 27, [3], 81), (6, 81, [3], 243)]
