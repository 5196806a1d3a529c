"""Shared numerical helpers: stable log-sums, renormalized matrix powers and
path products, power iteration.

logsumexp rounds the exact sum of its terms (math.fsum), so one call does not
depend on the order of its input; a term with a count adds exactly what that
many copies add. A value built from several calls does depend on how the
terms were grouped: an enumerated partition value takes a logsumexp per walk
slice and another across slices, so it depends on the slice layout, which
shift_core.walk fixes (_FRONTIER rows a slice). Where the walk merges rows of
equal state it depends on the merge too: a merged slice holds the words of
several unmerged slices, so the value can move in its last bits from a walk
with one row per word, though not within one slice.
Path products group the same way: log_norms multiplies each block of a path
as a pairwise tree, so its value depends on the block layout, which
matrix_cocycle._CHUNK fixes for max_lyapunov (a word evaluated alone is one
block). The tree's lowest levels are looked up in per-call tables of
products of symbol words, one entry per pair of words, while a table holds
no more matrices than the level it replaces; each entry is the same product
of the same two operands as the node it replaces, so the lookups leave the
bits unchanged.
A power iteration (scaled_power_diagonal) stops at its floating-point
cycle. Its state is the normalized vector alone: with W fixed, the vector's
bits fix every later product, sum, vector and entry. So once a vector
repeats an earlier one bit for bit, the levels after it repeat the levels
after the earlier one, and copying them gives the floats the loop would
have computed. The logs of the copied sums are still added one level at a
time, so every log Z_n keeps its bits. In a (T, m, m) stack each matrix
stops at its own cycle, and the stack runs until its slowest matrix has
stopped.
"""

from __future__ import annotations

import math
from itertools import accumulate, cycle, islice
from typing import Sequence

import numpy as np

NEG_INF = float("-inf")


def logsumexp(values, counts=None) -> float:
    """Stable log of a sum of exponentials, each term taken counts[k] times.

    Accepts a float array or any iterable of floats, possibly containing
    -inf, and optionally an int64 array of counts, one per value. Returns
    -inf for an empty input or when every term is -inf. The sum is exact
    before its one rounding, counts included: a term taken c times adds
    what c copies of it add.
    """
    vals = values if isinstance(values, np.ndarray) else np.fromiter(values, dtype=float)
    if not vals.size:
        return NEG_INF
    hi = float(vals.max())
    if math.isinf(hi):
        return hi
    # A -inf term's np.exp is an exact zero, and so are its products with
    # its count: it adds nothing to the sum.
    terms = np.exp(vals - hi)
    if counts is not None:
        terms = _exact_products(terms, counts)
    return hi + math.log(math.fsum(terms.tolist()))


def logsumexp_groups(values: np.ndarray, starts: Sequence[int]) -> list:
    """logsumexp of each group of values, with the bits logsumexp gives it alone.

    Group i is values[starts[i]:starts[i + 1]], the last one running to the
    end; starts ascend strictly, so no group is empty. Each group takes its
    max, np.exp of its differences from it and the exact math.fsum of those
    terms: a -inf term adds an exact zero, as it adds nothing when logsumexp
    drops it. A group whose max is -inf or +inf gives that max.
    """
    hi = np.maximum.reduceat(values, starts)
    bounds = [*starts, len(values)]
    with np.errstate(invalid="ignore"):
        terms = np.exp(values - np.repeat(hi, np.diff(bounds))).tolist()
    return [
        top if math.isinf(top) else top + math.log(math.fsum(terms[lo:up]))
        for top, lo, up in zip(hi.tolist(), bounds, bounds[1:])
    ]


# Veltkamp's splitter: x * _SPLIT cuts a double into two halves of at most 26
# significant bits each, whose products with a 26-bit integer are exact.
_SPLIT = 2.0 ** 27 + 1


def _exact_products(x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Doubles whose exact sum is the sum of counts[k] * x[k], for x in [0, 1].

    Each x is split into two halves and each count into 26-bit digits; every
    digit times a half is exact unless it underflows, far below the last bit
    of a sum whose largest term is 1.
    """
    p = x * _SPLIT
    x_hi = p - (p - x)
    halves = (x_hi, x - x_hi)
    parts = []
    # The digits up to the largest count's highest bit.
    for shift in range(0, int(counts.max()).bit_length(), 26):
        digit = ((counts >> shift) & ((1 << 26) - 1)).astype(float) * 2.0 ** shift
        parts.extend(digit * half for half in halves)
    return np.concatenate(parts)


# Past levels a power iteration compares its vector with; a cycle of a longer
# period is not detected and the iteration runs to n_max.
_CYCLE_WINDOW = 8


def scaled_power_diagonal(W: np.ndarray, index, n_max: int):
    """log of the (index, index) entry or block sum of W^n for n = 1..n_max.

    index is an int or a slice. The value is 1_S^T W^n 1_S for the index set
    S, computed by iterating W on the indicator vector of S and renormalizing
    each step, so the cost is one matrix-vector product per level.

    W may also be a (T, m, m) stack, and the result is then one list per
    matrix. Each level takes one np.matmul for the whole stack. Each matrix
    gets the bits it gets alone: its product, sum and division are the same
    floating-point operations, and its logs are those of the same floats,
    added in the same order (_log_levels).

    Each matrix stops at its floating-point cycle: once its normalized
    vector v_n equals, bit for bit, its vector v_j of one of the last
    _CYCLE_WINDOW levels, its levels n+1..n_max copy the sums and entries of
    levels j+1..n. With W fixed, level n+1's product, sum, vector and entry
    are functions of v_n's bits alone, so the copies are the floats the loop
    would have computed, and the logs are still summed level by level. A
    matrix whose sum stops being positive is done at that level; its levels
    from there on are -inf. Vectors are compared only at a level whose key
    one of the recent levels had: its entry for one matrix, and for a stack
    the wrapped sum of each vector's bit patterns. A stack iterates until
    every matrix is done or for n_max levels, so it takes as many products
    as its slowest matrix takes alone. The memory is that of n_max floats
    per matrix and _CYCLE_WINDOW past vectors.
    """
    batch = W.shape[:-2]
    totals = np.add.reduce(W.reshape(batch + (-1,)), axis=-1)
    # A nan total makes min and max nan, which fail both tests.
    if not (totals.min() > 0 and totals.max() < math.inf):
        raise ValueError("matrix must have a positive finite entry sum")
    add, count = np.add.reduce, math.prod(batch)
    block = isinstance(index, slice)
    # A vector whose sum vanishes turns to nan here; its levels are -inf below.
    with np.errstate(divide="ignore", invalid="ignore"):
        if count == 1:
            W = W.reshape(W.shape[-2:])
            v = np.zeros(W.shape[0])
            v[index] = 1.0
            # Per key, the last level that had it; the vector of level i at i % _CYCLE_WINDOW.
            last, recent = {}, [None] * _CYCLE_WINDOW
            # The earlier level that the last level computed repeats, if any.
            sums, entries, j = [], [], None
            for n in range(n_max):
                # W.dot calls the BLAS gemv that W @ v calls, with less overhead.
                v = W.dot(v)
                # A Python float, which compares and takes math.log faster.
                s = float(add(v))
                v /= s
                # A Python float, which hashes faster than a numpy scalar.
                key = float(add(v[index])) if block else v.item(index)
                sums.append(s)
                entries.append(key)
                if not s > 0:
                    break
                seen = last.get(key)
                last[key] = n
                if seen is not None and n - seen <= _CYCLE_WINDOW:
                    j = _repeated(recent, n, v)
                    if j is not None:
                        break
                recent[n % _CYCLE_WINDOW] = v
            row = _log_levels(sums, entries, n_max, j)
            return [row] if batch else row
        W = W.reshape((count,) + W.shape[-2:])
        v = np.zeros(W.shape[:-1] + (1,))
        v[:, index, :] = 1.0
        # The sums and entries of each level, one row per matrix.
        levels = np.empty((2, count, n_max))
        sums, entries = levels[0].T.reshape(n_max, count, 1, 1), levels[1].T
        # Per matrix, the levels it computed and the earlier level that its
        # last one repeats (-1 for none); it runs until it stops.
        stop = np.full(count, n_max)
        repeat = np.full(count, -1)
        running = np.ones(count, dtype=bool)
        # Each vector's key, the wrapped sum of its bit patterns; the bits of
        # the vectors of level i at i % _CYCLE_WINDOW.
        keys = np.empty((n_max, count), dtype=np.int64)
        recent = np.empty((_CYCLE_WINDOW, count, W.shape[-1]), dtype=np.int64)
        for n in range(n_max):
            v = np.matmul(W, v)
            v /= add(v, axis=-2, keepdims=True, out=sums[n])
            entries[n] = add(v[:, index, 0], axis=-1) if block else v[:, index, 0]
            bits = v.view(np.int64)[:, :, 0]
            add(bits, axis=1, out=keys[n])
            # min is nan, not positive, when a sum is nan.
            done = not levels[0, :, n].min() > 0
            if done:
                dead = running & ~(levels[0, :, n] > 0)
                stop[dead], running[dead] = n + 1, False
            # Per matrix, the recent levels whose vector had its key.
            lo = max(n - _CYCLE_WINDOW, 0)
            seen = keys[lo:n] == keys[n]
            seen &= running
            if seen.any():
                done = True
                back, rows = np.nonzero(seen)
                back += lo
                same = (recent[back % _CYCLE_WINDOW, rows] == bits[rows]).all(axis=1)
                # A matrix repeats at most one level of the window: had it two,
                # the later would have repeated the earlier, within the window.
                back, rows = back[same], rows[same]
                stop[rows], repeat[rows], running[rows] = n + 1, back, False
            if done and not running.any():
                levels = levels[:, :, :n + 1]
                break
            recent[n % _CYCLE_WINDOW] = bits
    rows = zip(levels[0].tolist(), levels[1].tolist(), stop.tolist(), repeat.tolist())
    return [
        _log_levels(row_sums[:end], row_entries[:end], n_max, j if j >= 0 else None)
        for row_sums, row_entries, end, j in rows
    ]


def _repeated(recent: list, n: int, v: np.ndarray):
    """The level among the last _CYCLE_WINDOW before n whose vector has v's bits, or None."""
    bits = v.tobytes()
    for j in range(n - 1, max(n - _CYCLE_WINDOW, 0) - 1, -1):
        if recent[j % _CYCLE_WINDOW].tobytes() == bits:
            return j
    return None


def _cycled(values: list, n_max: int, j) -> list:
    """values, levels 0..n, run on to n_max levels: level n + 1 + k repeats level j + 1 + k % (n - j)."""
    if j is None:
        return values
    return values + list(islice(cycle(values[j + 1:]), n_max - len(values)))


def _log_levels(sums: list, entries: list, n_max: int, j) -> list:
    """log_scale_n + log entry_n for n = 1..n_max, log_scale_n the log-sum of the first n sums.

    sums and entries hold the levels one matrix computed, which repeat from
    level j + 1 on: their logs are taken once and repeated (see _cycled).
    Only the last level computed can have a sum that is not positive; it and
    every later level are -inf, as is a level whose entry is 0. accumulate
    adds the logs in order, as a running sum from 0.0 would: no log is -0.0.
    """
    live = len(sums) if sums[-1] > 0 else len(sums) - 1
    log_sums = _cycled(list(map(math.log, sums[:live])), n_max, j)
    log_entries = _cycled([math.log(e) if e > 0 else NEG_INF for e in entries], n_max, j)
    row = [
        log_scale + log_entry if log_entry != NEG_INF else NEG_INF
        for log_scale, log_entry in zip(accumulate(log_sums), log_entries)
    ]
    return row + [NEG_INF] * (n_max - len(row))


_SMALLEST = np.nextafter(0.0, 1.0)


def _unit_sum(a: np.ndarray, axes) -> np.ndarray:
    """Divide a in place by its entry sums over the trailing `axes`; return the sums.

    The sums come back one row per a[i]. A zero sum (all of its entries are
    0) leaves its entries zero.
    """
    s = a.sum(axis=axes, keepdims=True)
    # Equal to s unless s is 0, where it keeps 0 / s from turning into nan.
    a /= np.maximum(s, _SMALLEST)
    return s.reshape(len(a), -1)


def _pair_table(table: np.ndarray):
    """Every product table[a] @ table[b], at index a * K + b, unit-summed, with its sums."""
    k = len(table)
    prods = np.matmul(table[:, None], table[None, :]).reshape((k * k,) + table.shape[1:])
    return prods, _unit_sum(prods, (1, 2))[:, 0]


def log_norms(mats: np.ndarray, blocks, samples: int) -> np.ndarray:
    """log 1^T A_{w_{n-1}} ... A_{w_0} 1 for each of `samples` paths.

    `mats` stacks the matrices, and `blocks` yields (samples, steps) arrays of
    indices into it that, concatenated along the steps, hold the paths. Each
    block's matrices are multiplied pairwise, the later one on the left, level
    by level until one product is left, and an odd last factor joins the next
    level as it is. Every matrix and every product is renormalized to unit
    entry sum, and the logs of the removed factors are summed; the block's
    product is then applied to the path's running vector, v = 1 at the start.
    A block costs O(samples * steps * d^3) time and O(samples * steps * d^2)
    memory, whatever the number of blocks. A product that vanishes stays zero
    and its path reports -inf.

    The lowest levels are looked up, not multiplied. Table 0 holds the
    unit-sum matrices; table j + 1 holds, at index a * K + b for the K words
    of table j, the unit-sum product of word a (the later) times word b, with
    its entry sum beside it. A block climbs to table j + 1 while its level
    has even length and K^2 is at most the number of nodes at the next level;
    its codes become codes[:, 1::2] * K + codes[:, 0::2], and the level's
    sums are gathered from the table. Each table is built once per call,
    when a block first needs it, and holds no more matrices than the level
    it replaces, so the memory bound stands. The tree then continues from
    the gathered level, odd carries included; with K^2 above the node count
    (many symbols) it starts from the leaves as before.

    The value depends on that grouping, fixed by the block layout, as a
    logsumexp value depends on its slices; every path has the same tree, so
    equal paths give equal bits. The tables do not change the bits: each
    table entry is the same matmul and _unit_sum of the same two operands
    as the tree node it stands for, and the sums are concatenated in the
    same level order.
    """
    mats = np.array(mats, dtype=float)
    tables = [(mats, _unit_sum(mats, (1, 2))[:, 0])]
    v = np.ones((samples, mats.shape[1], 1))
    log_scale = np.zeros(samples)
    for idx in blocks:
        # Row-major, so that each path's logs are summed in numpy's pairwise order.
        codes = np.ascontiguousarray(idx)
        table, table_sums = tables[0]
        sums, j = [table_sums[codes]], 0
        while codes.shape[1] % 2 == 0 and len(table) ** 2 <= codes.size // 2:
            j += 1
            if j == len(tables):
                tables.append(_pair_table(table))
            codes = codes[:, 1::2] * len(table) + codes[:, 0::2]
            table, table_sums = tables[j]
            sums.append(table_sums[codes])
        level = table[codes]
        while level.shape[1] > 1:
            pairs = level.shape[1] // 2
            prods = np.matmul(level[:, 1 : 2 * pairs : 2], level[:, 0 : 2 * pairs : 2])
            sums.append(_unit_sum(prods, (2, 3)))
            if level.shape[1] % 2:
                prods = np.concatenate((prods, level[:, -1:]), axis=1)
            level = prods
        v = np.matmul(level[:, 0], v)
        sums.append(_unit_sum(v, (1, 2)))
        with np.errstate(divide="ignore"):
            log_scale += np.log(np.concatenate(sums, axis=1)).sum(axis=1)
    return log_scale


def log_norm_of_path(family, word: Sequence[int]) -> float:
    """log of the entry-sum norm of A_{w_{n-1}} ... A_{w_0}, A_a = family.matrix(a).

    Later symbols multiply on the left. The word is one block of log_norms:
    a pairwise product tree renormalized at every node, so arbitrarily long
    words stay in floating-point range.
    """
    symbols = sorted(set(word))
    mats = np.stack([family.matrix(a) for a in symbols])
    position = {a: i for i, a in enumerate(symbols)}
    idx = np.array([[position[a] for a in word]], dtype=np.intp)
    return float(log_norms(mats, [idx], 1)[0])


class PowerIterationError(RuntimeError):
    pass


_PERRON_TOL = 1e-13
_PERRON_MAX_ITER = 500_000


def perron_data(W: np.ndarray):
    """Perron root and positive left/right eigenvectors of a primitive matrix.

    Plain power iteration on W and W.T until the iterates move at most
    _PERRON_TOL = 1e-13 in sup norm, within _PERRON_MAX_ITER = 500 000 steps;
    the returned root is the two-sided Rayleigh quotient, which squares the
    eigenvector error. Vectors are normalized to unit sum.
    """
    W = np.asarray(W, dtype=float)
    m = W.shape[0]
    v = np.full(m, 1.0 / m)
    u = np.full(m, 1.0 / m)
    for _ in range(_PERRON_MAX_ITER):
        v_new = W @ v
        sv = v_new.sum()
        if sv <= 0:
            raise PowerIterationError("matrix is not primitive: iterate collapsed")
        v_new /= sv
        u_new = W.T @ u
        u_new /= u_new.sum()
        moved = max(np.abs(v_new - v).max(), np.abs(u_new - u).max())
        v, u = v_new, u_new
        if moved <= _PERRON_TOL:
            break
    else:
        raise PowerIterationError(
            f"power iteration did not reach tol={_PERRON_TOL} in {_PERRON_MAX_ITER} steps"
        )
    rho = float(u @ W @ v) / float(u @ v)
    return rho, v, u
