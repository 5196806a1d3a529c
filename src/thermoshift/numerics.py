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
scaled_power_diagonal is the one power iteration, perron_data one call of
it, and _stops its one stop rule: the Collatz-Wielandt ratios agree within
their rounding bound, from where their bracket on the Perron root is as
narrow as rounding lets it be, or have reached their rounding floor.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import NamedTuple, Sequence

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


class PowerLevels(NamedTuple):
    """One matrix's levels, last Collatz-Wielandt ratios and last vector (scaled_power_diagonal)."""

    values: list
    low: float
    high: float
    total: float
    vector: np.ndarray


def scaled_power_diagonal(W: np.ndarray, index, n_max: int):
    """log of the (index, index) entry or block sum of W^n for n = 1, 2, ... up to a stop.

    index is an int or a slice. The value is 1_S^T W^n 1_S for the index set
    S, computed by iterating the row vector x <- xW from the indicator of S
    and renormalizing it to unit sum each step: one vector-matrix product
    per level. Each level also gives the Collatz-Wielandt ratios
    (xW)_j / x_j of the x it multiplied (Collatz 1942; Wielandt 1950): their
    least over x's support is at most the Perron root rho(W), and when x is
    positive their largest is at least rho(W). The iteration stops at the
    first level _stops names (a level whose sum is not positive is -inf),
    else at n_max. It returns PowerLevels: values holds the levels
    computed; low and high are the last level's least and largest ratio,
    high inf when its x has a zero entry; total is that level's sum over
    the sum of its x (|S| at level 1, 1 after), a weighted mean of the
    ratios; vector is the unit-sum x that level made.

    W may also be a (T, m, m) stack, and the result is then one PowerLevels
    per matrix. Each level takes one np.matmul for the whole stack, which
    gives each matrix the bits x.dot(W) gives it alone; its sum, division,
    ratios and logs are the same floating-point operations. So each matrix
    stops at the level and with the values and vector it has alone, and the
    stack runs until its slowest matrix has stopped.
    """
    batch = W.shape[:-2]
    totals = np.add.reduce(W.reshape(batch + (-1,)), axis=-1)
    # A nan total makes min and max nan, which fail both tests.
    if not (totals.min() > 0 and totals.max() < math.inf):
        raise ValueError("matrix must have a positive finite entry sum")
    add, count, size = np.add.reduce, math.prod(batch), W.shape[-1]
    block = isinstance(index, slice)
    index_size = len(range(size)[index]) if block else 1
    W = W.reshape((count, size, size))
    x = np.zeros((count, 1, size))
    x[:, 0, index] = 1.0
    # A ratio at a zero entry of x is inf or nan: fmin.reduce skips the nan,
    # and maximum.reduce keeps it, which fails both stop tests. A vector whose
    # sum vanishes turns to nan; its level is -inf below.
    with np.errstate(divide="ignore", invalid="ignore"):
        if count == 1:
            W, x = W[0], x[0, 0]
            sums, entries, spreads = [], [], []
            for n in range(n_max):
                # x.dot calls the BLAS gemv that x @ W calls, with less overhead.
                y = x.dot(W)
                # Python floats, which compare and take math.log faster.
                sums.append(float(add(y)))
                ratios = y / x
                low, high = float(np.fmin.reduce(ratios)), float(np.maximum.reduce(ratios))
                # inf where a stack's np.divide gives inf or nan, which _stops treats alike.
                spreads.append(high / low if low else math.inf)
                x = y
                x /= sums[n]
                entries.append(float(add(x[index])) if block else x.item(index))
                if _stops(n, sums[n], low, high, spreads, size):
                    break
            level = _power_levels(sums, entries, low, high, index_size, x)
            return [level] if batch else level
        # Per level and matrix: the sum, the least and largest ratio, their spread and the entry.
        levels = np.empty((5, n_max, count))
        # The level each matrix stopped at, 0 while it runs, and its vector there.
        stop = np.zeros(count, dtype=int)
        vectors = np.empty((count, size))
        for n in range(n_max):
            y = np.matmul(x, W)
            s = add(y, axis=-1, out=levels[0, n, :, None])
            ratios = y / x
            np.fmin.reduce(ratios, axis=-1, out=levels[1, n, :, None])
            np.maximum.reduce(ratios, axis=-1, out=levels[2, n, :, None])
            np.divide(levels[2, n], levels[1, n], out=levels[3, n])
            x = y
            x /= s[:, :, None]
            levels[4, n] = add(x[:, 0, index], axis=-1) if block else x[:, 0, index]
            new = (_stops(n, *levels[:3, n], levels[3], size) if n + 1 < n_max else True) & (stop == 0)
            if new.any():
                stop[new] = n + 1
                vectors[new] = x[new, 0]
                if stop.all():
                    break
    return [
        _power_levels(row[0][:end], row[4][:end], row[1][end - 1], row[2][end - 1], index_size, vector)
        for row, end, vector in zip(levels[:, :n + 1].transpose(2, 0, 1).tolist(), stop.tolist(), vectors)
    ]


def _stops(n, total, low, high, spreads, size: int):
    """Whether level n (from 0) ends its iteration; floats, or arrays with one entry per matrix.

    total, low and high are level n's sum and least and largest ratio, and
    spreads[k] is level k's high / low, over vectors of length M = size.
    Level n stops where high <= low (1 + (M + 1) 2^-52), the ratios'
    rounding bound (an M-term sum and a division each); where total is not
    positive; or at the rounding floor, where its spread is finite and no
    less than h = (M - 1)^2 + 1 levels before: when W^h is positive
    (Wielandt), each exact ratio h levels on is a mean of every ratio now,
    so an exact spread shrinks strictly every h levels until it is 1. An inf
    or nan spread (x has a zero entry) never stops.
    """
    h = (size - 1) ** 2 + 1
    # total <= 0 or total != total: not total > 0, for floats and arrays alike.
    stop = (high <= low * (1.0 + (size + 1) * 2.0 ** -52)) | (total <= 0) | (total != total)
    if n < h:
        return stop
    return stop | ((spreads[n] < math.inf) & (spreads[n] >= spreads[n - h]))


def _power_levels(sums: list, entries: list, low: float, high: float, size: int, vector) -> PowerLevels:
    """PowerLevels from one matrix's sums, entries, last ratios and vector, and |S|.

    The value of level n is log_scale_n + log entry_n, log_scale_n the
    log-sum of the first n sums. Only the last level can have a sum that is
    not positive; it is -inf, as is a level whose entry is 0. accumulate
    adds the logs in order, as a running sum from 0.0 would: no log is -0.0.
    """
    live = len(sums) if sums[-1] > 0 else len(sums) - 1
    values = [
        log_scale + math.log(entry) if entry > 0 else NEG_INF
        for log_scale, entry in zip(accumulate(map(math.log, sums[:live])), entries)
    ]
    values += [NEG_INF] * (len(sums) - live)
    total = sums[-1] / size if len(sums) == 1 else sums[-1]
    return PowerLevels(values, low, high if high == high else math.inf, total, vector)


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


_PERRON_MAX_ITER = 500_000


def perron_data(W: np.ndarray):
    """Perron root and positive left/right eigenvectors of a primitive matrix.

    One scaled_power_diagonal of diag(W^T, W) from the ones vector, within
    _PERRON_MAX_ITER = 500 000 levels; its halves iterate v^T <- v^T W^T and
    u^T <- u^T W. Both share the Perron root and, in exact arithmetic, the
    sum 1^T W^n 1, so the ratios agree only once both have settled, and one
    unit sum keeps both in range; the floor window (2m - 1)^2 + 1 is at
    least W's Wielandt bound (m - 1)^2 + 1. Raises PowerIterationError when
    every level runs or the sum vanishes (ValueError when W has no positive
    finite entry sum). The root is the two-sided Rayleigh quotient, which
    squares the eigenvector error; the vectors have unit sum.
    """
    W = np.asarray(W, dtype=float)
    m = W.shape[0]
    both = np.zeros((2 * m, 2 * m))
    both[:m, :m], both[m:, m:] = W.T, W
    level = scaled_power_diagonal(both, slice(None), _PERRON_MAX_ITER)
    if level.values[-1] == NEG_INF:
        raise PowerIterationError("matrix is not primitive: iterate collapsed")
    if len(level.values) == _PERRON_MAX_ITER:
        raise PowerIterationError(f"power iteration did not settle in {_PERRON_MAX_ITER} steps")
    v, u = (half / half.sum() for half in np.split(level.vector, 2))
    rho = float(u @ W @ v) / float(u @ v)
    return rho, v, u
