"""Partition functions and Gurevich pressure with two-sided brackets.

The pressure of a potential sequence is approximated on increasing finite
truncations. Each truncation must be mixing; its partition series log Z_n is
computed either by iterating the weighted transfer matrix (when the potential
exposes arc or matrix-product structure) or by direct enumeration of periodic
words. The growth rate is extracted from trailing slopes log Z_{n+1} - log Z_n,
which converge geometrically, and is bracketed from below by the
near-superadditivity bound and from above by the transfer-operator bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .numerics import NEG_INF, logsumexp, scaled_power_diagonal
from .potentials import PotentialSequence, transfer_operator
from .shift_core import (
    FiniteSubshift,
    TransitionModel,
    check_mixing,
    truncate,
)


class NonMixingTruncationError(RuntimeError):
    pass


class EnumerationBudgetError(RuntimeError):
    pass


@dataclass(frozen=True)
class PartitionSeries:
    """log Z_n for n = 1..n_max over periodic words from one base symbol."""

    base_symbol: int
    entries: tuple[tuple[int, float], ...]
    truncation_size: int
    strategy: str
    empty_levels: tuple[int, ...]
    # transfer_norm of the operator the series iterated; None when enumerated.
    log_norm: Optional[float] = None
    # Prefix extensions the enumeration made (at most cap); 0 for an operator.
    prefixes: int = 0

    def log_z(self, n: int) -> float:
        return self.entries[n - 1][1]

    @property
    def n_max(self) -> int:
        return len(self.entries)

    def slopes(self) -> tuple[tuple[int, float], ...]:
        """(n, log Z_{n+1} - log Z_n) for consecutive finite levels."""
        out = []
        for (n, zn), (_, znext) in zip(self.entries, self.entries[1:]):
            if math.isfinite(zn) and math.isfinite(znext):
                out.append((n, znext - zn))
        return tuple(out)


def partition_function(sub: FiniteSubshift, p: PotentialSequence, n: int, a: int) -> float:
    """log of the sum of exp(eval(w)) over periodic words of length n from a.

    Returns -inf when the periodic set is empty; emptiness is signalled by
    the value itself, not an exception.
    """
    series = partition_series(sub, p, n, a)
    return series.log_z(n)


def partition_series(
    sub: FiniteSubshift,
    p: PotentialSequence,
    n_max: int,
    a: int,
    cap: int = 20_000_000,
    strategy: str = "auto",
) -> PartitionSeries:
    """Partition values for all lengths up to n_max in one pass.

    Strategy "auto" prefers the exact weighted-matrix route (arc-structured
    potentials), then the block-matrix route (matrix-product potentials at
    scale one), then capped enumeration. Naming "pair" or "block" for a
    potential without that structure raises ValueError.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    ia = sub.position(a)
    op = transfer_operator(sub, p, strategy)
    prefixes = 0
    if op is None:
        strategy, log_norm = "enumerate", None
        values, prefixes = _enumerated_values(sub, p, n_max, a, cap)
    else:
        strategy, B, d, offset = op
        log_norm = _operator_norm(op)
        diag = scaled_power_diagonal(B, slice(ia * d, (ia + 1) * d), n_max)
        values = [
            offset(n) + v if v != NEG_INF else NEG_INF
            for n, v in enumerate(diag, start=1)
        ]
    entries = tuple((n, v) for n, v in enumerate(values, start=1))
    empty = tuple(n for n, v in entries if v == NEG_INF)
    return PartitionSeries(
        base_symbol=a,
        entries=entries,
        truncation_size=sub.size,
        strategy=strategy,
        empty_levels=empty,
        log_norm=log_norm,
        prefixes=prefixes,
    )


# Most rows one enumeration slice holds. The walk keeps at most one slice per
# word length, so its memory is O(n_max**2 * _FRONTIER) whatever the number
# of words.
_FRONTIER = 1 << 10


def _enumerated_values(sub, p, n_max, a, cap):
    """log Z_n for n = 1..n_max by enumeration, and the prefix extensions made.

    Walks the words starting at a one level at a time. A level holds its
    words (one row each), their last positions and the potential's batched
    prefix state; its children follow the truncation's arcs in row-major
    order, so every level stays in lexicographic order. Children are built
    for consecutive slices of parents, at most _FRONTIER rows per slice, and
    each slice is walked to length n_max before the next one is built. The
    extensions out of each slice are counted before any of its children are
    built, and the walk stops with EnumerationBudgetError once their total
    exceeds cap.
    """
    ia = sub.position(a)
    arcs = sub.matrix != 0
    fanout = arcs.sum(axis=1)
    symbols = np.asarray(sub.symbols)
    # Per length, the log-sum of each slice's closed words.
    sums: list[list[float]] = [[] for _ in range(n_max)]
    prefixes = 0
    # Per length still being expanded: (last, words, state, parent slices left).
    pending = []

    def visit(last, words, state):
        nonlocal prefixes
        n = words.shape[1]
        closed = np.flatnonzero(arcs[last, ia])
        if closed.size:
            sums[n - 1].append(logsumexp(p.periodic_close(state, closed, words)))
        if n < n_max:
            ends = np.cumsum(fanout[last])
            prefixes += int(ends[-1])
            if prefixes > cap:
                raise EnumerationBudgetError(
                    f"enumeration exceeded {cap} prefix extensions"
                )
            pending.append((last, words, state, _slices(ends)))

    visit(np.array([ia]), np.array([[a]]), p.prefix_start(a))
    while pending:
        last, words, state, slices = pending[-1]
        piece = next(slices, None)
        if piece is None:
            pending.pop()
            continue
        start, stop = piece
        parent, child = np.nonzero(arcs[last[start:stop]])
        parent += start
        b = symbols[child]
        visit(child, np.column_stack((words[parent], b)), p.prefix_extend(state, parent, b))
    return [logsumexp(level) for level in sums], prefixes


def _slices(ends):
    """Consecutive parent ranges with at most _FRONTIER children each.

    ends is the cumulative child count of the parents; a parent with more
    children than _FRONTIER gets a range of its own.
    """
    start = 0
    while start < len(ends):
        done = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, done + _FRONTIER, side="right")))
        yield start, stop
        start = stop


def _operator_norm(op) -> float:
    _, B, d, offset = op
    m = B.shape[0] // d
    columns = B.reshape(m, d, m, d).sum(axis=(0, 1, 3))
    return offset(1) + math.log(columns.max())


def transfer_norm(sub: FiniteSubshift, p: PotentialSequence) -> float:
    """log of the sup-norm of the transfer operator applied to 1.

    Equals the log of the largest column sum of first-level weights: the max
    over symbols x0 of the sum over admissible predecessors z of f_1 on the
    cylinder [z] followed by x0. With a transfer matrix that is its largest
    column-block sum; otherwise sup f_1 on [z] stands in for each term.
    """
    op = transfer_operator(sub, p)
    if op is not None:
        return _operator_norm(op)
    return max(
        logsumexp(p.log_sup_f1(z) for z in sub.in_neighbors(x0))
        for x0 in sub.symbols
    )


def near_superadditivity_margin(series: PartitionSeries, k: float) -> float:
    """min over stored n, m of log Z_{n+m} + k - log Z_n - log Z_m.

    Nonnegative (up to rounding) when the declared constants are honest.
    Pairs with an empty level on the left side hold trivially and are skipped.
    """
    margin = math.inf
    n_max = series.n_max
    for n in range(1, n_max):
        zn = series.log_z(n)
        if zn == NEG_INF:
            continue
        for m in range(1, n_max - n + 1):
            zm = series.log_z(m)
            if zm == NEG_INF:
                continue
            margin = min(margin, series.log_z(n + m) + k - zn - zm)
    return margin


def growth_floor_margin(
    series: PartitionSeries, sub: FiniteSubshift, p: PotentialSequence
) -> float:
    """min over nonempty levels of log Z_n - (n log beta - (n-1) C - log M).

    beta is the smallest first-level weight on the truncation. The floor only
    makes sense for lengths whose periodic set is nonempty, so empty levels
    are skipped.
    """
    log_beta = min(p.log_inf_f1(s, sub) for s in sub.symbols)
    c = p.declared_C
    log_m = math.log(p.declared_M)
    margin = math.inf
    for n, zn in series.entries:
        if zn == NEG_INF:
            continue
        margin = min(margin, zn - (n * log_beta - (n - 1) * c - log_m))
    return margin


@dataclass(frozen=True)
class PressureEstimate:
    """Pressure value with brackets and convergence diagnostics.

    value is +inf when the divergence policy fires; lower and upper refer to
    the largest truncation, as do the slope diagnostics.
    """

    value: float
    lower: float
    upper: float
    truncation_level: int
    n_max: int
    base_symbol: int
    slopes: tuple[tuple[int, float], ...]
    converged: bool
    monotone: bool
    diverged: bool
    truncation_values: tuple[tuple[int, float], ...]
    series: PartitionSeries


def _slope_value(series: PartitionSeries, slope_window: int):
    slopes = series.slopes()
    if not slopes:
        return NEG_INF, math.inf
    window = [s for _, s in slopes[-slope_window:]]
    value = math.fsum(window) / len(window)
    span = max(window) - min(window)
    return value, span


def _doubling_growths(levels: Sequence[int], values: Sequence[float]) -> list[float]:
    growths = []
    for (m0, v0), (m1, v1) in zip(zip(levels, values), zip(levels[1:], values[1:])):
        if not (math.isfinite(v0) and math.isfinite(v1)) or m1 <= m0:
            growths.append(math.nan)
            continue
        growths.append((v1 - v0) / math.log2(m1 / m0))
    return growths


def gurevich_pressure(
    model: TransitionModel,
    p: PotentialSequence,
    a: Optional[int] = None,
    m_list: Optional[Sequence[int]] = None,
    n_max: int = 30,
    slope_window: int = 5,
    tol: float = 1e-6,
    divergence_threshold: float = 0.5,
    divergence_run: int = 3,
    cap: int = 20_000_000,
) -> PressureEstimate:
    """Estimate the pressure of p over increasing truncations of the model.

    Every truncation must be mixing (raises NonMixingTruncationError naming
    the level otherwise). The value is the trailing-slope estimate at the
    largest truncation; it is declared +inf when the per-doubling growth of
    the truncation estimates stays at or above divergence_threshold for
    divergence_run consecutive steps.
    """
    if a is None:
        a = model.first_symbol
    if m_list is None:
        if model.alphabet_size is not None:
            m_list = [model.alphabet_size]
        else:
            m_list = [8, 16, 32]
    m_list = sorted(m_list)
    per_level = []
    series = None
    sub = None
    for m in m_list:
        sub = truncate(model, m)
        mix = check_mixing(sub)
        if mix is None:
            raise NonMixingTruncationError(
                f"truncation m={m} of model {model.name} is not mixing"
            )
        sub = sub.with_mixing(mix)
        series = partition_series(sub, p, n_max, a, cap=cap)
        value_m, _ = _slope_value(series, slope_window)
        per_level.append((m, value_m))
    value, span = _slope_value(series, slope_window)
    converged = span <= tol
    k = p.declared_C + 2.0 * math.log(p.declared_M)
    lower = max(
        ((zn - k) / n for n, zn in series.entries if zn != NEG_INF),
        default=NEG_INF,
    )
    m = m_list[-1]
    norm = series.log_norm if series.log_norm is not None else transfer_norm(sub, p)
    # Symbols beyond the truncation add at most the potential's known tail
    # to every column sum; without one the bracket covers the truncation only.
    tail_f1 = p.sup_f1_tail(m) if model.alphabet_size is None or m < model.alphabet_size else None
    if tail_f1 is not None and tail_f1 > 0:
        norm = logsumexp((norm, math.log(tail_f1)))
    # norm is the log of a column sum of at most m*d*d positive terms
    # (exp-rounded pair weights, or block entries), so the sum is off by a
    # relative error below (m*d*d + 2) * 2**-52. Pad by that and round up,
    # so that rounding never moves the bracket inward.
    d = p.block_entries()[1] if series.strategy == "block" else 1
    upper = math.nextafter(
        p.declared_C + norm + (sub.size * d * d + 2) * 2.0 ** -52, math.inf
    )
    values_only = [v for _, v in per_level]
    monotone = all(
        b >= a_prev - tol for a_prev, b in zip(values_only, values_only[1:])
    )
    growths = _doubling_growths(m_list, values_only)
    diverged = False
    if len(growths) >= divergence_run:
        tail = growths[-divergence_run:]
        diverged = all(
            math.isfinite(g) and g >= divergence_threshold for g in tail
        )
    if diverged:
        value = math.inf
        converged = False
    return PressureEstimate(
        value=value,
        lower=lower,
        upper=upper,
        truncation_level=m_list[-1],
        n_max=n_max,
        base_symbol=a,
        slopes=series.slopes(),
        converged=converged,
        monotone=monotone,
        diverged=diverged,
        truncation_values=tuple(per_level),
        series=series,
    )


def closed_form_fullshift_pressure(gamma: float, lambda_sum: float, t: float) -> float:
    """t*gamma + log(lambda_sum) where lambda_sum is the exact sum of lambda^t.

    The caller supplies the power sum in closed form; a nonfinite or
    nonpositive-divergent sum yields +inf.
    """
    if lambda_sum == math.inf:
        return math.inf
    if not (lambda_sum > 0):
        raise ValueError("lambda power sum must be positive or +inf")
    return t * gamma + math.log(lambda_sum)


def geometric_power_sum(r: float, t: float) -> float:
    """Sum over j >= 1 of (r^j)^t for 0 < r < 1; +inf when t <= 0."""
    if not (0.0 < r < 1.0):
        raise ValueError("geometric ratio must lie in (0, 1)")
    if t <= 0:
        return math.inf
    rt = r ** t
    return rt / (1.0 - rt)


def power_law_sum(s: float, t: float, terms: int = 20_000) -> float:
    """Sum over j >= 1 of j^(-s*t), +inf when s*t <= 1.

    Partial sum plus the midpoint of the integral tail bracket; the bracket
    width is far below 1e-9 for s*t >= 2 at the default term count.
    """
    st = s * t
    if st <= 1.0:
        return math.inf
    partial = math.fsum((j + 1.0) ** (-st) for j in range(terms))
    hi = (terms ** (1.0 - st)) / (st - 1.0)
    lo = ((terms + 1.0) ** (1.0 - st)) / (st - 1.0)
    return partial + 0.5 * (hi + lo)


def pressure_curve(
    model: TransitionModel,
    p: PotentialSequence,
    t_grid: Sequence[float],
    **params,
) -> list[tuple[float, PressureEstimate]]:
    """Pressure estimates of the scaled potentials t*p along an ascending grid."""
    ts = list(t_grid)
    if ts != sorted(ts):
        raise ValueError("t_grid must be ascending")
    return [(t, gurevich_pressure(model, p.scaled(t), **params)) for t in ts]


def curve_second_differences(
    curve: Sequence[tuple[float, PressureEstimate]]
) -> list[float]:
    """Second differences of the finite part of a pressure curve.

    All entries should be >= -tol for a convex curve; points flagged
    divergent are excluded.
    """
    pts = [(t, e.value) for t, e in curve if math.isfinite(e.value)]
    out = []
    for (t0, v0), (t1, v1), (t2, v2) in zip(pts, pts[1:], pts[2:]):
        d01 = (v1 - v0) / (t1 - t0)
        d12 = (v2 - v1) / (t2 - t1)
        out.append(d12 - d01)
    return out


def symbol_independence_check(
    model: TransitionModel,
    p: PotentialSequence,
    symbols: Sequence[int],
    **params,
) -> float:
    """Max pairwise deviation of pressure estimates across base symbols."""
    if len(symbols) < 2:
        raise ValueError("need at least two symbols to compare")
    values = [gurevich_pressure(model, p, a=s, **params).value for s in symbols]
    return max(abs(x - y) for x in values for y in values)
