"""Partition functions and Gurevich pressure with two-sided brackets.

The pressure of a potential sequence is approximated on increasing finite
truncations. Each truncation must be mixing; its partition series log Z_n is
computed either by iterating the potential's transfer operator (when it
exposes arc or matrix-product structure) or by enumerating the periodic
words with the potential's word hooks. The growth rate is extracted from
trailing slopes log Z_{n+1} - log Z_n, which converge geometrically, and is
bracketed from below by the near-superadditivity bound and from above by the
transfer-operator bound.

A pressure curve t -> P(t p) is computed one truncation at a time for every
t at once, in ascending m; gurevich_pressure is its one-t case. Pair
potentials evaluate the base's arc values once per truncation, weigh each t
by math.exp(t * L), and iterate the T transfer matrices as (T, m, m) stacks
that fit in cache, one np.matmul per level, each matrix until its own
floating-point cycle; the base's offsets are evaluated once per truncation,
and each t scales them. Potentials that are enumerated
(the fiber count, a cocycle at t != 1) are walked once (shift_core.walk):
each slice is closed once and each t takes the logsumexp of t times the
closed values. The walk merges the fiber count's rows of equal last symbol
and preimage counts, each row counting once per word it stands for, so its
values group by the merged slices, not by slices of one row per word. Every
t gets the bits it gets when estimated alone.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .numerics import NEG_INF, logsumexp, logsumexp_groups, scaled_power_diagonal
from .potentials import (
    PairTable,
    PotentialSequence,
    ScaledPotential,
    TransferOperator,
    transfer_operator,
)
from .shift_core import (
    EnumerationBudgetError,
    FiniteSubshift,
    NonMixingTruncationError,
    SymbolDomainError,
    TransitionModel,
    check_mixing,
    truncate,
    walk,
)


# Pair matrices are iterated at most this many bytes of them at a time. A
# stack that fits in cache iterates faster than one matrix at a time, and a
# larger one slower: 48 matrices at m = 128, n_max = 40, took 9 ms in 1 MB
# stacks and 15 ms as one stack, on 2 shared x86-64 vCPUs.
_STACK_BYTES = 1 << 20

# The default enumeration budget: prefix extensions a word walk may make.
ENUMERATION_CAP = 20_000_000


@dataclass(frozen=True)
class PartitionSeries:
    """log Z_n for n = 1..n_max over periodic words from one base symbol.

    shift is 0.0 unless the largest transfer weight of a pair potential
    underflows (PairTable.matrices); it is then the c factored out of every weight, and
    entries, slopes and log_norm are those of the factored weights: log Z_n
    is the entry plus n * c, and each slope and log_norm are short by c.
    """

    base_symbol: int
    entries: tuple[tuple[int, float], ...]
    truncation_size: int
    strategy: str
    empty_levels: tuple[int, ...]
    # transfer_norm of the operator the series iterated; None when enumerated.
    log_norm: Optional[float] = None
    # Prefix extensions the enumeration made (at most cap); 0 for an operator.
    prefixes: int = 0
    shift: float = 0.0

    def log_z(self, n: int) -> float:
        z = self.entries[n - 1][1]
        return z + n * self.shift if self.shift else z

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


def partition_series(
    sub: FiniteSubshift,
    p: PotentialSequence,
    n_max: int,
    a: int,
    cap: int = ENUMERATION_CAP,
) -> PartitionSeries:
    """Partition values for all lengths up to n_max in one pass.

    The route follows from the potential and is reported as the series'
    strategy: "pair" iterates the weighted matrix of an arc-structured
    potential, "block" the block matrix of a matrix-product norm at scale
    one, and "enumerate" walks the words up to cap prefix extensions.
    """
    return _scaled_series(sub, [p], n_max, a, cap)[0]


def _unscaled(p: PotentialSequence) -> tuple[PotentialSequence, float]:
    """(base, t) with p equal to t times base: a ScaledPotential's parts, else (p, 1.0)."""
    return (p.base, p.t) if isinstance(p, ScaledPotential) else (p, 1.0)


def _scaled_series(sub, potentials, n_max, a, cap) -> list[PartitionSeries]:
    """partition_series of each potential, all of them scalings t*base of one base.

    Each route runs once for all of them. Pair potentials evaluate the base's
    arc values once and iterate their transfer matrices as (T, m, m) stacks
    of at most _STACK_BYTES, with the base's offset(n) evaluated once for
    all t; a t whose largest weight underflows iterates its
    matrix with the largest weight e^c factored out, and its series keeps c
    as its shift. A block potential (a matrix-product norm at
    scale one) iterates its own matrix. The rest share one walk: the base's
    hooks close each slice once, and each t takes the logsumexp of t times
    those values. Each series has the bits it has when computed alone.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    ia = sub.position(a)
    bases, scales = zip(*map(_unscaled, potentials))
    # Per potential: (strategy, log Z values, log_norm, prefixes).
    found = [None] * len(potentials)
    shifts = [0.0] * len(potentials)
    ps = bases[0].pair_structure()
    if ps is not None:
        table = PairTable(sub, ps)
        # A scaled pair structure's offset(n) is t times the base's.
        offsets = [ps.offset(n) for n in range(1, n_max + 1)]
        per = max(1, _STACK_BYTES // (8 * sub.size ** 2))
        for lo in range(0, len(potentials), per):
            stack, shifts[lo:lo + per] = table.matrices(scales[lo:lo + per])
            diagonals = scaled_power_diagonal(stack, ia, n_max)
            for k, W, diagonal in zip(range(lo, lo + per), stack, diagonals):
                op = TransferOperator("pair", W, 1, potentials[k].pair_structure().offset)
                found[k] = _iterated(op, diagonal, scales[k], offsets)
    else:
        for k, p in enumerate(potentials):
            op = transfer_operator(sub, p)
            if op is not None:
                block = slice(ia * op.d, (ia + 1) * op.d)
                offsets = [op.offset(n) for n in range(1, n_max + 1)]
                found[k] = _iterated(op, scaled_power_diagonal(op.B, block, n_max), 1.0, offsets)
    walked = [k for k, route in enumerate(found) if route is None]
    if walked:
        enumerated, prefixes = _enumerated_values(
            sub, bases[0].word_hooks(sub), [scales[k] for k in walked], n_max, a, cap
        )
        for k, values in zip(walked, enumerated):
            found[k] = ("enumerate", values, None, prefixes)
    out = []
    for (kind, values, log_norm, prefixes), shift in zip(found, shifts):
        entries = tuple(enumerate(values, start=1))
        out.append(PartitionSeries(
            base_symbol=a,
            entries=entries,
            truncation_size=sub.size,
            strategy=kind,
            empty_levels=tuple(n for n, v in entries if v == NEG_INF),
            log_norm=log_norm,
            prefixes=prefixes,
            shift=shift,
        ))
    return out


def _iterated(op: TransferOperator, diagonal: list[float], t: float, offsets: list[float]):
    """(strategy, log Z values, log_norm, prefixes) of a series from op's diagonal.

    op.offset(n) is t * offsets[n - 1], the product it computes itself; 1.0
    times a float is that float.
    """
    values = [
        t * offset + v if v != NEG_INF else NEG_INF
        for offset, v in zip(offsets, diagonal)
    ]
    return op.kind, values, op.log_norm(), 0


def _enumerated_values(sub, hooks, scales, n_max, a, cap):
    """log Z_n for n = 1..n_max by enumeration, per scale, and the prefix extensions made.

    Walks the words starting at a with shift_core.walk, carrying the base
    potential's word hooks, and closes each slice's periodic rows with one
    close call; each scale t takes the logsumexp of t times the closed values
    per slice, each row counted once per word it stands for (mult), then
    across the slices of each length. The extensions out of each slice
    (words, not rows) are counted before any of its children are built, and
    the walk stops with EnumerationBudgetError once their total exceeds cap.
    A child row's words are extensions out of its parent slice, so they
    never outnumber the extensions counted before it is built; since the
    count stops the walk past 2**63 - 1 whatever cap is, int64 holds every
    multiplicity exactly.
    """
    ia = sub.position(a)
    closes = sub.matrix[:, ia] != 0
    fanout = np.diff(sub.successors[0])
    budget = min(cap, 2 ** 63 - 1)
    # Per scale and length, the log-sum of each slice's closed words.
    sums: list[list[list[float]]] = [[[] for _ in range(n_max)] for _ in scales]
    prefixes = 0
    for n, last, state, mult in walk(sub, [ia], n_max, hooks.start, hooks.extend):
        closing = closes[last]
        if closing.any():
            rows = slice(None) if closing.all() else np.flatnonzero(closing)
            closed = hooks.close(tuple(x[rows] for x in state), n, last[rows])
            counts = None if mult is None else mult[rows]
            for t, levels in zip(scales, sums):
                levels[n - 1].append(logsumexp(t * closed, counts))
        if n < n_max:
            # In Python ints: multiplicities times fanouts may pass 2**63.
            extensions = fanout[last] if mult is None else mult.astype(object) * fanout[last]
            prefixes += int(extensions.sum())
            if prefixes > budget:
                raise EnumerationBudgetError(
                    f"enumeration exceeded {budget} prefix extensions"
                )
    return [[logsumexp(level) for level in levels] for levels in sums], prefixes


def transfer_norm(sub: FiniteSubshift, p: PotentialSequence) -> float:
    """log of the sup-norm of the transfer operator applied to 1.

    Equals the log of the largest column sum of first-level weights: the max
    over symbols x0 of the sum over admissible predecessors z of f_1 on the
    cylinder [z] followed by x0. With a transfer matrix that is its largest
    column-block sum; otherwise sup f_1 on [z] stands in for each term.
    """
    op = transfer_operator(sub, p)
    if op is not None:
        return op.log_norm()
    # One logsumexp per symbol x0 over its predecessors z, the arcs of the
    # transposed matrix in row-major order; log_sup_f1 is called once per
    # symbol. Every symbol of a truncation has a predecessor.
    log_sup = np.array([p.log_sup_f1(z) for z in sub.symbols])
    heads, tails = np.nonzero(sub.matrix.T)
    starts = np.flatnonzero(np.diff(heads, prepend=-1))
    return max(logsumexp_groups(log_sup[tails], starts))


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


def _slope_value(slopes: tuple[tuple[int, float], ...], slope_window: int):
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


def mixed_truncation(model: TransitionModel, m: int) -> FiniteSubshift:
    """The model's truncation at m, checked to be mixing, built once.

    Raises NonMixingTruncationError when check_mixing finds it is not. It
    is kept on the model object, so every estimate on that object (each t
    of a curve, each bisection probe) shares it and its successor lists;
    its matrix is read-only.
    """
    sub = model._mixed.get(m)
    if sub is None:
        sub = truncate(model, m)
        if not check_mixing(sub):
            raise NonMixingTruncationError(
                f"truncation m={m} of model {model.name} is not mixing"
            )
        sub.matrix.flags.writeable = False
        model._mixed[m] = sub
    return sub


def gurevich_pressure(
    model: TransitionModel, p: PotentialSequence, **params
) -> PressureEstimate:
    """Estimate the pressure of p over increasing truncations of the model.

    Keyword parameters, all optional: the base symbol a (default the model's
    first symbol), the truncations m_list (default the finite alphabet, else
    [8, 16, 32]), n_max = 30, slope_window = 5, tol = 1e-6,
    divergence_threshold = 0.5, divergence_run = 3 and the enumeration cap =
    ENUMERATION_CAP.

    Every truncation must be mixing (raises NonMixingTruncationError naming
    the level otherwise) and keep the base symbol (raises SymbolDomainError
    naming the level where truncate pruned it). The value is the
    trailing-slope estimate at the largest truncation; it is declared +inf
    when the per-doubling growth of the truncation estimates stays at or
    above divergence_threshold for divergence_run consecutive steps. This is the one-potential case of the
    estimator behind pressure_curve.
    """
    check_estimate_params("gurevich_pressure", params)
    return _estimates(model, [p], **params)[0]


def _estimates(
    model: TransitionModel,
    potentials: Sequence[PotentialSequence],
    a: Optional[int] = None,
    m_list: Optional[Sequence[int]] = None,
    n_max: int = 30,
    slope_window: int = 5,
    tol: float = 1e-6,
    divergence_threshold: float = 0.5,
    divergence_run: int = 3,
    cap: int = ENUMERATION_CAP,
) -> list[PressureEstimate]:
    """gurevich_pressure of each potential, all of them scalings of one base.

    Each truncation is built once, in ascending m, and gives the partition
    series of every potential in one _scaled_series pass. An error at any
    potential ends the whole call, with the first error met in that order.
    """
    if not potentials:
        return []
    for name, value in (("slope_window", slope_window), ("divergence_run", divergence_run)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, not {value}")
    if a is None:
        a = model.first_symbol
    if m_list is None:
        if model.alphabet_size is not None:
            m_list = [model.alphabet_size]
        else:
            m_list = [8, 16, 32]
    m_list = sorted(m_list)
    per_level: list[list[tuple[int, float]]] = [[] for _ in potentials]
    for m in m_list:
        sub = mixed_truncation(model, m)
        if a in sub.dropped:
            raise SymbolDomainError(
                f"base symbol {a} was pruned from the truncation at m={m}: "
                "no surviving symbol leads to it, or none follows it"
            )
        series_list = _scaled_series(sub, potentials, n_max, a, cap)
        slopes_list = [series.slopes() for series in series_list]
        fits = [_slope_value(slopes, slope_window) for slopes in slopes_list]
        for levels, series, (value_m, _) in zip(per_level, series_list, fits):
            levels.append((m, value_m + series.shift if series.shift else value_m))
    m = m_list[-1]
    out = []
    for p, series, slopes, (value, span), levels in zip(
        potentials, series_list, slopes_list, fits, per_level
    ):
        converged = span <= tol
        k = p.declared_C
        lower = max(
            ((zn - k) / n for n, zn in series.entries if zn != NEG_INF),
            default=NEG_INF,
        )
        norm = series.log_norm if series.log_norm is not None else transfer_norm(sub, p)
        if series.shift:
            # The fit and both bounds add back the factored c once, the
            # bounds rounded outward.
            value += series.shift
            lower = math.nextafter(lower + series.shift, NEG_INF)
            norm = math.nextafter(norm + series.shift, math.inf)
        # Symbols beyond the truncation add at most the potential's known tail
        # to every column sum; without one the bracket covers the truncation only.
        tail_f1 = p.sup_f1_tail(m) if model.alphabet_size is None or m < model.alphabet_size else None
        if tail_f1 is not None and tail_f1 > 0:
            norm = logsumexp((norm, math.log(tail_f1)))
        # norm is the log of a column sum of at most m*d*d positive terms
        # (exp-rounded pair weights, or block entries), so the sum is off by a
        # relative error below (m*d*d + 2) * 2**-52. Pad by that and round up,
        # so that rounding never moves the bracket inward. A factored weight
        # exp(t * L - c), c < -708, takes t * L - c exactly wherever t * L is
        # above 2c, and below it the weight is under e^-708 of the largest.
        d = p.block_entries()[1] if series.strategy == "block" else 1
        upper = math.nextafter(
            p.declared_C + norm + (sub.size * d * d + 2) * 2.0 ** -52, math.inf
        )
        values_only = [v for _, v in levels]
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
        out.append(PressureEstimate(
            value=value,
            lower=lower,
            upper=upper,
            truncation_level=m,
            n_max=n_max,
            base_symbol=a,
            slopes=slopes,
            converged=converged,
            monotone=monotone,
            diverged=diverged,
            truncation_values=tuple(levels),
            series=series,
        ))
    return out


# The keyword parameters of gurevich_pressure and pressure_curve.
_ESTIMATE_PARAMS = tuple(inspect.signature(_estimates).parameters)[2:]


def check_estimate_params(caller: str, params) -> None:
    """Raise TypeError naming caller for a keyword that no estimator parameter has.

    gurevich_pressure, pressure_curve and the functions that pass their
    keywords on to them check before any work, so that the error names the
    function called and not the private estimator.
    """
    for name in params:
        if name not in _ESTIMATE_PARAMS:
            raise TypeError(f"{caller}() got an unexpected keyword argument {name!r}")


def pressure_curve(
    model: TransitionModel,
    p: PotentialSequence,
    t_grid: Sequence[float],
    **params,
) -> list[tuple[float, PressureEstimate]]:
    """Pressure estimates of the scaled potentials t*p along an ascending grid.

    Takes gurevich_pressure's keyword parameters, and gives each t the
    estimate gurevich_pressure(model, p.scaled(t), **params) gives, bit for
    bit. The work is shared: each truncation is built once and serves every
    t, pair potentials iterate their transfer matrices as stacks, and
    potentials that are enumerated are walked once for all t.
    """
    check_estimate_params("pressure_curve", params)
    ts = list(t_grid)
    if ts != sorted(ts):
        raise ValueError("t_grid must be ascending")
    return list(zip(ts, _estimates(model, [p.scaled(t) for t in ts], **params)))


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
