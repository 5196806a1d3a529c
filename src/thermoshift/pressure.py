"""Partition functions and Gurevich pressure with two-sided brackets.

The pressure of a potential sequence is approximated on increasing finite
truncations. Each truncation must be mixing; its partition series log Z_n is
computed either by iterating the potential's transfer operator (when it
exposes arc or matrix-product structure) or by enumerating the periodic
words with the potential's word hooks. An operator's iteration stops where
the Collatz-Wielandt ratios of its vector agree, and those ratios bracket
the truncation's pressure, which bounds the countable system's from below.
An enumerated series' growth rate is the mean of its trailing slopes
log Z_{n+1} - log Z_n, bracketed from below by the near-superadditivity
bound. Both are bracketed from above by the transfer-operator bound. Every
bound is padded by a bound on its rounding error.

A pressure curve t -> P(t p) is computed one truncation at a time for every
t at once, in ascending m; gurevich_pressure is its one-t case, and every t
gets the bits it gets when estimated alone (_scaled_series shares each
route's work). The walk merges the fiber count's rows of equal last symbol
and preimage counts, so its values group by the merged slices.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .numerics import NEG_INF, PowerLevels, logsumexp, logsumexp_groups, scaled_power_diagonal
from .potentials import (
    _TINY,
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
    """log Z_n for n = 1, 2, ... over periodic words from one base symbol.

    values[n - 1] is log Z_n, -inf for a length with no periodic word: n_max
    levels when enumerated, the levels scaled_power_diagonal iterated for an
    operator, whose bracket is (lower, value, upper) for the truncation's
    pressure, c included (_bracket); None when enumerated. shift is 0.0
    unless the largest transfer weight of a pair potential underflows
    (PairTable.matrices); it is then the c factored out of every weight,
    and values and log_norm are those of the factored weights: log_z(n) is
    values[n - 1] plus n * c, log_norm is short by c, and each of slopes()
    has c added back.
    """

    base_symbol: int
    values: tuple[float, ...]
    truncation_size: int
    strategy: str
    # transfer_norm of the operator the series iterated; None when enumerated.
    log_norm: Optional[float] = None
    # Prefix extensions the enumeration made (at most cap); 0 for an operator.
    prefixes: int = 0
    shift: float = 0.0
    bracket: Optional[tuple[float, float, float]] = None

    def log_z(self, n: int) -> float:
        z = self.values[n - 1]
        return z + n * self.shift if self.shift else z

    @property
    def n_max(self) -> int:
        return len(self.values)

    def slopes(self) -> tuple[tuple[int, float], ...]:
        """(n, log Z_{n+1} - log Z_n) for consecutive finite levels, shift included."""
        v, c = self.values, self.shift
        return tuple(
            (n, v[n] - v[n - 1] + c)
            for n in range(1, len(v))
            if math.isfinite(v[n - 1]) and math.isfinite(v[n])
        )


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
    arc values and offset(n) once and iterate their transfer matrices as
    (T, m, m) stacks of at most _STACK_BYTES; a t whose largest weight
    underflows has it, e^c, factored out and keeps c as its shift. A block
    potential (a matrix-product norm at scale one) iterates its own matrix.
    The rest share one walk: the base's hooks close each slice once, and
    each t takes the logsumexp of t times those values. Each series has the
    bits it has when computed alone.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    ia = sub.position(a)
    bases, scales = zip(*map(_unscaled, potentials))
    out: list[Optional[PartitionSeries]] = [None] * len(potentials)
    ps = bases[0].pair_structure()
    if ps is not None:
        table = PairTable(sub, ps)
        # A scaled pair structure's offset(n) is t times the base's, the
        # product computed here; 1.0 times a float is that float.
        offsets = [ps.offset(n) for n in range(1, n_max + 1)]
        # The largest finite |L| over the arcs, for their weights' rounding (_bracket),
        # and the least and largest finite L, which bound each t's least weight.
        finite = table.values[np.isfinite(table.values)]
        l_max = float(np.max(np.abs(finite), initial=0.0))
        l_ends = float(np.min(finite, initial=0.0)), float(np.max(finite, initial=0.0))
        # Per t, Fekete's bounds on the rate of t offset(n), whose defect is at most C.
        k_c = np.array([[p.declared_C] for p in potentials])
        rates = [(0.0, 0.0, 0.0)] * len(potentials)
        if any(offsets) or k_c.any():
            scaled, n = np.array(scales)[:, None] * offsets, np.arange(1, n_max + 1)
            rates = zip(((scaled - k_c) / n).max(1).tolist(), ((scaled + k_c) / n).min(1).tolist(),
                        ((np.abs(scaled) + k_c) / n).max(1).tolist())
        per = max(1, _STACK_BYTES // (8 * sub.size ** 2))
        for lo in range(0, len(potentials), per):
            stack, shifts = table.matrices(scales[lo:lo + per])
            levels = scaled_power_diagonal(stack, ia, n_max)
            for k, W, level, shift, rate in zip(range(lo, lo + per), stack, levels, shifts, rates):
                t, op = scales[k], TransferOperator("pair", W, 1, potentials[k].pair_structure().offset)
                values = tuple(t * o + v if v != NEG_INF else NEG_INF for o, v in zip(offsets, level.values))
                # A weight below the smallest normal float is left out of the pad.
                l_t = l_max
                if math.exp(min(t * l_ends[0], t * l_ends[1]) - shift) < _TINY:
                    l_t = float(np.max(np.abs(table.on_arcs(table.values, 0.0)), where=W >= _TINY,
                                       initial=0.0))
                arcs = 2.0 ** -53 * (4 * abs(t) * l_t + abs(shift) + 2 * abs(t) + 2)
                out[k] = PartitionSeries(a, values, sub.size, "pair", op.log_norm(), shift=shift,
                                         bracket=_bracket(level, sub.size, arcs, rate, shift))
    else:
        for k, p in enumerate(potentials):
            op = transfer_operator(sub, p)
            if op is not None:
                # Without a pair structure the operator is the block one, of offset 0.
                level = scaled_power_diagonal(op.B, slice(ia * op.d, (ia + 1) * op.d), n_max)
                out[k] = PartitionSeries(a, tuple(level.values), sub.size, "block", op.log_norm(),
                                         bracket=_bracket(level, len(op.B), 0.0, (0.0, 0.0, 0.0), 0.0))
    walked = [k for k, series in enumerate(out) if series is None]
    if walked:
        enumerated, prefixes = _enumerated_values(
            sub, bases[0].word_hooks(sub), [scales[k] for k in walked], n_max, a, cap
        )
        for k, values in zip(walked, enumerated):
            out[k] = PartitionSeries(a, tuple(values), sub.size, "enumerate", prefixes=prefixes)
    return out


def _bracket(level: PowerLevels, size: int, arcs: float, rates, c: float) -> tuple[float, float, float]:
    """(lower, value, upper) for a truncation's pressure from its operator's PowerLevels.

    The pressure is log rho + r + c: rho the Perron root of the matrix with
    the exact weights, r = lim t offset(n) / n and c the shift. The least
    and largest Collatz-Wielandt ratio bound rho (upper is inf when the
    vector has a zero entry); their logs are widened by 2^-52 (size + 2 +
    |log ratio|) for the sums, division and log over a vector of that size,
    and by arcs for the weights' own rounding: u (4 |t| max |L| + |c| +
    2 |t| + 2), u = 2^-53, from PressureEstimate's per-arc bound, the max
    over the arcs whose weight exp(tL - c) is a normal float, for a pair
    matrix, and 0 for a block matrix, which holds its entries as given.
    rates holds r's bounds, max_n (t offset(n) - C) / n and min_n (t offset(n)
    + C) / n by Fekete's lemma for a C-almost-additive offset, and a size
    that bounds their rounding; each sum is widened by 2^-51 times its
    terms' sizes and rounded outward. value is the log of the last level's
    sum, a weighted mean of the ratios, plus the middle of r's bounds and c.
    """
    rate_lo, rate_hi, rate_size = rates
    low, high = (math.log(r) if r > 0 else NEG_INF for r in (level.low, level.high))
    value = math.log(level.total) if level.total > 0 else NEG_INF

    def widened(z: float) -> float:
        return 2.0 ** -52 * (size + 2 + abs(z)) + arcs + 2.0 ** -51 * (abs(z) + rate_size + abs(c))
    return (
        math.nextafter(low + rate_lo + c - widened(low), NEG_INF),
        value + (rate_lo + rate_hi) / 2 + c,
        math.nextafter(high + rate_hi + c + widened(high), math.inf),
    )


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

    All refer to the largest truncation m. For an operator route, value and
    lower are those of the series' bracket (_bracket), which hold for the
    countable system too: truncation pressures increase to the Gurevich
    pressure (Sarig, ETDS 1999). converged means the bracket is at most tol
    wide. For an enumerated series, value is the mean of the last
    slope_window slopes between finite levels, converged means their span is
    at most tol, and lower rounds (x_n - C - e_n - 2^-51 (|x_n| + |C|)) / n
    down at the n where (x_n - C) / n is largest, x_n being the computed
    log Z_n and C = declared_C. Either way value is moved into [lower, upper]
    if outside, or is +inf when the divergence policy fires;
    truncation_values holds each truncation's value, and slopes is
    series.slopes().

    upper rounds C + N' + e_1(N) + 2^-51 (|N'| + |C|) up, N being the
    series' log_norm (transfer_norm when enumerated) and N' that with c and
    the tail added; on a finite alphabet, an operator route takes the
    smaller of that and its bracket's upper. With K = m d^2, c the shift and
    t the scale, to first order in u = 2^-53, |x_n - log Z_n| is at most

        e_n = 2^-52 (n (K + 2 + 2 log K + 1.5 |c| + |t|) + (n + 7) A_n),
        A_n = |x_n| + |t offset(n)| + n max(0, N - t offset(1)):

    (n + 2) u times the sizes of the n + 1 logs (at most A_n + n max(0, N)
    in all) for the logs and their running sum; (K + 1) u a level for its
    K-term sums and division; and for the arc values, each log w within
    u (3 |tL| + |tL - c| + 2 |t| + 2) (lambda, its log, t * L, less c,
    exp), at most u (4 (n log K + A_n + n max(0, N)) + n (3 |c| + 2 |t| +
    2)) once each word is weighed by its share of Z_n (Hoelder). e_1(N)
    bounds N's error alike. e_n is derived for an operator's log Z_n; an
    enumerated series borrows it without its own proof. A weight below the
    smallest normal float (off by up to u times the largest) is left out.
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


def _slope_fit(values: Sequence[float], slope_window: int) -> tuple[float, float]:
    """(mean, span) of the window of PartitionSeries.slopes()[-slope_window:], shift left out.

    Walks back from the last level; (-inf, inf) when the window is empty.
    """
    window = []
    n = len(values) - 1
    while n > 0 and len(window) < slope_window:
        if math.isfinite(values[n]) and math.isfinite(values[n - 1]):
            window.append(values[n] - values[n - 1])
        n -= 1
    if not window:
        return NEG_INF, math.inf
    return math.fsum(window) / len(window), max(window) - min(window)


def _fit(series: PartitionSeries, slope_window: int) -> tuple[float, float]:
    """(value, width) of a series: its bracket's value and width, else its slope fit's mean, c added, and span."""
    if series.bracket is not None:
        lower, value, upper = series.bracket
        return value, upper - lower
    value, span = _slope_fit(series.values, slope_window)
    return (value + series.shift if series.shift else value), span


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
    naming the level where truncate pruned it). The value (PressureEstimate)
    is declared +inf when the per-doubling growth of the truncation fits
    stays at or above divergence_threshold for divergence_run consecutive
    steps. This is the one-potential case of the estimator behind
    pressure_curve.
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
    # Per potential, the value at each truncation, the factored c added back.
    per_level: list[list[float]] = [[] for _ in potentials]
    for m in m_list:
        sub = mixed_truncation(model, m)
        if a in sub.dropped:
            raise SymbolDomainError(
                f"base symbol {a} was pruned from the truncation at m={m}: "
                "no surviving symbol leads to it, or none follows it"
            )
        series_list = _scaled_series(sub, potentials, n_max, a, cap)
        fits = [_fit(series, slope_window) for series in series_list]
        for levels, (value_m, _) in zip(per_level, fits):
            levels.append(value_m)
    m = m_list[-1]
    # The terms of a column-block sum, and the base's offset, which each t scales.
    base = _unscaled(potentials[0])[0]
    blocks, ps = base.block_entries(), base.pair_structure()
    terms = sub.size * (blocks[1] ** 2 if blocks else 1)
    offset = ps.offset if ps is not None else (lambda n: 0.0)
    # Symbols beyond the truncation add at most the potential's known tail to
    # every column sum; without one the column-sum bound covers the truncation only.
    finite = model.alphabet_size is not None and m >= model.alphabet_size
    out = []
    for p, series, (value, width), levels in zip(potentials, series_list, fits, per_level):
        k, c, t = p.declared_C, series.shift, _unscaled(p)[1]
        norm = series.log_norm if series.log_norm is not None else transfer_norm(sub, p)
        growth = max(norm - t * offset(1), 0.0)

        def rounding(n: int, z: float) -> float:
            """e_n of PressureEstimate for a log Z_n computed as z."""
            return 2.0 ** -52 * (
                n * (terms + 2 + 2 * math.log(terms) + 1.5 * abs(c) + abs(t))
                + (n + 7) * (abs(z) + abs(t * offset(n)) + n * growth)
            )
        pad = rounding(1, norm)
        if series.bracket is None:
            # At the n where (log Z_n - C) / n is largest; -inf when every level is.
            quotients = [(z - k) / n if z != NEG_INF else NEG_INF for n, z in enumerate(series.values, 1)]
            n = quotients.index(max(quotients)) + 1
            z = series.values[n - 1]
            lower = math.nextafter((z - k - rounding(n, z) - 2.0 ** -51 * (abs(z) + abs(k))) / n, NEG_INF)
            if c:
                lower = math.nextafter(lower + c, NEG_INF)
        else:
            lower = series.bracket[0]
        if c:
            # The norm adds back the factored c, rounded up.
            norm = math.nextafter(norm + c, math.inf)
        tail_f1 = None if finite else p.sup_f1_tail(m)
        if tail_f1 is not None and tail_f1 > 0:
            norm = logsumexp((norm, math.log(tail_f1)))
        upper = math.nextafter(k + norm + pad + 2.0 ** -51 * (abs(norm) + abs(k)), math.inf)
        if series.bracket is not None and finite:
            upper = min(upper, series.bracket[2])
        monotone = all(b >= a_prev - tol for a_prev, b in zip(levels, levels[1:]))
        # Per doubling of m, the growth of the fit; nan for a repeated m.
        growths = [
            (v1 - v0) / math.log2(m1 / m0) if m1 > m0 else math.nan
            for (m0, v0), (m1, v1) in zip(zip(m_list, levels), zip(m_list[1:], levels[1:]))
        ]
        diverged = len(growths) >= divergence_run and all(
            math.isfinite(g) and g >= divergence_threshold for g in growths[-divergence_run:]
        )
        converged = not diverged and width <= tol
        if diverged:
            value = math.inf
        elif lower <= upper:
            value = min(max(value, lower), upper)
        out.append(PressureEstimate(
            value=value,
            lower=lower,
            upper=upper,
            truncation_level=m,
            n_max=n_max,
            base_symbol=a,
            slopes=series.slopes(),
            converged=converged,
            monotone=monotone,
            diverged=diverged,
            truncation_values=tuple(zip(m_list, levels)),
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
