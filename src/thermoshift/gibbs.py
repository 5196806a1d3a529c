"""Cylinder measures, Gibbs certification, and the variational inequality.

Two measure representations cover everything the toolkit certifies. Markov
measures store a vector of log stationary probabilities and a matrix of log
transition probabilities over their own symbols, and give exact cylinder
masses at any depth.
Finite-approximation measures put mass proportional to the cylinder weight
exp(sup log f_l) on every admissible word of length l; shallower masses are
exact marginal sums. A potential with a transfer operator (arc or
matrix-product structure) gets them at any level from suffix-vector
recursions; any other potential has its level enumerated, up to a cap, and
aggregated explicitly.

Certificates and the Lyapunov functional walk the cylinders a slice at a
time (shift_core.walk), and a certificate carries their words as one more
hook (potentials.WordHooks), so that it can name each length's cylinders of
least and largest ratio. Masses and weights are computed for a whole slice
at once wherever the measure and the potential have a batched form: Markov
tables, log-domain arc sums, and the forward rows of a
potentials.TransferOperator. Anything else is evaluated word by word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .numerics import NEG_INF, logsumexp, perron_data
from .potentials import (
    PotentialSequence,
    TransferOperator,
    WordHooks,
    pair_log_table,
    transfer_operator,
)
from .shift_core import (
    EnumerationBudgetError,
    FiniteSubshift,
    NonMixingTruncationError,
    Word,
    check_mixing,
    full_shift,
    truncate,
    walk,
    walk_counts,
)


class NoAdmissibleWordsError(ValueError):
    pass


class MeasureKindError(TypeError):
    pass


def iter_admissible_words(sub: FiniteSubshift, n: int) -> Iterator[Word]:
    """All admissible words of length n, in lexicographic symbol order."""
    hooks = WordHooks(sub)
    for k, _, (words,), _ in walk(sub, range(sub.size), n, hooks.start, hooks.extend):
        if k == n:
            yield from map(tuple, words.tolist())


def count_admissible_words(sub: FiniteSubshift, n: int) -> int:
    """Exact number of admissible words of length n (big-int walk counts)."""
    ones = np.ones(sub.size, dtype=object)
    return int(walk_counts(sub, n - 1, ones).sum())


_MEASURE_TOL = 1e-9


class MarkovCylinderMeasure:
    """Stationary Markov measure stored as log-probabilities over its own symbols.

    log_pi has one entry per symbol and log_p one row and column per symbol,
    in the order of symbols, with -inf off the arcs; p is exp(log_p) and
    index maps a symbol to its row. Masses of cylinders are exact products;
    the representation keeps the log values supplied at construction so that
    certificates built from matching logs (for example uniform Bernoulli
    against the zero potential) cancel exactly instead of to rounding. Sums
    and stationarity hold to _MEASURE_TOL = 1e-9.
    """

    kind = "markov"

    def __init__(
        self,
        symbols: Sequence[int],
        log_pi: np.ndarray,
        log_p: np.ndarray,
        sub: Optional[FiniteSubshift] = None,
    ):
        self.symbols = tuple(symbols)
        self.index = {s: k for k, s in enumerate(self.symbols)}
        self.log_pi = np.array(log_pi, dtype=float)
        self.log_p = np.array(log_p, dtype=float)
        self.sub = sub
        arcs = self.log_p > NEG_INF
        self.p = _mapped(math.exp, self.log_p, arcs, 0.0)
        for table in (self.log_pi, self.log_p, self.p):
            table.flags.writeable = False
        pi_total = math.fsum(map(math.exp, self.log_pi.tolist()))
        if abs(pi_total - 1.0) > _MEASURE_TOL:
            raise ValueError(f"initial distribution sums to {pi_total}, not 1")
        for i, row in zip(self.symbols, self.p.tolist()):
            total = math.fsum(row)
            if abs(total - 1.0) > _MEASURE_TOL:
                raise ValueError(f"transition row of symbol {i} sums to {total}")
        # The flow pi_i p_ij into each j, each term the exp of a log sum.
        flows = _mapped(math.exp, self.log_pi[:, None] + self.log_p, arcs, 0.0)
        for j, terms, log_pi_j in zip(self.symbols, flows.T.tolist(), self.log_pi.tolist()):
            if abs(math.fsum(terms) - math.exp(log_pi_j)) > _MEASURE_TOL:
                raise ValueError(f"distribution is not stationary at symbol {j}")
        if sub is not None:
            # Positions in sub; a symbol outside it, at -1, has no arcs there.
            at = np.array([sub._index.get(s, -1) for s in self.symbols])
            inside = at >= 0
            admissible = (sub.matrix[at[:, None], at] != 0) & np.outer(inside, inside)
            bad = np.argwhere(arcs & ~admissible)
            if len(bad):
                i, j = (self.symbols[k] for k in bad[0])
                sub.arc(i, j)  # raises for a symbol outside the truncation
                raise ValueError(f"transition {i}->{j} is not an admissible arc")

    @property
    def depth(self) -> float:
        return math.inf

    def pi(self, a: int) -> float:
        k = self.index.get(a)
        return 0.0 if k is None else math.exp(self.log_pi[k])

    def transition(self, i: int, j: int) -> float:
        ki, kj = self.index.get(i), self.index.get(j)
        return 0.0 if ki is None or kj is None else float(self.p[ki, kj])

    def log_mass(self, word: Sequence[int]) -> float:
        at = [self.index.get(a) for a in word]
        if None in at:
            return NEG_INF
        total = self.log_pi[at[0]]
        for i, j in zip(at, at[1:]):
            total += self.log_p[i, j]
        return float(total)

    def mass(self, word: Sequence[int]) -> float:
        return math.exp(self.log_mass(word))


def _mapped(f: Callable[[float], float], values: np.ndarray, where, fill: float) -> np.ndarray:
    """f of each entry of values where `where` holds, fill elsewhere.

    f is a math function called per entry, so each entry rounds as f rounds
    it alone; numpy's vectorized exp and log can differ in the last bit.
    """
    out = np.full(values.shape, fill)
    out[where] = list(map(f, values[where].tolist()))
    return out


def uniform_bernoulli(m: int) -> MarkovCylinderMeasure:
    """Uniform Bernoulli measure on the m-symbol full-shift truncation."""
    sub = truncate(full_shift(), m)
    log_u = -math.log(m)
    return MarkovCylinderMeasure(sub.symbols, np.full(m, log_u), np.full((m, m), log_u), sub)


def bernoulli_measure(
    probs: dict[int, float], sub: Optional[FiniteSubshift] = None
) -> MarkovCylinderMeasure:
    """Product measure over the symbols of positive probability in probs."""
    if sub is None:
        sub = truncate(full_shift(), max(probs))
    symbols = sorted(a for a, p in probs.items() if p > 0)
    log_pi = np.array([math.log(probs[a]) for a in symbols])
    at = np.array([sub.position(a) for a in symbols], dtype=np.intp)
    arcs = sub.matrix[at[:, None], at] != 0
    return MarkovCylinderMeasure(symbols, log_pi, np.where(arcs, log_pi, NEG_INF), sub)


def markov_measure(
    symbols: Sequence[int],
    pi: Sequence[float],
    p: Sequence[Sequence[float]],
    sub: Optional[FiniteSubshift] = None,
) -> MarkovCylinderMeasure:
    """Markov measure from plain probabilities (validated for stationarity).

    pi holds one probability per symbol and p is the (k, k) transition
    matrix over the k symbols, both in the order of symbols.
    """
    k = len(symbols)
    pi, p = _probabilities("pi", pi, (k,)), _probabilities("p", p, (k, k))
    return MarkovCylinderMeasure(
        symbols, _mapped(math.log, pi, pi > 0, NEG_INF), _mapped(math.log, p, p > 0, NEG_INF), sub
    )


def _probabilities(name: str, values, shape: tuple) -> np.ndarray:
    try:
        table = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        table = None
    if table is None or table.shape != shape or not np.isfinite(table).all():
        raise ValueError(
            f"{name} must be an array of finite numbers of shape {shape}, for {shape[0]} symbols"
        )
    return table


def rpf_equilibrium(
    sub: FiniteSubshift, p: PotentialSequence
) -> tuple[float, MarkovCylinderMeasure]:
    """Exact pressure and equilibrium Markov measure of a pair potential.

    Classical transfer-matrix construction: with W_ij = arc(i,j) e^{f(i,j)}
    the potential's pair transfer matrix, the pressure is log of the Perron
    root rho, the equilibrium kernel is p_ij = W_ij v_j / (rho v_i) for the
    right eigenvector v, and the stationary distribution combines both
    eigenvectors. An arc function f is a potential once wrapped by
    potentials.birkhoff_potential.
    """
    if not isinstance(p, PotentialSequence):
        raise TypeError(f"rpf_equilibrium takes a potential, not {type(p).__name__}")
    op = transfer_operator(sub, p)
    if op is None or op.kind != "pair":
        raise ValueError("potential has no pair structure")
    if not check_mixing(sub):
        raise NonMixingTruncationError(
            "equilibrium eigendata requires a mixing subshift; the truncation "
            f"to {sub.size} symbols is not mixing"
        )
    W = op.B
    rho, v, u = perron_data(W)
    weights = u * v
    log_pi = np.array(list(map(math.log, (weights / weights.sum()).tolist())))
    log_p = _mapped(math.log, W * v / (rho * v[:, None]), sub.matrix != 0, NEG_INF)
    return math.log(rho), MarkovCylinderMeasure(sub.symbols, log_pi, log_p, sub)


def _normalized(vec: np.ndarray) -> tuple[np.ndarray, float]:
    s = vec.sum()
    if s <= 0:
        return np.zeros_like(vec), NEG_INF
    return vec / s, math.log(s)


class GibbsCylinderMeasure:
    """Finite-approximation measure: level-l masses proportional to cylinder weights.

    Masses of shorter words are marginal sums. At every level a potential
    with a transfer operator (pair or matrix-product structure) uses suffix-
    vector recursions, and any other is enumerated (finite_gibbs_nu).
    """

    kind = "empirical-cylinder"

    def __init__(self, sub: FiniteSubshift, p: PotentialSequence, l: int,
                 strategy: str, log_alpha: float):
        self.sub = sub
        self.potential = p
        self.depth = l
        self.strategy = strategy
        self.log_alpha = log_alpha

    def log_mass(self, word: Sequence[int]) -> float:
        raise NotImplementedError

    def mass(self, word: Sequence[int]) -> float:
        return math.exp(self.log_mass(word))

    def level_mass_total(self, n: int) -> float:
        raise NotImplementedError


class _ExplicitGibbs(GibbsCylinderMeasure):
    def __init__(self, sub, p, l, levels: list[dict[Word, float]], log_alpha):
        super().__init__(sub, p, l, "explicit", log_alpha)
        self._levels = levels

    def log_mass(self, word):
        word = tuple(word)
        m = self._levels[len(word) - 1].get(word, 0.0)
        return math.log(m) if m > 0 else NEG_INF

    def mass(self, word):
        return self._levels[len(word) - 1].get(tuple(word), 0.0)

    def level_mass_total(self, n):
        return math.fsum(self._levels[n - 1].values())


class _TransferGibbs(GibbsCylinderMeasure):
    """Marginals via suffix vectors H_k = B^k tails of a transfer operator.

    A level-l word w weighs exp(offset(l)) r_w . tails[w_last], its cylinder
    weight under the operator, so a word w of length n has mass proportional
    to r_w . H_{l-n}[w_last], with r_w the operator's forward row.
    """

    def __init__(self, sub, p, l, op: TransferOperator):
        hs = [_normalized(op.tails)]
        for _ in range(l - 1):
            vec, scale = hs[-1]
            nxt, s = _normalized(op.B @ vec)
            hs.append((nxt, scale + s))
        top_vec, top_scale = hs[l - 1]
        offset = op.offset(l)
        log_alpha = offset + top_scale + math.log(top_vec.sum())
        super().__init__(sub, p, l, op.kind, log_alpha)
        self.op = op
        self._hs = hs
        self._offset = offset

    def log_masses(self, state, last, n):
        """log masses of a slice of length-n words from their forward rows."""
        vec, scale = self._hs[self.depth - n]
        r_scale, log_total = self.op.log_pair(state, last, vec)
        return self._offset + r_scale + scale + log_total - self.log_alpha

    def log_mass(self, word):
        pos = np.array([self.sub.position(a) for a in word], dtype=np.intp)
        row = np.zeros(1, dtype=np.intp)
        state = self.op.start(row)
        for k in range(1, len(pos)):
            state = self.op.extend(state, row, pos[k - 1:k], pos[k:k + 1])
        return float(self.log_masses(state, pos[-1:], len(pos))[0])

    def level_mass_total(self, n):
        # Forward weights g = 1^T B^(n-1) sum the block products of every
        # length-n word by its last symbol; pairing them with the suffix
        # vectors reproduces the level sum without enumerating words.
        g = np.ones(self.op.B.shape[0])
        g_scale = 0.0
        for _ in range(n - 1):
            g, s = _normalized(g @ self.op.B)
            g_scale += s
        vec, scale = self._hs[self.depth - n]
        return math.exp(
            self._offset + g_scale + scale + math.log(float(g @ vec))
            - self.log_alpha
        )


def finite_gibbs_nu(
    sub: FiniteSubshift,
    p: PotentialSequence,
    l: int,
    cap: int = 200_000,
) -> GibbsCylinderMeasure:
    """Finite-approximation measure at level l.

    Masses on length-l words are proportional to exp(sup log f_l) on the
    cylinder, normalized by the full level sum; shallower masses are marginal
    sums. A potential with a transfer operator gets them from suffix-vector
    recursions at any level. Any other potential has its level enumerated
    explicitly, and cap bounds the number of words enumerated.
    """
    if l < 1:
        raise ValueError("level must be at least 1")
    arcs = sub.matrix != 0
    reach = np.ones(sub.size, dtype=bool)
    for _ in range(l - 1):
        reach = arcs @ reach
    if not reach.any():
        raise NoAdmissibleWordsError(
            f"no admissible words of length {l} in the truncation"
        )
    op = transfer_operator(sub, p)
    if op is not None:
        return _TransferGibbs(sub, p, l, op)
    total = count_admissible_words(sub, l)
    if total > cap:
        raise EnumerationBudgetError(
            f"level {l} has {total} words, beyond the enumeration cap {cap}, and "
            "the potential exposes no structure for marginal recursions"
        )
    weights: dict[Word, float] = {}
    for w in iter_admissible_words(sub, l):
        weights[w] = p.cylinder_log_weight(w, sub)
    log_alpha = logsumexp(weights.values())
    top = {w: math.exp(lw - log_alpha) for w, lw in weights.items()}
    levels = [top]
    for n in range(l - 1, 0, -1):
        shorter: dict[Word, float] = {}
        for w, m in levels[0].items():
            key = w[:n]
            shorter[key] = shorter.get(key, 0.0) + m
        levels.insert(0, shorter)
    return _ExplicitGibbs(sub, p, l, levels, log_alpha)


# -- batched cylinder hooks ---------------------------------------------------
# A hook carries one state per word of a walk slice: start(roots) and
# extend(state, parent, prev, child) follow shift_core.walk, and
# close(state, n, last) returns the values of the slice's length-n words.


class _PairWeights:
    """Cylinder weights offset(n) + arc values along w + the best closing hop.

    The arc values are summed in the log domain, so an arc whose exp
    underflows keeps a finite weight. The state is the path sum as an
    unevaluated pair (hi, lo), compensated like math.fsum, so the weights
    round as the per-word sums do. A sum that is not finite (an arc of value
    -inf) is kept with a compensation term of 0.
    """

    def __init__(self, sub: FiniteSubshift, ps):
        self.arcs = pair_log_table(sub, ps)
        self.hop = self.arcs.max(axis=1)
        self.offset = ps.offset

    def start(self, roots):
        return np.zeros(len(roots)), np.zeros(len(roots))

    def extend(self, state, parent, prev, child):
        hi, lo = state[0][parent], state[1][parent]
        step = self.arcs[prev, child]
        total = part = hi + step
        finite = np.isfinite(total)
        if not finite.all():
            # Compensate 0 + 0 there instead: inf - inf would give nan.
            hi, step = np.where(finite, hi, 0.0), np.where(finite, step, 0.0)
            part = hi + step
        back = part - hi
        return total, lo + ((hi - (part - back)) + (step - back))

    def close(self, state, n, last):
        hi, lo = state
        return self.offset(n) + (hi + lo) + self.hop[last]


def _cylinder_weights(sub: FiniteSubshift, p: PotentialSequence):
    """Weight hooks of p on sub: from its transfer operator, else word by word."""
    ps = p.pair_structure()
    if ps is not None:
        return _PairWeights(sub, ps)
    return transfer_operator(sub, p) or WordHooks(sub, lambda w: p.cylinder_log_weight(w, sub))


def _plus(table: np.ndarray, P: float) -> np.ndarray:
    """table + P, keeping -inf entries at -inf whatever P is."""
    return np.add(table, P, out=np.full_like(table, NEG_INF), where=table > NEG_INF)


class _MarkovMasses:
    """(log mass, log mass + nP) of Markov cylinders as gathered table sums.

    The second sum adds P to every symbol's term, not nP to the log mass, so
    matching logs cancel exactly.
    """

    def __init__(self, mu: MarkovCylinderMeasure, sub: FiniteSubshift, P: float):
        self.log_pi, self.log_p = mu.log_pi, mu.log_p
        if sub.symbols != mu.symbols:
            # Rows of sub's symbols in mu; a symbol outside mu, at -1, has mass 0.
            at = np.array([mu.index.get(a, -1) for a in sub.symbols])
            out = at < 0
            self.log_pi = np.where(out, NEG_INF, mu.log_pi[at])
            self.log_p = np.where(out[:, None] | out, NEG_INF, mu.log_p[at[:, None], at])
        self.pi_plus, self.p_plus = _plus(self.log_pi, P), _plus(self.log_p, P)

    def start(self, roots):
        return self.log_pi[roots], self.pi_plus[roots]

    def extend(self, state, parent, prev, child):
        plain, grouped = state
        return (plain[parent] + self.log_p[prev, child],
                grouped[parent] + self.p_plus[prev, child])

    def close(self, state, n, last):
        return state


class _TransferMasses:
    """(log mass, log mass + nP) of a transfer measure from its forward rows."""

    def __init__(self, mu: "_TransferGibbs", P: float):
        self.mu, self.P = mu, P
        self.start, self.extend = mu.op.start, mu.op.extend

    def close(self, state, n, last):
        log_mass = self.mu.log_masses(state, last, n)
        return log_mass, log_mass + n * self.P


class _WordMasses(WordHooks):
    def __init__(self, sub: FiniteSubshift, mu, P: float):
        super().__init__(sub, mu.log_mass)
        self.P = P

    def close(self, state, n, last):
        log_mass = super().close(state, n, last)
        return log_mass, log_mass + n * self.P


def _cylinder_masses(mu, sub: FiniteSubshift, P: float):
    """Mass hooks of mu on sub: batched for Markov and transfer measures."""
    if isinstance(mu, MarkovCylinderMeasure):
        return _MarkovMasses(mu, sub, P)
    if isinstance(mu, _TransferGibbs) and mu.sub.symbols == sub.symbols:
        return _TransferMasses(mu, P)
    return _WordMasses(sub, mu, P)


def _walk_cylinders(sub: FiniteSubshift, depth: int, *hooks):
    """shift_core.walk from every symbol, the hooks' states side by side in an unmerged list."""
    return walk(
        sub, range(sub.size), depth,
        lambda roots: [h.start(roots) for h in hooks],
        lambda states, parent, prev, child: [
            h.extend(state, parent, prev, child) for h, state in zip(hooks, states)
        ],
    )


@dataclass(frozen=True)
class GibbsCertificate:
    """Extremes of mass(C) / exp(-nP + log f_n(C)) over tested cylinders.

    least and largest hold one row (n, word, mass, log_weight, ratio) per
    length n = 1..depth that has a candidate cylinder, one of positive mass
    or positive weight: the cylinder of least ratio and the one of largest
    ratio, the lexicographically first on a tie. word is a tuple of symbols.
    A zero-mass cylinder of positive weight has mass and ratio 0.0, so it is
    its length's least row. ratio_min and ratio_max are the least and the
    largest of those rows' ratios.
    """

    P_used: float
    ratio_min: float
    ratio_max: float
    depth: int
    words_tested: int
    passed: bool
    least: tuple
    largest: tuple


def verify_gibbs(
    mu,
    p: PotentialSequence,
    P: float,
    depth: int,
    sub: Optional[FiniteSubshift] = None,
    ratio_bound: float = 100.0,
) -> GibbsCertificate:
    """Scan all admissible cylinders up to depth and bound the Gibbs ratios.

    A cylinder with zero mass but positive potential weight records ratio 0
    and fails the certificate. The certificate passes iff both extremes are
    finite, positive, and ratio_max/ratio_min <= ratio_bound.

    The cylinders are walked a slice at a time, each slice's words, masses
    and weights computed at once, and each length keeps its rows of least
    and largest ratio (GibbsCertificate.least and .largest), so memory stays
    bounded by the walk's slices.
    """
    if sub is None:
        sub = getattr(mu, "sub", None)
    if sub is None:
        raise ValueError("a finite subshift is required to enumerate cylinders")
    if depth > mu.depth:
        raise ValueError(f"depth {depth} exceeds measure depth {mu.depth}")
    weights = _cylinder_weights(sub, p)
    masses = _cylinder_masses(mu, sub, P)
    # Per length, (log ratio, row) of the least and of the largest candidate so
    # far. The walk yields each length in lexicographic order, so a strict
    # comparison keeps the first cylinder on a tie.
    least: dict[int, tuple] = {}
    largest: dict[int, tuple] = {}
    tested = 0
    for n, last, (ws, ms, (words,)), _ in _walk_cylinders(
        sub, depth, weights, masses, WordHooks(sub)
    ):
        weight = weights.close(ws, n, last)
        log_mass, numer = masses.close(ms, n, last)
        tested += len(last)
        live = numer > NEG_INF
        log_ratio = np.subtract(numer, weight, out=np.full_like(numer, NEG_INF), where=live)
        # The candidates: cylinders of positive mass or positive weight.
        (at,) = np.nonzero(live | (weight > NEG_INF))
        if len(at) == 0:
            continue
        ratios = log_ratio[at]
        # The sign turns "larger" into "less" for the largest rows.
        for best, k, sign in ((least, ratios.argmin(), 1.0), (largest, ratios.argmax(), -1.0)):
            r = float(ratios[k])
            if n not in best or sign * r < sign * best[n][0]:
                k = at[k]
                mass = math.exp(log_mass[k]) if live[k] else 0.0
                best[n] = (r, (n, tuple(words[k].tolist()), mass, float(weight[k]), math.exp(r)))
    log_hi = max((r for r, _ in largest.values()), default=NEG_INF)
    if log_hi == NEG_INF:
        raise NoAdmissibleWordsError("no cylinders with positive mass tested")
    ratio_min = math.exp(min(r for r, _ in least.values()))
    ratio_max = math.exp(log_hi)
    passed = (
        math.isfinite(ratio_max)
        and ratio_min > 0
        and ratio_max / ratio_min <= ratio_bound
    )
    return GibbsCertificate(
        P_used=P,
        ratio_min=ratio_min,
        ratio_max=ratio_max,
        depth=depth,
        words_tested=tested,
        passed=passed,
        least=tuple(least[n][1] for n in sorted(least)),
        largest=tuple(largest[n][1] for n in sorted(largest)),
    )


def entropy_markov(mu) -> float:
    """Entropy -sum_i pi_i sum_j p_ij log p_ij of a Markov measure."""
    if getattr(mu, "kind", None) != "markov":
        raise MeasureKindError(
            "entropy is computed from the Markov representation only"
        )
    return math.fsum(
        -math.exp(log_pi + lp) * lp
        for log_pi, row in zip(mu.log_pi.tolist(), mu.log_p.tolist())
        for lp in row
        if lp > NEG_INF
    )


def lyapunov_functional(
    mu, p: PotentialSequence, n: int, sub: Optional[FiniteSubshift] = None
) -> float:
    """(1/n) integral of log f_n against the measure.

    For Markov measures and arc-structured potentials the stationary average
    is exact at every n: offset(n)/n plus the expected arc value (there is no
    wrap term; the offset carries the entire length dependence). Otherwise
    the integral is a finite sum of cylinder masses times cylinder weights.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > mu.depth:
        raise ValueError(f"n={n} exceeds measure depth {mu.depth}")
    ps = p.pair_structure()
    if getattr(mu, "kind", None) == "markov" and ps is not None:
        # A symbol of probability zero adds nothing.
        expected = math.fsum(
            math.exp(log_pi + lp) * ps.pair(i, j)
            for i, log_pi, row in zip(mu.symbols, mu.log_pi.tolist(), mu.log_p.tolist())
            if log_pi > NEG_INF
            for j, lp in zip(mu.symbols, row)
            if lp > NEG_INF
        )
        return ps.offset(n) / n + expected
    if sub is None:
        sub = getattr(mu, "sub", None)
    if sub is None:
        raise ValueError("a finite subshift is required to enumerate cylinders")
    weights = _cylinder_weights(sub, p)
    masses = _cylinder_masses(mu, sub, 0.0)
    terms = []
    for k, last, (ws, ms), _ in _walk_cylinders(sub, n, weights, masses):
        if k == n:
            mass = np.exp(masses.close(ms, n, last)[0])
            pos = mass > 0
            terms.extend((mass[pos] * weights.close(ws, n, last)[pos]).tolist())
    return math.fsum(terms) / n


def variational_defect(
    mu, p: PotentialSequence, P: float, n: int,
    sub: Optional[FiniteSubshift] = None,
) -> float:
    """P minus (entropy + Lyapunov functional); nonnegative at every Markov mu."""
    return P - (entropy_markov(mu) + lyapunov_functional(mu, p, n, sub))
