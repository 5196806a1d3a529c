"""Almost-additive potential sequences evaluated on admissible words.

Every potential here assigns to each admissible word w of length n the value
log f_n at the periodic closure of w (for the arc-sum family) or, equivalently
for the families that are constant on n-cylinders, the cylinder value. Each
instance declares its almost-additivity constant C and oscillation bound M;
the declared numbers feed the pressure brackets downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .numerics import NEG_INF
from .shift_core import (
    FiniteSubshift,
    InadmissibleWordError,
    TransitionModel,
    Word,
    star_shift,
    full_shift,
    is_admissible,
    truncate,
)


@dataclass(frozen=True)
class PairStructure:
    """Arc-additive decomposition: eval(w) = offset(n) + sum of pair over cyclic arcs."""

    pair: Callable[[int, int], float]
    offset: Callable[[int], float]


def pair_matrix(sub: FiniteSubshift, pair: Callable[[int, int], float]) -> np.ndarray:
    """Transfer matrix W_ij = exp(pair(i, j)) on the arcs of the truncation."""
    W = np.zeros((sub.size, sub.size))
    for ki, kj in zip(*np.nonzero(sub.matrix)):
        W[ki, kj] = math.exp(pair(sub.symbols[ki], sub.symbols[kj]))
    return W


def block_matrix(sub: FiniteSubshift, entries: Callable[[int], np.ndarray], d: int) -> np.ndarray:
    """Block transfer matrix whose (i, j) block is A_i^T on arcs i -> j.

    Word products run right to left, so the path product of the transposed
    blocks has the same entry sum as each word's cocycle.
    """
    m = sub.size
    blocks = np.stack([np.asarray(entries(a), dtype=float).T for a in sub.symbols])
    mask = (sub.matrix > 0).astype(float)
    return (mask[:, None, :, None] * blocks[:, :, None, :]).reshape(m * d, m * d)


def transfer_operator(sub: FiniteSubshift, p: PotentialSequence, strategy: str = "auto"):
    """The potential's transfer matrix on the truncation, or None.

    Returns (kind, B, d, offset). Kind "pair" is the arc matrix of a pair
    potential (d = 1) with its length offset(n); kind "block" is the block
    matrix of a matrix-product norm at scale one (d x d blocks, offset 0).
    Either way a periodic word from a has weight exp(offset(n)) times the
    entry sum of the diagonal block of a in B^n. Strategy "auto" tries pair,
    then block, and returns None when neither exists, as does "enumerate".
    """
    if strategy not in ("auto", "pair", "block", "enumerate"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy in ("auto", "pair"):
        ps = p.pair_structure()
        if ps is not None:
            return "pair", pair_matrix(sub, ps.pair), 1, ps.offset
    if strategy in ("auto", "block"):
        structure = p.block_entries()
        if structure is not None:
            entries, d = structure
            return "block", block_matrix(sub, entries, d), d, lambda n: 0.0
    if strategy in ("auto", "enumerate"):
        return None
    raise ValueError(f"strategy {strategy!r} needs {strategy} structure, which {p.name} lacks")


class PotentialSequence:
    """Base class for log-weight sequences on words.

    Subclasses must provide eval() and sup_f1(); the remaining hooks have
    defaults that are correct for families constant on n-cylinders.
    """

    name: str = "potential"
    declared_C: float = 0.0
    declared_M: float = 1.0

    def eval(self, word: Sequence[int]) -> float:
        raise NotImplementedError

    def sup_f1(self, a: int) -> float:
        """Value (not log) of sup f_1 over the cylinder of symbol a."""
        raise NotImplementedError

    # -- derived quantities ------------------------------------------------

    def log_sup_f1(self, a: int) -> float:
        v = self.sup_f1(a)
        return math.log(v) if v > 0 else NEG_INF

    def log_inf_f1(self, a: int, sub: Optional[FiniteSubshift] = None) -> float:
        # Families constant on 1-cylinders have inf = sup.
        return self.log_sup_f1(a)

    def sup_f1_tail(self, m: int, power: float = 1.0) -> Optional[float]:
        """Upper bound for sum of sup f_1^power over symbols beyond m, if known."""
        return None

    def eval_point(self, cycle: Sequence[int], k: int) -> float:
        """log f_k at the periodic point obtained by repeating cycle."""
        if k > len(cycle):
            raise ValueError("eval_point expects k at most the cycle length")
        return self.eval(tuple(cycle[:k]))

    def cylinder_log_weight(
        self, word: Sequence[int], sub: Optional[FiniteSubshift] = None, lower: bool = False
    ) -> float:
        """log of sup (or inf, with lower=True) of f_n over the word's cylinder."""
        return self.eval(word)

    # -- optional exact structure -------------------------------------------

    def pair_structure(self) -> Optional[PairStructure]:
        return None

    def block_entries(self):
        """(symbol -> positive matrix, d) when eval is a matrix-product norm."""
        return None

    # -- batched prefix state along enumeration -----------------------------
    # A state holds one row per word of a batch. Enumeration extends whole
    # levels of words at once; eval may fold the same hooks over a batch of one.

    def prefix_start(self, a: int):
        """State of the batch holding the one word (a,)."""
        return None

    def prefix_extend(self, state, parent: np.ndarray, b: np.ndarray):
        """State of the words parent-word + (b[k],), row k from row parent[k]."""
        return None

    def periodic_close(self, state, rows: np.ndarray, words: np.ndarray) -> np.ndarray:
        """eval of the words in the given rows; words holds one word per row."""
        return np.array([self.eval(w) for w in map(tuple, words[rows].tolist())], dtype=float)

    def prefix_fold(self, word: Word):
        """State of the batch holding the one word, extended symbol by symbol."""
        symbols = np.array(word)
        row = np.zeros(1, dtype=np.intp)
        state = self.prefix_start(word[0])
        for k in range(1, len(word)):
            state = self.prefix_extend(state, row, symbols[k:k + 1])
        return state

    def scaled(self, t: float) -> "PotentialSequence":
        if t == 1.0:
            return self
        return ScaledPotential(self, t)


class ScaledPotential(PotentialSequence):
    """t times a base potential; exact scaling of every evaluation."""

    def __init__(self, base: PotentialSequence, t: float):
        if isinstance(base, ScaledPotential):
            t = t * base.t
            base = base.base
        self.base = base
        self.t = float(t)
        self.name = f"{base.name}*{t:g}"
        self.declared_C = abs(self.t) * base.declared_C
        self.declared_M = base.declared_M

    def eval(self, word):
        return self.t * self.base.eval(word)

    def eval_point(self, cycle, k):
        return self.t * self.base.eval_point(cycle, k)

    def cylinder_log_weight(self, word, sub=None, lower=False):
        if self.t >= 0:
            return self.t * self.base.cylinder_log_weight(word, sub, lower=lower)
        return self.t * self.base.cylinder_log_weight(word, sub, lower=not lower)

    def sup_f1(self, a):
        if self.t >= 0:
            return self.base.sup_f1(a) ** self.t
        return math.exp(self.t * self.base.log_inf_f1(a))

    def log_sup_f1(self, a):
        if self.t >= 0:
            return self.t * self.base.log_sup_f1(a)
        return self.t * self.base.log_inf_f1(a)

    def log_inf_f1(self, a, sub=None):
        if self.t >= 0:
            return self.t * self.base.log_inf_f1(a, sub)
        return self.t * self.base.log_sup_f1(a)

    def sup_f1_tail(self, m, power=1.0):
        return self.base.sup_f1_tail(m, power * self.t)

    def pair_structure(self):
        ps = self.base.pair_structure()
        if ps is None:
            return None
        t = self.t
        return PairStructure(lambda i, j: t * ps.pair(i, j), lambda n: t * ps.offset(n))

    def block_entries(self):
        if self.t == 1.0:
            return self.base.block_entries()
        return None

    def prefix_start(self, a):
        return self.base.prefix_start(a)

    def prefix_extend(self, state, parent, b):
        return self.base.prefix_extend(state, parent, b)

    def periodic_close(self, state, rows, words):
        return self.t * self.base.periodic_close(state, rows, words)

    def scaled(self, t):
        return ScaledPotential(self.base, t * self.t)


class BirkhoffPotential(PotentialSequence):
    """Cyclic arc sums of a two-symbol function f; exactly additive (C = 0)."""

    def __init__(self, f: Callable[[int, int], float], model: TransitionModel,
                 probe_bound: int = 128):
        self.f = f
        self.model = model
        self.probe_bound = probe_bound
        self.name = "birkhoff"
        self.declared_C = 0.0

    def eval(self, word):
        word = tuple(word)
        if not is_admissible(word, self.model):
            raise InadmissibleWordError(f"word {word} is not admissible")
        if not self.model.admits(word[-1], word[0]):
            raise InadmissibleWordError(
                f"word {word} has no admissible cyclic closure"
            )
        n = len(word)
        return math.fsum(self.f(word[k], word[(k + 1) % n]) for k in range(n))

    def eval_point(self, cycle, k):
        cycle = tuple(cycle)
        L = len(cycle)
        return math.fsum(self.f(cycle[j % L], cycle[(j + 1) % L]) for j in range(k))

    def _out_symbols(self, a, sub):
        if sub is not None:
            return sub.out_neighbors(a)
        return [j for j in self.model.symbols_for(self.probe_bound)
                if self.model.rule(a, j)]

    def cylinder_log_weight(self, word, sub=None, lower=False):
        word = tuple(word)
        path = math.fsum(self.f(a, b) for a, b in zip(word, word[1:]))
        hops = [self.f(word[-1], j) for j in self._out_symbols(word[-1], sub)]
        if not hops:
            raise InadmissibleWordError(f"symbol {word[-1]} has no successor")
        return path + (min(hops) if lower else max(hops))

    def sup_f1(self, a):
        return math.exp(self.cylinder_log_weight((a,), None))

    def log_inf_f1(self, a, sub=None):
        return self.cylinder_log_weight((a,), sub, lower=True)

    def pair_structure(self):
        return PairStructure(self.f, lambda n: 0.0)


def birkhoff_potential(f: Callable[[int, int], float], model: TransitionModel,
                       probe_bound: int = 128) -> BirkhoffPotential:
    """Potential with log f_n(w) = sum of f over the cyclic arcs of w."""
    return BirkhoffPotential(f, model, probe_bound)


def zero_potential(model: TransitionModel) -> BirkhoffPotential:
    """The constant-one weight sequence; its pressure is pure entropy."""
    p = birkhoff_potential(lambda i, j: 0.0, model)
    p.name = "zero"
    return p


class SymbolWeightPotential(PotentialSequence):
    """Products of per-symbol weights times a length-dependent factor c_n."""

    def __init__(self, lam: Callable[[int], float], model: TransitionModel,
                 log_c: Optional[Callable[[int], float]] = None,
                 c_regularity: float = 0.0,
                 lam_tail_power: Optional[Callable[[int, float], float]] = None,
                 name: str = "symbol_weight"):
        self.model = model
        self._lam_raw = lam
        self._log_lam_cache: dict[int, float] = {}
        self.log_c = log_c or (lambda n: 0.0)
        self.declared_C = float(c_regularity)
        self.lam_tail_power = lam_tail_power
        self.name = name

    def log_lam(self, a: int) -> float:
        try:
            return self._log_lam_cache[a]
        except KeyError:
            v = float(self._lam_raw(a))
            if not (0.0 < v <= 1.0):
                raise ValueError(
                    f"symbol weight lambda({a}) = {v} must lie in (0, 1]"
                )
            lv = math.log(v)
            self._log_lam_cache[a] = lv
            return lv

    def eval(self, word):
        word = tuple(word)
        if not is_admissible(word, self.model):
            raise InadmissibleWordError(f"word {word} is not admissible")
        return self.log_c(len(word)) + math.fsum(self.log_lam(a) for a in word)

    def sup_f1(self, a):
        return math.exp(self.log_c(1) + self.log_lam(a))

    def sup_f1_tail(self, m, power=1.0):
        if self.lam_tail_power is None:
            return None
        tail = self.lam_tail_power(m, power)
        if tail is None:
            return None
        return math.exp(power * self.log_c(1)) * tail

    def pair_structure(self):
        return PairStructure(lambda i, j: self.log_lam(i), self.log_c)


def geometric_tail(base: float) -> Callable[[int, float], float]:
    """Closed-form tail of sum_{a > m} (base^-a)^power for base > 1."""

    def tail(m: int, power: float = 1.0) -> float:
        if power <= 0:
            return math.inf
        r = base ** (-power)
        return r ** (m + 1) / (1.0 - r)

    return tail


def weighted_fullshift_potential(
    lam: Callable[[int], float],
    log_c: Optional[Callable[[int], float]] = None,
    c_regularity: float = 0.0,
    lam_tail_power: Optional[Callable[[int, float], float]] = None,
) -> SymbolWeightPotential:
    """f_n(x) = c_n * lam(x_0) * ... * lam(x_{n-1}) on the countable full shift."""
    return SymbolWeightPotential(
        lam, full_shift(), log_c, c_regularity, lam_tail_power, name="weighted_full"
    )


class CocyclePotential(PotentialSequence):
    """log of the entry-sum norm of reversed matrix products along the word."""

    def __init__(self, entries: Callable[[int], np.ndarray], model: TransitionModel,
                 norm_tail: Optional[Callable[[int], float]] = None,
                 symbol_bound: int = 16):
        self.model = model
        self._entries_raw = entries
        self._cache: dict[int, np.ndarray] = {}
        self.norm_tail = norm_tail
        self.name = "cocycle"
        probe = model.symbols_for(symbol_bound)
        first = self.matrix(probe[0])
        self.d = first.shape[0]
        ratios = []
        for a in probe:
            A = self.matrix(a)
            ratios.append(A.min() / A.max())
        cone = min(ratios) / self.d
        self.declared_C = -math.log(cone)

    def matrix(self, a: int) -> np.ndarray:
        try:
            return self._cache[a]
        except KeyError:
            A = np.asarray(self._entries_raw(a), dtype=float)
            if A.ndim != 2 or A.shape[0] != A.shape[1]:
                raise ValueError(f"matrix for symbol {a} is not square")
            if not (A > 0).all():
                raise ValueError(f"matrix for symbol {a} has a nonpositive entry")
            self._cache[a] = A
            return A

    def eval(self, word):
        word = tuple(word)
        if not is_admissible(word, self.model):
            raise InadmissibleWordError(f"word {word} is not admissible")
        return float(self.periodic_close(self.prefix_fold(word), [0], None)[0])

    def sup_f1(self, a):
        return float(self.matrix(a).sum())

    def sup_f1_tail(self, m, power=1.0):
        if self.norm_tail is None or power != 1.0:
            return None
        return self.norm_tail(m)

    def pair_structure(self):
        if self.d != 1:
            return None
        return PairStructure(
            lambda i, j: math.log(self.matrix(i)[0, 0]), lambda n: 0.0
        )

    def block_entries(self):
        return (self.matrix, self.d)

    # State: (V, log_scale) with A_{w_k} ... A_{w_0} 1 = exp(log_scale[r]) V[r]
    # for the word w of row r, each V[r] of unit entry sum; the entries are
    # positive, so no sum vanishes.
    def prefix_start(self, a):
        return self.prefix_extend((np.ones((1, self.d)), np.zeros(1)), [0], np.array([a]))

    def prefix_extend(self, state, parent, b):
        V, log_scale = state
        V = V[parent]
        for s in set(b.tolist()):
            rows = b == s
            V[rows] = V[rows] @ self.matrix(s).T
        total = V.sum(axis=1)
        return V / total[:, None], log_scale[parent] + np.log(total)

    def periodic_close(self, state, rows, words):
        V, log_scale = state
        return log_scale[rows] + np.log(V[rows].sum(axis=1))


def cocycle_potential(family, model: TransitionModel,
                      norm_tail: Optional[Callable[[int], float]] = None,
                      symbol_bound: int = 16) -> CocyclePotential:
    """Potential of a family of entrywise-positive matrices indexed by symbols.

    `family` is a callable symbol -> matrix, or an object exposing .matrix().
    """
    if hasattr(family, "matrix"):
        entries = family.matrix
        if norm_tail is None:
            norm_tail = getattr(family, "norm_tail", None)
    else:
        entries = family
    return CocyclePotential(entries, model, norm_tail, symbol_bound)


class FiberCountPotential(PotentialSequence):
    """Negative log of the number of preimage words under the star factor map.

    The two-to-one symbol map sends 2j-2 and 2j-1 to j; preimage words are
    counted with an exact two-state integer transfer recursion. The
    almost-additivity constant log 4 comes from splitting that recursion at
    the concatenation boundary.
    """

    def __init__(self):
        self.model = star_shift()
        self.name = "fiber_count"
        self.declared_C = math.log(4.0)

    def preimage_word_count(self, word: Sequence[int]) -> int:
        """Exact number of admissible preimage words of the given word."""
        _, _, lo, hi = self.prefix_fold(tuple(word))
        return int(lo[0] + hi[0])

    def eval(self, word):
        word = tuple(word)
        if not is_admissible(word, self.model):
            raise InadmissibleWordError(f"word {word} is not admissible")
        return -math.log(self.preimage_word_count(word))

    def sup_f1(self, a):
        return 0.5

    # State: (word length n, then per row: current symbol j, count at preimage
    # 2j-2, count at preimage 2j-1). Arcs between preimages exist iff the
    # source or target preimage symbol is 0, i.e. the source is the low
    # preimage of j = 1 or the target is the low preimage of k = 1. Counts are
    # exact integers: at length n they are at most 2**(n-1), so they move from
    # int64 to Python ints before they could wrap.
    def prefix_start(self, a):
        return 1, np.array([a]), np.ones(1, dtype=np.int64), np.ones(1, dtype=np.int64)

    def prefix_extend(self, state, parent, b):
        n, j, lo, hi = state
        j, lo, hi = j[parent], lo[parent], hi[parent]
        if n == 61:
            lo, hi = lo.astype(object), hi.astype(object)
        from_zero = np.where(j == 1, lo, 0)
        return n + 1, b, np.where(b == 1, lo + hi, from_zero), from_zero

    def periodic_close(self, state, rows, words):
        _, _, lo, hi = state
        return -np.log((lo[rows] + hi[rows]).astype(float))


def fiber_count_potential() -> FiberCountPotential:
    return FiberCountPotential()


@dataclass(frozen=True)
class RegularityReport:
    C_hat: float
    M_hat: float
    samples: int
    depth: int
    violates_declared: bool
    worst_word: Optional[Word] = None


def estimate_regularity(
    p: PotentialSequence,
    model: TransitionModel,
    depth: int = 12,
    samples: int = 200,
    seed: int = 0,
    truncation: int = 8,
    tolerance: float = 1e-9,
) -> RegularityReport:
    """Sampled falsifier for the declared almost-additivity constant.

    Draws cyclically admissible words w of length up to `depth`, splits them
    at a random position n, and records |log f_{n+m}(x) - log f_n(x) -
    log f_m(shift^n x)| at the periodic point x of w. The maximum is a lower
    estimate of the true constant; it cannot certify the declared one.
    """
    sub = truncate(model, truncation)
    rng = np.random.default_rng(seed)
    symbols = sub.symbols
    c_hat = 0.0
    worst = None
    used = 0
    for _ in range(samples):
        length = int(rng.integers(2, depth + 1))
        for _attempt in range(64):
            word = [symbols[rng.integers(0, len(symbols))]]
            ok = True
            for _k in range(length - 1):
                outs = sub.out_neighbors(word[-1])
                if not outs:
                    ok = False
                    break
                word.append(outs[rng.integers(0, len(outs))])
            if ok and sub.arc(word[-1], word[0]):
                break
        else:
            continue
        used += 1
        n = int(rng.integers(1, length))
        w = tuple(word)
        rotated = w[n:] + w[:n]
        defect = abs(p.eval(w) - p.eval_point(w, n) - p.eval_point(rotated, length - n))
        if defect > c_hat:
            c_hat = defect
            worst = w
    return RegularityReport(
        C_hat=c_hat,
        M_hat=1.0,
        samples=used,
        depth=depth,
        violates_declared=c_hat > p.declared_C + tolerance,
        worst_word=worst,
    )


@dataclass(frozen=True)
class ConeReport:
    uniform: bool
    best_C: float


def check_cone_condition(family, symbol_bound: int) -> ConeReport:
    """Largest C with min-entry / max-entry >= d*C over the probed symbols.

    The family is uniform only if the constant does not keep degenerating as
    more symbols are probed; this is detected by comparing the constant on the
    first half of the probe range against the full range.
    """
    entries = family.matrix if hasattr(family, "matrix") else family
    best = math.inf
    best_half = math.inf
    d = None
    for k in range(1, symbol_bound + 1):
        A = np.asarray(entries(k), dtype=float)
        if d is None:
            d = A.shape[0]
        if not (A > 0).all():
            raise ValueError(f"matrix for symbol {k} has a nonpositive entry")
        c = float(A.min() / A.max()) / d
        best = min(best, c)
        if k <= max(1, symbol_bound // 2):
            best_half = min(best_half, c)
    degenerating = symbol_bound > 1 and best <= 0.5 * best_half
    return ConeReport(uniform=(best > 0.0 and not degenerating), best_C=best)


@dataclass(frozen=True)
class SummabilityReport:
    partial_sum: float
    tail_bound: Optional[float]
    total_bound: Optional[float]
    verdict: str  # "summable", "not_summable", or "inconclusive"


def summability_report(p: PotentialSequence, probe_bound: int = 64) -> SummabilityReport:
    """Partial sums of sup f_1 per symbol plus a closed-form tail when known.

    A "summable" verdict requires a finite alphabet or a tail bound; terms
    that stay above 1e-9 across the probed range yield "not_summable", and
    anything else is "inconclusive".
    """
    model = getattr(p, "model", None) or full_shift()
    symbols = model.symbols_for(probe_bound)
    terms = [p.sup_f1(a) for a in symbols]
    partial = math.fsum(terms)
    finite_alphabet = model.alphabet_size is not None and model.alphabet_size <= probe_bound
    if finite_alphabet:
        return SummabilityReport(partial, 0.0, partial, "summable")
    tail = p.sup_f1_tail(probe_bound)
    if tail is not None and math.isfinite(tail):
        return SummabilityReport(partial, tail, partial + tail, "summable")
    last_quarter = terms[-max(1, len(terms) // 4):]
    if min(last_quarter) >= 1e-9:
        return SummabilityReport(partial, None, None, "not_summable")
    return SummabilityReport(partial, None, None, "inconclusive")
