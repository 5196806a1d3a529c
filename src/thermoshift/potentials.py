"""Almost-additive potential sequences evaluated on admissible words.

Every potential here assigns to each admissible word w of length n the value
log f_n at the periodic closure of w (for the arc-sum family) or, equivalently
for the families that are constant on n-cylinders, the cylinder value. Each
instance declares its almost-additivity constant C and oscillation bound M;
the declared numbers feed the pressure brackets downstream. A matrix cocycle
reads its matrices from one MatrixFamily and takes C from its cone report,
computed once on the probed symbols and kept as the potential's `cone`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .numerics import NEG_INF, log_norm_of_path
from .shift_core import (
    FiniteSubshift,
    InadmissibleWordError,
    TransitionModel,
    Word,
    star_shift,
    full_shift,
    is_admissible,
    symbol_lookup,
    truncate,
)


@dataclass(frozen=True)
class PairStructure:
    """Arc-additive decomposition: eval(w) = offset(n) + sum of pair over cyclic arcs.

    row, when given, is a function of i alone with row(i) == pair(i, j) on
    every arc; the arc tables then call it once per symbol.
    """

    pair: Callable[[int, int], float]
    offset: Callable[[int], float]
    row: Optional[Callable[[int], float]] = None


# The smallest normal float; a weight below it is stored with fewer significant bits.
_TINY = np.finfo(float).tiny


class PairTable:
    """A pair potential's values on the arcs of a truncation, evaluated once.

    values holds pair per symbol (by_row, when ps.row is given) or per arc in
    the row-major order of sub.successors; on_arcs lays arrays of that layout
    onto the arcs.
    """

    def __init__(self, sub: FiniteSubshift, ps: PairStructure):
        self.arcs = sub.matrix != 0
        self.by_row = ps.row is not None
        symbols = sub.symbols
        if self.by_row:
            self.values = np.array([ps.row(s) for s in symbols], dtype=float)
        else:
            start, succ = sub.successors
            ki = np.repeat(np.arange(sub.size), np.diff(start))
            self.values = np.array(
                [ps.pair(symbols[i], symbols[j]) for i, j in zip(ki.tolist(), succ.tolist())],
                dtype=float,
            )

    def on_arcs(self, values: np.ndarray, fill: float) -> np.ndarray:
        """values (..., len(self.values)) laid onto the arcs, fill elsewhere."""
        if self.by_row:
            return np.where(self.arcs, values[..., :, None], fill)
        out = np.full(values.shape[:-1] + self.arcs.shape, fill)
        out[..., self.arcs] = values
        return out

    def matrices(self, scales: Sequence[float]) -> tuple[np.ndarray, list[float]]:
        """(T, m, m) stack of the transfer matrices exp(t * pair(i, j)), t in scales, and shifts.

        Each weight is math.exp of one product t * L_ij, which is what the
        scaled potential's own pair gives, so W rounds as the per-arc loop
        over that pair does; np.exp differs from math.exp in the last bit on
        some inputs. A weight that overflows a float is a ValueError naming
        its t. Where the largest weight of a t underflows (is below the
        smallest normal float, so that it has lost relative precision or is
        0.0), the largest t * L on an arc, c, is factored out: that t's
        weights are exp(t * L - c) and its shift is c, so log Z_n gains
        n * c. Every other shift is 0.0.
        """
        try:
            weights = np.array(
                [list(map(math.exp, (t * self.values).tolist())) for t in scales]
            ).reshape(len(scales), self.values.size)
        except OverflowError:
            t = max(scales, key=lambda t: np.max(t * self.values))
            raise ValueError(
                f"t = {t!r}: a transfer weight exp(t * pair) overflows a float"
            ) from None
        stack, shifts = self.on_arcs(weights, 0.0), [0.0] * len(scales)
        # Every symbol of a truncation has a successor, so each value weighs an arc.
        for k in np.flatnonzero(weights.max(axis=1) < _TINY).tolist():
            scaled = scales[k] * self.values
            c = float(np.max(scaled, initial=NEG_INF))
            if math.isfinite(c):
                shifts[k] = c
                stack[k] = self.on_arcs(np.array(list(map(math.exp, (scaled - c).tolist()))), 0.0)
        return stack, shifts


def pair_log_table(sub: FiniteSubshift, ps: PairStructure) -> np.ndarray:
    """Arc values L_ij = pair(i, j) on the arcs of the truncation, -inf off them."""
    table = PairTable(sub, ps)
    return table.on_arcs(table.values, NEG_INF)


def pair_matrix(sub: FiniteSubshift, ps: PairStructure) -> np.ndarray:
    """Transfer matrix W_ij = exp(pair(i, j)) on the arcs of the truncation.

    A ValueError names t = 1.0 when every weight underflows (see
    PairTable.matrices).
    """
    (W,), (shift,) = PairTable(sub, ps).matrices((1.0,))
    if shift:
        raise ValueError("t = 1.0: every transfer weight exp(t * pair) underflows")
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


class TransferOperator:
    """A potential's transfer matrix on a truncation, and the walk of its words.

    Kind "pair" is the arc matrix of a pair potential (d = 1) with its length
    offset(n); kind "block" is the block matrix of a matrix-product norm at
    scale one (d x d blocks, offset 0). Either way B's (i, j) block weighs
    the arc i -> j and is zero off the arcs, and a periodic word from a has
    weight exp(offset(n)) times the entry sum of the diagonal block of a in
    B^n. This class alone knows that block layout.

    start, extend and close are word hooks in the shift_core.walk form,
    close(state, n, last). A state is (r, log_scale): per word w the forward row
    r_w = 1^T (blocks along the arcs of w), renormalised to unit sum, and the
    log of the sums divided out. A word whose sum vanishes keeps a zero row
    and log_scale -inf. close gives each word's cylinder weight
    offset(n) + log(r_w . tails[w_last]).
    """

    def __init__(self, kind: str, B: np.ndarray, d: int, offset: Callable[[int], float]):
        self.kind, self.B, self.d, self.offset = kind, B, d, offset

    def log_norm(self) -> float:
        """offset(1) plus the log of the largest column-block sum of B."""
        m = self.B.shape[0] // self.d
        columns = self.B.reshape(m, self.d, m, self.d).sum(axis=(0, 1, 3))
        return self.offset(1) + math.log(columns.max())

    @cached_property
    def blocks(self) -> np.ndarray:
        """Contiguous (m, m, d, d) array whose [i, j] is the (i, j) block of B."""
        m = self.B.shape[0] // self.d
        return np.ascontiguousarray(
            self.B.reshape(m, self.d, m, self.d).transpose(0, 2, 1, 3)
        )

    @cached_property
    def tails(self) -> np.ndarray:
        """Per position, the sup of the next hop that closes a word ending there.

        The row sums of the entrywise max of the position's successor blocks:
        the best last arc of a pair potential, and A_a^T 1 for a cocycle.
        """
        return self.blocks.max(axis=1).sum(axis=2).ravel()

    def start(self, roots):
        return np.ones((len(roots), self.d)), np.zeros(len(roots))

    def extend(self, state, parent, prev, child):
        r, log_scale = state
        r = np.matmul(r[parent][:, None, :], self.blocks[prev, child])[:, 0, :]
        s = r.sum(axis=1)
        np.divide(r, s[:, None], out=r, where=s[:, None] > 0)
        return r, log_scale[parent] + _log(s)

    def log_pair(self, state, last, vec: np.ndarray):
        """(log_scale, log of r . vec[block of the last position]) for every row."""
        r, log_scale = state
        return log_scale, _log(np.einsum("kd,kd->k", r, vec.reshape(-1, self.d)[last]))

    def close(self, state, n, last):
        r_scale, log_total = self.log_pair(state, last, self.tails)
        return self.offset(n) + r_scale + log_total


def _log(x: np.ndarray) -> np.ndarray:
    """Elementwise log with log 0 = -inf, raising no divide warning."""
    return np.log(x, out=np.full_like(x, NEG_INF), where=x > 0)


def transfer_operator(sub: FiniteSubshift, p: PotentialSequence) -> Optional[TransferOperator]:
    """The potential's transfer operator on the truncation, or None.

    A pair structure gives the pair operator, else block entries the block
    operator; a potential with neither has none and is enumerated.
    """
    ps = p.pair_structure()
    if ps is not None:
        return TransferOperator("pair", pair_matrix(sub, ps), 1, ps.offset)
    structure = p.block_entries()
    if structure is not None:
        entries, d = structure
        return TransferOperator("block", block_matrix(sub, entries, d), d, lambda n: 0.0)
    return None


class WordHooks:
    """Word hooks whose state is the words: close applies fn to each word of the slice.

    A state is (words,), one row of symbols of sub per word, so a walk
    carrying these hooks yields its words in the state.
    """

    def __init__(self, sub: FiniteSubshift, fn: Optional[Callable[[Word], float]] = None):
        self.symbols = np.asarray(sub.symbols)
        self.fn = fn

    def start(self, roots):
        return (self.symbols[roots][:, None],)

    def extend(self, state, parent, prev, child):
        words = state[0]
        longer = np.empty((len(child), words.shape[1] + 1), dtype=words.dtype)
        longer[:, :-1] = words[parent]
        longer[:, -1] = self.symbols[child]
        return (longer,)

    def close(self, state, n, last):
        return np.array([self.fn(w) for w in map(tuple, state[0].tolist())], dtype=float)


class PotentialSequence:
    """Base class for log-weight sequences on words.

    Subclasses must provide eval() and sup_f1(); the remaining hooks have
    defaults that are correct for families constant on n-cylinders.
    """

    name: str = "potential"
    declared_C: float = 0.0
    # The model's symbols the potential defines, when that is a finite list.
    defined_symbols: Optional[tuple[int, ...]] = None

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

    def word_hooks(self, sub: FiniteSubshift):
        """Word hooks (start, extend, close) over sub, in the shift_core.walk form.

        close(state, n, last) gives eval of each length-n row of a slice
        whose cyclic closure is an arc of sub. A state is a tuple of arrays
        with one row per walk row, so a caller may close a subset of the
        rows. A state of 1-D integer arrays promises that, with the last
        position, it fixes every future of its row: extend and close read
        nothing else, and the walk merges equal rows. The default carries
        the words and evaluates them one by one (WordHooks).
        """
        return WordHooks(sub, self.eval)

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
        row = None if ps.row is None else (lambda i: t * ps.row(i))
        return PairStructure(
            lambda i, j: t * ps.pair(i, j), lambda n: t * ps.offset(n), row
        )

    def block_entries(self):
        if self.t == 1.0:
            return self.base.block_entries()
        return None

    def scaled(self, t):
        return ScaledPotential(self.base, t * self.t)


# Symbols of a countable model probed for successors without a truncation,
# and of any model for a callable family's cone and for summability.
_SUCCESSOR_PROBE = 128
_CONE_PROBE = 16
_SUMMABILITY_PROBE = 64
# Symbols of a finite alphabet one model.table call checks for successors.
_SUCCESSOR_CHUNK = 1 << 16


def _in_alphabet(symbols: Sequence[int], model: TransitionModel) -> tuple[int, ...]:
    """The given symbols that lie in the model's alphabet, in their order."""
    first = model.first_symbol
    end = first + (model.alphabet_size or math.inf)
    return tuple(a for a in symbols if first <= a < end)


class BirkhoffPotential(PotentialSequence):
    """Cyclic arc sums of a two-symbol function f; exactly additive (C = 0)."""

    def __init__(self, f: Callable[[int, int], float], model: TransitionModel):
        self.f = f
        self.model = model
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
        """Successors of a: in sub when given, else in the model's whole alphabet.

        A countable model is searched on its first _SUCCESSOR_PROBE symbols.
        A finite one is searched whole, through model.table when it has one,
        _SUCCESSOR_CHUNK symbols a call.
        """
        if sub is not None:
            return sub.out_neighbors(a)
        model = self.model
        first = model.first_symbol
        end = first + (model.alphabet_size or _SUCCESSOR_PROBE)
        if model.table is None:
            return [j for j in range(first, end) if model.rule(a, j)]
        out = []
        for lo in range(first, end, _SUCCESSOR_CHUNK):
            ids = np.arange(lo, min(lo + _SUCCESSOR_CHUNK, end), dtype=np.int64)
            out += ids[np.asarray(model.table(np.int64(a), ids), dtype=bool)].tolist()
        return out

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


def birkhoff_potential(f: Callable[[int, int], float],
                       model: TransitionModel) -> BirkhoffPotential:
    """Potential with log f_n(w) = sum of f over the cyclic arcs of w."""
    return BirkhoffPotential(f, model)


def zero_potential(model: TransitionModel) -> BirkhoffPotential:
    """The constant-one weight sequence; its pressure is pure entropy."""
    p = birkhoff_potential(lambda i, j: 0.0, model)
    p.name = "zero"
    return p


class SymbolWeightPotential(PotentialSequence):
    """Products of per-symbol weights times a length-dependent factor c_n.

    symbols, when lam is defined on finitely many symbols (a listed
    family), names them; those the model has are defined_symbols.
    """

    def __init__(self, lam: Callable[[int], float], model: TransitionModel,
                 log_c: Optional[Callable[[int], float]] = None,
                 c_regularity: float = 0.0,
                 lam_tail_power: Optional[Callable[[int, float], float]] = None,
                 name: str = "symbol_weight",
                 symbols: Optional[Sequence[int]] = None):
        self.model = model
        if symbols is not None:
            self.defined_symbols = _in_alphabet(symbols, model)
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
        return PairStructure(lambda i, j: self.log_lam(i), self.log_c, self.log_lam)


def geometric_tail(base: float) -> Callable[[int, float], float]:
    """Closed-form tail of sum_{a > m} (base^-a)^power for base > 1, rounded up.

    With x = power log base, the tail is e^{-(m + 1) x} / (1 - e^{-x}), and
    1 - e^{-x} is taken as -expm1(-x), which keeps its precision as power
    goes to 0. To first order, with u = 2^-53 and each of log, exp and expm1
    within 2u: x is within 3u of its value, e^{-(m + 1) x} within
    4 (m + 1) x u + 2u, -expm1(-x) within 5u and the quotient within
    u (4 (m + 1) x + 8). The result is raised by that and rounded up.
    """

    def tail(m: int, power: float = 1.0) -> float:
        x = power * math.log(base)
        if not x > 0:  # power <= 0, or too small for x to be positive
            return math.inf
        value = math.exp(-(m + 1) * x) / -math.expm1(-x)
        return math.nextafter(value * (1.0 + 2.0 ** -53 * (4 * (m + 1) * x + 8)), math.inf)

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


class MatrixFamily:
    """Symbol-indexed family of nonnegative square matrices, each kept once.

    `entries` is a dict keyed by symbol, a sequence (symbol k maps to entry
    k-1) or a callable, read through shift_core.symbol_lookup with `name` as
    the field. A finite family lists its symbols in `symbols` and is
    validated eagerly; a callable family has symbols None and is validated
    on first access. Zero entries are allowed (identity families are
    legitimate exponent inputs); a cocycle potential demands strictly
    positive ones. `norm_tail` optionally bounds the summed norms of the
    symbols beyond a truncation, with the same contract as potential tails.
    """

    def __init__(self, d: int, entries: dict | Sequence | Callable[[int], np.ndarray],
                 norm_tail: Optional[Callable[[int], float]] = None,
                 name: str = "matrix-family"):
        if d < 1:
            raise ValueError("matrix dimension must be at least 1")
        self.d = int(d)
        self.norm_tail = norm_tail
        self.name = name
        self._cache: dict[int, np.ndarray] = {}
        self._lookup, self.symbols = symbol_lookup(entries, name)
        for a in self.symbols or ():
            self.matrix(a)

    def matrix(self, a: int) -> np.ndarray:
        cached = self._cache.get(a)
        if cached is not None:
            return cached
        raw = np.asarray(self._lookup(a), dtype=float)
        if raw.shape != (self.d, self.d):
            raise ValueError(
                f"matrix for symbol {a} has shape {raw.shape}, "
                f"expected ({self.d}, {self.d})"
            )
        if not np.isfinite(raw).all():
            raise ValueError(f"matrix for symbol {a} has a non-finite entry")
        if (raw < 0).any():
            raise ValueError(f"matrix for symbol {a} has a negative entry")
        if not (raw > 0).any():
            raise ValueError(f"matrix for symbol {a} has no positive entry")
        raw.setflags(write=False)
        self._cache[a] = raw
        return raw

    def norm(self, a: int) -> float:
        return entry_sum_norm(self.matrix(a))


def entry_sum_norm(a) -> float:
    """Sum of all matrix entries, the norm 1^T A 1 used throughout."""
    arr = np.asarray(a, dtype=float)
    return math.fsum(arr.ravel().tolist())


class CocyclePotential(PotentialSequence):
    """log of the entry-sum norm of reversed matrix products along the word.

    Each matrix of the family that the potential uses must be strictly
    positive. cone is the cone report on probe: the listed symbols the model
    has, which are also defined_symbols (else its first symbol, whose lookup
    then fails), or, for a callable family, the model's first _CONE_PROBE.
    Only a probe that samples a larger family meets the report's
    degeneration heuristic; a whole one is uniform iff best_C > 0.
    declared_C = -log(cone.best_C).
    """

    def __init__(self, family: MatrixFamily, model: TransitionModel):
        self.family = family
        self.model = model
        self.d = family.d
        self.name = "cocycle"
        if family.symbols is None:
            self.probe = model.symbols_for(_CONE_PROBE)
        else:
            self.defined_symbols = _in_alphabet(family.symbols, model)
            self.probe = list(self.defined_symbols) or [model.first_symbol]
        cone = check_cone_condition(family, self.probe)
        whole = family.symbols is not None or len(self.probe) == model.alphabet_size
        self.cone = ConeReport(cone.best_C > 0.0, cone.best_C) if whole else cone
        self.declared_C = -math.log(self.cone.best_C)

    def matrix(self, a: int) -> np.ndarray:
        A = self.family.matrix(a)
        if not (A > 0).all():
            raise ValueError(f"matrix for symbol {a} has a nonpositive entry")
        return A

    def eval(self, word):
        word = tuple(word)
        if not is_admissible(word, self.model):
            raise InadmissibleWordError(f"word {word} is not admissible")
        return log_norm_of_path(self, word)

    def sup_f1(self, a):
        return float(self.matrix(a).sum())

    def sup_f1_tail(self, m, power=1.0):
        if self.family.norm_tail is None or power != 1.0:
            return None
        return self.family.norm_tail(m)

    def pair_structure(self):
        if self.d != 1:
            return None
        return PairStructure(
            lambda i, j: math.log(self.matrix(i)[0, 0]), lambda n: 0.0
        )

    def block_entries(self):
        return (self.matrix, self.d)

    def word_hooks(self, sub):
        # The block operator even at d = 1, where transfer_operator gives the pair one.
        B = block_matrix(sub, self.matrix, self.d)
        return TransferOperator("block", B, self.d, lambda n: 0.0)


def cocycle_potential(family, model: TransitionModel) -> CocyclePotential:
    """Potential of a family of entrywise-positive matrices indexed by symbols.

    `family` is a MatrixFamily, whose norm_tail bounds the potential's tail,
    or a callable symbol -> matrix, which is wrapped into one without a tail
    or listed symbols. A listed family that lacks a symbol of the model
    fails at the first truncation that holds it.
    """
    if not isinstance(family, MatrixFamily):
        family = MatrixFamily(len(np.atleast_1d(family(model.first_symbol))), family)
    return CocyclePotential(family, model)


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
        """Exact number of admissible preimage words of the given word.

        The recursion of _PreimageCounts on one word, in Python ints.
        """
        word = tuple(word)
        if not word:
            raise ValueError("word must be nonempty")
        lo = hi = 1
        for prev, child in zip(word, word[1:]):
            from_zero = lo if prev == 1 else 0
            lo, hi = (lo + hi if child == 1 else from_zero), from_zero
        return lo + hi

    def eval(self, word):
        word = tuple(word)
        if not is_admissible(word, self.model):
            raise InadmissibleWordError(f"word {word} is not admissible")
        return -math.log(self.preimage_word_count(word))

    def sup_f1(self, a):
        return 0.5

    def word_hooks(self, sub):
        return _PreimageCounts(np.asarray(sub.symbols))


class _PreimageCounts:
    """Word hooks counting preimage words, over the symbols at each position.

    A state is, per row, the counts of preimage words ending at the low and
    at the high preimage (2j-2, 2j-1) of the last symbol j. Arcs between
    preimages exist iff the source or target preimage symbol is 0, i.e. the
    source is the low preimage of j = 1 or the target is the low preimage of
    k = 1. Counts are exact integers: they at most double per symbol, so they
    move from int64 to Python ints before they could wrap. The low count is
    never below the high one, so it alone is checked.

    extend reads only the counts and the two positions, and close only the
    counts, so rows with the same last position and counts have the same
    futures: shift_core.walk merges them within a slice and walks one row
    per (last, lo, hi) with its number of words. At
    m = 64 only 650 rows stand for the 290 688 words up to length 6. Ties
    are exact because the counts are integers; the cocycle's float rows,
    renormalised at every step, almost never tie, so they are not merged.
    Counts that moved to Python ints are carried unmerged.
    """

    def __init__(self, symbols: np.ndarray):
        self.symbols = symbols

    def start(self, roots):
        return np.ones(len(roots), dtype=np.int64), np.ones(len(roots), dtype=np.int64)

    def extend(self, state, parent, prev, child):
        lo, hi = state[0][parent], state[1][parent]
        if lo.dtype != object and lo.max(initial=0) >= 2 ** 61:
            lo, hi = lo.astype(object), hi.astype(object)
        from_zero = np.where(self.symbols[prev] == 1, lo, 0)
        return np.where(self.symbols[child] == 1, lo + hi, from_zero), from_zero

    def close(self, state, n, last):
        lo, hi = state
        return -np.log((lo + hi).astype(float))


def fiber_count_potential() -> FiberCountPotential:
    return FiberCountPotential()


# Sampled defects within this of the declared constant do not count as violations.
_REGULARITY_SLACK = 1e-9
# Most word positions one block of regularity samples holds: a block has
# max(1, _SAMPLE_BLOCK // depth) samples, so memory follows the block, not samples.
_SAMPLE_BLOCK = 1 << 16
# Draws of a sample's word before the sample is dropped for not closing.
_CLOSE_ATTEMPTS = 64


@dataclass(frozen=True)
class RegularityReport:
    C_hat: float
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
) -> RegularityReport:
    """Sampled falsifier for the declared almost-additivity constant.

    Draws cyclically admissible words w on the truncation to `truncation`
    symbols, splits each at a position n, and records the defect |log
    f_L(x) - log f_n(x) - log f_{L-n}(shift^n x)| at the periodic point x
    of w, L = len(w). The maximum is a lower estimate of the true constant;
    it cannot certify the declared one. worst_word is the first sample
    that attains it (None while every defect is 0).

    The law of a sample: L is uniform on [2, depth]; the first symbol is
    uniform on the truncation, and each next one uniform among the
    out-neighbours of the one before, conditioned on the arc from the last
    symbol back to the first; n is uniform on [1, L - 1]. A word that does
    not close is redrawn with the same L, and a sample whose
    _CLOSE_ATTEMPTS words all fail is dropped and not counted in
    `samples`. truncate prunes every symbol without a successor, so a walk
    never ends early.

    Samples are drawn max(1, _SAMPLE_BLOCK // depth) at a time, every
    length, first symbol, successor and split of a block as one array,
    with one draw and one gather on sub.successors per step. A
    potential with a pair structure has its three terms summed from one
    gather on its arc table: offset(L) plus the pair over all L cyclic
    arcs, offset(n) plus the first n arcs, and offset(L - n) plus the other
    L - n; each is its own sum. Any other potential is called through
    eval and eval_point on each drawn word. Both routes see the same
    words for a seed.
    """
    if depth < 2:
        raise ValueError(f"depth must be at least 2 to split a word, got {depth}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    sub = truncate(model, truncation)
    rng = np.random.default_rng(seed)
    symbols = np.asarray(sub.symbols)
    arcs = sub.matrix != 0
    start, succ = sub.successors
    fanout = np.diff(start)
    ps = p.pair_structure()
    if ps is None:
        defects = _word_defects(p, symbols)
    else:
        defects = _pair_defects(pair_log_table(sub, ps), ps.offset, depth)
    c_hat = 0.0
    worst = None
    used = 0
    block = max(1, _SAMPLE_BLOCK // depth)
    for lo in range(0, samples, block):
        lengths = rng.integers(2, depth + 1, size=min(block, samples - lo))
        words = np.zeros((len(lengths), depth), dtype=np.intp)
        closed = np.zeros(len(lengths), dtype=bool)
        pending = np.arange(len(lengths))
        for _attempt in range(_CLOSE_ATTEMPTS):
            if not pending.size:
                break
            ends = lengths[pending] - 1
            drawn = np.zeros((len(pending), ends.max() + 1), dtype=np.intp)
            drawn[:, 0] = rng.integers(0, sub.size, size=len(pending))
            for k in range(1, drawn.shape[1]):
                prev = drawn[:, k - 1]
                drawn[:, k] = succ[start[prev] + rng.integers(0, fanout[prev])]
            ok = arcs[drawn[np.arange(len(pending)), ends], drawn[:, 0]]
            words[pending[ok], :drawn.shape[1]] = drawn[ok]
            closed[pending[ok]] = True
            pending = pending[~ok]
        words, lengths = words[closed], lengths[closed]
        splits = rng.integers(1, lengths)
        used += len(lengths)
        found = defects(words, lengths, splits)
        if not found.size:
            continue
        # A NaN defect counts as none.
        k = int(np.argmax(np.where(np.isnan(found), 0.0, found)))
        if found[k] > c_hat:
            c_hat = float(found[k])
            worst = tuple(symbols[words[k, :lengths[k]]].tolist())
    return RegularityReport(
        C_hat=c_hat,
        samples=used,
        depth=depth,
        violates_declared=c_hat > p.declared_C + _REGULARITY_SLACK,
        worst_word=worst,
    )


def _pair_defects(table: np.ndarray, offset: Callable[[int], float], depth: int) -> Callable:
    """defects(words, lengths, splits) of a pair potential from its arc table.

    words holds positions, row k a word in its first lengths[k] entries.
    """
    offsets = np.array([0.0] + [offset(n) for n in range(1, depth + 1)])

    def defects(words, lengths, splits):
        at = np.arange(words.shape[1])
        heads = np.where(at + 1 < lengths[:, None], np.roll(words, -1, axis=1), words[:, :1])
        values = table[words, heads]
        on = at < lengths[:, None]
        first = at < splits[:, None]
        whole = offsets[lengths] + np.where(on, values, 0.0).sum(axis=1)
        head = offsets[splits] + np.where(first, values, 0.0).sum(axis=1)
        tail = offsets[lengths - splits] + np.where(on & ~first, values, 0.0).sum(axis=1)
        return np.abs(whole - head - tail)

    return defects


def _word_defects(p: PotentialSequence, symbols: np.ndarray) -> Callable:
    """defects(words, lengths, splits) from p.eval and p.eval_point, word by word."""

    def defects(words, lengths, splits):
        out = np.empty(len(lengths))
        rows = zip(symbols[words].tolist(), lengths.tolist(), splits.tolist())
        for k, (row, length, n) in enumerate(rows):
            w = tuple(row[:length])
            rotated = w[n:] + w[:n]
            out[k] = abs(p.eval(w) - p.eval_point(w, n) - p.eval_point(rotated, length - n))
        return out

    return defects


@dataclass(frozen=True)
class ConeReport:
    uniform: bool
    best_C: float


def check_cone_condition(family, symbols: Sequence[int]) -> ConeReport:
    """Largest C with min-entry / max-entry >= d*C over the probed symbols.

    family is a callable symbol -> matrix or an object exposing .matrix().
    The family is uniform only if the constant does not keep degenerating as
    more symbols are probed; this is detected by comparing the constant on the
    first half of the probed symbols against all of them, which judges only
    a sample of a larger family (a whole one: see CocyclePotential).
    """
    entries = family.matrix if hasattr(family, "matrix") else family
    ratios = []
    for a in symbols:
        A = np.asarray(entries(a), dtype=float)
        if not (A > 0).all():
            raise ValueError(f"matrix for symbol {a} has a nonpositive entry")
        ratios.append(float(A.min() / A.max()) / A.shape[0])
    best = min(ratios, default=math.inf)
    best_half = min(ratios[: max(1, len(ratios) // 2)], default=math.inf)
    degenerating = len(ratios) > 1 and best <= 0.5 * best_half
    return ConeReport(uniform=(best > 0.0 and not degenerating), best_C=best)


@dataclass(frozen=True)
class SummabilityReport:
    partial_sum: float
    tail_bound: Optional[float]
    total_bound: Optional[float]
    verdict: str  # "summable", "not_summable", or "inconclusive"


def summability_report(p: PotentialSequence) -> SummabilityReport:
    """Partial sums of sup f_1 per symbol plus a closed-form tail when known.

    A potential that defines finitely many of the model's symbols
    (defined_symbols: the symbols of a listed matrix family or weight list)
    sums exactly those and is "summable" with tail 0, as no truncation can
    hold another symbol without failing. Otherwise the sum runs over the
    model's first _SUMMABILITY_PROBE symbols. A finite alphabet is
    "summable", with a tail and total when the probe covers it; a countable
    one needs a tail bound.
    Terms that stay above 1e-9 across the probe yield "not_summable", and
    anything else is "inconclusive".
    """
    if p.defined_symbols is not None:
        partial = math.fsum(p.sup_f1(a) for a in p.defined_symbols)
        return SummabilityReport(partial, 0.0, partial, "summable")
    model = getattr(p, "model", None) or full_shift()
    symbols = model.symbols_for(_SUMMABILITY_PROBE)
    terms = [p.sup_f1(a) for a in symbols]
    partial = math.fsum(terms)
    if model.alphabet_size is not None:
        fits = model.alphabet_size <= _SUMMABILITY_PROBE
        return SummabilityReport(partial, 0.0 if fits else None, partial if fits else None, "summable")
    tail = p.sup_f1_tail(_SUMMABILITY_PROBE)
    if tail is not None and math.isfinite(tail):
        return SummabilityReport(partial, tail, partial + tail, "summable")
    last_quarter = terms[-max(1, len(terms) // 4):]
    if min(last_quarter) >= 1e-9:
        return SummabilityReport(partial, None, None, "not_summable")
    return SummabilityReport(partial, None, None, "inconclusive")
