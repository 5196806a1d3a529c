"""Countable Markov shifts, finite truncations, and periodic-word machinery.

A shift is described by a transition rule over integer symbols. Finite
truncations carry an explicit 0/1 matrix, with its successor lists cached
once (FiniteSubshift.successors), and are the objects every estimator
actually runs on; check_mixing says whether one is mixing, True or False.
Words are plain tuples of symbol ids. walk is the one walk of a
truncation's words: it carries the caller's hook states a slice of numpy
rows at a time, merging rows whose integer state fixes their future.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

Word = tuple[int, ...]


class SymbolDomainError(ValueError):
    """A symbol lies outside the model's domain."""


class InadmissibleWordError(ValueError):
    """A word violates the transition rule."""


class DegenerateTruncationError(ValueError):
    """Truncation removed every symbol."""


class NonMixingTruncationError(RuntimeError):
    """A finite truncation is not mixing where mixing is required."""


class EnumerationBudgetError(RuntimeError):
    """Enumerating words would exceed its cap."""


@dataclass(frozen=True)
class TransitionModel:
    """Transition rule over integer symbols, finite or countable.

    Parameters
    ----------
    rule : callable
        Predicate (i, j) -> bool deciding admissibility of the arc i -> j.
    alphabet_size : int or None
        Number of symbols for a finite model, None for a countable one.
    first_symbol : int
        Smallest symbol id (1 for most models, 0 for the star shift X).
    table : callable or None
        The rule on arrays: table(rows, cols) broadcasts two integer arrays
        of symbols and returns a bool array, True exactly where rule holds.
        truncate evaluates it once per truncation; without it, truncate
        calls rule once per pair of candidate symbols.
    """

    rule: Callable[[int, int], bool]
    alphabet_size: Optional[int] = None
    first_symbol: int = 1
    name: str = "custom"
    table: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = field(
        default=None, repr=False, compare=False
    )
    # Mixed truncations by m, filled by pressure.gurevich_pressure; they live
    # as long as this model object.
    _mixed: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_mixed", {})

    def _check_symbol(self, s: int) -> None:
        if not isinstance(s, (int, np.integer)):
            raise SymbolDomainError(f"symbol {s!r} is not an integer")
        if s < self.first_symbol:
            raise SymbolDomainError(
                f"symbol {s} below first symbol {self.first_symbol} of model {self.name}"
            )
        if self.alphabet_size is not None and s >= self.first_symbol + self.alphabet_size:
            raise SymbolDomainError(
                f"symbol {s} outside finite alphabet of model {self.name}"
            )

    def admits(self, i: int, j: int) -> bool:
        self._check_symbol(i)
        self._check_symbol(j)
        return bool(self.rule(i, j))

    def symbols_for(self, m: int) -> list[int]:
        """First m symbols in the model's natural order."""
        if m < 1:
            raise ValueError("truncation level must be at least 1")
        if self.alphabet_size is not None:
            m = min(m, self.alphabet_size)
        return list(range(self.first_symbol, self.first_symbol + m))


def full_shift() -> TransitionModel:
    return TransitionModel(
        lambda i, j: True, None, 1, "full",
        lambda i, j: np.ones(np.broadcast(i, j).shape, dtype=bool),
    )


def golden_mean_shift() -> TransitionModel:
    return TransitionModel(
        lambda i, j: not (i == 2 and j == 2), 2, 1, "golden_mean",
        lambda i, j: (i != 2) | (j != 2),
    )


def star_cover_shift() -> TransitionModel:
    """Star shift over 0,1,2,...: arc i -> j admissible iff i = 0 or j = 0.

    Two-to-one cover of star_shift under the symbol pairing
    (2j - 2, 2j - 1) -> j; the fiber-count potential lives downstairs.
    """
    return TransitionModel(
        lambda i, j: i == 0 or j == 0, None, 0, "star_cover",
        lambda i, j: (i == 0) | (j == 0),
    )


def star_shift() -> TransitionModel:
    """Star shift over 1,2,...: arc i -> j admissible iff i = 1 or j = 1."""
    return TransitionModel(
        lambda i, j: i == 1 or j == 1, None, 1, "star",
        lambda i, j: (i == 1) | (j == 1),
    )


def renewal_shift() -> TransitionModel:
    """Renewal shift: symbol 1 reaches everything, i steps down to i - 1."""
    return TransitionModel(
        lambda i, j: i == 1 or j == i - 1, None, 1, "renewal",
        lambda i, j: (i == 1) | (j == i - 1),
    )


MODEL_REGISTRY: dict[str, Callable[[], TransitionModel]] = {
    "full": full_shift,
    "golden_mean": golden_mean_shift,
    "star_cover": star_cover_shift,
    "star": star_shift,
    "renewal": renewal_shift,
}


def _arc_table(arc_set: set) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Vectorised membership in an arc set, in memory linear in its size.

    The symbols the arcs use are numbered in increasing order, each arc
    becomes one key, and a query is binary searches in those sorted arrays.
    """
    arcs = sorted(arc_set)
    ids = np.array(sorted({s for arc in arcs for s in arc}), dtype=np.int64)
    n = len(ids)
    ends = np.searchsorted(ids, np.array(arcs, dtype=np.int64))
    # Arcs in lexicographic order give increasing keys.
    keys = ends[:, 0] * n + ends[:, 1]

    def table(i, j):
        ki = np.minimum(np.searchsorted(ids, i), n - 1)
        kj = np.minimum(np.searchsorted(ids, j), n - 1)
        key = ki * n + kj
        at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        return (ids[ki] == i) & (ids[kj] == j) & (keys[at] == key)

    return table


def model_from_arcs(arcs: Sequence[Sequence[int]]) -> TransitionModel:
    arc_set = set()
    top = None
    for arc in arcs:
        i, j = int(arc[0]), int(arc[1])
        if i < 1 or j < 1:
            raise SymbolDomainError(f"arc ({i}, {j}) uses a symbol below 1")
        arc_set.add((i, j))
        top = max(top or 1, i, j)
    if not arc_set:
        raise ValueError("arc list is empty")
    # Symbols past int64 keep the per-pair rule.
    table = _arc_table(arc_set) if top < 2 ** 63 else None
    return TransitionModel(lambda i, j: (i, j) in arc_set, top, 1, "arcs", table)


def is_admissible(word: Sequence[int], model: TransitionModel) -> bool:
    """True iff every consecutive pair of the word is an admissible arc."""
    word = tuple(word)
    if not word:
        raise ValueError("word must be nonempty")
    for s in word:
        model._check_symbol(s)
    return all(model.rule(a, b) for a, b in zip(word, word[1:]))


def symbol_lookup(entries, field_name: str):
    """(lookup, symbols) for a per-symbol family given as a dict, sequence or callable.

    A sequence gives symbol k its entry k - 1. For a dict or a sequence,
    symbols is the sorted tuple of the family's symbols, and lookup raises
    ValueError naming field_name and the symbol for any other symbol. A
    callable is its own lookup, with symbols None.
    """
    if callable(entries):
        return entries, None
    if isinstance(entries, dict):
        table = {int(a): v for a, v in entries.items()}
    else:
        table = dict(enumerate(entries, 1))

    def lookup(a: int):
        try:
            return table[a]
        except KeyError:
            raise ValueError(f"{field_name}: no entry for symbol {a}") from None

    return lookup, tuple(sorted(table))


@dataclass(frozen=True)
class FiniteSubshift:
    """Finite truncation of a model: surviving symbols plus a 0/1 matrix."""

    symbols: tuple[int, ...]
    matrix: np.ndarray
    dropped: tuple[int, ...] = ()
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {s: k for k, s in enumerate(self.symbols)}
        )

    def __eq__(self, other):
        """Equal symbols, dropped symbols and matrix entries; the arrays may be separate."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.symbols == other.symbols
            and self.dropped == other.dropped
            and (self.matrix is other.matrix or np.array_equal(self.matrix, other.matrix))
        )

    @property
    def size(self) -> int:
        return len(self.symbols)

    @cached_property
    def successors(self) -> tuple[np.ndarray, np.ndarray]:
        """(start, succ): position k's successors are succ[start[k]:start[k + 1]], ascending.

        Taken once from np.nonzero(matrix), so succ lists the arcs' heads in
        row-major order and start[k + 1] - start[k] is k's fanout. Both
        arrays are read-only; they are cached outside __init__ and equality.
        """
        rows, succ = np.nonzero(self.matrix)
        start = np.zeros(self.size + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=self.size), out=start[1:])
        start.flags.writeable = succ.flags.writeable = False
        return start, succ

    def position(self, symbol: int) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise SymbolDomainError(
                f"symbol {symbol} is not part of this truncation"
            ) from None

    def arc(self, i: int, j: int) -> bool:
        return bool(self.matrix[self.position(i), self.position(j)])

    def out_neighbors(self, i: int) -> tuple[int, ...]:
        start, succ = self.successors
        k = self.position(i)
        return tuple(self.symbols[j] for j in succ[start[k]:start[k + 1]].tolist())

    def in_neighbors(self, j: int) -> tuple[int, ...]:
        col = self.matrix[:, self.position(j)]
        return tuple(self.symbols[k] for k in np.flatnonzero(col).tolist())


def truncate(model: TransitionModel, m: int) -> FiniteSubshift:
    """Restrict the model to its first m symbols and prune dead symbols.

    The m x m candidate matrix comes from one call of model.table, or from
    m**2 calls of model.rule when the model has no table. A symbol is dead
    when no surviving symbol leads to it or none follows it. Each dead
    symbol is popped once and decrements the in- and out-degree counts of
    its surviving neighbours, which may die in turn: O(m) per dead symbol,
    O(m**2) in all. dropped lists the dead symbols in the model's order.

    Raises
    ------
    DegenerateTruncationError
        If no symbol survives.
    """
    candidates = model.symbols_for(m)
    if model.table is not None:
        ids = np.array(candidates, dtype=np.int64)
        full = np.asarray(model.table(ids[:, None], ids[None, :]), dtype=bool)
    else:
        full = np.array(
            [[bool(model.rule(i, j)) for j in candidates] for i in candidates],
            dtype=bool,
        )
    outdeg, indeg = full.sum(axis=1), full.sum(axis=0)
    alive = (outdeg > 0) & (indeg > 0)
    dead = np.flatnonzero(~alive).tolist()
    while dead:
        k = dead.pop()
        # k's live successors lose a predecessor, its live predecessors a successor.
        for degree, arcs in ((indeg, full[k]), (outdeg, full[:, k])):
            hit = np.flatnonzero(arcs & alive)
            degree[hit] -= 1
            gone = hit[degree[hit] == 0]
            alive[gone] = False
            dead += gone.tolist()
    if not alive.any():
        raise DegenerateTruncationError(
            f"degenerate truncation: no symbol of {model.name} survives at m={m}"
        )
    keep = np.flatnonzero(alive)
    mat = full if alive.all() else full[np.ix_(keep, keep)]
    dropped = tuple(s for s, live in zip(candidates, alive.tolist()) if not live)
    return FiniteSubshift(
        tuple(candidates[k] for k in keep.tolist()), mat.astype(np.int8), dropped
    )


def _bfs_levels(arcs: np.ndarray) -> np.ndarray:
    """Arc distance of each vertex from vertex 0, -1 where unreachable; O(size**2)."""
    level = np.full(len(arcs), -1)
    frontier = np.zeros(len(arcs), dtype=bool)
    frontier[0] = True
    depth = 0
    while frontier.any():
        level[frontier] = depth
        depth += 1
        frontier = arcs[frontier].any(axis=0) & (level < 0)
    return level


def _primitive(arcs: np.ndarray) -> bool:
    """Strongly connected with period 1, in O(size**2) for a size x size graph."""
    level = _bfs_levels(arcs)
    if (level < 0).any() or (_bfs_levels(arcs.T) < 0).any():
        return False
    i, j = np.nonzero(arcs)
    return np.gcd.reduce(level[i] + 1 - level[j]) == 1


def check_mixing(sub: FiniteSubshift) -> bool:
    """True iff the truncation is mixing: some power of its matrix is positive.

    That holds iff the graph is primitive: strongly connected (a forward and
    a backward search from vertex 0 reach every vertex) with period 1 (the
    gcd of level[i] + 1 - level[j] over the arcs i -> j, where level is the
    forward search depth). Both take O(size**2); a positive matrix skips
    them. The exponent, the smallest positive power, is not computed; it is
    at most the Wielandt bound (size-1)^2 + 1.
    """
    arcs = sub.matrix != 0
    return bool(arcs.all() or _primitive(arcs))


# Most rows one slice of a word walk holds. The walk keeps at most one slice
# per word length, so its memory is O(depth**2 * _FRONTIER) whatever the
# number of words.
_FRONTIER = 1 << 10


def walk(
    sub: FiniteSubshift,
    roots: Sequence[int],
    depth: int,
    start: Callable,
    extend: Callable,
) -> Iterator[tuple[int, np.ndarray, object, Optional[np.ndarray]]]:
    """Slices of the admissible words of length 1..depth from the root positions.

    Yields (n, last, state, mult) per slice: the word length, the position of
    each row's last symbol, the caller's batched state for the rows, and the
    number of words each row stands for. start(positions) gives the state of
    a slice of roots; extend(state, parent, prev, child) gives the state of
    the children, where row k extends row parent[k], whose last position is
    prev[k], by the position child[k]. The walk builds no words: a hook that
    reads them carries them in its state (potentials.WordHooks).

    A state that is a tuple of 1-D integer arrays promises that, with the
    last position, it fixes every future of its row: extend reads nothing
    else. Rows of a slice that agree on both are then one row, and mult
    (int64) counts its words; a state that moved to Python ints (object
    arrays) is carried unmerged, its rows keeping their multiplicities. Any
    other state has one row per word and mult None.

    Children are gathered from sub.successors in O(children), in the arcs'
    row-major order, so for sorted roots and unmerged rows every length is
    yielded in lexicographic order. The walk is depth first: a slice holds
    at most _FRONTIER rows (a parent with more children gets a slice of its
    own), and its children are built, then merged, only when the walk
    resumes after yielding it, each child slice walked to depth before the
    next one is built.
    """
    start_at, succ = sub.successors
    fanout = np.diff(start_at)
    roots = np.asarray(roots, dtype=np.intp)

    def root_slices():
        for lo in range(0, len(roots), _FRONTIER):
            last = roots[lo:lo + _FRONTIER]
            state = start(last)
            merged = isinstance(state, tuple) and all(
                x.ndim == 1 and np.issubdtype(x.dtype, np.integer) for x in state
            )
            yield 1, last, state, np.ones(len(last), dtype=np.int64) if merged else None

    def child_slices(n, last, state, mult):
        if n == depth:
            return
        for lo, hi in _chunks(fanout[last]):
            rows = last[lo:hi]
            counts = fanout[rows]
            parent = np.repeat(np.arange(lo, hi), counts)
            # Each row's children are its run of succ, placed after the runs before it.
            skip = start_at[rows] - (np.cumsum(counts) - counts)
            child = succ[np.arange(len(parent)) + np.repeat(skip, counts)]
            children = extend(state, parent, last[parent], child)
            yield (n + 1,) + _merged(child, children, mult if mult is None else mult[parent])

    return _depth_first(root_slices() if depth >= 1 else iter(()), child_slices)


def _merged(last: np.ndarray, state: tuple, mult: np.ndarray):
    """One row per distinct (last, state), its mult summed; as given without mult or Python ints."""
    if mult is None or len(last) < 2 or any(x.dtype == object for x in state):
        return last, state, mult
    keys = (last,) + tuple(state)
    order = np.lexsort(keys[::-1])
    keys = [key[order] for key in keys]
    new = np.zeros(len(order), dtype=bool)
    new[0] = True
    for key in keys:
        new[1:] |= key[1:] != key[:-1]
    firsts = np.flatnonzero(new)
    return keys[0][firsts], tuple(key[firsts] for key in keys[1:]), np.add.reduceat(mult[order], firsts)


def _chunks(counts: np.ndarray) -> Iterator[tuple[int, int]]:
    """Runs [lo, hi) of rows whose counts sum to at most _FRONTIER; a larger row runs alone."""
    ends = np.cumsum(counts)
    lo = 0
    while lo < len(ends):
        done = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + _FRONTIER, side="right")))
        yield lo, hi
        lo = hi


def _depth_first(roots: Iterator, children: Callable) -> Iterator:
    """Each slice of roots, and after each slice its children(*slice), depth first."""
    pending = [roots]
    while pending:
        piece = next(pending[-1], None)
        if piece is None:
            pending.pop()
            continue
        yield piece
        pending.append(children(*piece))


def walk_counts(sub: FiniteSubshift, n: int, v: np.ndarray) -> np.ndarray:
    """Exact matrix^n @ v for an object-dtype v of Python ints; never overflows."""
    A = sub.matrix.astype(object)
    for _ in range(n):
        v = A.dot(v)
    return v


@dataclass(frozen=True)
class BipCertificate:
    """Witness that finitely many symbols connect to everything checked."""

    witness_set: tuple[int, ...]
    verified_up_to: int


@dataclass(frozen=True)
class BipFailure:
    symbol: int
    missing: str  # "preimage", "image", or "both"


def check_bip(model: TransitionModel, witness_set: Sequence[int], up_to: int):
    """Check the big-images-and-preimages property on symbols up to a bound.

    For every symbol a with first_symbol <= a <= up_to there must exist
    witnesses b, b' with rule(b, a) = rule(a, b') = 1. Returns a
    BipCertificate on success and a BipFailure naming the first bad symbol
    otherwise.
    """
    witness = tuple(sorted(set(int(b) for b in witness_set)))
    if not witness:
        raise ValueError("witness set must be nonempty")
    if up_to < model.first_symbol:
        raise ValueError(
            f"up_to {up_to} is below the first symbol {model.first_symbol}"
        )
    for b in witness:
        model._check_symbol(b)
    for a in range(model.first_symbol, up_to + 1):
        if model.alphabet_size is not None and a >= model.first_symbol + model.alphabet_size:
            break
        has_pre = any(model.rule(b, a) for b in witness)
        has_img = any(model.rule(a, b) for b in witness)
        if has_pre and has_img:
            continue
        missing = "both" if not (has_pre or has_img) else ("preimage" if not has_pre else "image")
        return BipFailure(symbol=a, missing=missing)
    return BipCertificate(witness_set=witness, verified_up_to=up_to)
