"""Countable Markov shifts, finite truncations, and periodic-word machinery.

A shift is described by a transition rule over integer symbols. Finite
truncations carry an explicit 0/1 matrix and are the objects every estimator
actually runs on; words are plain tuples of symbol ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

Word = tuple[int, ...]


class SymbolDomainError(ValueError):
    """A symbol lies outside the model's domain."""


class InadmissibleWordError(ValueError):
    """A word violates the transition rule."""


class DegenerateTruncationError(ValueError):
    """Truncation removed every symbol."""


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
    """

    rule: Callable[[int, int], bool]
    alphabet_size: Optional[int] = None
    first_symbol: int = 1
    name: str = "custom"

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
    return TransitionModel(lambda i, j: True, None, 1, "full")


def golden_mean_shift() -> TransitionModel:
    return TransitionModel(lambda i, j: not (i == 2 and j == 2), 2, 1, "golden_mean")


def star_cover_shift() -> TransitionModel:
    """Star shift over 0,1,2,...: arc i -> j admissible iff i = 0 or j = 0.

    Two-to-one cover of star_shift under the symbol pairing
    (2j - 2, 2j - 1) -> j; the fiber-count potential lives downstairs.
    """
    return TransitionModel(lambda i, j: i == 0 or j == 0, None, 0, "star_cover")


def star_shift() -> TransitionModel:
    """Star shift over 1,2,...: arc i -> j admissible iff i = 1 or j = 1."""
    return TransitionModel(lambda i, j: i == 1 or j == 1, None, 1, "star")


def renewal_shift() -> TransitionModel:
    """Renewal shift: symbol 1 reaches everything, i steps down to i - 1."""
    return TransitionModel(lambda i, j: i == 1 or j == i - 1, None, 1, "renewal")


MODEL_REGISTRY: dict[str, Callable[[], TransitionModel]] = {
    "full": full_shift,
    "golden_mean": golden_mean_shift,
    "star_cover": star_cover_shift,
    "star": star_shift,
    "renewal": renewal_shift,
}


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
    return TransitionModel(lambda i, j: (i, j) in arc_set, top, 1, "arcs")


def is_admissible(word: Sequence[int], model: TransitionModel) -> bool:
    """True iff every consecutive pair of the word is an admissible arc."""
    word = tuple(word)
    if not word:
        raise ValueError("word must be nonempty")
    for s in word:
        model._check_symbol(s)
    return all(model.rule(a, b) for a, b in zip(word, word[1:]))


@dataclass(frozen=True)
class FiniteSubshift:
    """Finite truncation of a model: surviving symbols plus a 0/1 matrix."""

    symbols: tuple[int, ...]
    matrix: np.ndarray
    dropped: tuple[int, ...] = ()
    mixing_certificate: Optional[int] = None
    _index: dict = field(default_factory=dict, repr=False, compare=False)
    # Neighbour tuples by symbol, filled on first use.
    _out: dict = field(init=False, repr=False, compare=False)
    _in: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {s: k for k, s in enumerate(self.symbols)}
        )
        object.__setattr__(self, "_out", {})
        object.__setattr__(self, "_in", {})

    @property
    def size(self) -> int:
        return len(self.symbols)

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
        try:
            return self._out[i]
        except KeyError:
            row = self.matrix[self.position(i)]
            out = self._out[i] = tuple(self.symbols[k] for k in np.nonzero(row)[0])
            return out

    def in_neighbors(self, j: int) -> tuple[int, ...]:
        try:
            return self._in[j]
        except KeyError:
            col = self.matrix[:, self.position(j)]
            out = self._in[j] = tuple(self.symbols[k] for k in np.nonzero(col)[0])
            return out

    def admits_word(self, word: Sequence[int]) -> bool:
        return all(self.arc(a, b) for a, b in zip(word, word[1:]))

    def with_mixing(self, n: Optional[int]) -> "FiniteSubshift":
        return replace(self, mixing_certificate=n)


def truncate(model: TransitionModel, m: int) -> FiniteSubshift:
    """Restrict the model to its first m symbols and prune dead symbols.

    Symbols whose row or column becomes all zero inside the truncation are
    removed iteratively until the matrix has no empty row or column.

    Raises
    ------
    DegenerateTruncationError
        If no symbol survives.
    """
    candidates = model.symbols_for(m)
    alive = list(candidates)
    while True:
        mat = np.array(
            [[1 if model.rule(i, j) else 0 for j in alive] for i in alive],
            dtype=np.int8,
        )
        rows = mat.sum(axis=1)
        cols = mat.sum(axis=0)
        keep = [k for k in range(len(alive)) if rows[k] > 0 and cols[k] > 0]
        if len(keep) == len(alive):
            break
        alive = [alive[k] for k in keep]
        if not alive:
            raise DegenerateTruncationError(
                f"degenerate truncation: no symbol of {model.name} survives at m={m}"
            )
    dropped = tuple(s for s in candidates if s not in set(alive))
    mat = np.array(
        [[1 if model.rule(i, j) else 0 for j in alive] for i in alive],
        dtype=np.int8,
    )
    return FiniteSubshift(tuple(alive), mat, dropped)


def check_mixing(sub: FiniteSubshift, max_exponent: Optional[int] = None) -> Optional[int]:
    """Smallest N with matrix^N entrywise positive, or None if none is found.

    The default exponent bound is the Wielandt bound (size-1)^2 + 1, which is
    sharp for primitive 0/1 matrices.
    """
    size = sub.size
    if max_exponent is None:
        max_exponent = (size - 1) ** 2 + 1 if size > 1 else 1
    A = (sub.matrix > 0)
    P = A.copy()
    for n in range(1, max_exponent + 1):
        if P.all():
            return n
        P = (P.astype(np.int16) @ A.astype(np.int16)) > 0
    return None


# Most rows one slice of a word walk holds. The walk keeps at most one slice
# per word length, so its memory is O(depth**2 * _FRONTIER) whatever the
# number of words.
_FRONTIER = 1 << 10


def walk_words(
    sub: FiniteSubshift,
    roots: Sequence[int],
    depth: int,
    start: Optional[Callable] = None,
    extend: Optional[Callable] = None,
) -> Iterator[tuple[np.ndarray, np.ndarray, object]]:
    """Slices of the admissible words of length 1..depth from the root positions.

    Yields (words, last, state) per slice: the words as one row of symbols
    each, the position of each row's last symbol, and the caller's batched
    state for the rows (None without hooks). start(positions) gives the state
    of a slice of roots; extend(state, parent, prev, child) gives the state
    of the children, where row k extends row parent[k], whose last position
    is prev[k], by the position child[k].

    Children follow the arcs in row-major order, so for sorted roots every
    length is yielded in lexicographic order. The walk is depth first: a
    slice holds at most _FRONTIER rows (a parent with more children gets a
    slice of its own), and its children are built only when the walk resumes
    after yielding it, each child slice walked to depth before the next one
    is built.
    """
    arcs = sub.matrix != 0
    fanout = arcs.sum(axis=1)
    symbols = np.asarray(sub.symbols)
    roots = np.asarray(roots, dtype=np.intp)

    def root_slices():
        for lo in range(0, len(roots), _FRONTIER):
            last = roots[lo:lo + _FRONTIER]
            yield symbols[last][:, None], last, start(last) if start else None

    def child_slices(words, last, state):
        ends = np.cumsum(fanout[last])
        lo = 0
        while lo < len(ends):
            done = ends[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, done + _FRONTIER, side="right")))
            parent, child = np.nonzero(arcs[last[lo:hi]])
            parent += lo
            longer = np.empty((len(child), words.shape[1] + 1), dtype=words.dtype)
            longer[:, :-1] = words[parent]
            longer[:, -1] = symbols[child]
            yield longer, child, (
                extend(state, parent, last[parent], child) if extend else None
            )
            lo = hi

    pending = [root_slices()] if depth >= 1 else []
    while pending:
        piece = next(pending[-1], None)
        if piece is None:
            pending.pop()
            continue
        yield piece
        if piece[0].shape[1] < depth:
            pending.append(child_slices(*piece))


def enumerate_periodic_words(sub: FiniteSubshift, n: int, a: int) -> Iterator[Word]:
    """All length-n words starting at a whose cyclic closure is admissible.

    The stream is deterministic and lexicographically sorted.
    """
    if n < 1:
        raise ValueError("word length must be at least 1")
    ia = sub.position(a)
    closes = sub.matrix[:, ia] != 0
    for words, last, _ in walk_words(sub, [ia], n):
        if words.shape[1] == n:
            yield from map(tuple, words[closes[last]].tolist())


def walk_counts(sub: FiniteSubshift, n: int, v: np.ndarray) -> np.ndarray:
    """Exact matrix^n @ v for an object-dtype v of Python ints; never overflows."""
    A = sub.matrix.astype(object)
    for _ in range(n):
        v = A.dot(v)
    return v


def count_periodic(sub: FiniteSubshift, n: int, a: int) -> int:
    """Exact number of periodic words of length n starting at a.

    Equals the (a, a) entry of the n-th matrix power, computed with exact
    integer arithmetic, so there is no overflow at any n.
    """
    if n < 1:
        raise ValueError("word length must be at least 1")
    ia = sub.position(a)
    start = np.zeros(sub.size, dtype=object)
    start[ia] = 1
    return int(walk_counts(sub, n, start)[ia])


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
