"""Shared generators, brute-force references and closed-form oracles for the tests."""

import csv
import io
import itertools
import math

import numpy as np

from thermoshift.gibbs import _plus, markov_measure
from thermoshift.numerics import NEG_INF, logsumexp, perron_data
from thermoshift.potentials import PotentialSequence, ScaledPotential, WordHooks, transfer_operator
from thermoshift.pressure import PartitionSeries, gurevich_pressure
from thermoshift.shift_core import (
    check_mixing,
    full_shift,
    model_from_arcs,
    truncate,
    walk,
    walk_counts,
)


def random_stationary_kernel(sub, rng):
    """(pi, kernel): a random kernel on the subshift's arcs and its stationary vector."""
    size = sub.size
    kernel = np.zeros((size, size))
    for ki in range(size):
        outs = np.nonzero(sub.matrix[ki])[0]
        w = rng.random(len(outs)) + 0.05
        kernel[ki, outs] = w / w.sum()
    A = np.vstack([kernel.T - np.eye(size), np.ones(size)])
    b = np.zeros(size + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    return pi / pi.sum(), kernel


def random_stationary_markov(sub, rng):
    """Random stationary Markov measure supported on the subshift's arcs."""
    pi, kernel = random_stationary_kernel(sub, rng)
    return markov_measure(sub.symbols, pi, kernel, sub)


def random_mixing_subshift(rng, max_symbols=5, density=0.6):
    """Random mixing finite subshift with a forced hub symbol."""
    while True:
        size = int(rng.integers(2, max_symbols + 1))
        mat = (rng.random((size, size)) < density).astype(int)
        mat[0, :] = 1
        mat[:, 0] = 1
        arcs = [
            (i + 1, j + 1) for i in range(size) for j in range(size) if mat[i, j]
        ]
        model = model_from_arcs(arcs)
        sub = truncate(model, size)
        if check_mixing(sub):
            return model, sub


def wielandt_exponent(sub):
    """Reference mixing exponent: try every power up to the Wielandt bound.

    Smallest N <= (size-1)^2 + 1 with matrix^N entrywise positive, else None.
    """
    size = sub.size
    max_exponent = (size - 1) ** 2 + 1 if size > 1 else 1
    A = (sub.matrix > 0)
    P = A.copy()
    for n in range(1, max_exponent + 1):
        if P.all():
            return n
        P = (P.astype(np.int16) @ A.astype(np.int16)) > 0
    return None


def brute_force_preimage_count(word):
    """Independent count over all preimage choices, checked pairwise."""
    choices = [(2 * j - 2, 2 * j - 1) for j in word]
    count = 0
    for combo in itertools.product(*choices):
        if all(u == 0 or v == 0 for u, v in zip(combo, combo[1:])):
            count += 1
    return count


class HiddenStructure(PotentialSequence):
    """Facade that hides a potential's exact structure, so callers take the word route."""

    def __init__(self, base):
        self.base = base
        self.name = f"hidden({base.name})"
        self.declared_C = base.declared_C

    def eval(self, word):
        return self.base.eval(word)

    def eval_point(self, cycle, k):
        return self.base.eval_point(cycle, k)

    def sup_f1(self, a):
        return self.base.sup_f1(a)


def admits_word(sub, word):
    """True iff every consecutive pair of the word is an arc of the truncation."""
    return all(sub.arc(a, b) for a, b in zip(word, word[1:]))


def enumerate_periodic_words(sub, n, a):
    """All length-n words starting at a whose cyclic closure is admissible.

    The stream is deterministic and lexicographically sorted.
    """
    if n < 1:
        raise ValueError("word length must be at least 1")
    ia = sub.position(a)
    closes = sub.matrix[:, ia] != 0
    hooks = WordHooks(sub)
    for k, last, (words,), _ in walk(sub, [ia], n, hooks.start, hooks.extend):
        if k == n:
            yield from map(tuple, words[closes[last]].tolist())


def count_periodic(sub, n, a):
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


def closed_form_fullshift_pressure(gamma, lambda_sum, t):
    """t*gamma + log(lambda_sum) where lambda_sum is the exact sum of lambda^t.

    The caller supplies the power sum in closed form; a nonfinite or
    nonpositive-divergent sum yields +inf.
    """
    if lambda_sum == math.inf:
        return math.inf
    if not (lambda_sum > 0):
        raise ValueError("lambda power sum must be positive or +inf")
    return t * gamma + math.log(lambda_sum)


def geometric_power_sum(r, t):
    """Sum over j >= 1 of (r^j)^t for 0 < r < 1; +inf when t <= 0."""
    if not (0.0 < r < 1.0):
        raise ValueError("geometric ratio must lie in (0, 1)")
    if t <= 0:
        return math.inf
    rt = r ** t
    return rt / (1.0 - rt)


def power_law_sum(s, t, terms=20_000):
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


def symbol_independence_check(model, p, symbols, **params):
    """Max pairwise deviation of pressure estimates across base symbols."""
    if len(symbols) < 2:
        raise ValueError("need at least two symbols to compare")
    values = [gurevich_pressure(model, p, a=s, **params).value for s in symbols]
    return max(abs(x - y) for x in values for y in values)


def explicit_gibbs_masses(sub, p, level):
    """Brute-force finite-approximation measure on every word up to the level.

    Each admissible word of the level weighs its cylinder_log_weight,
    normalised by the logsumexp over the level; a shorter word's mass is the
    sum over the level words it prefixes. Returns {word: mass}.
    """
    words = [
        w for w in itertools.product(sub.symbols, repeat=level) if admits_word(sub, w)
    ]
    weights = [p.cylinder_log_weight(w, sub) for w in words]
    top = max(weights)
    log_alpha = top + math.log(math.fsum(math.exp(lw - top) for lw in weights))
    parts = {}
    for w, lw in zip(words, weights):
        m = math.exp(lw - log_alpha)
        for n in range(1, level + 1):
            parts.setdefault(w[:n], []).append(m)
    return {w: math.fsum(ms) for w, ms in parts.items()}


def row_sink(rows):
    """A verify_gibbs row_sink that appends (n, word, mass, log weight, ratio) per cylinder.

    Each call hands one length's columns, lengths increasing: the words and
    float64 arrays of log mass, log weight and log ratio. They are checked
    for shape and type, the masses and ratios taken out of the log domain by
    math.exp, and flattened into one row per word, in the order they were
    handed over.
    """
    def sink(n, words, log_mass, log_weight, log_ratio):
        assert not rows or rows[-1][0] < n
        assert words.shape == (len(log_mass), n)
        assert log_mass.shape == log_weight.shape == log_ratio.shape == (len(log_mass),)
        assert log_mass.dtype == log_weight.dtype == log_ratio.dtype == np.float64
        mass = list(map(math.exp, log_mass.tolist()))
        ratio = list(map(math.exp, log_ratio.tolist()))
        rows.extend(zip([n] * len(mass), map(tuple, words.tolist()), mass,
                        log_weight.tolist(), ratio))
    return sink


def reference_gibbs_csv(rows, cert):
    """gibbs.csv written one row at a time by csv.writer: repr per float, words space-joined."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(("n", "word", "mass", "log_weight", "ratio"))
    for n, w, m, lw, r in rows:
        row = (n, " ".join(str(s) for s in w), m, lw, r)
        writer.writerow([repr(x) if isinstance(x, float) else x for x in row])
    summary = ("summary", "", cert.words_tested, cert.ratio_min, cert.ratio_max)
    writer.writerow([repr(x) if isinstance(x, float) else x for x in summary])
    return buf.getvalue()


def one_matrix_power_diagonal(W, index, n_max):
    """log 1_S^T W^n 1_S for n = 1..n_max with one matrix-vector product per level.

    The single-matrix loop: renormalise by v.sum() after each product, add
    the log of that sum, and stop at the first level whose sum vanishes.
    """
    out = []
    v = np.zeros(W.shape[0])
    v[index] = 1.0
    log_scale = 0.0
    for _ in range(n_max):
        v = W @ v
        s = v.sum()
        if s <= 0:
            out.extend([-math.inf] * (n_max - len(out)))
            break
        v /= s
        log_scale += math.log(s)
        entry = v[index].sum()
        out.append(log_scale + math.log(entry) if entry > 0 else -math.inf)
    return out


def unscaled(p):
    """(base, t) with p = t * base: a ScaledPotential's parts, else (p, 1.0)."""
    return (p.base, p.t) if isinstance(p, ScaledPotential) else (p, 1.0)


def per_potential_series(sub, p, n_max, a):
    """log Z_1..log Z_n_max of p alone: its own transfer matrix, or a walk with its own hooks.

    A pair potential's matrix is math.exp of its own pair on each arc, and a
    block potential's is its block matrix; the diagonal comes from
    one_matrix_power_diagonal. Without either, the words from a are walked
    with the hooks of p's base, each slice closes to t times the base's
    values (p = t * base), and each length takes a logsumexp per walk slice
    and then one across slices. The hooks' state rides in a list, which the
    walk never merges, so every row is one word.
    """
    ia = sub.position(a)
    op = transfer_operator(sub, p)
    if op is not None:
        B, ps = op.B, p.pair_structure()
        if ps is not None:
            B = np.zeros((sub.size, sub.size))
            for ki, kj in zip(*np.nonzero(sub.matrix)):
                B[ki, kj] = math.exp(ps.pair(sub.symbols[ki], sub.symbols[kj]))
        diagonal = one_matrix_power_diagonal(B, slice(ia * op.d, (ia + 1) * op.d), n_max)
        return [op.offset(n) + v if v != -math.inf else -math.inf
                for n, v in enumerate(diagonal, start=1)]
    base, t = unscaled(p)
    hooks = base.word_hooks(sub)
    closes = sub.matrix[:, ia] != 0
    sums = [[] for _ in range(n_max)]
    start = lambda roots: [hooks.start(roots)]
    extend = lambda states, *step: [hooks.extend(states[0], *step)]
    for n, last, [state], _ in walk(sub, [ia], n_max, start, extend):
        closing = closes[last]
        if closing.any():
            rows = slice(None) if closing.all() else np.flatnonzero(closing)
            closed = t * hooks.close(tuple(x[rows] for x in state), n, last[rows])
            sums[n - 1].append(logsumexp(closed))
    return [logsumexp(level) for level in sums]


def reference_slope_fit(values, slope_window):
    """(mean, span) of the last slope_window slopes, from the whole tuple of slopes.

    The fit as it read PartitionSeries.slopes(): the slopes (n, log Z_{n+1} -
    log Z_n) of every pair of consecutive finite levels, then math.fsum of
    the last slope_window of them; (-inf, inf) when there are none.
    """
    slopes = [
        (n, b - a) for n, (a, b) in enumerate(zip(values, values[1:]), 1)
        if math.isfinite(a) and math.isfinite(b)
    ]
    if not slopes:
        return -math.inf, math.inf
    window = [s for _, s in slopes[-slope_window:]]
    return math.fsum(window) / len(window), max(window) - min(window)


def per_t_curve(model, p, t_grid, **params):
    """The pressure curve as one gurevich_pressure call per t."""
    return [(t, gurevich_pressure(model, p.scaled(t), **params)) for t in t_grid]


def plain_tree_log_norms(mats, blocks, samples):
    """Reference numerics.log_norms: every level of every block's tree multiplied.

    Each block's unit-sum matrices are multiplied pairwise, the later on the
    left, level by level, an odd last factor carried up as it is; the logs of
    the removed entry sums are concatenated level by level and summed per path.
    """

    def unit_sum(a, axes):
        s = a.sum(axis=axes, keepdims=True)
        a /= np.maximum(s, np.nextafter(0.0, 1.0))
        return s.reshape(len(a), -1)

    mats = np.array(mats, dtype=float)
    leaf_sums = unit_sum(mats, (1, 2))[:, 0]
    v = np.ones((samples, mats.shape[1], 1))
    log_scale = np.zeros(samples)
    for idx in blocks:
        idx = np.ascontiguousarray(idx)
        level, sums = mats[idx], [leaf_sums[idx]]
        while level.shape[1] > 1:
            pairs = level.shape[1] // 2
            prods = np.matmul(level[:, 1 : 2 * pairs : 2], level[:, 0 : 2 * pairs : 2])
            sums.append(unit_sum(prods, (2, 3)))
            if level.shape[1] % 2:
                prods = np.concatenate((prods, level[:, -1:]), axis=1)
            level = prods
        v = np.matmul(level[:, 0], v)
        sums.append(unit_sum(v, (1, 2)))
        with np.errstate(divide="ignore"):
            log_scale += np.log(np.concatenate(sums, axis=1)).sum(axis=1)
    return log_scale


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


def growth_floor_margin(series: PartitionSeries, sub, p: PotentialSequence) -> float:
    """min over nonempty levels of log Z_n - (n log beta - (n-1) C).

    beta is the smallest first-level weight on the truncation. The floor only
    makes sense for lengths whose periodic set is nonempty, so empty levels
    are skipped.
    """
    log_beta = min(p.log_inf_f1(s, sub) for s in sub.symbols)
    c = p.declared_C
    margin = math.inf
    for n, zn in enumerate(series.values, 1):
        if zn == NEG_INF:
            continue
        margin = min(margin, zn - (n * log_beta - (n - 1) * c))
    return margin


def log_mass_plus_n_pressure(mu, word, P):
    """log mass(w) + n*P of a Markov measure, one fsum of the per-symbol terms log + P.

    The reference for the grouped sum of gibbs._MarkovMasses: adding P to
    every symbol's term lets matching logs cancel exactly.
    """
    at = [mu.index.get(a) for a in word]
    if None in at:
        return NEG_INF
    terms = [mu.log_pi[at[0]] + P]
    terms.extend(mu.log_p[i, j] + P for i, j in zip(at, at[1:]))
    if NEG_INF in terms:
        return NEG_INF
    return math.fsum(terms)


# -- the dict form of Markov measures, kept as the reference for the arrays ------

_MEASURE_TOL = 1e-9


class DictMarkovMeasure:
    """A stationary Markov measure as log_pi and log_p dicts keyed by symbol and by arc.

    The array form (gibbs.MarkovCylinderMeasure) must give the same bits;
    this is the measure it replaced, with its checks.
    """

    kind = "markov"

    def __init__(self, symbols, log_pi, log_p, sub=None):
        self.symbols = tuple(symbols)
        self.log_pi = dict(log_pi)
        self.log_p = dict(log_p)
        self.sub = sub
        pi_total = math.fsum(math.exp(v) for v in self.log_pi.values())
        if abs(pi_total - 1.0) > _MEASURE_TOL:
            raise ValueError(f"initial distribution sums to {pi_total}, not 1")
        rows = {i: [] for i in self.symbols}
        flows = {j: [] for j in self.symbols}
        for (i, j), v in self.log_p.items():
            if i in rows:
                rows[i].append(math.exp(v))
                if j in flows:
                    flows[j].append(math.exp(self.log_pi.get(i, NEG_INF) + v))
        for i, terms in rows.items():
            row = math.fsum(terms)
            if abs(row - 1.0) > _MEASURE_TOL:
                raise ValueError(f"transition row of symbol {i} sums to {row}")
        for j, terms in flows.items():
            if abs(math.fsum(terms) - self.pi(j)) > _MEASURE_TOL:
                raise ValueError(f"distribution is not stationary at symbol {j}")
        if sub is not None:
            for (i, j) in self.log_p:
                if not sub.arc(i, j):
                    raise ValueError(f"transition {i}->{j} is not an admissible arc")

    depth = math.inf

    def pi(self, a):
        return math.exp(self.log_pi.get(a, NEG_INF))

    def transition(self, i, j):
        return math.exp(self.log_p.get((i, j), NEG_INF))

    def log_mass(self, word):
        word = tuple(word)
        total = self.log_pi.get(word[0], NEG_INF)
        for i, j in zip(word, word[1:]):
            total += self.log_p.get((i, j), NEG_INF)
        return total

    @property
    def p(self):
        """The transition matrix over the symbols, filled arc by arc with math.exp."""
        k = len(self.symbols)
        position = {s: i for i, s in enumerate(self.symbols)}
        probs = np.zeros((k + 1, k + 1))
        probs.flat[[position.get(s, k) * (k + 1) + position.get(t, k) for s, t in self.log_p]] = [
            math.exp(v) for v in self.log_p.values()
        ]
        return probs[:k, :k]


def dict_uniform_bernoulli(m):
    sub = truncate(full_shift(), m)
    log_u = -math.log(m)
    log_pi = {a: log_u for a in sub.symbols}
    log_p = {(i, j): log_u for i in sub.symbols for j in sub.symbols}
    return DictMarkovMeasure(sub.symbols, log_pi, log_p, sub)


def dict_bernoulli_measure(probs, sub=None):
    if sub is None:
        sub = truncate(full_shift(), max(probs))
    log_pi = {a: math.log(p) for a, p in probs.items() if p > 0}
    log_p = {(i, j): log_pi[j] for i in log_pi for j in log_pi if sub.arc(i, j)}
    return DictMarkovMeasure(tuple(sorted(log_pi)), log_pi, log_p, sub)


def dict_markov_measure(symbols, pi, p, sub=None):
    """From dicts: pi keyed by symbol, p by arc."""
    log_pi = {a: math.log(v) for a, v in pi.items() if v > 0}
    log_p = {arc: math.log(v) for arc, v in p.items() if v > 0}
    return DictMarkovMeasure(tuple(symbols), log_pi, log_p, sub)


def dict_rpf_equilibrium(sub, p):
    W = transfer_operator(sub, p).B
    rho, v, u = perron_data(W)
    log_pi, log_p = {}, {}
    weights = u * v
    total = weights.sum()
    for ki, i in enumerate(sub.symbols):
        log_pi[i] = math.log(weights[ki] / total)
        for kj, j in enumerate(sub.symbols):
            if sub.matrix[ki, kj]:
                log_p[(i, j)] = math.log(W[ki, kj] * v[kj] / (rho * v[ki]))
    return math.log(rho), DictMarkovMeasure(sub.symbols, log_pi, log_p, sub)


def dict_entropy_markov(mu):
    terms = []
    for (i, j), lp in mu.log_p.items():
        if lp == NEG_INF:
            continue
        terms.append(-math.exp(mu.log_pi.get(i, NEG_INF) + lp) * lp)
    return math.fsum(terms)


def dict_lyapunov_functional(mu, p, n):
    """The Markov branch: offset(n)/n plus the stationary mean of the arc values."""
    ps = p.pair_structure()
    expected = math.fsum(
        math.exp(mu.log_pi[i] + lp) * ps.pair(i, j)
        for (i, j), lp in mu.log_p.items()
        if lp > NEG_INF and i in mu.log_pi
    )
    return ps.offset(n) / n + expected


class DictMarkovMasses:
    """gibbs._MarkovMasses over a DictMarkovMeasure: the tables gathered from its dicts."""

    def __init__(self, mu, sub, P):
        self.log_pi = np.array([mu.log_pi.get(a, NEG_INF) for a in sub.symbols])
        self.log_p = np.array(
            [[mu.log_p.get((a, b), NEG_INF) for b in sub.symbols] for a in sub.symbols]
        )
        self.pi_plus, self.p_plus = _plus(self.log_pi, P), _plus(self.log_p, P)

    def start(self, roots):
        return self.log_pi[roots], self.pi_plus[roots]

    def extend(self, state, parent, prev, child):
        plain, grouped = state
        return (plain[parent] + self.log_p[prev, child],
                grouped[parent] + self.p_plus[prev, child])

    def close(self, state, n, last):
        return state
