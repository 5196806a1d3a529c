"""Top Lyapunov exponents of positive matrix products and their pressure curves.

A matrix family (`potentials.MatrixFamily`, re-exported here) assigns a
nonnegative d x d matrix to every symbol. The norm of a matrix is the sum of
its entries, so the norm of a product along a path is a word function that
the partition machinery can treat like any other potential. Exponents are
estimated by averaging renormalized products over paths sampled from an
explicit Markov measure, a chunk of steps at a time: one table lookup per
step samples every path, and each chunk's matrices are multiplied as a
pairwise product tree (numerics.log_norms), so the estimate depends on that
grouping as well as on the paths. Scalar families are additive, so their
exponent is computed in closed form instead. A pressure curve runs on the
family's cocycle potential, whose cone report, computed once on the probed
symbols, also gives its almost-additivity constant.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gibbs import MeasureKindError
from .numerics import log_norm_of_path, log_norms
from .potentials import (
    MatrixFamily,
    cocycle_potential,
    entry_sum_norm,
    summability_report,
)
from .pressure import PressureEstimate, check_estimate_params, pressure_curve
from .shift_core import TransitionModel


@dataclass(frozen=True)
class LyapunovEstimate:
    lambda_hat: float
    n_used: int
    sample_count: int
    standard_error: float


# Steps of uniforms each sample's generator draws at a time, so that memory
# stays O(samples * _CHUNK * (k + d^2)) for k symbols whatever the path length.
_CHUNK = 256


def _choice_cdf(probs) -> np.ndarray:
    """The table rng.choice(len(probs), p=probs) looks one uniform up in."""
    p = np.array(probs, dtype=float)
    cdf = (p / p.sum()).cumsum()
    return cdf / cdf[-1]


def _sample_paths(mu, n: int, samples: int, seed: int):
    """Yield the sampled paths as (samples, steps) blocks of indices into mu.symbols.

    Sample k draws from its own generator, seeded by (seed, k), one uniform
    per step: the first picks the start from the stationary weights, each
    later one a successor of the current symbol. A draw compares the uniform
    with a cumulative row exactly as rng.choice does, so the paths are the
    ones per-step rng.choice calls would sample.

    The cumulative rows come from the measure's transition matrix mu.p. A
    chunk first looks every uniform up in every row, k + 1 searchsorted
    calls, into a table of the successor each would pick from each symbol;
    each step is then one gather from that table for all samples at once.
    """
    k = len(mu.symbols)
    # Rows 0..k-1 hold the successors of each symbol, row k the stationary
    # start; past its last entry a row is padded with 2.0, above any uniform.
    cdf = np.full((k + 1, k), 2.0)
    succ = np.zeros((k + 1, k), dtype=np.intp)
    for i, row in enumerate(mu.p):
        outs = np.flatnonzero(row > 0.0)
        cdf[i, : len(outs)] = _choice_cdf(row[outs])
        succ[i, : len(outs)] = outs
    cdf[k] = _choice_cdf([mu.pi(s) for s in mu.symbols])
    succ[k] = np.arange(k)
    rngs = [np.random.default_rng((seed, i)) for i in range(samples)]
    # Sample s at a symbol is at flat index s * (k + 1) + symbol of a step's table.
    offsets = np.arange(samples) * (k + 1)
    cur = offsets + k
    for start in range(0, n, _CHUNK):
        u = np.stack([rng.random(min(_CHUNK, n - start)) for rng in rngs], axis=1)
        # nxt[j, s, i]: the flat index of the successor of symbol i that
        # uniform u[j, s] draws. Each row of cdf is nondecreasing, so
        # searchsorted counts its entries at most u, as rng.choice does.
        nxt = np.empty(u.shape + (k + 1,), dtype=np.intp)
        for i in range(k + 1):
            nxt[:, :, i] = succ[i][np.searchsorted(cdf[i], u, side="right")]
        nxt += offsets[:, None]
        nxt = nxt.reshape(len(u), -1)
        steps = np.empty(u.shape, dtype=np.intp)
        for j in range(len(u)):
            cur = steps[j] = nxt[j][cur]
        yield (steps - offsets).T


def max_lyapunov(
    family: MatrixFamily,
    mu,
    n: int,
    samples: int,
    seed: int = 0,
) -> LyapunovEstimate:
    """Monte Carlo estimate of the top Lyapunov exponent under mu.

    Paths are sampled ancestrally from the Markov measure, each from its own
    generator seeded by (seed, sample index), so results do not depend on
    evaluation order. All samples advance in lockstep, _CHUNK steps at a
    time: a chunk's matrices are multiplied as a pairwise product tree and
    applied to the sample's renormalized vector, so the cost is
    O(n * samples * (k log k + d^3)) for k symbols and memory does not grow
    with n. The value depends on the tree's grouping, fixed by the chunk
    length, beside the sampled paths (numerics.log_norms). Scalar families
    are additive: the path average of log norms integrates to the stationary
    weighted mean exactly at every n, so that value is returned directly
    with zero standard error. A sampled path has positive mu-probability, so
    when one product vanishes the exponent is -inf; it is reported with zero
    standard error.
    """
    if getattr(mu, "kind", None) != "markov":
        raise MeasureKindError("max_lyapunov requires a markov-kind measure")
    if n < 1:
        raise ValueError("path length n must be at least 1")
    if samples < 1:
        raise ValueError("sample count must be at least 1")
    symbols = tuple(mu.symbols)
    for s in symbols:
        family.matrix(s)
    if family.d == 1:
        lam = math.fsum(
            mu.pi(s) * math.log(float(family.matrix(s)[0, 0])) for s in symbols
        )
        return LyapunovEstimate(lam, n, samples, 0.0)
    mats = np.stack([family.matrix(s) for s in symbols])
    paths = _sample_paths(mu, n, samples, seed)
    values = (log_norms(mats, paths, samples) / n).tolist()
    lam = math.fsum(values) / samples
    if samples > 1 and lam != -math.inf:
        var = math.fsum((v - lam) ** 2 for v in values) / (samples - 1)
        se = math.sqrt(var / samples)
    else:
        se = 0.0
    return LyapunovEstimate(lam, n, samples, se)


def cocycle_pressure(
    family: MatrixFamily,
    model: TransitionModel,
    t_grid: Sequence[float],
    **params,
) -> list[tuple[float, PressureEstimate]]:
    """Pressure curve of the norm potential of a positive matrix family.

    Preflight requires the potential's cone report to be uniform on its
    probe (potentials.CocyclePotential), and checks the summability of the
    per-symbol norms (a warning, not an error, when no tail bound is
    available). When every probed norm is below 1, the finite part of the
    curve is verified to be non-increasing on each truncation.
    """
    check_estimate_params("cocycle_pressure", params)
    p = cocycle_potential(family, model)
    if not p.cone.uniform:
        raise ValueError("matrix family fails the cone condition on the probed symbols")
    verdict = summability_report(p).verdict
    if verdict != "summable":
        warnings.warn(f"summed matrix norms are {verdict} over the probe range; "
                      "results describe truncations only", RuntimeWarning, stacklevel=2)
    curve = pressure_curve(model, p, t_grid, **params)
    if all(p.family.norm(a) < 1.0 for a in p.probe):
        _check_decreasing(curve)
    return curve


def _check_decreasing(curve: list[tuple[float, PressureEstimate]]) -> None:
    levels = max(len(est.truncation_values) for _, est in curve)
    for k in range(levels):
        finite = [
            est.truncation_values[k][1]
            for _, est in curve
            if k < len(est.truncation_values)
            and math.isfinite(est.truncation_values[k][1])
        ]
        for a, b in zip(finite, finite[1:]):
            if b > a + 1e-9:
                raise RuntimeError(
                    "pressure curve failed to decrease on a truncation "
                    f"({a} -> {b}) although every matrix norm is below 1"
                )
