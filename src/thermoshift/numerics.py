"""Shared numerical helpers: stable log-sums, renormalized matrix powers, power iteration.

All reductions here are order-insensitive (math.fsum rounds the exact sum),
so results do not depend on chunking or thread count.
"""

from __future__ import annotations

import math

import numpy as np

NEG_INF = float("-inf")


def logsumexp(values) -> float:
    """Stable log of a sum of exponentials.

    Accepts a float array or any iterable of floats, possibly containing
    -inf. Returns -inf for an empty input or when every term is -inf.
    """
    vals = values if isinstance(values, np.ndarray) else np.fromiter(values, dtype=float)
    vals = vals[vals != NEG_INF]
    if not vals.size:
        return NEG_INF
    hi = float(vals.max())
    if hi == math.inf:
        return hi
    return hi + math.log(math.fsum(np.exp(vals - hi).tolist()))


def scaled_power_diagonal(W: np.ndarray, index, n_max: int) -> list[float]:
    """log of the (index, index) entry or block sum of W^n for n = 1..n_max.

    index is an int or a slice. The value is 1_S^T W^n 1_S for the index set
    S, computed by iterating W on the indicator vector of S and renormalizing
    each step, so the cost is one matrix-vector product per level.
    """
    total = W.sum()
    if total <= 0 or not np.isfinite(total):
        raise ValueError("matrix must have a positive finite entry sum")
    out = []
    v = np.zeros(W.shape[0])
    v[index] = 1.0
    log_scale = 0.0
    for _ in range(n_max):
        v = W @ v
        s = v.sum()
        if s <= 0:
            out.extend([NEG_INF] * (n_max - len(out)))
            break
        v /= s
        log_scale += math.log(s)
        entry = v[index].sum()
        out.append(log_scale + math.log(entry) if entry > 0 else NEG_INF)
    return out


class PowerIterationError(RuntimeError):
    pass


def perron_data(W: np.ndarray, tol: float = 1e-13, max_iter: int = 500_000):
    """Perron root and positive left/right eigenvectors of a primitive matrix.

    Plain power iteration on W and W.T until the iterates move less than tol
    in sup norm; the returned root is the two-sided Rayleigh quotient, which
    squares the eigenvector error. Vectors are normalized to unit sum.
    """
    W = np.asarray(W, dtype=float)
    m = W.shape[0]
    v = np.full(m, 1.0 / m)
    u = np.full(m, 1.0 / m)
    for _ in range(max_iter):
        v_new = W @ v
        sv = v_new.sum()
        if sv <= 0:
            raise PowerIterationError("matrix is not primitive: iterate collapsed")
        v_new /= sv
        u_new = W.T @ u
        u_new /= u_new.sum()
        moved = max(np.abs(v_new - v).max(), np.abs(u_new - u).max())
        v, u = v_new, u_new
        if moved <= tol:
            break
    else:
        raise PowerIterationError(
            f"power iteration did not reach tol={tol} in {max_iter} steps"
        )
    rho = float(u @ W @ v) / float(u @ v)
    return rho, v, u
