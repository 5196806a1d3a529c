"""Shared generators and brute-force oracles for property tests."""

import itertools

import numpy as np

from thermoshift.gibbs import markov_measure
from thermoshift.shift_core import check_mixing, model_from_arcs, truncate


def random_stationary_markov(sub, rng):
    """Random stationary Markov measure supported on the subshift's arcs."""
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
    pi = pi / pi.sum()
    pi_map = {s: float(pi[k]) for k, s in enumerate(sub.symbols)}
    p_map = {
        (si, sj): float(kernel[i, j])
        for i, si in enumerate(sub.symbols)
        for j, sj in enumerate(sub.symbols)
        if kernel[i, j] > 0
    }
    return markov_measure(sub.symbols, pi_map, p_map, sub)


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
        if check_mixing(sub) is not None:
            return model, sub


def brute_force_preimage_count(word):
    """Independent count over all preimage choices, checked pairwise."""
    choices = [(2 * j - 2, 2 * j - 1) for j in word]
    count = 0
    for combo in itertools.product(*choices):
        if all(u == 0 or v == 0 for u, v in zip(combo, combo[1:])):
            count += 1
    return count
