"""Seeded job mixes for the thermoshift benchmark.

A workload is a fixed list of job shapes. Each pass draws fresh values for
every shape from ``numpy.random.default_rng([seed, pass_index])``, writes the
model files the CLI reads, and computes each job's reference without the
package: closed forms, or ``numpy.linalg.eigvals`` for Perron roots. The
program only ever sees the model files (CLI jobs) or plain arrays (library
jobs, for computations the CLI has no subcommand for).

A pass holds an odd number of jobs (15, 9 and 9), so that the median job time
falls inside one job shape rather than between two, where it would swing
with the host.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np

LOG_PHI = math.log((1.0 + math.sqrt(5.0)) / 2.0)
LOG2_LOG3 = math.log(2.0) / math.log(3.0)

# A Lyapunov estimate may sit this many of its own standard errors from the
# reference; with 24 samples the t-distribution puts a false failure below
# 1e-7 per job.
SE_FACTOR = 8.0


@dataclass(frozen=True)
class Reported:
    """One number the program reported, with the bracket it gave, if any."""

    label: str
    value: float
    lower: Optional[float] = None
    upper: Optional[float] = None
    se: float = 0.0


@dataclass
class Job:
    """One certified computation with its expected outcome.

    ``command`` is a CLI argv without ``--out``; ``call`` runs a library
    computation and returns ``(exit_code, reports, verdict)``. ``refs`` maps a
    report label to ``(reference, tolerance)``. ``known_defect`` names the
    defect that makes this job fail or miss a bracket at the baseline commit;
    such outcomes are counted, but do not make the run incorrect.
    """

    name: str
    command: Optional[list] = None
    call: Optional[Callable[[], tuple]] = None
    refs: dict = field(default_factory=dict)
    exits: tuple = (0,)
    verdict: Optional[str] = None
    known_defect: str = ""


def _write(directory: str, name: str, data: dict) -> str:
    path = os.path.join(directory, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True)
        fh.write("\n")
    return path


def _table(rng, rows: int, cols: int, lo: float, hi: float) -> list:
    return [[float(x) for x in row] for row in rng.uniform(lo, hi, (rows, cols))]


def _log_perron(weights: np.ndarray) -> float:
    return math.log(float(np.abs(np.linalg.eigvals(weights)).max()))


def _complete_arcs(k: int) -> list:
    return [[i, j] for i in range(1, k + 1) for j in range(1, k + 1)]


def _commuting_family(rng, d: int, k: int):
    """A_j = a_j J + b_j I: products act on the ones vector by a_j d + b_j."""
    a = rng.uniform(0.2, 1.0, k)
    b = rng.uniform(0.1, 1.0, k)
    mats = [
        [[float(a[j] + (b[j] if r == c else 0.0)) for c in range(d)] for r in range(d)]
        for j in range(k)
    ]
    return mats, a * d + b


def _stationary_markov(rng, k: int):
    p = rng.uniform(0.2, 1.0, (k, k))
    p /= p.sum(axis=1, keepdims=True)
    # Stationary pi solves (P^T - I) pi = 0 with sum(pi) = 1.
    system = np.vstack([p.T - np.eye(k), np.ones(k)])
    rhs = np.zeros(k + 1)
    rhs[-1] = 1.0
    pi = np.linalg.lstsq(system, rhs, rcond=None)[0]
    return [float(x) for x in pi], [[float(x) for x in row] for row in p]


def _cocycle_pressure(growth: np.ndarray, t: float) -> float:
    return math.log(float(np.sum(growth ** t)))


# -- pressure_sweep ------------------------------------------------------------


def pressure_sweep(rng, directory: str) -> list:
    jobs = []
    for m in (20, 64, 128, 256, 384):
        base = float(rng.uniform(2.6, 3.4))
        path = _write(directory, f"wfs_m{m}", {
            "model": {"name": "full"},
            "potential": {"kind": "weighted", "lambda": {"geometric": {"base": base}}},
            "params": {"truncations": [m // 4, m // 2, m], "n_max": 40},
        })
        jobs.append(Job(
            f"wfs_pressure_m{m}", ["pressure", "--model", path],
            refs={"P": (-math.log(base - 1.0), 1e-6)},
            # The upper bracket sums only the symbols inside the truncation,
            # so at m=20 it lies about base^-20 below the countable pressure.
            known_defect="upper bracket omits the tail beyond m" if m == 20 else "",
        ))

    base = float(rng.uniform(2.6, 3.4))
    grid = [round(0.6 + 0.1 * k + float(rng.uniform(-0.03, 0.03)), 6) for k in range(21)]
    path = _write(directory, "wfs_curve", {
        "model": {"name": "full"},
        "potential": {"kind": "weighted", "lambda": {"geometric": {"base": base}}},
        "params": {"truncations": [16, 32, 64], "n_max": 40, "t_grid": grid},
    })
    jobs.append(Job(
        "wfs_curve_m64", ["curve", "--model", path],
        refs={f"P(t={t!r})": (math.log(base ** -t / (1.0 - base ** -t)), 1e-6) for t in grid},
    ))

    for m in (48, 96):
        values = np.zeros((m, m))
        # Returns to symbol 1 of length j weigh about e^{-0.4 j}, which keeps
        # the spectral gap wide enough for the slopes to settle by n = 40.
        values[0, :] = -0.4 * np.arange(1, m + 1) + rng.uniform(-0.3, 0.3, m)
        for i in range(1, m):
            values[i, i - 1] = rng.uniform(-0.1, 0.1)
        weights = np.zeros((m, m))
        weights[0, :] = np.exp(values[0, :])
        for i in range(1, m):
            weights[i, i - 1] = math.exp(values[i, i - 1])
        path = _write(directory, f"renewal_m{m}", {
            "model": {"name": "renewal"},
            "potential": {"kind": "birkhoff", "values": [[float(x) for x in row] for row in values]},
            "params": {"truncations": [m], "n_max": 40},
        })
        jobs.append(Job(
            f"renewal_pressure_m{m}", ["pressure", "--model", path],
            refs={"P": (_log_perron(weights), 1e-6)},
        ))

    path = _write(directory, "golden_mean", {
        "model": {"name": "golden_mean"},
        "potential": {"kind": "zero"},
        "params": {"truncations": [2], "n_max": int(rng.integers(36, 45)),
                   "tol": round(float(rng.uniform(0.5e-6, 1.5e-6)), 12)},
    })
    jobs.append(Job("golden_mean_pressure", ["pressure", "--model", path],
                    refs={"P": (LOG_PHI, 1e-9)}))

    k = int(rng.integers(3, 7))
    path = _write(directory, "full_zero", {
        "model": {"name": "full"},
        "potential": {"kind": "zero"},
        "params": {"truncations": [k, 2 * k, 4 * k, 8 * k], "n_max": int(rng.integers(8, 13)),
                   "divergence_threshold": round(float(rng.uniform(0.45, 0.55)), 6)},
    })
    jobs.append(Job("full_zero_diverges", ["pressure", "--model", path], exits=(3,)))

    path = _write(directory, "fiber", {
        "model": {"name": "star"},
        "potential": {"kind": "fiber_count"},
        "params": {
            "truncations": [8, 16, 32, 64],
            "n_max": 6,
            "slope_window": 4,
            "divergence_threshold": round(float(rng.uniform(0.2, 0.3)), 6),
        },
    })
    jobs.append(Job("fiber_count_diverges", ["pressure", "--model", path], exits=(3,)))

    for name, model, construction, truncations in (
        ("cantor", {"arcs": _complete_arcs(2)},
         {"kind": "list", "rho": [1.0 / 3.0, 1.0 / 3.0]}, [2]),
        ("geometric_product", {"name": "full"},
         {"kind": "product", "rho": {"geometric": {"base": 3}}}, [16, 32]),
    ):
        bracket = [round(float(rng.uniform(0.0, 0.1)), 6), round(float(rng.uniform(1.0, 1.2)), 6)]
        path = _write(directory, f"dimension_{name}", {
            "model": model,
            "construction": construction,
            "params": {"truncations": truncations, "n_max": 30, "t_bracket": bracket},
        })
        jobs.append(Job(f"dimension_{name}", ["dimension", "--model", path],
                        refs={"dim": (LOG2_LOG3, 1e-6)}))

    grid = [round(t + float(rng.uniform(-0.05, 0.05)), 6) for t in (0.5, 1.0, 1.5, 2.0, 2.5)]
    path = _write(directory, "scalar_cocycle", {
        "model": {"arcs": [[1, 1]]},
        "potential": {"kind": "cocycle"},
        "matrices": {"d": 1, "list": [[[3.0]]]},
        "params": {"truncations": [1], "n_max": 20, "t_grid": grid},
    })
    jobs.append(Job("scalar_cocycle_curve", ["curve", "--model", path],
                    refs={f"P(t={t!r})": (t * math.log(3.0), 1e-9) for t in grid}))

    perm = [int(s) for s in rng.permutation(48) + 1]
    path = _write(directory, "cycle48", {
        "model": {"arcs": [[perm[i], perm[(i + 1) % 48]] for i in range(48)]},
        "potential": {"kind": "zero"},
        "params": {"truncations": [48], "n_max": 10},
    })
    jobs.append(Job(
        "cycle48_nonmixing", ["pressure", "--model", path], exits=(1, 2),
        known_defect="NonMixingTruncationError escapes cli.main",
    ))
    return jobs


# -- cocycle_lyapunov ------------------------------------------------------------


def cocycle_lyapunov(rng, directory: str) -> list:
    jobs = []
    for d, k, n, samples in ((2, 2, 600, 32), (3, 3, 500, 32), (4, 3, 300, 24), (3, 2, 500, 32)):
        mats, growth = _commuting_family(rng, d, k)
        pi, p = _stationary_markov(rng, k)
        path = _write(directory, f"lyapunov_d{d}k{k}", {
            "model": {"arcs": _complete_arcs(k)},
            "matrices": {"d": d, "list": mats},
            "measure": {"kind": "markov", "pi": pi, "p": p},
            "params": {"n": n, "samples": samples, "seed": int(rng.integers(0, 2**31))},
        })
        lam = math.fsum(w * math.log(g) for w, g in zip(pi, growth))
        # The estimator averages (1/n) log 1^T A_w 1 = (1/n) log d + the
        # stationary mean, so its bias is exactly log(d)/n.
        jobs.append(Job(f"lyapunov_d{d}k{k}", ["lyapunov", "--model", path],
                        refs={"lambda": (lam, math.log(d) / n + 1e-9)}))

    for d, k in ((2, 2), (3, 3), (4, 3)):
        mats, growth = _commuting_family(rng, d, k)
        path = _write(directory, f"cocycle_pressure_d{d}k{k}", {
            "model": {"arcs": _complete_arcs(k)},
            "potential": {"kind": "cocycle"},
            "matrices": {"d": d, "list": mats},
            "params": {"truncations": [k], "n_max": 200},
        })
        jobs.append(Job(f"cocycle_pressure_d{d}k{k}", ["pressure", "--model", path],
                        refs={"P": (_cocycle_pressure(growth, 1.0), 1e-8)}))

    mats, growth = _commuting_family(rng, 2, 3)
    grid = [round(t + float(rng.uniform(-0.05, 0.05)), 6) if t != 1.0 else 1.0
            for t in (0.5, 1.0, 1.5, 2.0)]
    path = _write(directory, "cocycle_curve", {
        "model": {"arcs": _complete_arcs(3)},
        "potential": {"kind": "cocycle"},
        "matrices": {"d": 2, "list": mats},
        "params": {"truncations": [3], "n_max": 9, "t_grid": grid},
    })
    jobs.append(Job("cocycle_curve_d2k3", ["curve", "--model", path],
                    refs={f"P(t={t!r})": (_cocycle_pressure(growth, t), 1e-8) for t in grid}))

    mats, growth = _commuting_family(rng, 2, 2)
    grid = [round(0.8 + float(rng.uniform(-0.05, 0.05)), 6), 1.0,
            round(1.2 + float(rng.uniform(-0.05, 0.05)), 6)]
    jobs.append(Job(
        "cocycle_pressure_library",
        call=partial(_library_cocycle_pressure, mats, grid),
        refs={f"P(t={t!r})": (_cocycle_pressure(growth, t), 1e-8) for t in grid},
    ))
    return jobs


def _library_cocycle_pressure(mats: list, grid: list) -> tuple:
    from thermoshift import matrix_cocycle, shift_core

    family = matrix_cocycle.MatrixFamily(len(mats[0]), mats)
    model = shift_core.model_from_arcs(_complete_arcs(len(mats)))
    curve = matrix_cocycle.cocycle_pressure(family, model, grid, m_list=[len(mats)], n_max=12)
    reports = [Reported(f"P(t={t!r})", est.value, est.lower, est.upper) for t, est in curve]
    return 0, reports, None


# -- gibbs_certify -----------------------------------------------------------------


def gibbs_certify(rng, directory: str) -> list:
    jobs = []
    for m, level, depth in ((3, 8, 6), (4, 7, 5), (5, 6, 5)):
        values = _table(rng, m, m, -0.5, 0.5)
        path = _write(directory, f"gibbs_m{m}", {
            "model": {"name": "full"},
            "potential": {"kind": "birkhoff", "values": values},
            "params": {"truncations": [m], "n_max": 30, "level": level, "depth": depth},
        })
        jobs.append(Job(f"gibbs_birkhoff_m{m}", ["gibbs", "--model", path], verdict="PASS",
                        refs={"P": (_log_perron(np.exp(values)), 1e-8)}))

    path = _write(directory, "gibbs_uniform", {
        "model": {"name": "full"},
        "potential": {"kind": "zero"},
        "measure": {"kind": "uniform_bernoulli", "m": 4},
        "params": {"truncations": [4], "n_max": int(rng.integers(26, 35)), "depth": 6,
                   "ratio_bound": round(float(rng.uniform(50.0, 150.0)), 6)},
    })
    jobs.append(Job("gibbs_uniform_m4", ["gibbs", "--model", path], verdict="PASS",
                    refs={"P": (math.log(4.0), 1e-9)}))

    values = _table(rng, 24, 24, -0.5, 0.5)
    path = _write(directory, "gibbs_pair_m24", {
        "model": {"name": "full"},
        "potential": {"kind": "birkhoff", "values": values},
        "params": {"truncations": [24], "n_max": 30, "level": 60, "depth": 2},
    })
    jobs.append(Job("gibbs_pair_nu_m24", ["gibbs", "--model", path], verdict="PASS",
                    refs={"P": (_log_perron(np.exp(values)), 1e-8)}))

    path = _write(directory, "validate_golden_mean", {
        "model": {"name": "golden_mean"},
        "potential": {"kind": "birkhoff", "values": _table(rng, 2, 2, -0.5, 0.5)},
        "params": {"truncations": [2], "depth": 24, "samples": 400,
                   "seed": int(rng.integers(0, 2**31)), "witness": [1], "up_to": 2},
    })
    jobs.append(Job("validate_golden_mean", ["validate", "--model", path], verdict="PASS"))

    values = _table(rng, 6, 6, -0.5, 0.5)
    jobs.append(Job(
        "rpf_equilibrium_m6", call=partial(_library_rpf, values, depth=4),
        verdict="PASS", refs={"P": (_log_perron(np.exp(values)), 1e-9)},
    ))

    for m in (3, 5):
        values = _table(rng, m, m, -0.5, 0.5)
        path = _write(directory, f"pressure_m{m}", {
            "model": {"name": "full"},
            "potential": {"kind": "birkhoff", "values": values},
            "params": {"truncations": [m], "n_max": 30},
        })
        jobs.append(Job(f"birkhoff_pressure_m{m}", ["pressure", "--model", path],
                        refs={"P": (_log_perron(np.exp(values)), 1e-8)}))
    return jobs


def _library_rpf(values: list, depth: int) -> tuple:
    from thermoshift import gibbs, potentials, shift_core

    model = shift_core.full_shift()
    pot = potentials.birkhoff_potential(lambda i, j: values[i - 1][j - 1], model)
    sub = shift_core.truncate(model, len(values))
    p_exact, mu = gibbs.rpf_equilibrium(sub, pot)
    cert = gibbs.verify_gibbs(mu, pot, p_exact, depth=depth, sub=sub)
    return 0, [Reported("P", p_exact)], "PASS" if cert.passed else "FAIL"


WORKLOADS = {
    "pressure_sweep": pressure_sweep,
    "cocycle_lyapunov": cocycle_lyapunov,
    "gibbs_certify": gibbs_certify,
}


def make_pass(workload: str, seed: int, index: int, directory: str) -> list:
    """Write pass ``index`` of a workload into ``directory`` and return its jobs."""
    os.makedirs(directory, exist_ok=True)
    return WORKLOADS[workload](np.random.default_rng([seed, index]), directory)


# -- reading what the CLI reported ----------------------------------------------------


def _rows(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_cli_reports(command: str, out_dir: str, stdout: str) -> tuple:
    """(reports, verdict) from the artifacts of one CLI run."""
    words = stdout.split()
    verdict = words[0] if words and words[0] in ("PASS", "FAIL") else None
    if command == "pressure":
        row = _rows(os.path.join(out_dir, "estimate.csv"))[0]
        return [Reported("P", float(row["value"]), float(row["lower"]), float(row["upper"]))], verdict
    if command == "curve":
        return [
            Reported(f"P(t={float(r['t'])!r})", float(r["value"]), float(r["lower"]), float(r["upper"]))
            for r in _rows(os.path.join(out_dir, "curve.csv"))
        ], verdict
    if command == "dimension":
        row = _rows(os.path.join(out_dir, "dimension.csv"))[0]
        return [Reported("dim", float(row["dim_hat"]), float(row["bracket_lo"]),
                         float(row["bracket_hi"]))], verdict
    if command == "lyapunov":
        row = _rows(os.path.join(out_dir, "lyapunov.csv"))[0]
        return [Reported("lambda", float(row["lambda_hat"]), se=float(row["standard_error"]))], verdict
    if command == "gibbs":
        return [Reported("P", float(words[words.index("P") + 1]))], verdict
    return [], verdict


def check(job: Job, exit_code, reports: list, verdict) -> tuple:
    """Compare one job's outcome with its references.

    Returns ``(problems, brackets_checked, brackets_missed)``. A problem fails
    the job; a bracket that excludes its reference is counted separately.
    """
    problems = []
    if exit_code not in job.exits:
        problems.append(f"exit {exit_code!r}, expected one of {job.exits}")
    if job.verdict is not None and verdict != job.verdict:
        problems.append(f"verdict {verdict!r}, expected {job.verdict!r}")
    by_label = {r.label: r for r in reports}
    checked = missed = 0
    for label, (ref, tol) in job.refs.items():
        rep = by_label.get(label)
        if rep is None:
            problems.append(f"{label} not reported")
            continue
        if not abs(rep.value - ref) <= tol + SE_FACTOR * rep.se:
            problems.append(f"{label} = {rep.value!r}, reference {ref!r} +- {tol:g}")
        if rep.lower is not None and rep.upper is not None:
            checked += 1
            if not rep.lower - 1e-12 <= ref <= rep.upper + 1e-12:
                missed += 1
    return problems, checked, missed
