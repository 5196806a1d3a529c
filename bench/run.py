"""Benchmark for thermoshift: seeded job mixes, checked outputs, traced layers.

Usage, from the root of a checkout:

    python3 bench/run.py --workload pressure_sweep --seed 1 --seconds 20 --trace 0

Load model: closed loop, one client. Jobs run back to back in this process:
CLI subcommands through ``thermoshift.cli.main(argv)`` on generated model
files, and library calls where the CLI has no entry point. An untimed
warm-up pass runs first; then timed passes run until ``--seconds`` have
passed and at least ``MIN_JOBS`` jobs have run, each pass with freshly drawn
inputs, so no two timed jobs share one.
Every output is checked against an independent reference (see
``workloads.py``).

Every time reported (``setup_s``, ``jobs_per_s``, ``job_s.p50``,
``job_s.p90`` and per-layer self times) is rescaled to a host on which
``calibrate()`` takes ``CALIBRATION_S``, using the calibrations run just
before and after each job or import; the unscaled wall-clock values are
printed and recorded beside them. OpenBLAS runs one thread.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` also runs a copy
of every pass with the package's public functions wrapped in spans
(``spans.py``) and prints the per-layer metrics instead; summed self times
cover the traced job time to within 5%. The last line of standard output is
one JSON object; a fuller record, with the environment, goes to
``bench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread: on a shared two-core host a second BLAS thread made
# pass times swing by 30% whenever a neighbour took the other core. This
# must be set before numpy loads OpenBLAS.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import ctypes
import glob
import gc
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 9
# job_s.p90 needs at least ten jobs beyond it, so a run times at least this many.
MIN_JOBS = 100
# Times are rescaled to a host on which calibrate() takes this long.
CALIBRATION_S = 1.0e-3

sys.path.insert(0, str(BENCH))
import numpy as np  # noqa: E402
import spans as tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "jobs_ok_frac": "ratio",
    "bracket_hold_frac": "ratio",
    "peak_rss_mb": "MB",
}


def _program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import thermoshift.cli

    return thermoshift.cli


def measure_setup(repeats: int = SETUP_REPEATS) -> tuple:
    """Seconds to import thermoshift.cli in fresh interpreters: (rescaled, wall).

    One extra import runs first and is dropped: it writes the bytecode
    caches that every later CLI invocation finds. Each import is rescaled by
    the calibrations taken just before and after it.
    """
    code = ("import time; t = time.perf_counter(); import thermoshift.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    scaled, wall = [], []
    for attempt in range(repeats + 1):
        before = calibrate()
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        after = calibrate()
        if attempt:
            seconds = float(done.stdout.strip())
            wall.append(seconds)
            scaled.append(seconds * 2.0 * CALIBRATION_S / (before + after))
    return scaled, wall


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter, small-array and BLAS work.

    On a shared two-vCPU Xeon host the speed of the machine drifted by about
    15% between 25-second windows as other tenants loaded it. Rescaling each
    job by the calibrations on either side of it cut the run-to-run spread
    (IQR over median, 8 runs of pressure_sweep) of job_s.p50 from 0.088 to
    0.007 and of jobs_per_s from 0.134 to 0.027. The mix follows the jobs'
    own: Python loops, 2x2 array operations and one BLAS product. Collection
    is off so that a large heap left by the program cannot slow it.
    """
    small = np.array([[0.6, 0.2], [0.3, 0.9]])
    big = np.full((192, 192), 0.5)
    counts = {}
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0.0
        for _ in range(150):
            product = small @ small
            s = product.sum()
            total += math.log(s)
            product = product / s
        for i in range(3000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        big @ big
        return time.perf_counter() - start
    finally:
        gc.enable()


def _blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def environment(workload: str, seed: int, seconds: float) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
    }


def execute(cli, job, out_dir: str) -> dict:
    """Run one job, time it, and check what it reported."""
    stdout = io.StringIO()
    code = error = verdict = None
    reports = []
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            if job.command is not None:
                code = cli.main(job.command + ["--out", out_dir])
            else:
                code, reports, verdict = job.call()
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code
    except Exception as exc:  # a job that raises has failed; the run goes on
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    problems = []
    if error is None and job.command is not None and (job.refs or job.verdict):
        try:
            reports, verdict = workloads.read_cli_reports(job.command[0], out_dir, stdout.getvalue())
        except (OSError, KeyError, ValueError, IndexError) as exc:
            problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    found, checked, missed = workloads.check(job, code, reports, verdict)
    if error is not None:
        found = [f"raised {error}"]
    return {
        "name": job.name,
        "seconds": seconds,
        "problems": problems + found,
        "checked": checked,
        "missed": missed,
        "known_defect": job.known_defect,
    }


def run_pass(cli, workload: str, seed: int, index: int, work: Path, tracer=None) -> list:
    directory = work / f"pass{index}"
    jobs = workloads.make_pass(workload, seed, index, str(directory))
    results, calibration = [], []
    for job in jobs:
        if tracer is not None:
            tracer.job = (index, job.name)
        calibration.append(calibrate())
        results.append(execute(cli, job, str(directory / job.name)))
    calibration.append(calibrate())
    shutil.rmtree(directory)
    for r, before, after in zip(results, calibration, calibration[1:]):
        r["wall_seconds"] = r["seconds"]
        r["seconds"] *= 2.0 * CALIBRATION_S / (before + after)
    return results


def traced_pass(tracer, cli, workload: str, seed: int, index: int, work: Path) -> list:
    tracer.install()
    try:
        return run_pass(cli, workload, seed, index, work, tracer)
    finally:
        tracer.uninstall()


def _jobs_per_s(passes: list, key: str = "seconds") -> float:
    return statistics.median(len(p) / sum(r[key] for r in p) for p in passes)


def job_times(passes: list, key: str = "seconds") -> dict:
    """Throughput and job-time percentiles, as ``{name: (value, samples, note)}``."""
    times = [r[key] for p in passes for r in p]
    p90 = statistics.quantiles(times, n=10)[8]
    return {
        "jobs_per_s": (_jobs_per_s(passes, key), len(passes), f"passes of {len(passes[0])} jobs"),
        "job_s.p50": (statistics.median(times), len(times), "jobs"),
        "job_s.p90": (p90, len(times), f"jobs, {sum(t > p90 for t in times)} beyond"),
    }


def end_to_end(passes: list, setup: list) -> dict:
    """Every end-to-end metric as ``{name: (value, samples, note)}``."""
    results = [r for p in passes for r in p]
    failed = sum(1 for r in results if r["problems"])
    checked = sum(r["checked"] for r in results)
    missed = sum(r["missed"] for r in results)
    return {
        "setup_s": (statistics.median(setup), len(setup), "fresh interpreters"),
        **job_times(passes),
        "jobs_ok_frac": ((len(results) - failed) / len(results), len(results),
                         f"jobs; failed_frac = {failed}/{len(results)}"),
        "bracket_hold_frac": ((checked - missed) / checked if checked else 1.0, checked,
                              f"brackets; bracket_miss_frac = {missed}/{checked}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1, "process"),
    }


def _failures(passes: list) -> dict:
    """Failed jobs and missed brackets by job name, split into known and new."""
    out = {}
    for r in (r for p in passes for r in p):
        if r["problems"] or r["missed"]:
            entry = out.setdefault(r["name"], {
                "known_defect": r["known_defect"], "failed": 0, "brackets_missed": 0,
                "example": r["problems"][:1]})
            entry["failed"] += bool(r["problems"])
            entry["brackets_missed"] += r["missed"]
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full record."""
    setup, setup_wall = measure_setup()
    cli = _program()
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    tracer = tracing.Tracer()
    passes, traced = [], []
    try:
        run_pass(cli, workload, seed, 0, work)  # warm-up: lazy imports, first-call costs
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or sum(map(len, passes)) < MIN_JOBS:
            index = len(passes) + 1
            # The traced copy of a pass runs on the same inputs, alternately
            # before and after the untraced one, so that neither order nor a
            # drifting host biases trace.overhead_frac.
            if trace and index % 2 == 0:
                traced.append(traced_pass(tracer, cli, workload, seed, index, work))
            passes.append(run_pass(cli, workload, seed, index, work))
            if trace and index % 2 == 1:
                traced.append(traced_pass(tracer, cli, workload, seed, index, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = _failures(passes + traced)
    record = {
        "environment": environment(workload, seed, seconds),
        "correct": all(f["known_defect"] for f in failures.values()),
        "attempted": sum(len(p) for p in passes),
        "failed": sum(1 for p in passes for r in p if r["problems"]),
        "end_to_end": {
            name: {"value": value, "unit": END_TO_END_UNITS[name], "samples": n, "of": note}
            for name, (value, n, note) in end_to_end(passes, setup).items()
        },
        "wall_clock": {
            "setup_s": statistics.median(setup_wall),
            **{name: value for name, (value, _, _) in job_times(passes, "wall_seconds").items()},
        },
        "failures": failures,
        "job_median_s": {
            r["name"]: statistics.median(q["seconds"] for p in passes for q in p
                                         if q["name"] == r["name"])
            for r in passes[0]
        },
    }
    if trace:
        wall = {i + 1: sum(r["wall_seconds"] for r in p) for i, p in enumerate(traced)}
        scale = {(i + 1, r["name"]): r["seconds"] / r["wall_seconds"]
                 for i, p in enumerate(traced) for r in p}
        layers = tracing.layer_metrics(tracer.spans, wall, scale)
        layers["trace.overhead_frac"] = _jobs_per_s(passes) / _jobs_per_s(traced) - 1.0
        record["per_layer"] = layers
        OUT.mkdir(parents=True, exist_ok=True)
        tracing.write_spans(tracer.spans, OUT / f"spans-{workload}-seed{seed}.jsonl")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "thermoshift" / "cli.py").is_file():
        print(f"error: no thermoshift sources under {SRC}", file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    env = record["environment"]
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    for metric, m in record["end_to_end"].items():
        print(f"{metric:18s} {m['value']:.6g} {m['unit']}  (n={m['samples']} {m['of']})")
    print("wall clock, not rescaled: " + ", ".join(
        f"{k} {v:.6g}" for k, v in record["wall_clock"].items()))
    for job, f in record["failures"].items():
        tag = f"known defect: {f['known_defect']}" if f["known_defect"] else "NEW FAILURE"
        print(f"{job}: failed {f['failed']}, brackets missed {f['brackets_missed']} "
              f"[{tag}] {f['example']}")
    if args.trace:
        metrics = {name: {"value": value, "unit": tracing.METRICS[name]}
                   for name, value in record["per_layer"].items()}
    else:
        metrics = {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in record["end_to_end"].items()}
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
