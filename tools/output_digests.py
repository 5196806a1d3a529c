"""Print the SHA-256 of every CLI output on the test fixtures, and every bench job's output.

Usage: python tools/output_digests.py SRC_DIR

Runs each tests/fixtures/*.json through each of the six subcommands, with
PYTHONPATH=SRC_DIR, in a fresh working directory. Prints one line per run
and artifact: the exit code, then the SHA-256 of stdout, of stderr and of
each file the run wrote. Then runs every job of bench passes 0-2 of each
workload, seed 101, in one interpreter with SRC_DIR and bench/ on the path
and one BLAS thread, as bench/run.py runs them. Prints one line per job: a
CLI job's exit code and the SHA-256 of its stdout and of each file it wrote;
a library job's returned tuple, as repr prints it. The fixtures and the
bench jobs are this tree's, whatever SRC_DIR is, so two source trees give
the same lines exactly when their outputs have the same bytes:

    diff <(python tools/output_digests.py BASE/src) <(python tools/output_digests.py src)

Standard library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
FIXTURES = TOOLS.parent / "tests" / "fixtures"
BENCH = TOOLS.parent / "bench"
COMMANDS = ("pressure", "curve", "dimension", "lyapunov", "gibbs", "validate")
# Runs the CLI's main without importing thermoshift.cli a second time as __main__.
RUN_CLI = "import sys; from thermoshift.cli import main; sys.exit(main(sys.argv[1:]))"
RUN_BENCH = "import output_digests; output_digests.print_bench_jobs()"
BENCH_SEED, BENCH_PASSES = 101, range(3)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(src: str, fixture: Path, command: str) -> list[str]:
    """The digest lines of one run: exit code, stdout, stderr, then each output file."""
    env = dict(os.environ, PYTHONPATH=src)
    run = f"{fixture.name} {command}"
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run(
            [sys.executable, "-c", RUN_CLI, command, "--model", str(fixture), "--out", "out"],
            cwd=work, env=env, capture_output=True,
        )
        lines = [
            f"{run} exit {proc.returncode}",
            f"{run} stdout {sha256(proc.stdout)}",
            f"{run} stderr {sha256(proc.stderr)}",
        ]
        out = Path(work, "out")
        for path in sorted(out.rglob("*")):
            if path.is_file():
                lines.append(f"{run} {path.relative_to(out).as_posix()} {sha256(path.read_bytes())}")
    return lines


def bench_digests(src: str) -> str:
    """The digest lines of every bench job, run in a fresh interpreter (print_bench_jobs)."""
    # One BLAS thread, as bench/run.py sets before numpy loads.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, str(BENCH), str(TOOLS))),
               OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as work:
        proc = subprocess.run([sys.executable, "-c", RUN_BENCH], cwd=work, env=env,
                              stdout=subprocess.PIPE, text=True, check=True)
    return proc.stdout


def print_bench_jobs() -> None:
    """Run every bench job of BENCH_PASSES in the working directory; print one line per job.

    Imports bench/workloads.py and thermoshift, so it runs with both on the path.
    """
    import workloads
    from thermoshift.cli import main

    for workload in sorted(workloads.WORKLOADS):
        for index in BENCH_PASSES:
            # Relative paths, so that no line holds the working directory.
            for job in workloads.make_pass(workload, BENCH_SEED, index, f"models/{workload}/pass{index}"):
                outcome = bench_outcome(main, job, Path("out", workload, f"pass{index}", job.name))
                print(f"bench {workload} seed {BENCH_SEED} pass {index} {job.name} {outcome}", flush=True)


def bench_outcome(main, job, out: Path) -> str:
    """A library job's returned tuple, or a CLI job's exit code and the digests of its
    stdout and of each file it wrote to out; a job that raises gives the exception."""
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            if job.command is None:
                return repr(job.call())
            outcome = f"exit {main(job.command + ['--out', str(out)])}"
    except SystemExit as exc:  # argparse rejected the command line
        outcome = f"exit {exc.code}"
    except Exception as exc:  # the job failed; the other jobs still run
        return f"raised {type(exc).__name__}: {exc}"
    files = [path for path in sorted(out.rglob("*")) if path.is_file()]
    return " ".join([outcome, "stdout", sha256(stdout.getvalue().encode())] + [
        f"{path.relative_to(out).as_posix()} {sha256(path.read_bytes())}" for path in files
    ])


def imported_from(src: str) -> str:
    """The file thermoshift is imported from with PYTHONPATH=src."""
    proc = subprocess.run(
        [sys.executable, "-c", "import thermoshift; print(thermoshift.__file__)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    return proc.stdout.strip()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    src = os.path.abspath(argv[0])
    # An installed copy of the package must not stand in for SRC_DIR's.
    found = imported_from(src)
    if not found.startswith(os.path.join(src, "")):
        print(f"error: thermoshift is imported from {found}, not from {src}", file=sys.stderr)
        return 2
    for fixture in sorted(FIXTURES.glob("*.json")):
        for command in COMMANDS:
            print("\n".join(digests(src, fixture, command)), flush=True)
    print(bench_digests(src), end="", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
