"""Print the SHA-256 of every CLI output on the test fixtures.

Usage: python tools/output_digests.py SRC_DIR

Runs each tests/fixtures/*.json through each of the six subcommands, with
PYTHONPATH=SRC_DIR, in a fresh working directory. Prints one line per run
and artifact: the exit code, then the SHA-256 of stdout, of stderr and of
each file the run wrote. The fixtures are this tree's, whatever SRC_DIR is,
so two source trees give the same lines exactly when their CLI outputs have
the same bytes:

    diff <(python tools/output_digests.py BASE/src) <(python tools/output_digests.py src)

Standard library only.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"
COMMANDS = ("pressure", "curve", "dimension", "lyapunov", "gibbs", "validate")
# Runs the CLI's main without importing thermoshift.cli a second time as __main__.
RUN_CLI = "import sys; from thermoshift.cli import main; sys.exit(main(sys.argv[1:]))"


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
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
