"""Tests of the benchmark itself: ``python3 -m pytest bench`` from the repo root."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = sorted(workloads.WORKLOADS)


def _shape(value):
    if isinstance(value, dict):
        return {k: _shape(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_shape(v) for v in value]
    return type(value).__name__


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_metrics_and_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.METRICS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_prints_every_end_to_end_metric(workload, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        printed = [line.split() for line in lines[:-1] if line.split()[:1] == [metric["name"]]]
        assert len(printed) == 1
        assert printed[0][2] == metric["unit"] and printed[0][3].startswith("(n=")
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_wrong_reference_counts_the_job_as_failed(tmp_path):
    cli = run._program()
    jobs = workloads.make_pass("pressure_sweep", 5, 1, str(tmp_path / "inputs"))
    job = next(j for j in jobs if j.name == "golden_mean_pressure")
    assert run.execute(cli, job, str(tmp_path / "right"))["problems"] == []
    reference, tolerance = job.refs["P"]
    job.refs["P"] = (reference + 1e-3, tolerance)
    assert run.execute(cli, job, str(tmp_path / "wrong"))["problems"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_writes_identical_model_files(workload, tmp_path):
    first = workloads.make_pass(workload, 11, 2, str(tmp_path / "a"))
    second = workloads.make_pass(workload, 11, 2, str(tmp_path / "b"))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert [j.refs for j in first] == [j.refs for j in second]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_draws_other_values_in_the_same_shapes(workload, tmp_path):
    first = workloads.make_pass(workload, 11, 2, str(tmp_path / "a"))
    second = workloads.make_pass(workload, 12, 2, str(tmp_path / "b"))
    assert [(j.name, j.exits, len(j.refs)) for j in first] == [
        (j.name, j.exits, len(j.refs)) for j in second
    ]
    a, b = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] != b[name], name
        assert _shape(json.loads(a[name])) == _shape(json.loads(b[name])), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload, capsys):
    run._program()
    from thermoshift import pressure, shift_core

    truncate = shift_core.truncate
    assert run.main(["--workload", workload, "--seed", "4", "--seconds", "0", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert 0.95 <= result["metrics"]["trace.self_cover_frac"]["value"] <= 1.0 + 1e-9
    assert pressure.truncate is truncate and shift_core.truncate is truncate


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
