"""End-to-end CLI tests: exit codes, stdout summaries, CSV artifacts."""

import csv
import io
import json
import math
import os
import shutil
import subprocess
import time
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Callable, Optional

import numpy as np
import pytest

from helpers import certificate_rows, extreme_rows, reference_gibbs_csv
from thermoshift import cli, modelfile, pressure, shift_core
from thermoshift.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

LOG_PHI = 0.4812118250596035
LOG23 = math.log(2.0) / math.log(3.0)


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def test_pressure_golden_mean(tmp_path, capsys):
    out = str(tmp_path)
    code, stdout, _ = run(
        capsys, "pressure", "--model", fixture("gm_zero.json"), "--out", out
    )
    assert code == 0
    value = float(stdout.split("value ")[1].split()[0])
    assert value == pytest.approx(LOG_PHI, abs=1e-6)
    header, rows = read_csv(os.path.join(out, "estimate.csv"))
    assert header[:3] == ["value", "lower", "upper"]
    # repr-formatted cells round-trip to the exact float printed on stdout
    assert float(rows[0][0]) == value
    series_header, series_rows = read_csv(os.path.join(out, "series.csv"))
    assert series_header == ["truncation", "n", "log_z"]
    assert len(series_rows) >= 30


def test_one_parser_serves_every_run_without_keeping_flags(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    first, second = str(tmp_path / "first"), str(tmp_path / "second")
    model = fixture("gm_zero.json")
    # Five levels are too few for the slope window: the run is flagged unconverged.
    assert run(capsys, "pressure", "--model", model, "--n-max", "5", "--out", first)[0] == 2
    assert run(capsys, "pressure", "--model", model, "--out", second)[0] == 0
    # The second run reads n_max 40 from the file, not the first run's flag.
    for out, n_max in ((first, 5), (second, 40)):
        header, rows = read_csv(os.path.join(out, "estimate.csv"))
        assert int(rows[0][header.index("n_max")]) == n_max


def curve_flags(out):
    """The flag column of a curve run's curve.csv, joined."""
    _, rows = read_csv(os.path.join(out, "curve.csv"))
    return " ".join(row[4] for row in rows)


def test_nonmixing_truncation_and_enumeration_cap_exit_code(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "pressure", "--model", fixture("nonmixing.json"), "--out", str(tmp_path)
    )
    assert code == 1
    assert stderr.startswith("error: ") and "m=3" in stderr
    code, _, stderr = run(
        capsys, "pressure", "--model", fixture("fiber.json"), "--out", str(tmp_path),
        "--cap", "50",
    )
    assert code == 1
    assert stderr.startswith("error: ") and "exceeded 50 " in stderr


def test_pruned_base_symbol_is_named(tmp_path, capsys):
    # 1 -> 2 -> ... -> 64 with a loop at 64: only 64 survives truncation.
    path = tmp_path / "chain.json"
    arcs = [[i, i + 1] for i in range(1, 64)] + [[64, 64]]
    path.write_text(json.dumps({"model": {"arcs": arcs}, "potential": {"kind": "zero"}}))
    code, _, stderr = run(capsys, "pressure", "--model", str(path), "--out", str(tmp_path))
    assert code == 1
    assert stderr.startswith("error: base symbol 1 was pruned") and "at m=64" in stderr


def test_pressure_unconverged_exit_code(tmp_path, capsys):
    code, stdout, _ = run(
        capsys, "pressure", "--model", fixture("unconverged.json"),
        "--out", str(tmp_path),
    )
    assert code == 2
    assert "unconverged" in stdout


def test_curve_unconverged_exit_code(tmp_path, capsys):
    code, _, _ = run(
        capsys, "curve", "--model", fixture("unconverged.json"),
        "--out", str(tmp_path), "--t-grid", "1",
    )
    assert code == 2
    assert "unconverged" in curve_flags(str(tmp_path))


def test_config_errors_name_the_field(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "pressure", "--model", fixture("missing_potential.json"),
        "--out", str(tmp_path),
    )
    assert code == 1
    assert "potential: required" in stderr
    code, _, stderr = run(
        capsys, "pressure", "--model", fixture("unknown_key.json"),
        "--out", str(tmp_path),
    )
    assert code == 1
    assert "potentail: unknown key" in stderr


def test_curve_matches_weighted_closed_form(tmp_path, capsys):
    out = str(tmp_path)
    code, stdout, _ = run(
        capsys, "curve", "--model", fixture("weighted20.json"), "--out", out
    )
    assert code == 0
    header, rows = read_csv(os.path.join(out, "curve.csv"))
    assert header == ["t", "value", "lower", "upper", "flag"]
    # P(t) = log sum_j 3^(-jt) = log(1 / (3^t - 1)) for the weighted full shift
    for t_str, value_str, *_ in rows:
        t = float(t_str)
        exact = math.log(1.0 / (3.0 ** t - 1.0))
        assert float(value_str) == pytest.approx(exact, abs=1e-3)
    assert [float(r[0]) for r in rows] == [0.5, 0.7, 1.0]


def test_curve_requires_grid(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "curve", "--model", fixture("gm_zero.json"), "--out", str(tmp_path)
    )
    assert code == 1
    assert "params.t_grid: required" in stderr


# No measure section: finite_gibbs_nu's transfer route, on which the rotations
# of a word share a log weight and other words do not.
BIRKHOFF_NU = {
    "model": {"name": "full"},
    "potential": {"kind": "birkhoff",
                  "values": [[0.1, -0.7, 0.3], [0.25, 0.0, -0.45], [0.6, -0.2, 0.05]]},
    "params": {"truncations": [3], "n_max": 12, "depth": 5},
}


def birkhoff_table(m, level, depth, seed):
    """A full-shift Birkhoff model file with U(-0.5, 0.5) values, shaped like the bench's."""
    values = np.random.default_rng(seed).uniform(-0.5, 0.5, (m, m)).round(6).tolist()
    return {"model": {"name": "full"}, "potential": {"kind": "birkhoff", "values": values},
            "params": {"truncations": [m], "n_max": 30, "level": level, "depth": depth}}


# The explicit fiber-count route; also the gibbs-fiber table case.
GIBBS_FIBER = {"model": {"name": "star"}, "potential": {"kind": "fiber_count"},
               "params": {"truncations": [4], "n_max": 10, "level": 6, "depth": 4}}

# Model files written by the test; the other names are fixtures.
GIBBS_CSV_MODELS = {
    "birkhoff_nu.json": BIRKHOFF_NU,
    "gibbs-fiber": GIBBS_FIBER,
    # Symbols 1..13: words mix one- and two-digit names.
    "two_digit_symbols": birkhoff_table(13, 3, 3, 12),
    # The bench's m = 5 Birkhoff job: 5 + 25 + 125 + 625 + 3125 rows.
    "birkhoff_m5_depth5": birkhoff_table(5, 6, 5, 5),
}


def run_gibbs_recorded(tmp_path, capsys, monkeypatch, name):
    """Run gibbs on a fixture or a GIBBS_CSV_MODELS file, recording its verify_gibbs call.

    Returns the exit code, gibbs.csv's text, certificate_rows' (row, log
    ratio) pairs of every candidate cylinder, the certificate and
    verify_gibbs's keyword arguments.
    """
    model = fixture(name)
    if name in GIBBS_CSV_MODELS:
        model = tmp_path / "model.json"
        model.write_text(json.dumps(GIBBS_CSV_MODELS[name]))
    calls = []
    certify = cli.verify_gibbs

    def recording(*args, **kwargs):
        calls.append((args, kwargs, certify(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(cli, "verify_gibbs", recording)
    out = tmp_path / "out"
    code, _, _ = run(capsys, "gibbs", "--model", str(model), "--out", str(out))
    with open(out / "gibbs.csv", newline="", encoding="utf-8") as handle:
        written = handle.read()
    [((mu, p, P), kwargs, cert)] = calls
    return code, written, certificate_rows(mu, p, P, kwargs["depth"], kwargs["sub"]), cert, kwargs


@pytest.mark.parametrize("name", ["gibbs_uniform.json", "gm_zero.json", "gibbs_fail.json",
                                  "birkhoff_nu.json", "two_digit_symbols", "gibbs-fiber",
                                  "birkhoff_m5_depth5"])
def test_gibbs_csv_matches_row_writer(tmp_path, capsys, monkeypatch, name):
    # Each length's rows of least and largest log ratio among every
    # candidate cylinder's, written a row at a time by csv.writer, must give
    # the very bytes cmd_gibbs writes.
    code, written, pairs, cert, _ = run_gibbs_recorded(tmp_path, capsys, monkeypatch, name)
    assert code == (2 if name == "gibbs_fail.json" else 0)
    kept = extreme_rows(pairs)
    assert written == reference_gibbs_csv(kept, cert)
    rows = [row for row, _ in pairs]
    if name == "gibbs_fail.json":
        # Zero-mass cylinders of positive weight have ratio 0.0, each length's least.
        assert all(m == 0.0 and r == 0.0 for _, _, m, _, r in kept[::2])
    if name == "birkhoff_nu.json":
        deep = [lw for n, _, _, lw, _ in rows if n == 5]
        assert 1 < len(set(deep)) < len(deep)
    if name == "two_digit_symbols":
        assert sum(min(w) < 10 <= max(w) for _, w, _, _, _ in rows) > 1000
        assert any(min(w) < 10 <= max(w) for _, w, _, _, _ in kept)
    if name == "birkhoff_m5_depth5":
        # 5 + 25 + 125 + 625 + 3125 cylinders; the header, 2 rows a length, the summary.
        assert len(rows) == 3905
        assert written.count("\n") == 12
    copy = io.StringIO(newline="")
    csv.writer(copy).writerows(csv.reader(io.StringIO(written, newline="")))
    assert copy.getvalue() == written


# The fixtures on which gibbs writes gibbs.csv.
GIBBS_FIXTURES = ["cocycle_single.json", "gibbs_fail.json", "gibbs_uniform.json", "gm_zero.json",
                  "unconverged.json", "weighted20.json", "weighted_list.json"]


@pytest.mark.parametrize("name", GIBBS_FIXTURES + ["birkhoff_m5_depth5"])
def test_gibbs_csv_extremes_are_the_certificates(tmp_path, capsys, monkeypatch, name):
    # The rows are the certificate's least and largest, alternating; the least
    # rows' least ratio is ratio_min, the largest rows' largest is ratio_max,
    # and the summary counts every admissible cylinder.
    _, written, _, cert, kwargs = run_gibbs_recorded(tmp_path, capsys, monkeypatch, name)
    header, *cylinders, summary = csv.reader(io.StringIO(written, newline=""))
    assert header == ["n", "word", "mass", "log_weight", "ratio"]
    least, largest = cylinders[::2], cylinders[1::2]
    for written_rows, rows in ((least, cert.least), (largest, cert.largest)):
        assert written_rows == [[str(n), " ".join(map(str, w)), repr(m), repr(lw), repr(r)]
                                for n, w, m, lw, r in rows]
    depth = kwargs["depth"]
    assert [r[0] for r in least] == [r[0] for r in largest] == [str(n) for n in range(1, depth + 1)]
    assert min(float(r[4]) for r in least) == cert.ratio_min
    assert max(float(r[4]) for r in largest) == cert.ratio_max
    assert summary == ["summary", "", str(cert.words_tested), repr(cert.ratio_min),
                       repr(cert.ratio_max)]
    # Walks of n - 1 steps from each symbol are the cylinders of length n.
    counts, cylinders = np.ones(kwargs["sub"].size, dtype=object), 0
    for _ in range(depth):
        cylinders += int(counts.sum())
        counts = shift_core.walk_counts(kwargs["sub"], 1, counts)
    assert cert.words_tested == cylinders


@pytest.mark.parametrize("command, name, flags, fields", [
    ("gibbs", "gibbs_uniform.json", ["--depth", "50"], ["params.depth:", "params.cap"]),
    ("gibbs", "gm_zero.json", ["--level", "3", "--depth", "5"],
     ["params.depth:", "params.level 3"]),
    ("dimension", "cantor.json", ["--t-bracket", "0.7,0.8"], ["params.t_bracket:"]),
], ids=["depth-past-cap", "depth-past-level", "t_bracket-not-straddling"])
def test_run_errors_name_their_field(tmp_path, capsys, command, name, flags, fields):
    code, stdout, stderr = run(
        capsys, command, "--model", fixture(name), "--out", str(tmp_path), *flags
    )
    assert code == 1 and stdout == ""
    assert stderr.startswith("error: " + fields[0])
    assert all(field in stderr for field in fields)
    assert not os.path.exists(os.path.join(tmp_path, "gibbs.csv"))


def test_gibbs_explicit_measure_takes_params_cap(tmp_path, capsys):
    # A fiber-count measure stores every word of its level: 205 920 at level 10
    # and 2 111 201 at level 12 on the 8-symbol star, past the 200 000 default.
    path = tmp_path / "fiber.json"
    path.write_text(json.dumps({
        "model": {"name": "star"},
        "potential": {"kind": "fiber_count"},
        "params": {"truncations": [8], "n_max": 10, "level": 12, "depth": 4},
    }))
    out = str(tmp_path / "out")
    for level in ("10", "12"):
        code, stdout, stderr = run(
            capsys, "gibbs", "--model", str(path), "--level", level, "--out", out
        )
        assert code == 1 and stdout == ""
        assert stderr.startswith(f"error: params.level: level {level} has ")
        assert "params.cap" in stderr
    assert not os.path.exists(os.path.join(out, "gibbs.csv"))
    code, stdout, _ = run(
        capsys, "gibbs", "--model", str(path), "--level", "10", "--cap", "100000000",
        "--out", out,
    )
    assert code == 0 and stdout.startswith("PASS ")
    assert os.path.exists(os.path.join(out, "gibbs.csv"))


def test_flag_overrides_change_behaviour(tmp_path, capsys):
    # a looser tolerance turns the unconverged run into a clean exit
    code, _, _ = run(
        capsys, "pressure", "--model", fixture("unconverged.json"),
        "--out", str(tmp_path), "--tol", "0.1",
    )
    assert code == 0


@pytest.mark.parametrize("command, name, flags, key", [
    ("pressure", "weighted20.json", ["--divergence-run", "0"], "divergence_run"),
    ("pressure", "weighted20.json", ["--slope-window", "0"], "slope_window"),
    ("pressure", "gm_zero.json", ["--tol", "-1"], "tol"),
    ("gibbs", "gibbs_uniform.json", ["--truncations", "4,3"], "truncations"),
    ("pressure", "gm_zero.json", ["--n-max", "0"], "n_max"),
    ("validate", "validate_birkhoff.json", ["--samples", "0"], "samples"),
], ids=["divergence_run", "slope_window", "tol", "truncations", "n_max", "samples"])
def test_flag_overrides_are_validated_like_file_params(
    tmp_path, capsys, command, name, flags, key
):
    code, stdout, stderr = run(
        capsys, command, "--model", fixture(name), "--out", str(tmp_path), *flags
    )
    assert code == 1 and stdout == ""
    assert f"params.{key}:" in stderr


@pytest.mark.parametrize("measure, field", [
    ({"kind": "bernoulli", "probs": [1.5, -0.5]}, "measure.probs"),
    ({"kind": "markov", "pi": [1.5, -0.5], "p": [[0.5, 0.5], [0.5, 0.5]]}, "measure.pi"),
    ({"kind": "markov", "pi": [0.5, 0.5], "p": [[1.5, -0.5], [0.5, 0.5]]}, "measure.p"),
], ids=["probs", "pi", "p"])
def test_negative_measure_entries_name_the_field(tmp_path, capsys, measure, field):
    # Each list still sums to 1 where a sum is checked; only the sign is wrong.
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "model": {"name": "full"}, "potential": {"kind": "zero"},
        "params": {"truncations": [2]}, "measure": measure,
    }))
    code, stdout, stderr = run(
        capsys, "gibbs", "--model", str(path), "--out", str(tmp_path)
    )
    assert code == 1 and stdout == ""
    assert stderr.startswith(f"error: {field}:")


@pytest.mark.parametrize("measure, stderr", [
    ({"kind": "uniform_bernoulli", "m": 2},
     "measure.m: the uniform Bernoulli measure lives on the full shift on 2 "
     "symbols, which the 2-symbol truncation is not"),
    ({"kind": "bernoulli", "probs": [0.5, 0.5]},
     "measure.probs: transition row of symbol 2 sums to 0.5"),
    ({"kind": "markov", "pi": [0.5, 0.5], "p": [[0.5, 0.5], [0.5, 0.5]]},
     "measure.p: transition 2->2 is not an admissible arc"),
    ({"kind": "markov", "pi": [0.5, 0.5], "p": [[0.5, 0.5], [1.0, 0.0]]},
     "measure.pi: distribution is not stationary at symbol 1"),
], ids=["uniform", "bernoulli", "markov-arc", "markov-stationary"])
def test_lyapunov_measure_errors_name_the_field(tmp_path, capsys, measure, stderr):
    # The golden mean drops the arc 2 -> 2, which each of these measures charges
    # or needs; lyapunov checks the measure on the file's own model.
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "model": {"name": "golden_mean"},
        "matrices": {"d": 1, "list": [[[2.0]], [[3.0]]]},
        "measure": measure, "params": {"n": 50, "samples": 3},
    }))
    code, stdout, err = run(
        capsys, "lyapunov", "--model", str(path), "--out", str(tmp_path)
    )
    assert code == 1 and stdout == ""
    assert err == f"error: {stderr}\n"


SHORT_LAMBDA = {"kind": "weighted", "lambda": {"list": [0.5, 0.25]}}
THREE_LAMBDA = {"kind": "weighted", "lambda": {"list": [0.5, 0.25, 0.125]}}
TWO_MATRICES = {"d": 2, "list": [[[2, 1], [1, 2]], [[1, 0.5], [0.5, 1]]]}
THREE_ARCS = {"arcs": [[1, 1], [1, 2], [2, 3], [3, 1], [2, 1]]}
COCYCLE_PARAMS = {"truncations": [3], "n_max": 10, "t_grid": [0.5, 1.0]}


@pytest.mark.parametrize("command, payload, field, symbol", [
    ("pressure", {"model": {"name": "full"}, "potential": SHORT_LAMBDA,
                  "params": {"truncations": [4]}}, "potential.lambda.list", 3),
    ("dimension", {"model": {"name": "full"},
                   "construction": {"kind": "list", "rho": [0.3, 0.2]},
                   "params": {"truncations": [4]}}, "construction.rho", 3),
    ("pressure", {"model": THREE_ARCS, "potential": {"kind": "cocycle"},
                  "matrices": TWO_MATRICES, "params": COCYCLE_PARAMS}, "matrices.list", 3),
    ("curve", {"model": THREE_ARCS, "potential": {"kind": "cocycle"},
               "matrices": TWO_MATRICES, "params": COCYCLE_PARAMS}, "matrices.list", 3),
    ("gibbs", {"model": THREE_ARCS, "potential": {"kind": "cocycle"},
               "matrices": TWO_MATRICES, "params": COCYCLE_PARAMS}, "matrices.list", 3),
    ("pressure", {"model": {"name": "full"}, "potential": {"kind": "cocycle"},
                  "matrices": {**TWO_MATRICES, "tail": {"kind": "geometric", "ratio": 0.5}},
                  "params": {"truncations": [2, 3]}}, "matrices.list", 3),
    ("lyapunov", {"model": {"name": "full"}, "matrices": {"d": 1, "list": [[[2.0]]]},
                  "measure": {"kind": "bernoulli", "probs": [0.5, 0.5]}}, "matrices.list", 2),
    # The weighted kind lives on the file's model, whose symbols start at 0 here.
    ("pressure", {"model": {"name": "star_cover"}, "potential": THREE_LAMBDA,
                  "params": {"truncations": [3]}}, "potential.lambda.list", 0),
    ("validate", {"model": {"name": "star_cover"}, "potential": THREE_LAMBDA,
                  "params": {"truncations": [3]}}, "potential.lambda.list", 0),
], ids=["lambda-pressure", "rho-dimension", "matrices-pressure",
        "matrices-curve", "matrices-gibbs", "matrices-tail", "matrices-lyapunov",
        "lambda-star-cover-pressure", "lambda-star-cover-validate"])
def test_short_symbol_lists_name_the_field_and_symbol(
    tmp_path, capsys, command, payload, field, symbol
):
    # A list section is a family over symbols 1..k; reading past k is an error
    # of that field, not a bare KeyError.
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    code, stdout, stderr = run(capsys, command, "--model", str(path), "--out", str(tmp_path))
    assert code == 1 and stdout == ""
    assert stderr == f"error: {field}: no entry for symbol {symbol}\n"


def edited_fixture(tmp_path, name, edit) -> str:
    with open(fixture(name), encoding="utf-8") as fh:
        data = json.load(fh)
    edit(data)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


HUGE = 10 ** 400


def set_params(**params):
    return lambda data: data["params"].update(params)


def set_entry(section, *index, value):
    def edit(data):
        table = data[section]["list" if section == "matrices" else "values"]
        for k in index[:-1]:
            table = table[k]
        table[index[-1]] = value
    return edit


@pytest.mark.parametrize("command, name, edit, flags, message", [
    ("curve", "weighted20.json", set_params(t_grid=[0.5, math.inf]), [], "params.t_grid:"),
    ("curve", "weighted20.json", None, ["--t-grid", "0.5,inf"], "params.t_grid:"),
    ("dimension", "cantor.json", set_params(t_bracket=[0.0, math.inf]), [], "params.t_bracket:"),
    ("dimension", "cantor.json", None, ["--t-bracket", "0,inf"], "params.t_bracket:"),
    ("pressure", "cocycle_single.json", set_entry("matrices", 0, 0, 1, value=math.nan), [],
     "matrices.list:"),
    ("pressure", "validate_birkhoff.json", set_entry("potential", 0, 1, value=math.nan), [],
     "potential.values: arc (1, 2) is nan"),
    ("pressure", "validate_birkhoff.json", set_entry("potential", 1, 0, value=-math.inf), [],
     "potential.values: arc (2, 1) is -inf"),
    ("validate", "validate_birkhoff.json", set_entry("potential", 0, 0, value="x"), [],
     "potential.values: arc (1, 1) is 'x'"),
    ("validate", "validate_birkhoff.json",
     lambda data: data["model"].update(name="full"), [],
     "potential.values: no entry for arc (1, 3)"),
    # A uniform Bernoulli measure lives on the full shift on its m symbols only.
    ("gibbs", "gibbs_uniform.json", lambda data: data["measure"].update(m=5), [],
     "measure.m:"),
    # A JSON integer too large for a float is no number, wherever it is read.
    ("pressure", "weighted20.json",
     lambda data: data["potential"]["lambda"]["geometric"].update(base=HUGE), [],
     "potential.lambda.geometric.base: must be a number\n"),
    ("pressure", "validate_birkhoff.json", set_entry("potential", 0, 1, value=HUGE), [],
     f"potential.values: arc (1, 2) is {HUGE}"),
    ("pressure", "cocycle_single.json", set_entry("matrices", 0, 0, 1, value=HUGE), [],
     "matrices.list:"),
    ("gibbs", "gibbs_fail.json", lambda data: data["measure"].update(probs=[HUGE, 0]), [],
     "measure.probs:"),
    ("curve", "weighted20.json", set_params(t_grid=[0.5, HUGE]), [], "params.t_grid:"),
], ids=["t_grid", "t_grid-flag", "t_bracket", "t_bracket-flag", "matrix-nan",
        "birkhoff-nan", "birkhoff-inf", "birkhoff-string", "birkhoff-missing-arc",
        "uniform-bernoulli-m", "geometric-base-huge", "birkhoff-huge", "matrix-huge",
        "probs-huge", "t_grid-huge"])
def test_bad_numbers_name_the_field(tmp_path, capsys, command, name, edit, flags, message):
    path = fixture(name) if edit is None else edited_fixture(tmp_path, name, edit)
    code, stdout, stderr = run(capsys, command, "--model", path, "--out", str(tmp_path), *flags)
    assert code == 1 and stdout == ""
    assert stderr.startswith(f"error: {message}")


def test_gibbs_truncates_each_level_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(model, m):
        calls.append(m)
        return shift_core.truncate(model, m)

    for module in (modelfile, pressure):
        monkeypatch.setattr(module, "truncate", counting)
    code, stdout, _ = run(
        capsys, "gibbs", "--model", fixture("weighted20.json"), "--out", str(tmp_path),
        "--truncations", "3,4",
    )
    assert code == 0 and "PASS" in stdout
    assert calls == [3, 4]


def test_artifacts_deterministic_across_thread_counts(tmp_path, capsys):
    digests = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        code, _, _ = run(
            capsys, "pressure", "--model", fixture("weighted20.json"), "--out", out
        )
        assert code == 0
        blobs = []
        for name in ("estimate.csv", "series.csv"):
            with open(os.path.join(out, name), "rb") as handle:
                blobs.append(handle.read())
        digests.append(blobs)
    assert digests[0] == digests[1]


def test_gibbs_deterministic_across_runs(tmp_path, capsys):
    blobs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        code, _, _ = run(
            capsys, "gibbs", "--model", fixture("gibbs_uniform.json"), "--out", out
        )
        assert code == 0
        with open(os.path.join(out, "gibbs.csv"), "rb") as handle:
            blobs.append(handle.read())
    assert blobs[0] == blobs[1]


# Every command takes every flag: (flag, text, dest, parsed value).
FLAGS = [
    ("--seed", "3", "seed", 3),
    ("--truncations", "5,10", "truncations", [5, 10]),
    ("--n-max", "40", "n_max", 40),
    ("--t-grid", "0.5,1", "t_grid", [0.5, 1.0]),
    ("--tol", "1e-8", "tol", 1e-8),
    ("--level", "6", "level", 6),
    ("--depth", "3", "depth", 3),
    ("--samples", "7", "samples", 7),
    ("--n", "9", "n", 9),
    ("--slope-window", "4", "slope_window", 4),
    ("--divergence-threshold", "0.25", "divergence_threshold", 0.25),
    ("--divergence-run", "2", "divergence_run", 2),
    ("--cap", "50", "cap", 50),
    ("--ratio-bound", "10", "ratio_bound", 10.0),
    ("--t-bracket", "0,1", "t_bracket", [0.0, 1.0]),
]


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_every_command_parses_the_same_flags(command, capsys):
    argv = [command, "--model", "m.json", "--out", "o"]
    for flag, text, _, _ in FLAGS:
        argv += [flag, text]
    args = cli.build_parser().parse_args(argv)
    assert vars(args) == {
        "command": command, "model": "m.json", "out": "o",
        **{dest: value for _, _, dest, value in FLAGS},
    }
    # witness and up_to are file-only params
    for flag in ("--witness", "--up-to"):
        with pytest.raises(SystemExit) as info:
            cli.build_parser().parse_args([command, "--model", "m.json", flag, "1"])
        assert info.value.code == 2



# -- The exit-code contract: one table of runs --------------------------------
#
# Each case is one run, `thermoshift <command> --model <model> <flags> --out <dir>`,
# on a fixture or on a model file's dict. A run that exits 1 prints
# "error: <message>" on stderr, nothing on stdout, and writes no file; the
# case gives that whole message, newline included.
# Any other run prints nothing on stderr, writes its command's tables and
# nothing else, and the case's check reads them. Every case runs through
# cli.main, and again through the console script wherever one is on PATH.

WRITES = {
    "pressure": ["estimate.csv", "series.csv"], "curve": ["curve.csv"],
    "dimension": ["dimension.csv", "trace.csv"], "lyapunov": ["lyapunov.csv"],
    "gibbs": ["gibbs.csv"], "validate": ["validate.csv"],
}


@dataclass(frozen=True)
class Case:
    id: str
    command: str
    model: object
    code: int
    flags: tuple = ()
    error: str = ""
    stdout: str = ""
    check: Optional[Callable[[str, str], None]] = None
    seconds: Optional[float] = None


def first_row(out, name) -> dict:
    with open(os.path.join(out, name), newline="", encoding="utf-8") as handle:
        return next(csv.DictReader(handle))


def line_count(out, name) -> int:
    with open(os.path.join(out, name), "rb") as handle:
        return handle.read().count(b"\n")


def gibbs_uniform(out, stdout):
    # depth 3 on the full 3-shift: the header, 2 rows for each length, the summary
    assert line_count(out, "gibbs.csv") == 8
    header, rows = read_csv(os.path.join(out, "gibbs.csv"))
    assert header == ["n", "word", "mass", "log_weight", "ratio"]
    words = [r for r in rows if r[0] != "summary"]
    assert len(words) == 6
    # pressure comes from the slope estimate, so ratios sit one ulp off 1
    assert all(abs(float(row[4]) - 1.0) < 1e-12 for row in words)
    assert int([r for r in rows if r[0] == "summary"][0][2]) == 39


def gibbs_fiber(out, stdout):
    # depth 4: the header, 2 rows for each length, the summary
    assert line_count(out, "gibbs.csv") == 10


def cantor_root(out, stdout):
    header, rows = read_csv(os.path.join(out, "dimension.csv"))
    assert header == [
        "dim_hat", "bracket_lo", "bracket_hi", "root_found", "pressure_at_dim", "uncertain",
    ]
    row = dict(zip(header, rows[0]))
    assert float(row["dim_hat"]) == pytest.approx(LOG23, abs=1e-4)
    assert float(stdout.split()[1]) == pytest.approx(LOG23, abs=1e-4)
    assert float(row["bracket_lo"]) <= LOG23 <= float(row["bracket_hi"]), row
    # trace.csv: the header and at least 3, at most 6 probes
    assert 4 <= line_count(out, "trace.csv") <= 7


def cocycle_curve(out, stdout):
    _, rows = read_csv(os.path.join(out, "curve.csv"))
    for t_str, value_str, *_ in rows:
        assert float(value_str) == pytest.approx(float(t_str) * math.log(3.0), abs=1e-8)


def diverged_curve(out, stdout):
    assert "diverged" in curve_flags(out)


def fiber_pressure(out, stdout):
    # the merged preimage-count walk keeps the lower bracket the word walk gave
    assert "diverged" in stdout
    row = first_row(out, "estimate.csv")
    assert row["diverged"] == "True", row
    assert abs(float(row["lower"]) - 1.5108398071342926) <= 1e-12, row


def summable(out, stdout):
    assert first_row(out, "validate.csv")["summability"] == "summable"


def weighted_list(out, stdout):
    # The list defines symbols 1 and 2, so summability sums those two.
    row = first_row(out, "validate.csv")
    assert row["summability"] == "summable" and float(row["partial_sum"]) == 0.75, row


def additive_birkhoff(out, stdout):
    # c_hat is rounding over all 100 samples: every golden-mean word closes
    # within 64 draws
    row = first_row(out, "validate.csv")
    assert float(row["c_hat"]) <= 1e-12 and row["samples"] == "100", row


def not_summable(out, stdout):
    # The zero potential has f_1 = 1 on every symbol of the countable full shift.
    assert "summability not_summable" in stdout
    with open(os.path.join(out, "validate.csv"), encoding="utf-8") as handle:
        assert handle.read().splitlines() == [
            "c_hat,declared_c,violates_declared,samples,depth,summability,"
            "partial_sum,bip_ok,bip_detail",
            "0.0,0.0,False,200,3,not_summable,64.0,True,witness=1",
        ]


def nothing_sampled(out, stdout):
    assert first_row(out, "validate.csv")["samples"] == "0"


def exact_lyapunov(n):
    """Every path's products have entry sums 2 * 3^n: lambda is log 3 + (log 2)/n."""
    def check(out, stdout):
        header, rows = read_csv(os.path.join(out, "lyapunov.csv"))
        assert header == ["lambda_hat", "n_used", "sample_count", "standard_error"]
        row = dict(zip(header, rows[0]))
        expected = math.log(3.0) + math.log(2.0) / n
        assert abs(float(row["lambda_hat"]) - expected) <= 1e-12, row
        assert float(row["standard_error"]) == 0.0, row
    return check


def tiny_t_tail(out, stdout):
    # 3^-1e-300 rounds to 1, but 1 - 3^-t taken as -expm1(-t log 3) keeps its
    # precision: the upper bound is finite and holds P = -y - log(1 - e^-y),
    # y = t log 3. As 1 - e^-y = y (1 - y / 2 + ...), P lies below -log y.
    _, rows = read_csv(os.path.join(out, "curve.csv"))
    assert rows[0][0] == "1e-300"
    with localcontext() as ctx:
        ctx.prec = 60
        y = Decimal("1e-300") * Decimal(3).ln()
        assert Decimal(rows[0][3]) >= -y.ln() > Decimal(690)


def pressure_near(t, exact):
    """The curve's (or, with t None, the estimate's) value is within 1e-9 of exact.

    The value and exact both lie in the bracket.
    """
    def check(out, stdout):
        if t is None:
            row = first_row(out, "estimate.csv")
        else:
            header, rows = read_csv(os.path.join(out, "curve.csv"))
            row = next(dict(zip(header, r)) for r in rows if float(r[0]) == t)
        assert abs(float(row["value"]) - exact) <= 1e-9, row
        assert float(row["lower"]) <= exact <= float(row["upper"]), row
        assert float(row["lower"]) <= float(row["value"]) <= float(row["upper"]), row
    return check


def minus_800(out, stdout):
    pressure_near(None, math.log(2.0) - 800.0)(out, stdout)
    # From symbol 0: 2^(n-1) periodic words of length n, each of weight e^(-800 n).
    header, rows = read_csv(os.path.join(out, "series.csv"))
    assert [int(r[1]) for r in rows] == list(range(1, len(rows) + 1))
    for _, n, log_z in rows:
        assert float(log_z) == pytest.approx((int(n) - 1) * math.log(2.0) - 800.0 * int(n), abs=1e-9)


def weighted(lam):
    return {"model": {"name": "full"}, "potential": {"kind": "weighted", "lambda": lam}}


PAIR = [[[2, 1], [1, 2]], [[1.75, 1.25], [1.25, 1.75]]]
GOLDEN_SCALARS = {"model": {"name": "golden_mean"}, "params": {"n": 50, "samples": 3},
                  "matrices": {"d": 1, "list": [[[2.0]], [[3.0]]]}}
CYCLE3 = {"model": {"arcs": [[1, 2], [2, 3], [3, 1]]},
          "potential": {"kind": "birkhoff", "values": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]},
          "params": {"witness": [1, 2, 3]}}
BIRKHOFF_800 = {"model": {"name": "full"}, "params": {"truncations": [2]},
                "potential": {"kind": "birkhoff", "values": [[800, 0], [0, 0]]}}
OVERFLOW = "t = {}: a transfer weight exp(t * pair) overflows a float\n"
# Every weight exp(-800) underflows to 0.0; P = log 2 - 800.
BIRKHOFF_MINUS_800 = {"model": {"name": "full"}, "params": {"truncations": [2]},
                      "potential": {"kind": "birkhoff", "values": [[-800, -800], [-800, -800]]}}
M = 4096

CASES = [
    Case("gibbs-uniform", "gibbs", "gibbs_uniform.json", 0, stdout="PASS ", check=gibbs_uniform),
    Case("gibbs-fail", "gibbs", "gibbs_fail.json", 2, stdout="FAIL "),
    Case("dimension-cantor", "dimension", "cantor.json", 0, check=cantor_root),
    Case("dimension-cantor-tol", "dimension", "cantor.json", 0, ("--tol", "1e-9"),
         check=cantor_root),
    # The stacked pair, block and shared-walk curve routes: a converged cocycle
    # curve, and a fiber-count curve that diverges.
    Case("curve-cocycle-single", "curve", "cocycle_single.json", 0, check=cocycle_curve),
    Case("curve-fiber", "curve", "fiber.json", 3, ("--t-grid", "0.5,1,2"), check=diverged_curve),
    Case("pressure-fiber", "pressure", "fiber.json", 3, check=fiber_pressure),
    Case("validate-fiber", "validate", "fiber.json", 2, stdout="FAIL "),
    Case("divergence-run-0", "pressure", "weighted20.json", 1, ("--divergence-run", "0"),
         error="params.divergence_run: must be a positive integer\n"),
    Case("samples-0", "validate", "validate_birkhoff.json", 1, ("--samples", "0"),
         error="params.samples: must be a positive integer\n"),
    Case("t-grid-inf", "curve", "weighted20.json", 1, ("--t-grid", "0.5,inf"),
         error="params.t_grid: must be a strictly increasing list of numbers\n"),
    Case("lambda-geometric-not-object", "pressure", weighted({"geometric": 3}), 1,
         error="potential.lambda.geometric: must be an object\n"),
    Case("lambda-geometric-base-string", "pressure", weighted({"geometric": {"base": "abc"}}), 1,
         error="potential.lambda.geometric.base: must be a number\n"),
    Case("rho-geometric-base-string", "dimension",
         {"model": {"name": "full"},
          "construction": {"kind": "product", "rho": {"geometric": {"base": "3"}}}},
         1, error="construction.rho.geometric.base: must be a number\n"),
    Case("short-matrices", "pressure",
         {"model": {"arcs": [[1, 1], [1, 2], [2, 3], [3, 1]]}, "potential": {"kind": "cocycle"},
          "matrices": {"d": 1, "list": [[[0.5]], [[0.25]]]}, "params": {"truncations": [3]}},
         1, error="matrices.list: no entry for symbol 3\n"),
    # A uniform Bernoulli measure lives on the full shift on its m symbols only.
    Case("uniform-m5", "gibbs",
         {"model": {"name": "full"}, "potential": {"kind": "zero"},
          "measure": {"kind": "uniform_bernoulli", "m": 5}, "params": {"truncations": [3]}},
         1, error="measure.m: the uniform Bernoulli measure lives on the full shift on 5 "
                  "symbols, which the 3-symbol truncation is not\n"),
    # A weighted list lives on the file's model, whose symbols start at 0 here.
    Case("star-cover-lambda", "validate",
         {"model": {"name": "star_cover"}, "params": {"truncations": [3]},
          "potential": {"kind": "weighted", "lambda": {"list": [0.5, 0.25, 0.125]}}},
         1, error="potential.lambda.list: no entry for symbol 0\n"),
    Case("validate-weighted-list", "validate", "weighted_list.json", 0, stdout="PASS ",
         check=weighted_list),
    Case("validate-birkhoff", "validate", "validate_birkhoff.json", 0, stdout="PASS ",
         check=additive_birkhoff),
    Case("validate-not-summable", "validate", "gibbs_uniform.json", 2, stdout="FAIL ",
         check=not_summable),
    # lyapunov checks its measure on the file's model: these charge the golden
    # mean's missing arc 2 -> 2.
    Case("lyapunov-golden-uniform", "lyapunov",
         {**GOLDEN_SCALARS, "measure": {"kind": "uniform_bernoulli", "m": 2}}, 1,
         error="measure.m: the uniform Bernoulli measure lives on the full shift on 2 "
               "symbols, which the 2-symbol truncation is not\n"),
    Case("lyapunov-golden-bernoulli", "lyapunov",
         {**GOLDEN_SCALARS, "measure": {"kind": "bernoulli", "probs": [0.5, 0.5]}}, 1,
         error="measure.probs: transition row of symbol 2 sums to 0.5\n"),
    Case("lyapunov-single", "lyapunov", "lyap_single.json", 0, check=exact_lyapunov(500)),
    # Two matrices that both grow by 3 on the ones vector: the 256-, 256- and
    # 88-step blocks of n = 600 climb the product-word tables, stop and carry.
    Case("lyapunov-pair", "lyapunov",
         {"model": {"name": "full"}, "matrices": {"d": 2, "list": PAIR},
          "measure": {"kind": "uniform_bernoulli", "m": 2}, "params": {"n": 600}},
         0, check=exact_lyapunov(600)),
    # The same pair over 256 symbols: the sampler reads a 256 x 256 kernel.
    Case("lyapunov-256", "lyapunov",
         {"model": {"name": "full"},
          "matrices": {"d": 2, "list": [PAIR[i % 2] for i in range(256)]},
          "measure": {"kind": "uniform_bernoulli", "m": 256}, "params": {"n": 600, "samples": 8}},
         0, check=exact_lyapunov(600), seconds=20),
    # A finite alphabet is summable beyond the 64-symbol summability probe.
    Case("validate-complete70", "validate",
         {"model": {"arcs": [[i, j] for i in range(1, 71) for j in range(1, 71)]},
          "potential": {"kind": "zero"}},
         0, check=summable),
    # A listed cocycle family is probed on its own symbols.
    Case("cocycle-listed-full", "pressure",
         {"model": {"name": "full"}, "potential": {"kind": "cocycle"},
          "matrices": {"d": 2, "list": [[[2, 1], [1, 2]], [[1, 0.5], [0.5, 3]], [[1, 1], [1, 1]]]},
          "params": {"truncations": [3]}},
         0),
    # A 3-cycle has no closed word of length 2, so --depth 2 samples nothing.
    Case("cycle3-depth2", "validate", CYCLE3, 2, ("--depth", "2"), stdout="FAIL ",
         check=nothing_sampled),
    Case("cycle3-depth3", "validate", CYCLE3, 0, ("--depth", "3"), stdout="PASS "),
    # gibbs refuses a depth whose cylinders outnumber params.cap before walking any.
    Case("depth-past-cap", "gibbs", "gibbs_uniform.json", 1, ("--depth", "50"),
         error="params.depth: 50 is too deep: the 21523359 cylinders of length 1..15 "
               "alone exceed params.cap 20000000\n"),
    # A fiber-count measure's weights and masses ride the one word walk.
    Case("gibbs-fiber", "gibbs", GIBBS_FIBER, 0, check=gibbs_fiber),
    # Large sparse truncations in bounded time: no mixing exponent on the
    # renewal shift, and a reversed chain pruned by degree counts to its loop.
    Case("renewal-4096", "pressure",
         {"model": {"name": "renewal"}, "potential": {"kind": "zero"},
          "params": {"truncations": [M]}},
         0, seconds=20),
    Case("chain-4096", "pressure",
         {"model": {"arcs": [[i + 1, i] for i in range(1, M)] + [[1, 1]]},
          "potential": {"kind": "zero"}},
         0, seconds=20),
    Case("tail-tiny-t", "curve", "weighted20.json", 0, ("--t-grid=1e-300,1",),
         check=tiny_t_tail),
    Case("pair-overflow-pressure", "pressure", BIRKHOFF_800, 1, error=OVERFLOW.format("1.0")),
    Case("pair-overflow-gibbs", "gibbs", BIRKHOFF_800, 1, error=OVERFLOW.format("1.0")),
    Case("pair-overflow-curve", "curve", "weighted20.json", 1, ("--t-grid=-800,1",),
         error=OVERFLOW.format("-800.0")),
    # Where the largest weight of a t underflows, its largest t * L is factored
    # out of the matrix and added back to the estimate; the gibbs transfer
    # route refuses. At t = 700 every weight is 0.0, and at t = 670 the
    # largest, 3^-670, is subnormal. P(t) = -log(3^t - 1) rounds to -t log 3.
    Case("pair-underflow-curve", "curve", "weighted20.json", 0, ("--t-grid=1,700",),
         check=pressure_near(700.0, -700.0 * math.log(3.0))),
    Case("pair-subnormal-curve", "curve", "weighted20.json", 0, ("--t-grid=1,670",),
         check=pressure_near(670.0, -670.0 * math.log(3.0))),
    Case("pair-underflow-pressure", "pressure", BIRKHOFF_MINUS_800, 0, check=minus_800),
    Case("pair-underflow-gibbs", "gibbs", BIRKHOFF_MINUS_800, 1,
         error="t = 1.0: every transfer weight exp(t * pair) underflows\n"),
]

SCRIPT = shutil.which("thermoshift")


@pytest.mark.parametrize("runner", ["main", "script"])
@pytest.mark.parametrize("case", CASES, ids=[case.id for case in CASES])
def test_cli_case(tmp_path, capsys, case, runner):
    if runner == "script" and SCRIPT is None:
        # GitHub Actions sets CI=true; there the installed script must run.
        if os.environ.get("CI") == "true":
            pytest.fail("no thermoshift console script on PATH")
        pytest.skip("no thermoshift console script on PATH")
    if isinstance(case.model, str):
        path = fixture(case.model)
    else:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(case.model))
    out = str(tmp_path / "out")
    argv = [case.command, "--model", str(path), *case.flags, "--out", out]
    start = time.monotonic()
    if runner == "main":
        code, stdout, stderr = run(capsys, *argv)
    else:
        done = subprocess.run([SCRIPT, *argv], capture_output=True, text=True,
                              timeout=case.seconds)
        code, stdout, stderr = done.returncode, done.stdout, done.stderr
    assert case.seconds is None or time.monotonic() - start <= case.seconds
    assert code == case.code, (stdout, stderr)
    written = sorted(os.listdir(out)) if os.path.isdir(out) else []
    if code == 1:
        assert stdout == "" and written == []
        assert stderr == "error: " + case.error
    else:
        assert stderr == "" and written == WRITES[case.command]
        assert stdout.startswith(case.stdout), stdout
        if case.check is not None:
            case.check(out, stdout)
