"""Batch front-end: load a model file, run one computation, emit CSV tables.

Exit codes: 0 on success, 1 on configuration errors (the message names the
offending field, the truncation level that is not mixing or that pruned the
base symbol, or the enumeration cap
that was exceeded), 2 when a convergence or certification flag failed, 3
when the divergence policy fired. All numeric CSV cells use the shortest
float representation that parses back to the same value.

Every CSV is what csv.writer writes, which formats each float with
float.__repr__. gibbs.csv holds two rows per cylinder length, the
certificate's cylinders of least and largest ratio, and its summary row.
"""

import argparse
import csv
import functools
import logging
import os
import sys
from typing import Optional, Sequence

import numpy as np

from .dimension import NoStraddleError, bowen_dimension
from .gibbs import finite_gibbs_nu, verify_gibbs
from .matrix_cocycle import max_lyapunov
from .modelfile import (
    PARAMS,
    ModelFileError,
    _validate_params,
    build_construction,
    build_family,
    build_measure,
    build_model,
    build_potential,
    load_model_file,
)
from .potentials import estimate_regularity, summability_report
from .pressure import (
    _ESTIMATE_PARAMS,
    ENUMERATION_CAP,
    curve_second_differences,
    gurevich_pressure,
    mixed_truncation,
    pressure_curve,
)
from .shift_core import (
    BipCertificate,
    EnumerationBudgetError,
    NonMixingTruncationError,
    check_bip,
    walk_counts,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_FLAG = 2
EXIT_DIVERGED = 3

log = logging.getLogger("thermoshift")

PRESSURE_KEYS = tuple(key for key in _ESTIMATE_PARAMS if key in PARAMS)


def _setup_logging() -> None:
    level_name = os.environ.get("THERMOSHIFT_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    """Write header and rows; csv.writer formats each float with float.__repr__."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _params(data: dict, args: argparse.Namespace) -> dict:
    """File params overridden by any CLI flag that was set, validated as a file's."""
    merged = dict(data.get("params", {}))
    merged.update(
        (key, value)
        for key, value in vars(args).items()
        if key in PARAMS and value is not None
    )
    _validate_params(merged)
    return merged


def _given(params: dict, *keys: str) -> dict:
    """The params among keys that are set, as keyword arguments."""
    return {key: params[key] for key in keys if key in params}


def _pressure_kwargs(params: dict) -> dict:
    kwargs = _given(params, *PRESSURE_KEYS)
    if "truncations" in params:
        kwargs["m_list"] = params["truncations"]
    return kwargs


def _flag(est) -> str:
    if est.diverged:
        return "diverged"
    if not est.converged:
        return "unconverged"
    return "ok"


def cmd_pressure(data: dict, args: argparse.Namespace, out_dir: str) -> int:
    model = build_model(data)
    potential = build_potential(data, model)
    params = _params(data, args)
    est = gurevich_pressure(model, potential, **_pressure_kwargs(params))
    _write_csv(
        os.path.join(out_dir, "series.csv"),
        ("truncation", "n", "log_z"),
        [(est.series.truncation_size, n, est.series.log_z(n))
         for n in range(1, est.series.n_max + 1)],
    )
    _write_csv(
        os.path.join(out_dir, "estimate.csv"),
        ("value", "lower", "upper", "truncation", "n_max", "base_symbol",
         "converged", "monotone", "diverged"),
        [(est.value, est.lower, est.upper, est.truncation_level, est.n_max,
          est.base_symbol, est.converged, est.monotone, est.diverged)],
    )
    print(
        f"value {est.value!r} lower {est.lower!r} upper {est.upper!r} "
        f"flag {_flag(est)}"
    )
    if est.diverged:
        return EXIT_DIVERGED
    if not est.converged:
        return EXIT_FLAG
    return EXIT_OK


def cmd_curve(data: dict, args: argparse.Namespace, out_dir: str) -> int:
    model = build_model(data)
    potential = build_potential(data, model)
    params = _params(data, args)
    grid = params.get("t_grid")
    if not grid:
        raise ModelFileError("params.t_grid", "required")
    curve = pressure_curve(
        model, potential, grid, **_pressure_kwargs(params)
    )
    rows = [
        (t, est.value, est.lower, est.upper, _flag(est)) for t, est in curve
    ]
    _write_csv(
        os.path.join(out_dir, "curve.csv"),
        ("t", "value", "lower", "upper", "flag"),
        rows,
    )
    for second in curve_second_differences(curve):
        if second < -1e-9:
            print(
                f"warning: convexity violated (second difference {second!r})",
                file=sys.stderr,
            )
    for t, est in curve:
        print(f"t {t!r} value {est.value!r}")
    if any(est.diverged for _, est in curve):
        return EXIT_DIVERGED
    if any(not est.converged for _, est in curve):
        return EXIT_FLAG
    return EXIT_OK


def cmd_dimension(data: dict, args: argparse.Namespace, out_dir: str) -> int:
    model = build_model(data)
    gc = build_construction(data)
    params = _params(data, args)
    # tol lands on bowen_dimension's own tol, the root tolerance on |P|, only.
    try:
        res = bowen_dimension(
            gc, model, **_given(params, "t_bracket"), **_pressure_kwargs(params)
        )
    except NoStraddleError as exc:
        raise ModelFileError("params.t_bracket", str(exc)) from None
    _write_csv(
        os.path.join(out_dir, "dimension.csv"),
        ("dim_hat", "bracket_lo", "bracket_hi", "root_found",
         "pressure_at_dim", "uncertain"),
        [(res.dim_hat, res.bracket[0], res.bracket[1], res.root_found,
          res.pressure_at_dim, res.uncertain)],
    )
    _write_csv(
        os.path.join(out_dir, "trace.csv"),
        ("t", "value", "lower", "upper", "diverged"),
        res.trace,
    )
    print(f"dimension {res.dim_hat!r} root_found {res.root_found}")
    if res.root_found and not res.uncertain:
        return EXIT_OK
    return EXIT_FLAG


def cmd_lyapunov(data: dict, args: argparse.Namespace, out_dir: str) -> int:
    family = build_family(data)
    params = _params(data, args)
    mu = build_measure(data)
    est = max_lyapunov(
        family,
        mu,
        params.get("n", 100),
        params.get("samples", 50),
        **_given(params, "seed"),
    )
    _write_csv(
        os.path.join(out_dir, "lyapunov.csv"),
        ("lambda_hat", "n_used", "sample_count", "standard_error"),
        [(est.lambda_hat, est.n_used, est.sample_count, est.standard_error)],
    )
    print(f"lambda_hat {est.lambda_hat!r} standard_error {est.standard_error!r}")
    return EXIT_OK


def cmd_gibbs(data: dict, args: argparse.Namespace, out_dir: str) -> int:
    model = build_model(data)
    potential = build_potential(data, model)
    params = _params(data, args)
    truncations = params.get("truncations")
    if not truncations:
        raise ModelFileError("params.truncations", "required")
    pressure_est = gurevich_pressure(model, potential, **_pressure_kwargs(params))
    sub = mixed_truncation(model, pressure_est.truncation_level)
    depth, cap = params.get("depth", 4), params.get("cap", ENUMERATION_CAP)
    # The certificate walks every cylinder of length 1..depth; count them first.
    cylinders, counts = 0, np.ones(sub.size, dtype=object)
    for n in range(1, depth + 1):
        cylinders += int(counts.sum())
        if cylinders > cap:
            raise ModelFileError("params.depth", f"{depth} is too deep: the {cylinders} "
                                 f"cylinders of length 1..{n} alone exceed params.cap {cap}")
        counts = walk_counts(sub, 1, counts)
    if "measure" in data:
        mu = build_measure(data, sub)
    else:
        level = params.get("level", 8)
        if depth > level:
            raise ModelFileError("params.depth", f"{depth} exceeds params.level {level}")
        try:
            mu = finite_gibbs_nu(sub, potential, level, **_given(params, "cap"))
        except EnumerationBudgetError as exc:
            raise ModelFileError("params.level", f"{exc}; params.cap sets the cap") from None
    cert = verify_gibbs(
        mu,
        potential,
        pressure_est.value,
        depth=depth,
        sub=sub,
        **_given(params, "ratio_bound"),
    )
    rows = [(n, " ".join(map(str, word)), mass, log_weight, ratio)
            for pair in zip(cert.least, cert.largest)
            for n, word, mass, log_weight, ratio in pair]
    rows.append(("summary", "", cert.words_tested, cert.ratio_min, cert.ratio_max))
    _write_csv(os.path.join(out_dir, "gibbs.csv"), ("n", "word", "mass", "log_weight", "ratio"),
               rows)
    verdict = "PASS" if cert.passed else "FAIL"
    print(
        f"{verdict} ratio_min {cert.ratio_min!r} ratio_max {cert.ratio_max!r} "
        f"P {cert.P_used!r}"
    )
    return EXIT_OK if cert.passed else EXIT_FLAG


def cmd_validate(data: dict, args: argparse.Namespace, out_dir: str) -> int:
    model = build_model(data)
    potential = build_potential(data, model)
    params = _params(data, args)
    regularity = _given(params, "depth", "samples", "seed")
    if "truncations" in params:
        regularity["truncation"] = params["truncations"][-1]
    reg = estimate_regularity(potential, model, **regularity)
    summ = summability_report(potential)
    witness = params.get("witness", [model.first_symbol])
    up_to = params.get("up_to", 20)
    if model.alphabet_size is not None:
        up_to = min(up_to, model.alphabet_size)
    bip = check_bip(model, witness, up_to)
    bip_ok = isinstance(bip, BipCertificate)
    bip_detail = (
        f"witness={','.join(str(b) for b in bip.witness_set)}"
        if bip_ok
        else f"symbol={bip.symbol} missing={bip.missing}"
    )
    _write_csv(
        os.path.join(out_dir, "validate.csv"),
        ("c_hat", "declared_c", "violates_declared", "samples", "depth",
         "summability", "partial_sum", "bip_ok", "bip_detail"),
        [(reg.C_hat, potential.declared_C, reg.violates_declared, reg.samples,
          reg.depth, summ.verdict, summ.partial_sum, bip_ok, bip_detail)],
    )
    # A regularity estimate from no sampled word is no evidence.
    passed = (bip_ok and reg.samples > 0 and not reg.violates_declared
              and summ.verdict != "not_summable")
    print(f"{'PASS' if passed else 'FAIL'} C_hat {reg.C_hat!r} "
          f"declared {potential.declared_C!r} summability {summ.verdict}")
    return EXIT_OK if passed else EXIT_FLAG


COMMANDS = {
    "pressure": cmd_pressure,
    "curve": cmd_curve,
    "dimension": cmd_dimension,
    "lyapunov": cmd_lyapunov,
    "gibbs": cmd_gibbs,
    "validate": cmd_validate,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; each parse gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="thermoshift",
        description="pressure, Gibbs, Lyapunov, and dimension computations "
        "on countable Markov shifts",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--model", required=True, help="model file (JSON)")
    parser.add_argument("--out", default=".", help="output directory")
    for key, param in PARAMS.items():
        if param.flag is not None:
            parser.add_argument("--" + key.replace("_", "-"), dest=key, type=param.flag)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    log.info("command=%s model=%s", args.command, args.model)
    try:
        data = load_model_file(args.model)
        os.makedirs(args.out, exist_ok=True)
        return COMMANDS[args.command](data, args, args.out)
    except (ValueError, NonMixingTruncationError, EnumerationBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
