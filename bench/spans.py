"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces each target function by a timing wrapper at every
``thermoshift`` module namespace that binds it (``truncate`` is bound in six
modules, for instance), so calls between modules are traced too. Spans stay
in memory; ``layer_metrics`` turns them into per-layer numbers and
``write_spans`` saves them when the run ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from functools import wraps

# (layer, module, functions). partition_series and finite_gibbs_nu are split
# into one layer per strategy, read from the result they return.
TARGETS = (
    ("shift_core.truncate", "shift_core", ("truncate",)),
    ("shift_core.check_mixing", "shift_core", ("check_mixing",)),
    ("potentials.estimate_regularity", "potentials", ("estimate_regularity",)),
    ("potentials.check_cone_condition", "potentials", ("check_cone_condition",)),
    ("potentials.summability_report", "potentials", ("summability_report",)),
    ("numerics.scaled_power_diagonal", "numerics", ("scaled_power_diagonal",)),
    ("numerics.perron_data", "numerics", ("perron_data",)),
    ("pressure.gurevich_pressure", "pressure", ("gurevich_pressure",)),
    ("pressure.transfer_norm", "pressure", ("transfer_norm",)),
    ("pressure.pressure_curve", "pressure", ("pressure_curve",)),
    ("pressure.partition_series", "pressure", ("partition_series",)),
    ("gibbs.finite_gibbs_nu", "gibbs", ("finite_gibbs_nu",)),
    ("gibbs.verify_gibbs", "gibbs", ("verify_gibbs",)),
    ("gibbs.rpf_equilibrium", "gibbs", ("rpf_equilibrium",)),
    ("matrix_cocycle.max_lyapunov", "matrix_cocycle", ("max_lyapunov",)),
    ("matrix_cocycle.cocycle_pressure", "matrix_cocycle", ("cocycle_pressure",)),
    ("dimension.bowen_dimension", "dimension", ("bowen_dimension",)),
    ("modelfile.load_model_file", "modelfile", ("load_model_file",)),
    ("modelfile.build", "modelfile", (
        "build_model", "build_family", "build_potential", "build_construction", "build_measure",
    )),
    ("cli.main", "cli", ("main",)),
)
STRATEGIES = {
    "pressure.partition_series": ("pair", "block", "enumerate"),
    "gibbs.finite_gibbs_nu": ("explicit", "pair", "block"),
}
LAYERS = tuple(
    name
    for layer, _, _ in TARGETS
    for name in ([f"{layer}.{s}" for s in STRATEGIES[layer]] if layer in STRATEGIES else [layer])
)


class Span:
    """One call of a target function; ``parent`` indexes the enclosing span."""

    __slots__ = ("name", "start", "end", "parent", "job", "error", "info")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.error = None
        self.info = None


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _note_truncate(span, args, kwargs, result):
    model, m = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "m")
    span.info = (model.name, model.first_symbol, model.alphabet_size, m)


def _note_mixing(span, args, kwargs, result):
    bound = _arg(args, kwargs, 1, "max_exponent")
    if result is not None:
        span.info = result
    elif bound is not None:
        span.info = bound
    else:
        size = _arg(args, kwargs, 0, "sub").size
        span.info = (size - 1) ** 2 + 1 if size > 1 else 1


def _note_partition(span, args, kwargs, result):
    sub, p = _arg(args, kwargs, 0, "sub"), _arg(args, kwargs, 1, "p")
    n_max, a = _arg(args, kwargs, 2, "n_max"), _arg(args, kwargs, 3, "a")
    if result is not None:
        strategy = result.strategy
    else:
        strategy = _arg(args, kwargs, 5, "strategy", "auto")
        if strategy == "auto":
            strategy = ("pair" if p.pair_structure() is not None
                        else "block" if p.block_entries() is not None else "enumerate")
    span.name = f"{span.name}.{strategy}"
    if strategy == "pair":
        span.info = 2 * n_max * sub.size ** 3
    elif strategy == "block":
        span.info = 2 * n_max * (sub.size * p.block_entries()[1]) ** 3
    else:
        span.info = (sub, n_max, a)


def _note_gibbs_nu(span, args, kwargs, result):
    strategy = result.strategy if result is not None else "explicit"
    span.name = f"{span.name}.{strategy}"
    if strategy == "explicit":
        span.info = (_arg(args, kwargs, 0, "sub"), _arg(args, kwargs, 2, "l"))


def _note_verify(span, args, kwargs, result):
    span.info = result.words_tested if result is not None else 0


def _note_lyapunov(span, args, kwargs, result):
    span.info = _arg(args, kwargs, 2, "n") * _arg(args, kwargs, 3, "samples")


def _note_dimension(span, args, kwargs, result):
    span.info = len(result.trace) if result is not None else 0


NOTES = {
    "shift_core.truncate": _note_truncate,
    "shift_core.check_mixing": _note_mixing,
    "pressure.partition_series": _note_partition,
    "gibbs.finite_gibbs_nu": _note_gibbs_nu,
    "gibbs.verify_gibbs": _note_verify,
    "matrix_cocycle.max_lyapunov": _note_lyapunov,
    "dimension.bowen_dimension": _note_dimension,
}


class Tracer:
    """Records one span per call of each target function while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = None  # (pass index, job name) of the job now running
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, layer, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(layer)
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, clock(), stack[-1] if stack else None, self.job)
            stack.append(len(spans))
            spans.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
                if note is not None:
                    note(span, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "thermoshift" or name.startswith("thermoshift.")]
        for layer, module, names in TARGETS:
            home = importlib.import_module(f"thermoshift.{module}")
            for fname in names:
                original = getattr(home, fname)
                traced = self._wrap(layer, original)
                for mod in modules:
                    for attr in [a for a, v in vars(mod).items() if v is original]:
                        setattr(mod, attr, traced)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()


def _walks(matrix, start, length) -> int:
    """Admissible words of the given length from ``start`` (index), exactly."""
    rows = matrix.tolist()
    vec = [0] * len(rows)
    vec[start] = 1
    for _ in range(length - 1):
        vec = [sum(vec[i] for i in range(len(rows)) if rows[i][j]) for j in range(len(rows))]
    return sum(vec)


def _count(span) -> int:
    if span.name == "pressure.partition_series.enumerate":
        sub, n_max, a = span.info
        start = sub.position(a)
        return sum(_walks(sub.matrix, start, k) for k in range(2, n_max + 1))
    if span.name == "gibbs.finite_gibbs_nu.explicit":
        sub, level = span.info
        return sum(_walks(sub.matrix, s, level) for s in range(sub.size))
    return span.info


# Counts derived from argument and result sizes, not measured.
COUNT_OF = {
    "shift_core.check_mixing": "shift_core.check_mixing.products_computed",
    "pressure.partition_series.pair": "pressure.partition_series.pair.flops_computed",
    "pressure.partition_series.block": "pressure.partition_series.block.flops_computed",
    "pressure.partition_series.enumerate": "pressure.partition_series.enumerate.prefixes_computed",
    "gibbs.verify_gibbs": "gibbs.verify_gibbs.words",
    "gibbs.finite_gibbs_nu.explicit": "gibbs.finite_gibbs_nu.explicit.words",
    "matrix_cocycle.max_lyapunov": "matrix_cocycle.max_lyapunov.steps",
    "dimension.bowen_dimension": "dimension.bowen_dimension.probes",
}

# Every per-layer metric with its unit; trace.overhead_frac is filled in by
# the harness, which alone sees the untraced passes.
METRICS = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("calls", "count/pass"), ("self_s", "s/pass"), ("errors", "count/pass"))},
    **{name: "flop/pass" if name.endswith("flops_computed") else "count/pass"
       for name in COUNT_OF.values()},
    "shift_core.truncate.unique_frac": "ratio",
    "trace.self_cover_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(spans: list, job_seconds: dict, scale: dict) -> dict:
    """Per-layer numbers, each the median over passes of its per-pass total.

    ``job_seconds`` maps a pass index to the summed wall time of its jobs and
    ``scale`` maps a (pass index, job name) to the factor that rescales that
    job's times (see ``run.calibrate``).
    Self time is a span's duration minus the time its child spans cover.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    per_pass = {k: {} for k in job_seconds}
    truncations = {k: {} for k in job_seconds}
    for span, covered in zip(spans, child):
        index, job = span.job
        totals = per_pass[index]
        for key, amount in (
            (f"{span.name}.calls", 1),
            (f"{span.name}.self_s", (span.end - span.start - covered) * scale[span.job]),
            (f"{span.name}.errors", 1 if span.error else 0),
            ("self_total", span.end - span.start - covered),
        ):
            totals[key] = totals.get(key, 0) + amount
        if span.name in COUNT_OF:
            key = COUNT_OF[span.name]
            totals[key] = totals.get(key, 0) + _count(span)
        if span.name == "shift_core.truncate":
            truncations[index].setdefault(job, set()).add(span.info)
    for index, totals in per_pass.items():
        calls = totals.get("shift_core.truncate.calls", 0)
        distinct = sum(len(keys) for keys in truncations[index].values())
        totals["shift_core.truncate.unique_frac"] = distinct / calls if calls else 1.0
        totals["trace.self_cover_frac"] = totals.pop("self_total", 0.0) / job_seconds[index]
    return {
        name: statistics.median(totals.get(name, 0) for totals in per_pass.values())
        for name in METRICS if name != "trace.overhead_frac"
    }


def write_spans(spans: list, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for number, span in enumerate(spans):
            fh.write(json.dumps({
                "id": number, "name": span.name, "start": span.start, "end": span.end,
                "parent": span.parent, "job": f"{span.job[0]}:{span.job[1]}",
                "error": span.error,
            }) + "\n")
