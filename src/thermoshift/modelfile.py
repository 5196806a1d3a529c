"""Strict JSON model files shared by every CLI command.

A model file names a transition model and optionally a potential, a matrix
family, a geometric construction, a reference measure, and numeric
parameters. Unknown keys are errors that name the offending field; silent
typos are how numerical studies go wrong.
"""

import json
import math
from typing import Callable, NamedTuple, Optional

from .dimension import GeometricConstruction, product_construction
from .gibbs import (
    MarkovCylinderMeasure,
    bernoulli_measure,
    markov_measure,
    uniform_bernoulli,
)
from .potentials import (
    MatrixFamily,
    PotentialSequence,
    SymbolWeightPotential,
    birkhoff_potential,
    cocycle_potential,
    fiber_count_potential,
    geometric_tail,
    zero_potential,
)
from .shift_core import (
    MODEL_REGISTRY,
    FiniteSubshift,
    TransitionModel,
    model_from_arcs,
    symbol_lookup,
    truncate,
)

FORMAT_VERSION = 1


class ModelFileError(ValueError):
    """Validation failure; renders as 'field: message'."""

    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        self.message = message
        super().__init__(f"{field_name}: {message}")


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def _increasing(each: Callable[[object], bool]) -> Callable[[object], bool]:
    """Check for a nonempty, strictly increasing list of values passing each."""
    return lambda v: (
        isinstance(v, list)
        and bool(v)
        and all(map(each, v))
        and all(a < b for a, b in zip(v, v[1:]))
    )


class Param(NamedTuple):
    """A run parameter: the check its value must pass, and its --flag's parser."""

    check: Callable[[object], bool]
    must_be: str
    flag: Optional[Callable[[str], object]]


def _number(value) -> bool:
    # type() rather than isinstance(): JSON true and false are not numbers.
    # json parses NaN and Infinity, which no field accepts, and integers of
    # any size: one that does not convert to a finite float is no number.
    if type(value) is int:
        try:
            float(value)
        except OverflowError:
            return False
        return True
    return type(value) is float and math.isfinite(value)


_COUNT = Param(lambda v: type(v) is int and v >= 1, "a positive integer", int)
_NATURAL = Param(lambda v: type(v) is int and v >= 0, "a nonnegative integer", int)
_POSITIVE = Param(lambda v: _number(v) and v > 0, "a positive number", float)
_NUMBERS = _increasing(_number)

# Every run parameter, in --help order. A flag of None keeps the key file-only.
PARAMS = {
    "seed": _NATURAL,
    "truncations": Param(
        _increasing(_COUNT.check),
        "a strictly increasing list of positive integers",
        _int_list,
    ),
    "n_max": _COUNT,
    "t_grid": Param(_NUMBERS, "a strictly increasing list of numbers", _float_list),
    "tol": _POSITIVE,
    "level": _COUNT,
    "depth": _COUNT,
    "samples": _COUNT,
    "n": _COUNT,
    "slope_window": _COUNT,
    "divergence_threshold": _POSITIVE,
    "divergence_run": _COUNT,
    "cap": _NATURAL,
    "ratio_bound": _POSITIVE,
    "t_bracket": Param(
        lambda v: _NUMBERS(v) and len(v) == 2,
        "an increasing pair [lo, hi]",
        _float_list,
    ),
    "witness": Param(
        lambda v: isinstance(v, list) and bool(v) and all(map(_COUNT.check, v)),
        "a nonempty list of positive integers",
        None,
    ),
    "up_to": _NATURAL._replace(flag=None),
}


def _require_keys(section, allowed, required, where: str) -> None:
    if not isinstance(section, dict):
        raise ModelFileError(where, "must be an object")
    for key in section:
        if key not in allowed:
            raise ModelFileError(f"{where}.{key}" if where else key, "unknown key")
    for key in required:
        if key not in section:
            raise ModelFileError(f"{where}.{key}" if where else key, "required")


def load_model_file(path: str) -> dict:
    """Parse and validate a model file, returning the raw dictionary."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ModelFileError("model-file", f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise ModelFileError("model-file", f"invalid JSON: {exc}")
    if not isinstance(data, dict):
        raise ModelFileError("model-file", "top level must be an object")
    _require_keys(data, {"version", *SECTIONS, "params"}, ("model",), "")
    version = data.get("version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ModelFileError("version", f"unsupported format version {version}")
    for name, parse in SECTIONS.items():
        if name in data:
            parse(data[name], data)
    if "params" in data:
        _validate_params(data["params"])
    return data


def _validate_params(section) -> None:
    _require_keys(section, PARAMS, (), "params")
    for key, value in section.items():
        if not PARAMS[key].check(value):
            raise ModelFileError(f"params.{key}", f"must be {PARAMS[key].must_be}")


# -- section parsers ----------------------------------------------------------
#
# Each parser checks its section and returns the callable that builds the
# section's object, so a file is checked by the same code that builds it.


def _kind(section, where: str, kinds: dict) -> str:
    """The section's kind, once the section has exactly that kind's keys."""
    if not isinstance(section, dict) or "kind" not in section:
        raise ModelFileError(f"{where}.kind", "required")
    kind = section["kind"]
    if type(kind) is not str or kind not in kinds:
        raise ModelFileError(f"{where}.kind", f"unknown kind {kind!r}")
    _require_keys(section, {"kind", *kinds[kind]}, kinds[kind], where)
    return kind


def _geometric_base(spec, where: str) -> float:
    """The base b of {"geometric": {"base": b}}, which must exceed 1."""
    _require_keys(spec, {"geometric"}, ("geometric",), where)
    geo = spec["geometric"]
    _require_keys(geo, {"base"}, ("base",), f"{where}.geometric")
    if not _number(geo["base"]):
        raise ModelFileError(f"{where}.geometric.base", "must be a number")
    if geo["base"] <= 1:
        raise ModelFileError(f"{where}.geometric.base", "must exceed 1")
    return float(geo["base"])


def _numbers(values, where: str, ok=lambda v: True, must="be a number") -> list:
    """A nonempty list of numbers that pass ok, as floats."""
    if not isinstance(values, list) or not values:
        raise ModelFileError(where, "must be a nonempty list")
    for k, v in enumerate(values):
        if not (_number(v) and ok(v)):
            raise ModelFileError(where, f"entry {k + 1} is {v!r}, must {must}")
    return [float(v) for v in values]


def _square(value, n: int, each=None) -> bool:
    """Whether value is an n x n list of lists whose entries all pass each."""
    return (
        isinstance(value, list)
        and len(value) == n
        and all(
            isinstance(row, list)
            and len(row) == n
            and (each is None or all(map(each, row)))
            for row in value
        )
    )


def _parse_model(section, data: dict) -> Callable[[], TransitionModel]:
    if not isinstance(section, dict):
        raise ModelFileError("model", "must be an object")
    if "name" in section:
        _require_keys(section, {"name"}, ("name",), "model")
        name = section["name"]
        if type(name) is not str or name not in MODEL_REGISTRY:
            known = ", ".join(sorted(MODEL_REGISTRY))
            raise ModelFileError(
                "model.name", f"unknown model {name!r}; known: {known}"
            )
        return MODEL_REGISTRY[name]
    if "arcs" not in section:
        raise ModelFileError("model", "needs either 'name' or 'arcs'")
    _require_keys(section, {"arcs"}, ("arcs",), "model")
    arcs = section["arcs"]
    if not isinstance(arcs, list) or not arcs:
        raise ModelFileError("model.arcs", "must be a nonempty list of [i, j]")
    for arc in arcs:
        if not (isinstance(arc, list) and len(arc) == 2
                and all(map(_COUNT.check, arc))):
            raise ModelFileError(
                "model.arcs", f"bad arc {arc!r}, expected [i, j] with i, j >= 1"
            )
    return lambda: model_from_arcs([tuple(arc) for arc in arcs])


def _parse_potential(
    section, data: dict
) -> Callable[[TransitionModel], PotentialSequence]:
    kind = _kind(section, "potential", {
        "zero": (), "birkhoff": ("values",), "weighted": ("lambda",),
        "fiber_count": (), "cocycle": (),
    })
    if kind == "birkhoff":
        # Entries are checked where they are read: a file is parsed at load
        # and again at build, and a truncation may read few of a large table.
        values = section["values"]
        if not isinstance(values, list) or not _square(values, len(values)):
            raise ModelFileError("potential.values", "must be a square matrix")
        n = len(values)

        def arc_value(i: int, j: int) -> float:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ModelFileError("potential.values", f"no entry for arc ({i}, {j})")
            v = values[i - 1][j - 1]
            # A finite float first: a run reads one entry per arc per truncation.
            if type(v) is float and math.isfinite(v) or _number(v):
                return float(v)
            raise ModelFileError("potential.values", f"arc ({i}, {j}) is {v!r}, must be a number")

        return lambda model: birkhoff_potential(arc_value, model)
    if kind == "weighted":
        lam, where = section["lambda"], "potential.lambda"
        if not isinstance(lam, dict):
            raise ModelFileError(where, "must be an object")
        if "geometric" in lam:
            base = _geometric_base(lam, where)
            return lambda model: SymbolWeightPotential(
                lambda a: base ** (-a), model,
                lam_tail_power=geometric_tail(base), name="weighted",
            )
        if "list" not in lam:
            raise ModelFileError(where, "needs either 'geometric' or 'list'")
        _require_keys(lam, {"list"}, ("list",), where)
        ratios = _numbers(lam["list"], f"{where}.list", lambda v: 0 < v <= 1,
                          "lie in (0, 1]")
        lookup, symbols = symbol_lookup(ratios, f"{where}.list")
        return lambda model: SymbolWeightPotential(
            lookup, model, name="weighted", symbols=symbols
        )
    if kind == "fiber_count":
        if data["model"].get("name") != "star":
            raise ModelFileError(
                "potential.kind", "fiber_count is defined on the star model only"
            )
        return lambda model: fiber_count_potential()
    if kind == "cocycle":
        if "matrices" not in data:
            raise ModelFileError("matrices", "required by the cocycle potential")
        return lambda model: cocycle_potential(build_family(data), model)
    return zero_potential


def _parse_matrices(section, data: dict) -> Callable[[], MatrixFamily]:
    _require_keys(section, {"d", "list", "tail"}, ("d", "list"), "matrices")
    d, mats = section["d"], section["list"]
    if not _COUNT.check(d):
        raise ModelFileError("matrices.d", f"must be {_COUNT.must_be}")
    if not isinstance(mats, list) or not mats:
        raise ModelFileError("matrices.list", "must be a nonempty list of matrices")
    for k, mat in enumerate(mats):
        if not _square(mat, d, _number):
            raise ModelFileError(
                "matrices.list", f"matrix {k + 1} is not {d}x{d} numeric"
            )
    norm_tail = None
    if "tail" in section:
        tail = section["tail"]
        _require_keys(tail, {"kind", "ratio"}, ("kind", "ratio"), "matrices.tail")
        if tail["kind"] != "geometric":
            raise ModelFileError("matrices.tail.kind", f"unknown kind {tail['kind']!r}")
        ratio = tail["ratio"]
        if not _number(ratio) or not 0 < ratio < 1:
            raise ModelFileError("matrices.tail.ratio", "must lie in (0, 1)")
        # Norms bounded by ratio^i sum to ratio^(m+1)/(1 - ratio) past m.
        norm_tail = geometric_tail(1.0 / ratio)
    return lambda: MatrixFamily(d, mats, norm_tail, "matrices.list")


def _parse_construction(section, data: dict) -> Callable[[], GeometricConstruction]:
    kind = _kind(section, "construction", {"product": ("rho",), "list": ("rho",)})
    rho = section["rho"]
    if kind == "list":
        ratios = _numbers(rho, "construction.rho", lambda v: 0 < v < 1,
                          "lie in (0, 1)")
        lookup, _ = symbol_lookup(ratios, "construction.rho")
        return lambda: product_construction(lookup)
    if not isinstance(rho, dict) or "geometric" not in rho:
        raise ModelFileError(
            "construction.rho", "product kind expects {geometric: {base: b}}"
        )
    base = _geometric_base(rho, "construction.rho")
    return lambda: product_construction(
        lambda a: base ** (-a), tail=geometric_tail(base)
    )


def _nonnegative(value) -> bool:
    return _number(value) and value >= 0


def _parse_measure(
    section, data: dict
) -> Callable[[Optional[FiniteSubshift]], MarkovCylinderMeasure]:
    kind = _kind(section, "measure", {
        "uniform_bernoulli": ("m",), "bernoulli": ("probs",), "markov": ("pi", "p"),
    })

    def on(sub: Optional[FiniteSubshift], size: int) -> FiniteSubshift:
        # With no subshift given, arcs are checked on the file's own model.
        return truncate(build_model(data), size) if sub is None else sub

    if kind == "uniform_bernoulli":
        m = section["m"]
        if not _COUNT.check(m):
            raise ModelFileError("measure.m", f"must be {_COUNT.must_be}")

        def uniform(sub: Optional[FiniteSubshift]) -> MarkovCylinderMeasure:
            mu, sub = uniform_bernoulli(m), on(sub, m)
            # Its masses sum to 1 on each level only on its own full shift.
            if sub.symbols != mu.symbols or not sub.matrix.all():
                raise ModelFileError("measure.m", (
                    f"the uniform Bernoulli measure lives on the full shift on {m} "
                    f"symbols, which the {sub.size}-symbol truncation is not"
                ))
            return mu

        return uniform
    if kind == "bernoulli":
        probs = _numbers(
            section["probs"], "measure.probs", _nonnegative, "be a nonnegative number"
        )
        if abs(math.fsum(probs) - 1.0) > 1e-9:
            raise ModelFileError("measure.probs", "must sum to 1")
        return lambda sub: _named(
            lambda msg: "measure.probs", bernoulli_measure,
            dict(enumerate(probs, 1)), on(sub, len(probs)),
        )
    pi = _numbers(section["pi"], "measure.pi", _nonnegative, "be a nonnegative number")
    p = section["p"]
    if not _square(p, len(pi)):
        raise ModelFileError("measure.p", "must be a square matrix matching pi")
    if not _square(p, len(pi), _nonnegative):
        raise ModelFileError("measure.p", "entries must be nonnegative numbers")
    # Entry, row and arc checks fault p; sum and stationarity checks fault pi.
    return lambda sub: _named(
        lambda msg: "measure.p" if msg.startswith(("p ", "transition")) else "measure.pi",
        markov_measure, range(1, len(pi) + 1), pi, p, on(sub, len(pi)),
    )


def _named(field: Callable[[str], str], build: Callable, *args):
    """build(*args), with its ValueError raised again on the model-file field(message)."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ModelFileError(field(str(exc)), str(exc)) from None


SECTIONS = {
    "model": _parse_model,
    "potential": _parse_potential,
    "matrices": _parse_matrices,
    "construction": _parse_construction,
    "measure": _parse_measure,
}


# -- builders -----------------------------------------------------------------


def _builder(data: dict, name: str) -> Callable:
    if name not in data:
        raise ModelFileError(name, "required")
    return SECTIONS[name](data[name], data)


def build_model(data: dict) -> TransitionModel:
    return _builder(data, "model")()


def build_family(data: dict) -> MatrixFamily:
    return _builder(data, "matrices")()


def build_potential(data: dict, model: TransitionModel) -> PotentialSequence:
    return _builder(data, "potential")(model)


def build_construction(data: dict) -> GeometricConstruction:
    return _builder(data, "construction")()


def build_measure(
    data: dict, sub: Optional[FiniteSubshift] = None
) -> MarkovCylinderMeasure:
    """The file's measure; without sub, checked on the truncated file model."""
    return _builder(data, "measure")(sub)
