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
from .matrix_cocycle import MatrixFamily
from .potentials import (
    PotentialSequence,
    birkhoff_potential,
    cocycle_potential,
    fiber_count_potential,
    geometric_tail,
    weighted_fullshift_potential,
    zero_potential,
)
from .shift_core import (
    MODEL_REGISTRY,
    FiniteSubshift,
    TransitionModel,
    model_from_arcs,
)

FORMAT_VERSION = 1


class ModelFileError(ValueError):
    """Validation failure; renders as 'field: message'."""

    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        self.message = message
        super().__init__(f"{field_name}: {message}")


TOP_LEVEL_KEYS = {
    "version",
    "model",
    "potential",
    "matrices",
    "construction",
    "measure",
    "params",
}


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
    return type(value) in (int, float)


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


def _require_keys(section: dict, allowed: set, required: set, where: str) -> None:
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
    _require_keys(data, TOP_LEVEL_KEYS, {"model"}, "")
    version = data.get("version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ModelFileError("version", f"unsupported format version {version}")
    _validate_model(data["model"])
    if "potential" in data:
        _validate_potential(data["potential"], data)
    if "matrices" in data:
        _validate_matrices(data["matrices"])
    if "construction" in data:
        _validate_construction(data["construction"])
    if "measure" in data:
        _validate_measure(data["measure"])
    if "params" in data:
        _validate_params(data["params"])
    return data


def _validate_model(section) -> None:
    if not isinstance(section, dict):
        raise ModelFileError("model", "must be an object")
    if "name" in section:
        _require_keys(section, {"name"}, {"name"}, "model")
        if section["name"] not in MODEL_REGISTRY:
            known = ", ".join(sorted(MODEL_REGISTRY))
            raise ModelFileError(
                "model.name", f"unknown model {section['name']!r}; known: {known}"
            )
    elif "arcs" in section:
        _require_keys(section, {"arcs"}, {"arcs"}, "model")
        arcs = section["arcs"]
        if not isinstance(arcs, list) or not arcs:
            raise ModelFileError("model.arcs", "must be a nonempty list of [i, j]")
        for arc in arcs:
            if (
                not isinstance(arc, list)
                or len(arc) != 2
                or not all(isinstance(x, int) and x >= 1 for x in arc)
            ):
                raise ModelFileError(
                    "model.arcs", f"bad arc {arc!r}, expected [i, j] with i, j >= 1"
                )
    else:
        raise ModelFileError("model", "needs either 'name' or 'arcs'")


def _validate_potential(section, data: dict) -> None:
    if not isinstance(section, dict) or "kind" not in section:
        raise ModelFileError("potential.kind", "required")
    kind = section["kind"]
    if kind == "zero":
        _require_keys(section, {"kind"}, set(), "potential")
    elif kind == "birkhoff":
        _require_keys(section, {"kind", "values"}, {"values"}, "potential")
        values = section["values"]
        if not isinstance(values, list) or not all(
            isinstance(row, list) and len(row) == len(values) for row in values
        ):
            raise ModelFileError("potential.values", "must be a square matrix")
    elif kind == "weighted":
        _require_keys(section, {"kind", "lambda"}, {"lambda"}, "potential")
        _validate_weights(section["lambda"], "potential.lambda")
    elif kind == "fiber_count":
        _require_keys(section, {"kind"}, set(), "potential")
        model = data.get("model", {})
        if model.get("name") != "star":
            raise ModelFileError(
                "potential.kind",
                "fiber_count is defined on the star model only",
            )
    elif kind == "cocycle":
        _require_keys(section, {"kind"}, set(), "potential")
        if "matrices" not in data:
            raise ModelFileError("matrices", "required by the cocycle potential")
    else:
        raise ModelFileError("potential.kind", f"unknown kind {kind!r}")


def _validate_weights(section, where: str) -> None:
    if not isinstance(section, dict):
        raise ModelFileError(where, "must be an object")
    if "geometric" in section:
        _require_keys(section, {"geometric"}, {"geometric"}, where)
        geo = section["geometric"]
        _require_keys(geo, {"base"}, {"base"}, f"{where}.geometric")
        if not isinstance(geo["base"], (int, float)) or geo["base"] <= 1:
            raise ModelFileError(f"{where}.geometric.base", "must exceed 1")
    elif "list" in section:
        _require_keys(section, {"list"}, {"list"}, where)
        values = section["list"]
        if not isinstance(values, list) or not values:
            raise ModelFileError(f"{where}.list", "must be a nonempty list")
        for k, v in enumerate(values):
            if not isinstance(v, (int, float)) or not 0 < v <= 1:
                raise ModelFileError(
                    f"{where}.list", f"entry {k + 1} is {v!r}, must lie in (0, 1]"
                )
    else:
        raise ModelFileError(where, "needs either 'geometric' or 'list'")


def _validate_matrices(section) -> None:
    if not isinstance(section, dict):
        raise ModelFileError("matrices", "must be an object")
    _require_keys(section, {"d", "list", "tail"}, {"d", "list"}, "matrices")
    d = section["d"]
    if not isinstance(d, int) or d < 1:
        raise ModelFileError("matrices.d", "must be a positive integer")
    mats = section["list"]
    if not isinstance(mats, list) or not mats:
        raise ModelFileError("matrices.list", "must be a nonempty list of matrices")
    for k, mat in enumerate(mats):
        ok = (
            isinstance(mat, list)
            and len(mat) == d
            and all(
                isinstance(row, list)
                and len(row) == d
                and all(isinstance(x, (int, float)) for x in row)
                for row in mat
            )
        )
        if not ok:
            raise ModelFileError(
                "matrices.list", f"matrix {k + 1} is not {d}x{d} numeric"
            )
    if "tail" in section:
        tail = section["tail"]
        _require_keys(tail, {"kind", "ratio"}, {"kind", "ratio"}, "matrices.tail")
        if tail["kind"] != "geometric":
            raise ModelFileError(
                "matrices.tail.kind", f"unknown kind {tail['kind']!r}"
            )
        if not isinstance(tail["ratio"], (int, float)) or not 0 < tail["ratio"] < 1:
            raise ModelFileError("matrices.tail.ratio", "must lie in (0, 1)")


def _validate_construction(section) -> None:
    if not isinstance(section, dict) or "kind" not in section:
        raise ModelFileError("construction.kind", "required")
    kind = section["kind"]
    if kind == "product":
        _require_keys(section, {"kind", "rho"}, {"rho"}, "construction")
        rho = section["rho"]
        if not isinstance(rho, dict) or "geometric" not in rho:
            raise ModelFileError(
                "construction.rho", "product kind expects {geometric: {base: b}}"
            )
        _require_keys(rho, {"geometric"}, {"geometric"}, "construction.rho")
        geo = rho["geometric"]
        _require_keys(geo, {"base"}, {"base"}, "construction.rho.geometric")
        if not isinstance(geo["base"], (int, float)) or geo["base"] <= 1:
            raise ModelFileError("construction.rho.geometric.base", "must exceed 1")
    elif kind == "list":
        _require_keys(section, {"kind", "rho"}, {"rho"}, "construction")
        rho = section["rho"]
        if not isinstance(rho, list) or not rho:
            raise ModelFileError("construction.rho", "must be a nonempty list")
        for k, v in enumerate(rho):
            if not isinstance(v, (int, float)) or not 0 < v < 1:
                raise ModelFileError(
                    "construction.rho",
                    f"entry {k + 1} is {v!r}, must lie in (0, 1)",
                )
    else:
        raise ModelFileError("construction.kind", f"unknown kind {kind!r}")


def _validate_measure(section) -> None:
    if not isinstance(section, dict) or "kind" not in section:
        raise ModelFileError("measure.kind", "required")
    kind = section["kind"]
    if kind == "uniform_bernoulli":
        _require_keys(section, {"kind", "m"}, {"m"}, "measure")
        if not isinstance(section["m"], int) or section["m"] < 1:
            raise ModelFileError("measure.m", "must be a positive integer")
    elif kind == "bernoulli":
        _require_keys(section, {"kind", "probs"}, {"probs"}, "measure")
        probs = section["probs"]
        if not isinstance(probs, list) or not probs:
            raise ModelFileError("measure.probs", "must be a nonempty list")
        if abs(math.fsum(probs) - 1.0) > 1e-9:
            raise ModelFileError("measure.probs", "must sum to 1")
    elif kind == "markov":
        _require_keys(section, {"kind", "pi", "p"}, {"pi", "p"}, "measure")
        pi, p = section["pi"], section["p"]
        if not isinstance(pi, list) or not pi:
            raise ModelFileError("measure.pi", "must be a nonempty list")
        if not isinstance(p, list) or len(p) != len(pi) or not all(
            isinstance(row, list) and len(row) == len(pi) for row in p
        ):
            raise ModelFileError("measure.p", "must be a square matrix matching pi")
    else:
        raise ModelFileError("measure.kind", f"unknown kind {kind!r}")


def _validate_params(section) -> None:
    if not isinstance(section, dict):
        raise ModelFileError("params", "must be an object")
    _require_keys(section, PARAMS, set(), "params")
    for key, value in section.items():
        if not PARAMS[key].check(value):
            raise ModelFileError(f"params.{key}", f"must be {PARAMS[key].must_be}")


# -- builders -----------------------------------------------------------------


def build_model(data: dict) -> TransitionModel:
    section = data["model"]
    if "name" in section:
        return MODEL_REGISTRY[section["name"]]()
    return model_from_arcs([tuple(arc) for arc in section["arcs"]])


def build_family(data: dict) -> MatrixFamily:
    section = data["matrices"]
    tail = None
    if "tail" in section:
        # Norms bounded by ratio^i sum to ratio^(m+1)/(1 - ratio) past m.
        tail = geometric_tail(1.0 / float(section["tail"]["ratio"]))
    return MatrixFamily(section["d"], section["list"], norm_tail=tail)


def build_potential(data: dict, model: TransitionModel) -> PotentialSequence:
    if "potential" not in data:
        raise ModelFileError("potential", "required")
    section = data["potential"]
    kind = section["kind"]
    if kind == "zero":
        return zero_potential(model)
    if kind == "birkhoff":
        values = section["values"]

        def arc_value(i: int, j: int) -> float:
            if not (1 <= i <= len(values) and 1 <= j <= len(values)):
                raise ValueError(f"arc value table has no entry for ({i}, {j})")
            return float(values[i - 1][j - 1])

        return birkhoff_potential(arc_value, model)
    if kind == "weighted":
        lam_spec = section["lambda"]
        if "geometric" in lam_spec:
            base = float(lam_spec["geometric"]["base"])
            return weighted_fullshift_potential(
                lambda a: base ** (-a), lam_tail_power=geometric_tail(base)
            )
        values = lam_spec["list"]
        table = {k + 1: float(v) for k, v in enumerate(values)}
        return weighted_fullshift_potential(table.__getitem__)
    if kind == "fiber_count":
        return fiber_count_potential()
    if kind == "cocycle":
        family = build_family(data)
        return cocycle_potential(family, model)
    raise ModelFileError("potential.kind", f"unknown kind {kind!r}")


def build_construction(data: dict) -> GeometricConstruction:
    if "construction" not in data:
        raise ModelFileError("construction", "required")
    section = data["construction"]
    if section["kind"] == "product":
        base = float(section["rho"]["geometric"]["base"])
        return product_construction(
            lambda a: base ** (-a), tail=geometric_tail(base)
        )
    return product_construction([float(v) for v in section["rho"]])


def build_measure(
    data: dict, sub: Optional[FiniteSubshift] = None
) -> MarkovCylinderMeasure:
    if "measure" not in data:
        raise ModelFileError("measure", "required")
    section = data["measure"]
    kind = section["kind"]
    if kind == "uniform_bernoulli":
        return uniform_bernoulli(section["m"])
    if kind == "bernoulli":
        probs = {k + 1: float(v) for k, v in enumerate(section["probs"])}
        return bernoulli_measure(probs, sub)
    if kind == "markov":
        pi = {k + 1: float(v) for k, v in enumerate(section["pi"])}
        p = {
            (i + 1, j + 1): float(v)
            for i, row in enumerate(section["p"])
            for j, v in enumerate(row)
            if v
        }
        symbols = tuple(sorted(pi))
        return markov_measure(symbols, pi, p, sub)
    raise ModelFileError("measure.kind", f"{kind!r} is not a markov-kind spec")
