"""Tests for the model-file schema: strict keys, field-naming errors, builders."""

import json
import math
import os

import pytest

from thermoshift.modelfile import (
    ModelFileError,
    build_construction,
    build_family,
    build_measure,
    build_model,
    build_potential,
    load_model_file,
)
from thermoshift.shift_core import truncate

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def write(tmp_path, payload) -> str:
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def load_error(tmp_path, payload) -> ModelFileError:
    with pytest.raises(ModelFileError) as info:
        load_model_file(write(tmp_path, payload))
    return info.value


def test_checked_in_fixtures_all_validate():
    for name in os.listdir(FIXTURES):
        if name in ("missing_potential.json", "unknown_key.json"):
            continue
        load_model_file(os.path.join(FIXTURES, name))


def test_error_rendering_names_the_field(tmp_path):
    err = load_error(tmp_path, {"model": {"name": "golden_mean"}, "potentail": {}})
    assert str(err) == "potentail: unknown key"
    assert err.field_name == "potentail"


def test_top_level_validation(tmp_path):
    assert load_error(tmp_path, {}).field_name == "model"
    err = load_error(tmp_path, {"model": {"name": "golden_mean"}, "version": 9})
    assert err.field_name == "version"
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ModelFileError, match="invalid JSON"):
        load_model_file(str(path))
    with pytest.raises(ModelFileError, match="no such file"):
        load_model_file(str(tmp_path / "absent.json"))


def test_model_section_validation(tmp_path):
    assert load_error(tmp_path, {"model": {}}).field_name == "model"
    assert load_error(
        tmp_path, {"model": {"name": "golden-mean"}}
    ).field_name == "model.name"
    assert load_error(
        tmp_path, {"model": {"arcs": [[1, 0]]}}
    ).field_name == "model.arcs"
    assert load_error(
        tmp_path, {"model": {"name": "full", "arcs": [[1, 1]]}}
    ).field_name == "model.arcs"


def test_potential_section_validation(tmp_path):
    base = {"model": {"name": "full"}}
    assert load_error(
        tmp_path, {**base, "potential": {}}
    ).field_name == "potential.kind"
    assert load_error(
        tmp_path, {**base, "potential": {"kind": "mystery"}}
    ).field_name == "potential.kind"
    assert load_error(
        tmp_path, {**base, "potential": {"kind": "birkhoff", "values": [[1, 2]]}}
    ).field_name == "potential.values"
    assert load_error(
        tmp_path,
        {**base, "potential": {"kind": "weighted", "lambda": {"list": [1.5]}}},
    ).field_name == "potential.lambda.list"
    assert load_error(
        tmp_path,
        {**base, "potential": {"kind": "weighted",
                               "lambda": {"geometric": {"base": 0.5}}}},
    ).args == ("potential.lambda.geometric.base: must exceed 1",)
    assert load_error(
        tmp_path,
        {**base, "potential": {"kind": "weighted", "lambda": {"geometric": 3}}},
    ).field_name == "potential.lambda.geometric"
    assert load_error(
        tmp_path, {**base, "potential": {"kind": "fiber_count"}}
    ).field_name == "potential.kind"
    assert load_error(
        tmp_path, {**base, "potential": {"kind": "cocycle"}}
    ).field_name == "matrices"


def test_matrices_section_validation(tmp_path):
    base = {"model": {"arcs": [[1, 1]]}}
    assert load_error(
        tmp_path, {**base, "matrices": {"list": [[[1]]]}}
    ).field_name == "matrices.d"
    assert load_error(
        tmp_path, {**base, "matrices": {"d": 2, "list": [[[1, 2]]]}}
    ).field_name == "matrices.list"
    assert load_error(
        tmp_path,
        {**base, "matrices": {"d": 1, "list": [[[1]]],
                              "tail": {"kind": "geometric", "ratio": 2}}},
    ).field_name == "matrices.tail.ratio"
    assert load_error(
        tmp_path,
        {**base, "matrices": {"d": 1, "list": [[[1]]],
                              "tail": {"kind": "harmonic", "ratio": 0.5}}},
    ).field_name == "matrices.tail.kind"
    assert load_error(
        tmp_path, {**base, "matrices": {"d": 1, "list": [[[1]]], "tail": 0.5}}
    ).field_name == "matrices.tail"
    assert load_error(
        tmp_path, {**base, "matrices": {"d": True, "list": [[[1]]]}}
    ).field_name == "matrices.d"


def test_construction_section_validation(tmp_path):
    base = {"model": {"arcs": [[1, 1], [1, 2], [2, 1], [2, 2]]}}
    assert load_error(
        tmp_path, {**base, "construction": {"kind": "affine"}}
    ).field_name == "construction.kind"
    assert load_error(
        tmp_path, {**base, "construction": {"kind": "list", "rho": [0.5, 1.0]}}
    ).field_name == "construction.rho"
    assert load_error(
        tmp_path, {**base, "construction": {"kind": "product", "rho": [0.5]}}
    ).field_name == "construction.rho"
    assert load_error(
        tmp_path,
        {**base, "construction": {"kind": "product", "rho": {"geometric": 3}}},
    ).field_name == "construction.rho.geometric"


def test_measure_section_validation(tmp_path):
    base = {"model": {"name": "full"}}
    assert load_error(
        tmp_path, {**base, "measure": {"kind": "poisson"}}
    ).field_name == "measure.kind"
    assert load_error(
        tmp_path, {**base, "measure": {"kind": "bernoulli", "probs": [0.7, 0.7]}}
    ).field_name == "measure.probs"
    assert load_error(
        tmp_path,
        {**base, "measure": {"kind": "markov", "pi": [0.5, 0.5], "p": [[1.0]]}},
    ).field_name == "measure.p"
    assert load_error(
        tmp_path, {**base, "measure": {"kind": "uniform_bernoulli", "m": 0}}
    ).field_name == "measure.m"
    assert load_error(
        tmp_path, {**base, "measure": {"kind": "uniform_bernoulli", "m": True}}
    ).field_name == "measure.m"
    assert load_error(
        tmp_path, {**base, "measure": {"kind": "bernoulli", "probs": ["a", 1]}}
    ).field_name == "measure.probs"
    assert load_error(
        tmp_path,
        {**base, "measure": {"kind": "markov", "pi": ["a", 1],
                             "p": [[1.0, 0.0], [1.0, 0.0]]}},
    ).field_name == "measure.pi"
    assert load_error(
        tmp_path,
        {**base, "measure": {"kind": "markov", "pi": [1.0, 0.0],
                             "p": [["a", 0.0], [1.0, 0.0]]}},
    ).field_name == "measure.p"
    # The finite Gibbs measure is chosen by params.level, not by a measure kind.
    assert load_error(
        tmp_path, {**base, "measure": {"kind": "nu", "level": 3}}
    ).field_name == "measure.kind"


def test_params_section_validation(tmp_path):
    base = {"model": {"name": "full"}}
    assert load_error(
        tmp_path, {**base, "params": {"nmax": 4}}
    ).field_name == "params.nmax"
    assert load_error(
        tmp_path, {**base, "params": {"truncations": [8, 8]}}
    ).field_name == "params.truncations"
    assert load_error(
        tmp_path, {**base, "params": {"t_grid": [1.0, 0.5]}}
    ).field_name == "params.t_grid"
    assert load_error(
        tmp_path, {**base, "params": {"tol": 0.0}}
    ).field_name == "params.tol"
    assert load_error(
        tmp_path, {**base, "params": {"n_max": -3}}
    ).field_name == "params.n_max"
    assert load_error(
        tmp_path, {**base, "params": {"t_bracket": [1.0, 0.5]}}
    ).field_name == "params.t_bracket"
    for key in ("slope_window", "divergence_run", "n_max", "level", "depth",
                "samples", "n"):
        assert load_error(
            tmp_path, {**base, "params": {key: 0}}
        ).field_name == f"params.{key}"
    assert load_error(
        tmp_path, {**base, "params": {"tol": "abc"}}
    ).field_name == "params.tol"
    assert load_error(
        tmp_path, {**base, "params": {"witness": [0]}}
    ).field_name == "params.witness"
    assert load_error(
        tmp_path, {**base, "params": {"symbol_bound": 99999}}
    ).field_name == "params.symbol_bound"


def test_builders_produce_working_objects(tmp_path):
    data = load_model_file(write(tmp_path, {
        "model": {"arcs": [[1, 1], [1, 2], [2, 1]]},
        "potential": {"kind": "birkhoff", "values": [[0.1, 0.2], [0.3, 0.4]]},
        "measure": {"kind": "uniform_bernoulli", "m": 2},
        "params": {"truncations": [2]},
    }))
    model = build_model(data)
    assert model.alphabet_size == 2
    assert not model.rule(2, 2)
    p = build_potential(data, model)
    assert p.eval((1, 2)) == pytest.approx(0.2 + 0.3, abs=1e-15)
    # The golden-mean arcs drop 2 -> 2, which the uniform measure charges.
    with pytest.raises(ModelFileError, match="measure.m: the uniform Bernoulli"):
        build_measure(data)
    full = load_model_file(write(tmp_path, {
        "model": {"arcs": [[1, 1], [1, 2], [2, 1], [2, 2]]},
        "measure": {"kind": "uniform_bernoulli", "m": 2},
    }))
    mu = build_measure(full)
    assert mu.pi(1) == pytest.approx(0.5, abs=1e-15)
    assert mu.transition(2, 2) == pytest.approx(0.5, abs=1e-15)


def test_weighted_and_family_builders(tmp_path):
    data = load_model_file(write(tmp_path, {
        "model": {"name": "full"},
        "potential": {"kind": "weighted", "lambda": {"geometric": {"base": 3}}},
        "matrices": {"d": 1, "list": [[[0.5]], [[0.25]]],
                     "tail": {"kind": "geometric", "ratio": 0.5}},
    }))
    p = build_potential(data, build_model(data))
    assert p.log_sup_f1(2) == pytest.approx(math.log(1.0 / 9.0), abs=1e-12)
    assert p.sup_f1_tail(10) == pytest.approx(3.0 ** (-11) / (1 - 1 / 3), abs=1e-15)
    fam = build_family(data)
    assert fam.norm(2) == 0.25
    # The geometric tail is rounded up: at least the exact 1, by at most its rounding pad.
    assert 1.0 <= fam.norm_tail(0) <= 1.0 + 2e-15
    listed = load_model_file(write(tmp_path, {
        "model": {"name": "full"},
        "potential": {"kind": "weighted", "lambda": {"list": [0.5, 0.25]}},
    }))
    p = build_potential(listed, build_model(listed))
    assert p.log_sup_f1(2) == pytest.approx(math.log(0.25), abs=1e-15)


def test_construction_builders(tmp_path):
    data = load_model_file(write(tmp_path, {
        "model": {"name": "full"},
        "construction": {"kind": "product", "rho": {"geometric": {"base": 3}}},
    }))
    p = build_construction(data).potential(build_model(data))
    assert p.sup_f1(2) == pytest.approx(1.0 / 9.0, abs=1e-15)
    assert math.isfinite(p.sup_f1_tail(10))
    data2 = load_model_file(write(tmp_path, {
        "model": {"arcs": [[1, 1], [1, 2], [2, 1], [2, 2]]},
        "construction": {"kind": "list", "rho": [0.5, 0.25]},
    }))
    p2 = build_construction(data2).potential(build_model(data2))
    assert math.exp(p2.eval((1, 2))) == pytest.approx(0.125, abs=1e-15)


def test_markov_measure_builder_uses_subshift(tmp_path):
    data = load_model_file(write(tmp_path, {
        "model": {"name": "golden_mean"},
        "measure": {"kind": "markov", "pi": [0.5, 0.5],
                    "p": [[0.5, 0.5], [1.0, 0.0]]},
    }))
    model = build_model(data)
    sub = truncate(model, 2)
    with pytest.raises(ValueError, match="not stationary"):
        build_measure(data, sub)
    # Without a subshift, the measure is checked on the file's truncated model.
    with pytest.raises(ValueError, match="not stationary"):
        build_measure(data)
    uniform = load_model_file(write(tmp_path, {
        "model": {"name": "golden_mean"},
        "measure": {"kind": "markov", "pi": [0.5, 0.5],
                    "p": [[0.5, 0.5], [0.5, 0.5]]},
    }))
    with pytest.raises(ValueError, match="2->2 is not an admissible arc"):
        build_measure(uniform)
    # An integer too large for a float is no number: the file check refuses it.
    with pytest.raises(ModelFileError, match="measure.p: entries must be"):
        load_model_file(write(tmp_path, {
            "model": {"name": "full"},
            "measure": {"kind": "markov", "pi": [0.5, 0.5], "p": [[10 ** 400, 0], [0, 1]]},
        }))


def test_missing_sections_raise_named_requirements(tmp_path):
    data = load_model_file(write(tmp_path, {"model": {"name": "full"}}))
    with pytest.raises(ModelFileError, match="potential: required"):
        build_potential(data, build_model(data))
    with pytest.raises(ModelFileError, match="construction: required"):
        build_construction(data)
    with pytest.raises(ModelFileError, match="measure: required"):
        build_measure(data)
