"""Tests for the package's public names."""

import importlib
import importlib.util
from pathlib import Path

import thermoshift


def test_every_exported_name_resolves_and_appears_once():
    names = thermoshift.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(thermoshift, name)]
    assert missing == []


def test_every_bench_span_target_resolves():
    # bench/spans.py wraps these functions by module and name, so a rename
    # fails here as well as in the traced bench pass.
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}"
        for _, module, names in spans.TARGETS
        for name in names
        if not callable(getattr(importlib.import_module(f"thermoshift.{module}"), name, None))
    ]
    assert missing == []
