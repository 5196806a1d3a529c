"""Tests for the package's public names."""

import thermoshift


def test_every_exported_name_resolves_and_appears_once():
    names = thermoshift.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(thermoshift, name)]
    assert missing == []
