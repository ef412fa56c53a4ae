"""The package's export list against what the package actually holds."""

from __future__ import annotations

import types

import flqkd


def test_export_list_matches_the_public_names():
    assert len(set(flqkd.__all__)) == len(flqkd.__all__)
    for name in flqkd.__all__:
        assert getattr(flqkd, name, None) is not None, name
    public = {
        name
        for name, value in vars(flqkd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(flqkd.__all__)
