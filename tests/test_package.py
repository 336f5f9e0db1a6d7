"""The package's public surface."""

import types

import toeprange


def test_all_names_resolve_once():
    assert len(toeprange.__all__) == len(set(toeprange.__all__))
    for name in toeprange.__all__:
        assert hasattr(toeprange, name), name


def test_all_is_every_public_binding():
    public = {
        name
        for name, value in vars(toeprange).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(toeprange.__all__) == public
