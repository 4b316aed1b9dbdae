"""Every name a semloc module exports in ``__all__`` exists on it."""

import importlib
import pkgutil

import pytest

import semloc

_MODULES = sorted(m.name for m in pkgutil.iter_modules(semloc.__path__, "semloc."))


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
