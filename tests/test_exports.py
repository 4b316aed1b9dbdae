"""Every name a semloc module exports in ``__all__`` exists on it, and every
frozen dataclass that holds numpy arrays derives from the one base that
makes them read-only."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import semloc
from semloc.geometry import _FrozenArrays

_MODULES = sorted(m.name for m in pkgutil.iter_modules(semloc.__path__, "semloc."))


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", _MODULES)
def test_frozen_array_types_derive_from_the_base(name):
    module = importlib.import_module(name)
    hand_rolled = [
        cls.__name__ for cls in vars(module).values()
        if inspect.isclass(cls) and cls.__module__ == name and dataclasses.is_dataclass(cls)
        and cls.__dataclass_params__.frozen
        and any("ndarray" in str(f.type) for f in dataclasses.fields(cls))
        and not issubclass(cls, _FrozenArrays)
    ]
    assert not hand_rolled, f"{name}: frozen array types outside _FrozenArrays: {hand_rolled}"
