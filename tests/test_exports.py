"""Every name a semloc module exports in ``__all__`` exists on it, every
dataclass that holds numpy arrays is frozen and derives from the one base
that makes them read-only, and a DenseMap is constructed from the eight
columns MAP1 stores."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import semloc
from semloc.geometry import _FrozenArrays
from semloc.semantic_map import DenseMap
from map_oracle import STORED_COLUMNS

_MODULES = sorted(m.name for m in pkgutil.iter_modules(semloc.__path__, "semloc."))


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


# Array-holding dataclasses that are not frozen _FrozenArrays, with the reason.
_MUTABLE_ARRAY_TYPES = {
    "semloc.synthetic.SyntheticDataset": "a mutable formats.Dataset container; a frozen "
                                         "dataclass cannot subclass a non-frozen one",
}


@pytest.mark.parametrize("name", _MODULES)
def test_frozen_array_types_derive_from_the_base(name):
    module = importlib.import_module(name)
    hand_rolled = [
        cls.__name__ for cls in vars(module).values()
        if inspect.isclass(cls) and cls.__module__ == name and dataclasses.is_dataclass(cls)
        and any("ndarray" in str(f.type) for f in dataclasses.fields(cls))
        and not (cls.__dataclass_params__.frozen and issubclass(cls, _FrozenArrays))
        and f"{name}.{cls.__name__}" not in _MUTABLE_ARRAY_TYPES
    ]
    assert not hand_rolled, f"{name}: array types outside frozen _FrozenArrays: {hand_rolled}"


def test_mutable_array_types_are_still_mutable_array_types():
    # every listed exception still exists, holds an array and is not frozen
    for path in _MUTABLE_ARRAY_TYPES:
        module, _, cls_name = path.rpartition(".")
        cls = getattr(importlib.import_module(module), cls_name)
        assert any("ndarray" in str(f.type) for f in dataclasses.fields(cls)), path
        assert not cls.__dataclass_params__.frozen, path


def test_dense_map_is_built_from_its_eight_stored_columns():
    # the constructor takes the eight columns MAP1 stores (and a copy or an
    # unpickled map passes only those); v_m and the gate's block bounds are
    # derived from them whenever a map is constructed
    fields = dataclasses.fields(DenseMap)
    assert tuple(f.name for f in fields if f.init) == STORED_COLUMNS
    assert [f.name for f in fields if not f.init] == ["v_m", "block_low", "block_high",
                                                      "block_reach"]
