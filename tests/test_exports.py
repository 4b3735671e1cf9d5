"""Every name a module exports through ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import ssetkit

MODULES = sorted(
    "ssetkit." + m.name for m in pkgutil.iter_modules(ssetkit.__path__)
)


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
