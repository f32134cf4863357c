"""Every name a module exports in ``__all__`` exists in it."""

import importlib
import pkgutil

import pytest

import nclp

MODULES = sorted(m.name for m in pkgutil.iter_modules(nclp.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"nclp.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
