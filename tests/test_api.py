"""Every name a module exports in ``__all__`` exists on that module.

A stale ``__all__`` entry does not fail at import; only ``from module
import *`` trips over it.  This keeps the export lists honest as names are
deleted.
"""

import importlib
import pkgutil

import pytest

import hardykpz

MODULES = sorted(m.name for m in pkgutil.iter_modules(hardykpz.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"hardykpz.{name}")
    missing = [entry for entry in getattr(module, "__all__", [])
               if not hasattr(module, entry)]
    assert missing == [], f"hardykpz.{name}.__all__ names missing {missing}"
