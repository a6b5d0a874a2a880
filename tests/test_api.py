"""Every name a module exports in ``__all__`` exists on that module, and
the package itself exports nothing.

A stale ``__all__`` entry does not fail at import; only ``from module
import *`` trips over it.  This keeps the export lists honest as names are
deleted.
"""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import hardykpz

MODULES = sorted(m.name for m in pkgutil.iter_modules(hardykpz.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"hardykpz.{name}")
    missing = [entry for entry in getattr(module, "__all__", [])
               if not hasattr(module, entry)]
    assert missing == [], f"hardykpz.{name}.__all__ names missing {missing}"


def test_package_import_loads_no_numpy_or_scipy():
    """``import hardykpz`` re-exports nothing, so it imports no module that
    needs numpy or scipy; each module states its API once, in ``__all__``."""
    code = ("import sys, hardykpz; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'scipy') or m.startswith('hardykpz.')))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
