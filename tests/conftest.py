"""Shared test setup: child interpreters import the package from src/ and
treat a RuntimeWarning as an error, as the test process does."""

import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True)
def child_environment(monkeypatch):
    """Prepend src/ to PYTHONPATH, so that the interpreters a test starts
    (``python -m hardykpz.cli``, the tracer script) import this checkout's
    package whether or not it is installed, and add
    ``error::RuntimeWarning`` to PYTHONWARNINGS, so that a numpy warning
    fails them as it fails this process.  pytest's own ``pythonpath`` and
    ``filterwarnings`` settings reach only the test process."""
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    monkeypatch.setenv("PYTHONWARNINGS", ",".join(
        [w for w in [os.environ.get("PYTHONWARNINGS")] if w] + ["error::RuntimeWarning"]))
