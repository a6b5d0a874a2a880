"""Shared test setup: child interpreters import the package from src/."""

import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True)
def src_on_child_path(monkeypatch):
    """Prepend src/ to PYTHONPATH, so that the interpreters a test starts
    (``python -m hardykpz.cli``, the tracer script) import this checkout's
    package whether or not it is installed.  pytest's own ``pythonpath``
    setting reaches only the test process."""
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
