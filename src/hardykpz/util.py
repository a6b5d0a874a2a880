"""Small shared helpers: deterministic output (JSON and CSV), config hashing,
config blocks, the start method of child processes and the usable CPU count."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os

from .errors import ConfigError


# How every child process starts: forked, so that it inherits the parent's
# operator and plan instead of receiving them pickled (the assembly's row
# blocks and a sweep's pool).  None where fork is missing.
try:
    FORK = multiprocessing.get_context("fork")
except ValueError:
    FORK = None


def usable_cpus() -> int:
    """The CPUs this process may run on: the one count by which the
    assembly splits its rows and a sweep caps its pool.  1 where ``FORK``
    or ``os.sched_getaffinity`` is missing, so that nothing is split
    there."""
    if FORK is None or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def fmt17(x: float) -> str:
    """17-significant-digit repr so emitted numbers round-trip exactly."""
    return format(float(x), ".17g")


def csv_line(cells) -> str:
    """One CSV row, as every artifact writes it: a float by ``fmt17``, None
    as an empty cell, anything else by ``str``."""
    return ",".join("" if c is None else fmt17(c) if isinstance(c, float) else str(c)
                    for c in cells) + "\n"


def open_output(path: str, mode: str = "w"):
    """``open(path, mode)`` of an artifact; a path that cannot be written (a
    directory there, say) raises ConfigError naming it."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise ConfigError(f"artifact path {path} cannot be written: {exc.strerror}") from None


def make_output_dir(path: str) -> None:
    """``os.makedirs(path, exist_ok=True)``; a path that cannot be a directory
    (a regular file there, say) raises ConfigError naming it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {path} cannot be made: {exc.strerror}") from None


def write_csv(path: str, header: str, rows) -> None:
    """``header`` (its lines above the rows, each ending in a newline), then
    ``csv_line`` of every row."""
    with open_output(path) as fh:
        fh.write(header)
        fh.writelines(map(csv_line, rows))


def canonical_json(obj) -> str:
    """Key-order-independent JSON rendering used for hashing and replay."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    """Stable hex digest of a configuration mapping."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def _finite_or_null(obj):
    """``obj`` with every non-finite float in it replaced by None."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(item) for key, item in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(item) for item in obj]
    return obj


def json_text(obj) -> str:
    """Indented strict JSON with sorted keys, as every artifact writes it: a
    NaN or an infinity is written as null, since no JSON reader need accept
    them (the config readers refuse them)."""
    return json.dumps(_finite_or_null(obj), sort_keys=True, indent=1,
                      allow_nan=False) + "\n"


def write_json(path: str, obj) -> None:
    with open_output(path) as fh:
        fh.write(json_text(obj))


def known(block, keys, where: str) -> dict:
    """``block`` when it is a dict whose keys are all in ``keys``; otherwise
    ConfigError naming the block or the first unknown key.
    """
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object")
    for key in block:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in {where}")
    return block


def require(block, key: str, where: str):
    """``block[key]``; ConfigError naming the key (or the block) otherwise."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object")
    if key not in block:
        raise ConfigError(f"missing key {key!r} in {where}")
    return block[key]


_NO_DEFAULT = object()


def value(block, key: str, where: str, kind, default=_NO_DEFAULT):
    """``kind(block[key])`` (``kind`` is int or float), or ``default`` when
    given and the key is absent.

    A missing key, or a value that is not a finite number of that kind (a
    string, a boolean, NaN or an infinity, a fraction for int), raises
    ConfigError naming the block and the key.
    """
    if default is not _NO_DEFAULT and isinstance(block, dict) and key not in block:
        return default
    raw = require(block, key, where)
    try:
        if isinstance(raw, (str, bool)):
            raise TypeError
        out = kind(raw)
        if (kind is int and out != raw) or not math.isfinite(out):
            raise ValueError
        return out
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where} key {key!r} must be a finite {kind.__name__}, "
                          f"got {raw!r}") from None


def from_block(cls, block, where: str):
    """Dataclass ``cls`` from a config block whose keys are its field names.

    An unknown or missing key raises ConfigError naming it.
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    known(block, fields, where)
    for name, f in fields.items():
        if name not in block and f.default is dataclasses.MISSING \
                and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"missing key {name!r} in {where}")
    return cls(**block)
