"""The shared output and process conventions of ``hardykpz.util``: one CSV
cell rule for every artifact, and one start method for every child process."""

import dataclasses
import math
import os

import numpy as np
import pytest

from hardykpz import util
from hardykpz.errors import ConfigError


def test_csv_line_writes_each_kind_of_cell():
    cells = [math.nan, math.inf, -math.inf, -0.0, np.float64(0.1), 2.0, 7, True, None,
             "a,b"]
    assert util.csv_line(cells) == "nan,inf,-inf,-0,0.10000000000000001,2,7,True,,a,b\n"


def test_write_csv_puts_the_header_above_one_line_per_row(tmp_path):
    path = os.path.join(tmp_path, "t.csv")
    util.write_csv(path, "# note\na,b\n", iter([(1, 0.5), (None, "x")]))
    assert open(path).read() == "# note\na,b\n1,0.5\n,x\n"


def test_children_are_forked_and_nothing_splits_without_fork(monkeypatch):
    assert util.FORK is None or util.FORK.get_start_method() == "fork"
    monkeypatch.setattr(util, "FORK", None)
    assert util.usable_cpus() == 1


@dataclasses.dataclass
class _Pair:
    first: int
    second: int = 0


@pytest.mark.parametrize("read, message", [
    (lambda: util.require(5, "first", "pair"), "pair must be a JSON object"),
    (lambda: util.require([1], "first", "pair"), "pair must be a JSON object"),
    (lambda: util.from_block(_Pair, {"second": 1}, "pair"), "missing key 'first' in pair"),
], ids=["require-number", "require-list", "from_block-missing"])
def test_block_readers_refuse_with_the_name(read, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        read()
