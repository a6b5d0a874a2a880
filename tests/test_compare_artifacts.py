"""The artifact comparison script: how it sizes a byte difference."""

import importlib.util
import math
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "compare_artifacts", os.path.join(ROOT, "tools", "compare_artifacts.py"))
ca = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ca)


def _result(field, report, cells, stdout=b""):
    return {"stdout": stdout, "files": {"out/field.csv": field, "out/report.json": report,
                                        "out/cells.csv": cells}}


def test_numbers_are_read_from_each_sized_artifact():
    result = _result(b"# radial field N=3,R=1,M=2,g=2\nr,value\n0.5,2.0\n1.0,0.25\n",
                     b'{"status": "Converged", "ok": true, "sup_norm": 2.0, "trace": [[1, 3e-9]]}',
                     b"index,p,status,sup_norm,inner_iters,note\n0,1.2,Converged,2.0,7,\n"
                     b"1,1.3,BlowUp,nan,9,\n",
                     b"max relative error 1.5e-3 at r=0.25\n")
    got = ca.numbers(result, "oracle")
    assert got["field.csv"] == [0.5, 2.0, 1.0, 0.25]
    assert got["report.json"] == [2.0, 1.0, 3e-9]
    assert got["sup_norm"][0] == 2.0 and math.isnan(got["sup_norm"][1])
    assert got["stdout"] == [1.5e-3, 0.25]
    assert "stdout" not in ca.numbers(result, "solve")


def test_largest_change_is_relative_to_the_larger_value():
    assert ca.largest_change([1.0, 4.0, math.nan], [1.0, 5.0, math.nan]) == 0.2
    assert ca.largest_change([1.0], [math.nan]) == math.inf
    assert ca.largest_change([1.0, 2.0], [1.0]) is None
    assert ca.largest_change([], []) == 0.0
