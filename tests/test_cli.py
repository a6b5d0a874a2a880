"""Command-line front end: exit codes, artifacts, byte-identical replay."""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace

import pytest

from hardykpz import cli, solver, sweep, util
from hardykpz import radialop as ro
from hardykpz import specfun as sf

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

N, S = 3, 0.75
LAM = sf.hardy_constant(N, S) / 2
REP = sf.exponents_for(N, S, LAM)


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "hardykpz.cli", *args],
                          capture_output=True, text=True)


def tree_digest(d, skip=()):
    h = hashlib.sha256()
    for name in sorted(os.listdir(d)):
        if name in skip:
            continue
        h.update(name.encode())
        h.update(open(os.path.join(d, name), "rb").read())
    return h.hexdigest()


def test_cli_import_leaves_scipy_optimize_out():
    """Importing the command line loads no scipy module at all, scipy.optimize
    included: the runtime needs numpy only, and scipy's import was the larger
    part of each command's start-up time and peak memory."""
    code = ("import sys, hardykpz.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_every_command_runs_without_scipy(tmp_path):
    """No command imports scipy lazily: after constants, exponents, oracle,
    solve (undamped and damped), probe and a serial sweep, one interpreter
    holds no scipy module."""
    run = {"problem": {"N": N, "s": S, "lambda": LAM, "p": 1.3, "mu": 1e-3},
           "grid": {"R": 1.0, "M": 32, "g": 2.0}, "controls": {"n_levels": 6},
           "source": {"coefficient": 0.3, "exponent": 2 * S}}
    plan = {"problem": run["problem"], "grid": run["grid"], "source": run["source"],
            "axes": [{"name": "p", "start": 1.25, "stop": 1.35, "count": 2}],
            "n_levels": 6}
    configs = {"solve": {**run, "supersolution": "auto"}, "probe": run,
               "solve-damped": {**run, "alpha_damp": 1.0}, "sweep": {"plan": plan}}
    commands = [["constants", "--N", "3", "--s", "0.75"],
                ["exponents", "--N", "3", "--s", "0.75", "--lambda", repr(LAM)],
                ["oracle", "--N", "3", "--s", "0.75", "--theta", "0.5", "--M", "32",
                 "--tolerance", "1"]]
    for name, cfg in configs.items():
        path = os.path.join(tmp_path, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        commands.append([name.split("-")[0], "--config", path, "--output-dir",
                         os.path.join(tmp_path, name)]
                        + (["--workers", "1"] if name == "sweep" else []))
    code = ("import json, sys\n"
            "from hardykpz import cli\n"
            f"codes = [cli.main(argv) for argv in {commands!r}]\n"
            "sys.stderr.write(json.dumps({'codes': codes, 'scipy': sorted(\n"
            "    m for m in sys.modules if m.startswith('scipy'))}))\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stderr.splitlines()[-1]) == {"codes": [0] * 7, "scipy": []}


def test_constants_ok_and_value():
    r = run_cli("constants", "--N", "3", "--s", "0.75")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["hardy_constant"] == pytest.approx(sf.hardy_constant(3, 0.75), rel=1e-15)
    assert payload["normalizing_constant"] == pytest.approx(
        sf.normalizing_constant(3, 0.75), rel=1e-15)


def test_constants_domain_exit_codes():
    assert run_cli("constants", "--N", "1", "--s", "0.75").returncode == 2
    r = run_cli("constants", "--N", "3", "--s", "1.0")
    assert r.returncode == 2
    assert "0 < s < 1" in r.stderr


def test_exponents_single_and_errors(tmp_path):
    r = run_cli("exponents", "--N", "3", "--s", "0.75", "--lambda", str(LAM))
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["p_plus"] == pytest.approx(REP.p_plus, rel=1e-15)
    assert run_cli("exponents", "--N", "3", "--s", "0.75", "--lambda", "9").returncode == 2
    # boundary value prints the degenerate pair
    r = run_cli("exponents", "--N", "3", "--s", "0.75",
                "--lambda", repr(sf.hardy_constant(3, 0.75)))
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["p_plus"] == pytest.approx(payload["p_minus"], rel=1e-12)


@pytest.mark.parametrize("argv, code, named", [
    # a tiny lambda has its root: p_plus is 2s to rounding
    (["exponents", "--N", "3", "--s", "0.75", "--lambda", "1e-16"], 0, None),
    # at s < 0.12 the root of a tiny lambda misses its residual rule
    (["exponents", "--N", "8", "--s", "0.05", "--lambda", "1e-20"], 1, "residual"),
    # a_{N,s} exceeds the double range
    (["constants", "--N", "1000", "--s", "0.75"], 2, "N=1000"),
    (["exponents", "--N", "1000", "--s", "0.75", "--lambda", "1"], 2, "N=1000"),
])
def test_constants_layer_exits_without_traceback(argv, code, named):
    r = run_cli(*argv)
    assert r.returncode == code, r.stderr
    assert "Traceback" not in r.stderr
    if code == 0:
        assert json.loads(r.stdout)["p_plus"] == pytest.approx(1.5, rel=1e-12)
    else:
        assert r.stderr.startswith("error: ") and named in r.stderr


_HUGE = "1" + "0" * 400


@pytest.mark.parametrize("argv, code, named", [
    (["constants", "--N", _HUGE, "--s", "0.75"], 2, "--N exceeds the double range"),
    (["exponents", "--N", _HUGE, "--s", "0.75", "--lambda", "0.1"], 2,
     "--N exceeds the double range"),
    (["oracle", "--N", _HUGE, "--s", "0.75", "--theta", "0.5"], 2,
     "--N exceeds the double range"),
    # the kernel's connection constants overflow a double
    (["oracle", "--N", "343", "--s", "0.75", "--theta", "10", "--M", "16",
      "--tolerance", "1"], 1, "kernel connection constants overflow at N=343"),
], ids=["constants-huge-N", "exponents-huge-N", "oracle-huge-N", "oracle-N-343"])
def test_dimension_beyond_double_range_exits_without_traceback(argv, code, named):
    r = run_cli(*argv)
    assert r.returncode == code, r.stderr
    assert r.stderr == f"error: {named}\n"


def test_sweep_lambda_axis_from_tiny_lambda(tmp_path):
    """Every cell of a lambda axis that starts at 1e-16 has its exponents, so
    the sweep runs."""
    plan = {"problem": {"N": N, "s": S, "lambda": LAM, "p": 1.3, "mu": 1e-3},
            "grid": {"R": 1.0, "M": 32, "g": 2.0},
            "source": {"coefficient": 0.3, "exponent": 2 * S},
            "axes": [{"name": "lambda", "start": 1e-16, "stop": LAM, "count": 2}],
            "n_levels": 6}
    path = os.path.join(tmp_path, "sweep.json")
    with open(path, "w") as fh:
        json.dump({"plan": plan}, fh)
    out = os.path.join(tmp_path, "out")
    r = run_cli("sweep", "--config", path, "--output-dir", out, "--workers", "1")
    assert r.returncode == 0, r.stderr
    with open(os.path.join(out, "cells.csv")) as fh:
        assert len(fh.read().strip().splitlines()) == 3


def test_exponents_table(tmp_path):
    out = os.path.join(tmp_path, "tab.csv")
    r = run_cli("exponents", "--N", "3", "--s", "0.75", "--table",
                "--lambda-min", "0.05", "--lambda-max", "0.4", "--count", "5",
                "--out", out)
    assert r.returncode == 0
    lines = open(out).read().strip().splitlines()
    assert len(lines) == 6
    for count in ("-1", "0"):
        r = run_cli("exponents", "--N", "3", "--s", "0.75", "--table",
                    "--lambda-min", "0.05", "--lambda-max", "0.4", "--count", count,
                    "--out", out)
        assert r.returncode == 2
        assert "--count" in r.stderr


@pytest.mark.parametrize("argv, named", [
    (["--N", "3", "--theta", "0.3", "--M", "16", "--g", "60"], "N=3, M=16, g=60.0"),
    (["--N", "3", "--theta", "0.3", "--M", "16", "--g", "100"], "N=3, M=16, g=100.0"),
    (["--N", "100", "--theta", "0.5", "--M", "64"], "N=100, M=64, g=2.0"),
], ids=["g-60", "g-100", "N-100"])
def test_non_finite_assembly_exits_1_without_warnings(argv, named):
    """A grid whose first node takes the kernel's powers out of the double
    range is refused by the assembly, before the calibration: the g = 60 case
    used to report a pass on a matrix holding inf, the others ended in a
    failed calibration fit after a screen of RuntimeWarnings."""
    r = run_cli("oracle", "--s", "0.75", "--tolerance", "1", *argv)
    assert r.returncode == 1, r.stderr
    assert r.stderr.startswith(
        f"error: the assembled operator holds a non-finite entry at {named}, r_1=")
    assert len(r.stderr.splitlines()) == 1 and "Warning" not in r.stderr


def test_oracle_pass_fail(tmp_path):
    r = run_cli("oracle", "--N", "3", "--s", "0.75", "--theta",
                repr(REP.mu_exp), "--M", "100")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["passed"] and payload["max_rel_error"] <= 0.02
    # absurdly tight tolerance: exit 1 for CI use
    r = run_cli("oracle", "--N", "3", "--s", "0.75", "--theta",
                repr(REP.mu_exp), "--M", "100", "--tolerance", "1e-9")
    assert r.returncode == 1
    # domain error: exit 2
    assert run_cli("oracle", "--N", "3", "--s", "0.75", "--theta", "3.0").returncode == 2


def test_oracle_refine_reports_recomputed_values():
    theta = REP.mu_exp
    r = run_cli("oracle", "--N", "3", "--s", "0.75", "--theta", repr(theta),
                "--M", "48", "--refine")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    op = ro.assemble_operator(ro.build_grid(1.0, 48, 2.0, N), S)
    op2 = ro.assemble_operator(ro.build_grid(1.0, 96, 2.0, N), S)
    err = ro.oracle_power_test(op, theta, 0.1)
    radii2, rel2, _ = ro.power_test_profile(op2, theta, 0.1)
    err2 = rel2[radii2 >= op.oracle_r_min].max()
    assert payload["max_rel_error"] == pytest.approx(err, rel=1e-12)
    assert payload["refined_error"] == pytest.approx(err2, rel=1e-12)
    assert payload["refinement_ratio"] == pytest.approx(err / err2, rel=1e-12)


@pytest.fixture(scope="module")
def solve_cfg(tmp_path_factory):
    cfg = {
        "problem": {"N": N, "s": S, "lambda": LAM, "p": 0.9 * REP.p_plus, "mu": 1e-3},
        "grid": {"R": 1.0, "M": 64, "g": 2.0},
        "controls": {"n_levels": 15},
        "source": {"coefficient": 0.3, "exponent": 2 * S},
        "supersolution": "auto",
    }
    path = tmp_path_factory.mktemp("cfg") / "solve.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_solve_artifacts_and_replay(solve_cfg, tmp_path):
    d1 = os.path.join(tmp_path, "r1")
    d2 = os.path.join(tmp_path, "r2")
    r = run_cli("solve", "--config", solve_cfg, "--output-dir", d1)
    assert r.returncode == 0
    assert sorted(os.listdir(d1)) == ["field.csv", "report.json",
                                      "resolved_config.json", "trace.csv"]
    report = json.loads(open(os.path.join(d1, "report.json")).read())
    assert report["status"] == "Converged"
    # replay from the emitted resolved config reproduces every byte
    r2 = run_cli("solve", "--config", os.path.join(d1, "resolved_config.json"),
                 "--output-dir", d2)
    assert r2.returncode == 0
    assert tree_digest(d1) == tree_digest(d2)


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _csv_rows(path):
    with open(path) as fh:
        return [line.split(",") for line in fh.read().splitlines()
                if line and not line.startswith("#")][1:]


def test_blas_thread_count_moves_only_trailing_digits(tmp_path, monkeypatch):
    """README's reproducibility contract: bytes hold at a fixed BLAS thread
    count, while statuses, inner iterations and counters hold across thread
    counts and fields agree to 1e-12 relative.  The package itself sets no
    thread variable."""
    for var in _THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    code = ("import os, hardykpz.cli, hardykpz.sweep\n"
            f"print(sorted(v for v in {_THREAD_VARS!r} if v in os.environ))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0 and r.stdout.strip() == "[]", r.stderr
    solve = _solve_cfg(grid={"R": 1.0, "M": 200, "g": 2.0}, supersolution="auto",
                       controls={"n_levels": 13})
    plan = _sweep_cfg(grid={"R": 1.0, "M": 200, "g": 2.0},
                      axes=[{"name": "p", "start": 1.3, "stop": 1.5, "count": 2}])
    seen = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        for command, cfg in (("solve", solve), ("sweep", plan)):
            path = os.path.join(tmp_path, f"{command}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            out = os.path.join(tmp_path, f"{command}-{threads}")
            r = run_cli(command, "--config", path, "--output-dir", out)
            assert r.returncode == 0, r.stderr
        seen[threads] = (
            json.loads(open(os.path.join(tmp_path, f"solve-{threads}", "report.json")).read()),
            _csv_rows(os.path.join(tmp_path, f"solve-{threads}", "trace.csv")),
            _csv_rows(os.path.join(tmp_path, f"solve-{threads}", "field.csv")),
            _csv_rows(os.path.join(tmp_path, f"sweep-{threads}", "cells.csv")))
    (rep1, trace1, field1, cells1), (rep2, trace2, field2, cells2) = seen["1"], seen["2"]
    assert rep1["status"] == rep2["status"] == "Converged"
    assert [row[:2] for row in trace1] == [row[:2] for row in trace2]
    u1 = [float(row[1]) for row in field1]
    u2 = [float(row[1]) for row in field2]
    assert max(abs(a - b) for a, b in zip(u1, u2)) <= 1e-12 * max(map(abs, u1))
    # index, p, status and inner_iters equal; the sup-norms within 1e-12
    assert [row[:3] + row[4:5] for row in cells1] == [row[:3] + row[4:5] for row in cells2]
    assert [row[2] for row in cells1] == ["Converged", "BlowUp"]
    for row1, row2 in zip(cells1, cells2):
        assert float(row1[3]) == pytest.approx(float(row2[3]), rel=1e-12, abs=0.0)


def test_solve_malformed_config(tmp_path):
    bad = os.path.join(tmp_path, "bad.json")
    open(bad, "w").write(json.dumps({"problem": {"N": 3, "s": 0.75}}))
    r = run_cli("solve", "--config", bad, "--output-dir", str(tmp_path))
    assert r.returncode == 2
    assert "lambda" in r.stderr  # names the offending key
    assert run_cli("solve", "--config", os.path.join(tmp_path, "nope.json"),
                   "--output-dir", str(tmp_path)).returncode == 2


def test_blowup_is_data_not_failure(tmp_path):
    cfg = {
        "problem": {"N": N, "s": S, "lambda": LAM, "p": 1.1 * REP.p_plus, "mu": 1e-3},
        "grid": {"R": 1.0, "M": 64, "g": 2.0},
        "controls": {"n_levels": 15},
        "source": {"coefficient": 0.3, "exponent": 2 * S},
        "supersolution": "none",
    }
    path = os.path.join(tmp_path, "cfg.json")
    open(path, "w").write(json.dumps(cfg))
    r = run_cli("solve", "--config", path, "--output-dir", str(tmp_path))
    assert r.returncode == 0
    report = json.loads(open(os.path.join(tmp_path, "report.json")).read())
    assert report["status"] == "BlowUp"


def test_damped_cli(tmp_path):
    cfg = {
        "problem": {"N": N, "s": S, "lambda": LAM, "p": 2 * S - 0.05, "mu": 1e-4},
        "grid": {"R": 1.0, "M": 64, "g": 2.0},
        "controls": {"n_levels": 15},
        "source": {"coefficient": 1.0, "exponent": 0.5},
        "alpha_damp": 2 * S - 1 + 0.5,
        "supersolution": "auto",
    }
    path = os.path.join(tmp_path, "cfg.json")
    open(path, "w").write(json.dumps(cfg))
    r = run_cli("solve", "--config", path, "--output-dir", str(tmp_path))
    assert r.returncode == 0
    report = json.loads(open(os.path.join(tmp_path, "report.json")).read())
    assert report["status"] == "Converged"


def test_damped_auto_near_lambda_exits_1(capsys, tmp_path):
    # the damped window is too narrow for any profile exponent
    lam = sf.hardy_constant(N, S) * (1.0 - 1e-10)
    cfg = _damped_cfg(problem={"N": N, "s": S, "lambda": lam, "p": 2 * S - 0.05},
                      supersolution="auto")
    code, err = _main(capsys, tmp_path, "solve", cfg)
    assert code == 1
    assert "no ladder exponent" in err


@pytest.mark.parametrize("mu, margin", [(100.0, 29.42), (3000.0, 898.86)])
def test_damped_auto_barrier_counts_the_source(capsys, tmp_path, mu, margin):
    # the damped amplitude grows with the source: at mu = 3000 it is 14513,
    # and half of A gap covers mu C = 900 there; the fixed amplitude 2^8
    # refused this run
    cfg = {"problem": {"N": 3, "s": 0.75, "lambda": 0.11, "p": 1.2, "mu": mu},
           "grid": {"R": 1.0, "M": 100, "g": 2.0}, "controls": {"n_levels": 13},
           "source": {"coefficient": 0.3, "exponent": 1.5},
           "supersolution": "auto", "alpha_damp": 1.0}
    assert _main(capsys, tmp_path, "solve", cfg)[0] == 0
    with open(os.path.join(tmp_path, "out", "report.json")) as fh:
        report = json.load(fh)
    assert report["status"] == "Converged"
    spec = report["supersolution"]
    assert spec["f_bound_exponent"] == 1.5
    assert spec["margin"] == pytest.approx(margin, abs=5e-3)
    assert report["sup_norm"] <= report["sup_bound"]


def test_damped_auto_amplitude_beyond_the_double_range_exits_1(capsys, tmp_path):
    # s near 1/2 and alpha just above 2s - 1: q = p - alpha lies within 1e-6
    # of 1, and the amplitude's power 1/(1-q) overflows at every exponent
    s = 0.51
    cfg = _solve_cfg(problem={"N": N, "s": s, "lambda": sf.hardy_constant(N, s) / 2,
                              "p": 2 * s - 1e-6, "mu": 1e-3},
                     alpha_damp=2 * s - 1 + 1e-9, supersolution="auto")
    code, err = _main(capsys, tmp_path, "solve", cfg)
    assert code == 1
    assert "amplitude leaves the double range" in err
    assert "mu too large" not in err   # the damped amplitude grows with mu
    assert "Traceback" not in err and "Warning" not in err


def test_dirichlet_auto_refusal_names_mu(capsys, tmp_path):
    # the Dirichlet amplitude is capped by the balance root, so a large
    # source scale leaves its margin no room
    code, err = _main(capsys, tmp_path, "solve",
                      _solve_cfg(problem={"N": N, "s": S, "lambda": LAM, "p": 1.3, "mu": 1e6},
                                 supersolution="auto"))
    assert code == 1
    assert "no ladder exponent" in err and "mu too large" in err
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("mu", [100.0, 3000.0])
def test_damped_run_without_a_barrier_has_no_undamped_bound(capsys, tmp_path, mu):
    # the source-free bound holds for alpha = 0 only: without a barrier a
    # damped run has no bound (null), so only the sup-norm cap can call it
    # BlowUp, and it computes the field of the same run with the auto barrier
    fields = {}
    for sup in ("auto", "none"):
        cfg = {"problem": {"N": 3, "s": 0.75, "lambda": 0.11, "p": 1.2, "mu": mu},
               "grid": {"R": 1.0, "M": 100, "g": 2.0}, "controls": {"n_levels": 13},
               "source": {"coefficient": 0.3, "exponent": 1.5},
               "supersolution": sup, "alpha_damp": 1.0}
        os.makedirs(os.path.join(tmp_path, sup))
        assert _main(capsys, os.path.join(tmp_path, sup), "solve", cfg)[0] == 0
        out = os.path.join(tmp_path, sup, "out")
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        assert report["status"] == "Converged", sup
        fields[sup] = open(os.path.join(out, "field.csv"), "rb").read()
    assert report["sup_bound"] is None
    assert fields["none"] == fields["auto"]


def test_solve_alpha_damp_is_the_damped_scheme(capsys, tmp_path):
    """`solve` with alpha_damp writes the field of solve_damped called
    directly, and "alpha_damp": 0 writes the artifacts of a config without
    the key."""
    def artifacts(name, cfg):
        d = os.path.join(tmp_path, name)
        os.makedirs(d)
        assert _main(capsys, d, "solve", cfg)[0] == 0
        return [open(os.path.join(d, "out", f), "rb").read()
                for f in ("field.csv", "trace.csv")]
    field, _ = artifacts("damped", _damped_cfg())
    params, grid, controls, f = solver.run_inputs(_solve_cfg())
    rep = solver.solve_damped(replace(params, alpha_damp=2 * S - 1 + 0.5), f,
                              ro.assemble_operator(grid, S), controls=controls)
    path = os.path.join(tmp_path, "direct.csv")
    ro.save_field(grid, rep.field, path)
    assert field == open(path, "rb").read()
    assert artifacts("zero", _solve_cfg(alpha_damp=0)) == artifacts("absent", _solve_cfg())


def test_sweep_cli_checkpoint(tmp_path):
    cfg = {"plan": {
        "problem": {"N": N, "s": S, "lambda": LAM, "p": 1.3, "mu": 1e-3},
        "grid": {"R": 1.0, "M": 32, "g": 2.0},
        "axes": [{"name": "p", "start": 1.25, "stop": 1.55, "count": 4}],
        "source": {"coefficient": 0.3, "exponent": 2 * S},
        "n_levels": 12,
    }}
    path = os.path.join(tmp_path, "cfg.json")
    open(path, "w").write(json.dumps(cfg))
    d = os.path.join(tmp_path, "out")
    r = run_cli("sweep", "--config", path, "--output-dir", d)
    assert r.returncode == 0
    before = tree_digest(d)
    r = run_cli("sweep", "--config", path, "--output-dir", d)  # resume
    assert r.returncode == 0
    assert tree_digest(d) == before


def test_sweep_cli_refuses_another_plan(tmp_path):
    def plan(start, stop):
        return {"plan": {
            "problem": {"N": N, "s": S, "lambda": LAM, "p": 1.3, "mu": 1e-3},
            "grid": {"R": 1.0, "M": 32, "g": 2.0},
            "axes": [{"name": "p", "start": start, "stop": stop, "count": 2}],
            "source": {"coefficient": 0.3, "exponent": 2 * S},
            "n_levels": 10,
        }}
    old = os.path.join(tmp_path, "old.json")
    new = os.path.join(tmp_path, "new.json")
    open(old, "w").write(json.dumps(plan(1.1, 1.3)))
    open(new, "w").write(json.dumps(plan(1.4, 1.6)))
    d = os.path.join(tmp_path, "out")
    assert run_cli("sweep", "--config", old, "--output-dir", d).returncode == 0
    r = run_cli("sweep", "--config", new, "--output-dir", d)
    assert r.returncode == 2
    assert "--no-resume" in r.stderr
    r = run_cli("sweep", "--config", new, "--output-dir", d, "--no-resume")
    assert r.returncode == 0
    rows = open(os.path.join(d, "cells.csv")).read().strip().splitlines()[1:]
    assert [float(row.split(",")[1]) for row in rows] == [1.4, 1.6]


def test_probe_cli(tmp_path):
    cfg = {
        "problem": {"N": N, "s": S, "lambda": LAM, "p": 0.9 * REP.p_plus, "mu": 1e-3},
        "grid": {"R": 1.0, "M": 48, "g": 2.0},
        "controls": {"n_levels": 13},
        "source": {"coefficient": 0.3, "exponent": 2 * S},
    }
    path = os.path.join(tmp_path, "cfg.json")
    open(path, "w").write(json.dumps(cfg))
    r = run_cli("probe", "--config", path, "--output-dir", str(tmp_path))
    assert r.returncode == 0
    payload = json.loads(open(os.path.join(tmp_path, "probe.json")).read())
    assert payload["status"] == "bracketed"
    assert payload["mu_hi"] / payload["mu_lo"] <= 1.05


def _edge_cfg(mu):
    """A small run config whose source scale ``mu`` is at the edge of the doubles."""
    return _solve_cfg(problem={"N": N, "s": S, "lambda": 0.2, "p": 1.25, "mu": mu},
                      controls={"n_levels": 8},
                      source={"coefficient": 0.3, "exponent": 1.5})


@pytest.mark.parametrize("mu0, first", [(1e-300, 1e-8), (1e300, 1e8)],
                         ids=["below-the-floor", "above-the-cap"])
def test_probe_starts_inside_its_range(capsys, tmp_path, mu0, first):
    # a start outside [1e-8, 1e8] is clamped to it: below, the probe does
    # not step up from 1e-300; above, its first run does not overflow
    code, err = _main(capsys, tmp_path, "probe", _edge_cfg(mu0))
    assert code == 0, err
    payload = json.loads(open(os.path.join(tmp_path, "out", "probe.json")).read())
    mus = [mu for mu, _ in payload["evaluations"]]
    assert mus[0] == first
    assert all(1e-8 <= mu <= 1e8 for mu in mus)
    assert payload["status"] == "bracketed"


def test_a_diverging_solve_prints_one_error_line(tmp_path):
    # mu = 1e300 overflows the first level's right-hand side; the scheme's
    # non-finite check alone reports it, with no numpy warning before it,
    # also when warnings are errors
    path = os.path.join(tmp_path, "cfg.json")
    open(path, "w").write(json.dumps(_edge_cfg(1e300)))
    r = subprocess.run([sys.executable, "-m", "hardykpz.cli", "solve", "--config", path,
                        "--output-dir", str(tmp_path / "out")], capture_output=True, text=True,
                       env={**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"})
    assert r.returncode == 1
    assert r.stderr.splitlines() == ["error: non-finite iterate at truncation level 1.0"]


def _strict_json(path):
    def refuse(constant):
        raise ValueError(f"{path} holds the non-standard constant {constant}")
    with open(path) as fh:
        return json.loads(fh.read(), parse_constant=refuse)


def test_artifacts_are_strict_json(capsys, tmp_path):
    """A NaN or an infinity is written as null: a solve at lambda = 0 with no
    barrier has an infinite sup bound, a run that does not converge has no
    finiteness diagnostics, and an inconclusive probe has no bracket."""
    problem = {"N": N, "s": S, "lambda": LAM, "p": 1.3, "mu": 1e-3}
    cases = [
        ("solve", _solve_cfg(problem={**problem, "lambda": 0.0}), "report.json",
         "Converged", ["sup_bound"]),
        ("solve", _solve_cfg(problem={**problem, "p": 1.1 * REP.p_plus}), "report.json",
         "BlowUp", ["fixed_point_residual", "gradient_lp_integral", "hardy_l1_integral"]),
        ("probe", _solve_cfg(source={"coefficient": 0.0, "exponent": 2 * S}), "probe.json",
         "inconclusive", ["mu_lo", "mu_hi"]),
    ]
    for command, cfg, name, status, nulls in cases:
        code, err = _main(capsys, tmp_path, command, cfg)
        assert code == 0, err
        payload = _strict_json(os.path.join(tmp_path, "out", name))
        assert payload["status"] == status
        assert all(payload[key] is None for key in nulls), (name, payload)


def test_help_documents_domains():
    r = run_cli("constants", "--help")
    assert r.returncode == 0
    assert "N > 2s" in r.stdout
    r = run_cli("oracle", "--help")
    assert "(0, N-2s)" in r.stdout


# --------------------------------------------- malformed input exits 2

def _sweep_cfg(**over):
    plan = {
        "problem": {"N": N, "s": S, "lambda": LAM, "p": 1.3, "mu": 1e-3},
        "grid": {"R": 1.0, "M": 32, "g": 2.0},
        "axes": [{"name": "p", "start": 1.25, "stop": 1.35, "count": 2}],
        "source": {"coefficient": 0.3, "exponent": 2 * S},
        "n_levels": 10,
    }
    plan.update(over)
    return {"plan": plan}


def _solve_cfg(**over):
    cfg = {
        "problem": {"N": N, "s": S, "lambda": LAM, "p": 1.3, "mu": 1e-3},
        "grid": {"R": 1.0, "M": 32, "g": 2.0},
        "controls": {"n_levels": 10},
        "source": {"coefficient": 0.3, "exponent": 2 * S},
    }
    cfg.update(over)
    return cfg


def _damped_cfg(**over):
    return _solve_cfg(alpha_damp=2 * S - 1 + 0.5, **over)


def _main(capsys, tmp_path, command, cfg, *extra):
    """Exit code and stderr of an in-process CLI run on the config ``cfg``."""
    path = os.path.join(tmp_path, "cfg.json")
    with open(path, "w") as fh:
        fh.write(cfg if isinstance(cfg, str) else json.dumps(cfg))
    code = cli.main([command, "--config", path,
                     "--output-dir", os.path.join(tmp_path, "out"), *extra])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, named", [
    ("sweep", _sweep_cfg(problem={"s": S, "lambda": LAM, "p": 1.3}), "'N'"),
    ("sweep", _sweep_cfg(controls={"n_levels": 12}), "'controls'"),
    ("solve", _solve_cfg(controls={"picard_maxx": 10}), "picard_maxx"),
    ("sweep", _sweep_cfg(controls={"picard_maxx": 10}), "'controls'"),
    ("sweep", _sweep_cfg(workers=2), "workers"),
    ("sweep", _sweep_cfg(axes=[{"name": "p", "start": 1.25, "stop": 1.35,
                                "count": 2, "step": 0.1}]), "step"),
    ("sweep", _sweep_cfg(source={"coefficient": -0.3, "exponent": 2 * S}),
     "coefficient"),
    ("solve", "[1, 2]", "cfg.json"),
    ("solve", _solve_cfg(grid={"R": 1.0, "M": "abc", "g": 2.0}), "grid key 'M'"),
    ("solve", _solve_cfg(controls={"n_levels": "x"}), "controls key 'n_levels'"),
    ("solve", _solve_cfg(controls=5), "controls must be a JSON object"),
    ("solve", _solve_cfg(controls={"picard_max": 10}), "picard_max"),
    ("sweep", _sweep_cfg(controls={}), "'controls'"),
    ("solve", _damped_cfg(supersolution={"f_bound_exponent": 2 * S,
                                         "f_bound_coef": 0.3}), "supersolution"),
    ("solve", _damped_cfg(supersolution="Auto"), "supersolution"),
    ("probe", _solve_cfg(supersolution={"bogus": 1}), "supersolution"),
    ("probe", _solve_cfg(probe={"rel_width": "abc"}), "'probe' in config"),
    ("probe", _solve_cfg(probe={"mu_floor": None}), "'probe' in config"),
    ("probe", _solve_cfg(probe={"mu_cap": True}), "'probe' in config"),
    ("probe", _solve_cfg(probe=5), "'probe' in config"),
    ("sweep", _sweep_cfg(axes=[{"name": "p", "start": 1.25, "stop": 1.35,
                                "count": "3"}]), "axis key 'count'"),
    ("sweep", _sweep_cfg(axes=[{"name": "p", "start": 1.25, "stop": 1.35,
                                "count": 2.5}]), "axis key 'count'"),
    ("sweep", _sweep_cfg(axes=[{"name": "p", "start": "1.25", "stop": 1.35,
                                "count": 2}]), "axis key 'start'"),
    ("sweep", _sweep_cfg(axes=[{"name": "p", "start": 1.25, "stop": None,
                                "count": 2}]), "axis key 'stop'"),
    ("sweep", _sweep_cfg(axes=5), "'axes'"),
    ("sweep", _sweep_cfg(budget="4096"), "unknown key 'budget' in plan"),
    ("sweep", _sweep_cfg(kind="kpz"), "unknown key 'kind' in plan"),
    ("sweep", _sweep_cfg(alpha_damp="x"), "plan key 'alpha_damp'"),
    ("solve", _solve_cfg(grid={"R": 1.0, "M": "32", "g": 2.0}), "grid key 'M'"),
    ("solve", _solve_cfg(problem={"N": N, "s": S, "lambda": LAM, "p": 1.3, "MU": 1e-3}),
     "'MU' in problem"),
    ("solve", _solve_cfg(grid={"R": 1.0, "M": 32, "G": 2.0}), "'G' in grid"),
    ("solve", _solve_cfg(source={"coefficient": 0.3, "exponant": 2 * S}),
     "'exponant' in source"),
    ("solve", _solve_cfg(supersolutoin="auto"), "'supersolutoin' in config"),
    ("probe", _solve_cfg(probe={"rel_width": 0.05}), "'probe' in config"),
    ("probe", _damped_cfg(), "'alpha_damp' in config"),
    ("solve", _damped_cfg(c=1e-4), "'c' in config"),
    ("sweep", {**_sweep_cfg(), "workers": 2}, "'workers' in config"),
    ("sweep", _sweep_cfg(problem={"N": N, "s": S, "lambda": LAM, "p": 1.3, "MU": 1e-3}),
     "'MU' in problem"),
    ("sweep", _sweep_cfg(n_levels="8"), "plan key 'n_levels'"),
    ("solve", _solve_cfg(controls={"n_levels": 1100}), "'n_levels' must be at most 1024"),
    ("sweep", _sweep_cfg(n_levels=1025), "'n_levels' must be at most 1024"),
    ("solve", _solve_cfg(controls={"n_levels": 0}), "'n_levels'"),
    ("sweep", _sweep_cfg(n_levels=0), "'n_levels'"),
    ("solve", _solve_cfg(grid={"R": 1.0, "M": 16, "g": 300.0}), "g=300.0"),
    ("solve", _solve_cfg(grid={"R": 1e120, "M": 32, "g": 2.0}), "R=1e+120"),
], ids=["sweep-missing-N", "sweep-plan-n_levels", "solve-unknown-control",
        "sweep-unknown-control", "sweep-unknown-plan-key", "sweep-unknown-axis-key",
        "sweep-negative-source", "solve-non-object-config", "solve-grid-M-not-int",
        "solve-n_levels-not-int", "solve-non-object-controls", "solve-control-picard_max",
        "sweep-plan-controls",
        "damped-explicit-supersolution", "damped-supersolution-Auto",
        "probe-supersolution-object",
        "probe-rel_width-string", "probe-mu_floor-null", "probe-mu_cap-bool",
        "probe-non-object-block", "sweep-count-string", "sweep-count-fraction",
        "sweep-start-string", "sweep-stop-null", "sweep-axes-not-list",
        "sweep-budget-string", "sweep-kind-key", "sweep-alpha_damp-string",
        "solve-grid-M-string",
        "solve-problem-typo", "solve-grid-typo", "solve-source-typo",
        "solve-top-level-typo", "probe-block-typo", "probe-alpha_damp",
        "damped-c", "sweep-top-level-key",
        "sweep-problem-typo", "sweep-n_levels-string", "solve-n_levels-overflow",
        "sweep-n_levels-overflow", "solve-n_levels-zero", "sweep-n_levels-zero",
        "solve-degenerate-grid", "solve-radius-overflows-the-weights"])
def test_malformed_input_exits_2(capsys, tmp_path, command, cfg, named):
    code, err = _main(capsys, tmp_path, command, cfg)
    assert code == 2
    assert named in err
    # a plan-wide error stops the sweep before any cell is written
    assert not os.path.exists(os.path.join(tmp_path, "out", "cells.csv"))


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("argv, cfg, named", [
    (["exponents", "--N", "3", "--s", "0.75", "--lambda", "nan"], None,
     "lambda must be positive, got nan"),
    (["oracle", "--N", "3", "--s", "0.75", "--theta", "0.5", "--g", "nan"], None,
     "grading exponent must satisfy g >= 1, got g=nan"),
    (["oracle", "--N", "3", "--s", "0.75", "--theta", "0.5", "--R", "nan"], None,
     "domain radius must be positive, got R=nan"),
    (["solve"], _solve_cfg(problem={"N": N, "s": S, "lambda": _NAN, "p": 1.3}),
     "problem key 'lambda' must be a finite float, got nan"),
    (["solve"], _solve_cfg(problem={"N": N, "s": S, "lambda": LAM, "p": 1.3, "mu": _INF}),
     "problem key 'mu' must be a finite float, got inf"),
    (["solve"], _solve_cfg(grid={"R": _NAN, "M": 32}), "grid key 'R'"),
    (["solve"], _solve_cfg(source={"coefficient": _NAN, "exponent": 2 * S}),
     "source key 'coefficient'"),
    (["solve"], _solve_cfg(alpha_damp=_NAN), "config key 'alpha_damp'"),
    (["sweep"], _sweep_cfg(axes=[{"name": "p", "start": _NAN, "stop": 1.35,
                                  "count": 2}]), "axis key 'start'"),
], ids=["exponents-lambda", "oracle-g", "oracle-R", "solve-lambda", "solve-mu-inf",
        "solve-R", "solve-source", "damped-alpha_damp", "sweep-axis-start"])
def test_non_finite_numbers_exit_2(capsys, tmp_path, monkeypatch, argv, cfg, named):
    # Python's json reads and writes NaN and Infinity; both are refused

    def no_assembly(*args, **kwargs):
        raise AssertionError("an operator was assembled for a non-finite input")
    monkeypatch.setattr(ro, "assemble_operator", no_assembly)
    if cfg is None:
        code, err = cli.main(argv), capsys.readouterr().err
    else:
        code, err = _main(capsys, tmp_path, argv[0], json.dumps(cfg))
    assert code == 2
    assert named in err


def _no_assembly(monkeypatch):
    def no_assembly(*args, **kwargs):
        raise AssertionError("an operator was assembled for an input with an error")
    monkeypatch.setattr(ro, "assemble_operator", no_assembly)


@pytest.mark.parametrize("theta", ["0", "-0.5", "1.5", "5", "nan"])
def test_oracle_theta_exits_2_before_assembly(capsys, monkeypatch, theta):
    # at N = 3, s = 3/4 the oracle exponents are (0, N-2s) = (0, 1.5)
    _no_assembly(monkeypatch)
    code = cli.main(["oracle", "--N", "3", "--s", "0.75", "--theta", theta, "--M", "32"])
    assert code == 2
    assert f"power exponent must lie in (0, N-2s) = (0, 1.5), got {float(theta)}" \
        in capsys.readouterr().err


_HUGE_SIZE = str(10**30)


@pytest.mark.parametrize("argv, cfg, named", [
    (["oracle", "--N", "3", "--s", "0.75", "--theta", "0.5", "--M", _HUGE_SIZE], None,
     f"need 16 to 10000 nodes, got M={_HUGE_SIZE}"),
    # the refined grid 2M is refused before the grid M is assembled
    (["oracle", "--N", "3", "--s", "0.75", "--theta", "0.5", "--M", "5001", "--refine"],
     None, "need 16 to 10000 nodes, got M=10002"),
    (["exponents", "--N", "3", "--s", "0.75", "--table", "--lambda-min", "0.1",
      "--lambda-max", "0.2", "--count", _HUGE_SIZE], None,
     f"--count must lie in [1, 100000], got {_HUGE_SIZE}"),
    (["solve"], _solve_cfg(grid={"M": 10**30}), f"need 16 to 10000 nodes, got M={_HUGE_SIZE}"),
], ids=["oracle-M", "oracle-refine-M", "exponents-count", "solve-grid-M"])
def test_huge_sizes_exit_2_before_assembly(capsys, tmp_path, monkeypatch, argv, cfg, named):
    """A size beyond its cap is a configuration error naming the flag or key,
    not numpy's "Maximum allowed size exceeded" traceback."""
    _no_assembly(monkeypatch)
    if cfg is None:
        code, err = cli.main(argv), capsys.readouterr().err
    else:
        code, err = _main(capsys, tmp_path, argv[0], cfg)
    assert code == 2
    assert err == f"error: {named}\n"


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
def test_oracle_tolerance_exits_2(capsys, monkeypatch, tolerance):
    _no_assembly(monkeypatch)
    code = cli.main(["oracle", "--N", "3", "--s", "0.75", "--theta", "0.5", "--M", "32",
                     "--tolerance", tolerance])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: --tolerance must be a positive finite number, "
                            f"got {float(tolerance)}\n")


@pytest.mark.parametrize("command", ["solve", "probe", "sweep"])
@pytest.mark.parametrize("content", [b"\xff", b"{", b"[" * 100_000],
                         ids=["undecodable", "truncated", "nested-too-deep"])
def test_config_that_is_not_json_text_exits_2(capsys, tmp_path, command, content):
    path = os.path.join(tmp_path, "cfg.json")
    with open(path, "wb") as fh:
        fh.write(content)
    code = cli.main([command, "--config", path, "--output-dir", os.path.join(tmp_path, "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: config file {path} is not valid JSON: ")


def test_config_path_that_is_a_directory_exits_2(capsys, tmp_path):
    code = cli.main(["solve", "--config", str(tmp_path), "--output-dir",
                     os.path.join(tmp_path, "out")])
    assert code == 2
    assert capsys.readouterr().err == f"error: config file {tmp_path} cannot be read: " \
                                      "Is a directory\n"


@pytest.mark.parametrize("supersolution", ["none", "auto"])
def test_damped_negative_exponent_exits_2_before_assembly(capsys, tmp_path, monkeypatch,
                                                          supersolution):
    calls = []
    assemble = ro.assemble_operator

    def counting(*args, **kwargs):
        calls.append(args)
        return assemble(*args, **kwargs)
    monkeypatch.setattr(ro, "assemble_operator", counting)
    cfg = {**_damped_cfg(supersolution=supersolution), "alpha_damp": -0.5}
    code, err = _main(capsys, tmp_path, "solve", cfg)
    assert code == 2
    assert err == "error: damping exponent must be nonnegative\n"
    assert calls == []


@pytest.mark.parametrize("over, named", [
    ({"axes": [{"name": "alpha_damp", "start": -0.5, "stop": 1.0, "count": 4}]},
     "sweep cell 0 {'alpha_damp': -0.5}: damping exponent must be nonnegative"),
    ({"problem": {"N": N, "s": S, "lambda": 0.0, "p": 1.3, "mu": 1e-3}},
     "sweep cell 0 {'p': 1.25}: lambda must be positive"),
], ids=["damped-negative-cell", "lambda-zero"])
def test_plan_errors_exit_2_before_assembly(capsys, tmp_path, monkeypatch, over, named):
    def no_assembly(*args, **kwargs):
        raise AssertionError("an operator was assembled for a plan with an error")
    monkeypatch.setattr(ro, "assemble_operator", no_assembly)
    code, err = _main(capsys, tmp_path, "sweep", _sweep_cfg(**over))
    assert code == 2
    assert named in err
    assert not os.path.exists(os.path.join(tmp_path, "out"))


@pytest.mark.parametrize("probe", [
    {"rel_width": 0.0}, {"rel_width": -0.1}, {"mu_floor": 0.0}, {"mu_floor": -1.0},
    {"mu_floor": 1.0, "mu_cap": 1.0}, {"mu_floor": 2.0, "mu_cap": 1.0},
], ids=["rel_width-zero", "rel_width-negative", "mu_floor-zero", "mu_floor-negative",
        "mu_floor-equals-cap", "mu_floor-above-cap"])
def test_probe_bounds_exit_2_before_any_scheme(capsys, tmp_path, monkeypatch, probe):
    # the probe's bounds and width are fixed: a config that still sets them,
    # in or out of their old domain, is refused before any scheme runs
    def no_scheme(*args, **kwargs):
        raise AssertionError("a scheme ran on a config with a probe block")
    monkeypatch.setattr(solver, "solve_damped", no_scheme)
    code, err = _main(capsys, tmp_path, "probe", _solve_cfg(probe=probe))
    assert code == 2
    assert "unknown key 'probe' in config" in err


def test_readme_cli_examples_parse():
    """Every ``hardykpz`` line of README.md's bash blocks parses."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(r"```bash\n(.*?)```", fh.read(), re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("hardykpz ")]
    assert len(lines) >= 7
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.fn is getattr(cli, f"cmd_{args.command}")


def test_readme_configs_pass_the_readers(tmp_path):
    """The solve and sweep configs shown in README.md pass the config readers."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", fh.read(), re.S)]
    [run_cfg] = [b for b in blocks if "problem" in b]
    [sweep_cfg] = [b for b in blocks if "plan" in b]
    # the readers of `solve` and `probe`, then those of `sweep`
    path = os.path.join(tmp_path, "cfg.json")
    for cfg, keys in ((run_cfg, cli._RUN_KEYS), (sweep_cfg, cli._SWEEP_KEYS)):
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        assert cli._load_config(path, keys) == cfg
    solver.run_inputs(run_cfg)
    cli._auto_supersolution(run_cfg)
    sweep.SweepPlan.from_dict(sweep_cfg["plan"])


@pytest.mark.parametrize("workers", ["0", "-2"], ids=["flag-zero", "flag-negative"])
def test_worker_count_below_one_exits_2(capsys, tmp_path, monkeypatch, workers):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran with fewer than one worker")
    monkeypatch.setattr(sweep, "run_sweep", no_sweep)
    code, err = _main(capsys, tmp_path, "sweep", _sweep_cfg(), "--workers", workers)
    assert code == 2
    assert "--workers must be >= 1" in err


def test_sweep_workers_come_from_the_flag_alone(capsys, tmp_path, monkeypatch):
    # one worker without the flag; no environment variable sets the count
    monkeypatch.setenv("HARDYKPZ_WORKERS", "two")
    counts = []

    def recording(plan, out_dir, workers, resume):
        counts.append(workers)
        return sweep.RegionMap(cells=[], overlay={})
    monkeypatch.setattr(sweep, "run_sweep", recording)
    assert _main(capsys, tmp_path, "sweep", _sweep_cfg())[0] == 0
    assert counts == [1]


@pytest.mark.parametrize("command, cfg, artifacts", [
    ("solve", _solve_cfg(), ["field.csv", "report.json", "trace.csv"]),
    ("sweep", _sweep_cfg(), ["cells.csv", "overlay.json"]),
], ids=["solve", "sweep"])
def test_artifacts_land_in_the_working_directory_without_the_flag(tmp_path, monkeypatch,
                                                                  command, cfg, artifacts):
    # --output-dir alone names the artifact directory; no environment variable does
    monkeypatch.setenv("HARDYKPZ_OUTPUT_DIR", os.path.join(tmp_path, "env"))
    monkeypatch.chdir(tmp_path)
    with open("cfg.json", "w") as fh:
        json.dump(cfg, fh)
    assert cli.main([command, "--config", "cfg.json"]) == 0
    assert sorted(os.listdir(tmp_path)) == sorted(
        ["cfg.json", "resolved_config.json", *artifacts])


@pytest.mark.parametrize("command, cfg, extra", [
    ("solve", _solve_cfg(grid={"R": 1.0, "M": 8, "g": 2.0}), ()),
    ("probe", _solve_cfg(grid={"R": 1.0, "M": 8, "g": 2.0}), ()),
    ("sweep", _sweep_cfg(), ("--workers", "0")),
], ids=["solve-grid", "probe-grid", "sweep-workers"])
def test_refused_command_creates_no_directory(capsys, tmp_path, command, cfg, extra):
    code, err = _main(capsys, tmp_path, command, cfg, *extra)
    assert code == 2 and err.startswith("error: ")
    assert not os.path.exists(os.path.join(tmp_path, "out"))


def test_artifacts_do_not_depend_on_the_usable_cpus(capsys, tmp_path, monkeypatch):
    """One CPU or two: the same bytes from a solve whose assembly splits its
    rows, and from a 2-cell sweep whose pool and assembly follow the count."""
    grid = {"R": 1.0, "M": 200, "g": 2.0}
    runs = (("solve", _solve_cfg(grid=grid, supersolution="auto"), ()),
            ("sweep", _sweep_cfg(grid=grid), ("--workers", "2")))
    digests = {}
    for cpus in (1, 2):
        monkeypatch.setattr(util, "usable_cpus", lambda: cpus)
        for command, cfg, extra in runs:
            d = os.path.join(tmp_path, f"{command}-{cpus}")
            os.makedirs(d)
            assert _main(capsys, d, command, cfg, *extra)[0] == 0
            digests[command, cpus] = tree_digest(os.path.join(d, "out"))
    for command, _, _ in runs:
        assert digests[command, 1] == digests[command, 2], command


def test_sweep_grid_defaults_match_the_run_config(capsys, tmp_path):
    cells = []
    for name, grid in (("given", {"R": 1.0, "M": 32, "g": 2.0}), ("default", {"M": 32})):
        d = os.path.join(tmp_path, name)
        os.makedirs(d)
        assert _main(capsys, d, "sweep", _sweep_cfg(grid=grid))[0] == 0
        cells.append(open(os.path.join(d, "out", "cells.csv"), "rb").read())
    assert cells[0] == cells[1]
