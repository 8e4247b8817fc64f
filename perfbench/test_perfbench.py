"""Self-tests of the benchmark: python3 -m pytest perfbench -q

Every check must fail on a deliberately wrong output, and such a failure
must count as a failed operation rather than crash the run.  A short smoke
run must print every metric that BENCHMARK.json names, each above 0.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
os.chdir(ROOT)  # bench resolves src/ and its work directory from here
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench  # noqa: E402
import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402

os.makedirs(bench.WORK, exist_ok=True)


@pytest.fixture
def work_dir():
    """A scratch directory inside the checkout's benchmark work directory."""
    path = tempfile.mkdtemp(prefix="selftest-", dir=bench.WORK)
    yield pathlib.Path(path)
    shutil.rmtree(path, ignore_errors=True)


def _tally_of(op):
    tally = bench.Tally()
    tally.run(op)
    return tally


def _kink(entry="eq20+", k=1.3):
    from cahnallen import solutions

    return solutions.catalog_by_id(k)[entry]


# --- each check fails on a wrong output -------------------------------------


def test_corrupted_audit_fails_and_counts_as_failed_op():
    op = bench.Op(
        "verify",
        lambda out_dir: (out_dir,) + bench.run_cli_in_process(
            ["verify", "--corrupt", "eq20", "--out-dir", out_dir]),
        lambda out: bench._check_verify(*out, {"k": 1.0}))
    tally = _tally_of(op)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "exit code 1" in tally.unexpected[0]


def test_verdict_check_rejects_corrupted_rows(work_dir):
    code, _, _ = bench.run_cli_in_process(
        ["verify", "--corrupt", "eq20", "--out-dir", str(work_dir)])
    assert code == 1
    audit = checks.load_json(str(work_dir / "audit.json"))
    rows = [(r["entry_id"], r["reading"], r["verdict"] == "valid")
            for r in audit["rows"]]
    with pytest.raises(CheckFailed, match="eq20"):
        checks.check_verdicts(rows)


def test_wrong_run_results_fail_the_kink_checks():
    from cahnallen import simulate

    grid = simulate.Grid1D(*bench.RERUN_GRID)
    runs = bench.kink_runs(_kink(), [("rk4", grid, simulate.SimConfig(T=0.5))])
    assert bench.check_kink_runs("eq20+", runs)["rk4_linf_err"] > 0
    # the run of eq20+ checked as the mirror front eq20+r
    with pytest.raises(CheckFailed, match="front speed"):
        bench.check_kink_runs("eq20+r", runs)
    result = runs[0][3]
    result.snapshots[-1] = result.snapshots[-1] + 1e-3
    with pytest.raises(CheckFailed, match="closed form"):
        bench.check_kink_runs("eq20+", runs)


def test_flipped_speed_fails_the_profile_check():
    spec = replace(_kink(), w=-_kink().w)
    xs = np.linspace(-10.0, 10.0, 201)
    with pytest.raises(CheckFailed):
        checks.profile_linf_err("eq20+", xs, spec.eval(xs, np.full_like(xs, 1.0)),
                                1.0, checks.PROFILE_TOL)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "x"])
def test_csv_with_a_bad_row_fails(work_dir, bad):
    path = work_dir / "u.csv"
    path.write_text(f"x,u\n0.0,0.5\n1.0,{bad}\n")
    with pytest.raises(CheckFailed):
        checks.read_numeric_csv(str(path), ["x", "u"])


def test_json_with_nan_fails(work_dir):
    path = work_dir / "m.json"
    path.write_text('{"speed": NaN}')
    with pytest.raises(CheckFailed):
        checks.load_json(str(path))


def test_wrong_branch_speed_fails():
    k = 1.3
    speeds = [checks.BRANCH_SPEED_RATIO * k * s for s in (1, -1) * 4]
    checks.check_branch_speeds(speeds, k)
    with pytest.raises(CheckFailed):
        checks.check_branch_speeds(speeds[:-1] + [speeds[-1] * 1.001], k)
    with pytest.raises(CheckFailed):
        checks.check_branch_speeds([abs(s) for s in speeds], k)


def test_derive_output_with_a_failed_check_fails():
    code, out, err = bench.run_cli_in_process(["derive", "--k", "1.3"])
    bench._check_derive("", code, out, err, {"k": 1.3})
    with pytest.raises(CheckFailed):
        bench._check_derive("", code, out.replace("check ok", "check FAILED", 1),
                            err, {"k": 1.3})
    with pytest.raises(CheckFailed):
        bench._check_derive("", code, out, err, {"k": 1.4})


def test_wrong_order_fails():
    checks.check_orders([1.99, 2.01], "study")
    for order in (1.0, 3.0, float("nan")):
        with pytest.raises(CheckFailed):
            checks.check_orders([order], "study")


def test_energy_increase_and_overshoot_fail():
    u = [np.full(8, 0.5)]
    checks.check_periodic([2.0, 1.0, 1.0], u)
    with pytest.raises(CheckFailed, match="energy"):
        checks.check_periodic([2.0, 1.0, 1.5], u)
    with pytest.raises(CheckFailed, match="leaves"):
        checks.check_periodic([2.0, 1.0], [np.full(8, 1.01)])


def test_usage_error_check():
    bench._check_usage_error("", 2, "", "error: time step must be positive\n", {})
    with pytest.raises(CheckFailed):
        bench._check_usage_error("", 1, "", "Traceback (most recent ...)\n", {})


def test_kept_fault_is_failed_but_leaves_the_run_correct():
    op = bench.Op("bad-input", lambda out_dir: None,
                  lambda out: checks.require(False, "exit 1"), kept_fault=True)
    tally = _tally_of(op)
    assert (tally.attempted, tally.failed, tally.unexpected) == (1, 1, [])


def test_closed_form_solves_the_equation():
    # u_t = u_xx + u - u^3 by central differences on the benchmark's own form
    h = 1e-3
    x = np.linspace(-8.0, 8.0, 33)
    for entry in checks.KINKS:
        u = checks.kink_profile(entry, x, 0.3)
        u_t = (checks.kink_profile(entry, x, 0.3 + h)
               - checks.kink_profile(entry, x, 0.3 - h)) / (2 * h)
        u_xx = (checks.kink_profile(entry, x + h, 0.3) - 2 * u
                + checks.kink_profile(entry, x - h, 0.3)) / (h * h)
        assert np.max(np.abs(u_t - u_xx - u + u**3)) < 1e-5


# --- runs of the command ---------------------------------------------------------


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec


@pytest.mark.parametrize("workload", ["cli-cold", "exact-warm", "dynamics"])
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = _run(["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # only cli-cold's bad-input operation may fail, once per round of seven
    kept = result["attempted"] // 7 if workload == "cli-cold" else 0
    assert result["failed"] in (0, kept)
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_prints_every_per_layer_metric():
    proc = _run(["--workload", "dynamics", "--seed", "7", "--seconds", "1",
                 "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(work_dir):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), work_dir)
    shutil.copytree(HERE, work_dir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "dynamics", "--seed", "1", "--seconds", "1"],
                cwd=work_dir)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
