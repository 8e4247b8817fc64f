"""Command-line behavior: exit codes, file outputs, determinism."""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from cahnallen.cli import main, resolve_entry


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- derive -----------------------------------------------------------------


def test_derive_prints_grade_zero_line(capsys):
    code, out, _ = run(["derive"], capsys)
    assert code == 0
    assert "-A0 + A0^3 = 0" in out
    assert out.count("check ok:") >= 10
    assert "check FAILED" not in out


def test_derive_numeric_frame(capsys):
    code, out, _ = run(["derive", "--k", "2.0"], capsys)
    assert code == 0
    assert "numeric frame at k = 2" in out
    assert "4.2426406871192857" in out  # 3*sqrt2/2 * 2


def test_derive_numeric_output_matches_golden_file(capsys):
    # the trace, the numeric frame and every check line
    code, out, err = run(["derive", "--k", "1.37"], capsys)
    golden = pathlib.Path(__file__).parent / "data" / "derive_k1.37.txt"
    assert (code, err) == (0, "")
    assert out == golden.read_text()
    assert out.count("\ncheck ok: ") == 14


def test_broken_closed_form_chain_fails_derive(monkeypatch, capsys):
    from cahnallen.closure import ClosureBranch
    from cahnallen.qfield import Radical2

    monkeypatch.setattr(ClosureBranch, "s_scale",
                        property(lambda branch: Radical2.of(3)))
    code, out, err = run(["derive"], capsys)
    assert code == 1
    assert ("check FAILED: closed forms chain under differentiation\n"
            in out)
    assert out.count("check FAILED") == 1
    assert err == ""


# --- entry resolution ----------------------------------------------------------


def test_entry_id_with_wavenumber_suffix():
    spec = resolve_entry("eq20+k1", None)
    assert spec.entry_id == "eq20+" and spec.k == 1.0
    spec2 = resolve_entry("eq20+k2.5", None)
    assert spec2.k == 2.5
    spec3 = resolve_entry("eq24+coth", None)
    assert spec3.entry_id == "eq24+coth"


def test_unknown_entry_is_usage_error(tmp_path, capsys):
    code, _, err = run(["eval", "--entry", "nope", "--t", "0",
                        "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert err == ("error: unknown catalog entry 'nope';"
                   " run the catalog command for ids\n")


# --- eval / plot data -----------------------------------------------------------


def test_eval_kink_profile(tmp_path, capsys):
    code, _, _ = run(["eval", "--entry", "eq20+k1", "--t", "0",
                      "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    path = tmp_path / "eq20+_t0.csv"
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert rows.shape == (201, 2)
    xs, us = rows[:, 0], rows[:, 1]
    at_origin = us[np.argmin(np.abs(xs))]
    assert at_origin == 0.5
    # monotone increasing profile connecting 0 and 1
    assert np.all(np.diff(us) > 0)
    assert us[0] < 1e-2 and us[-1] > 1 - 1e-2


def test_eval_singular_profile_has_gap(tmp_path, capsys):
    code, _, _ = run(["eval", "--entry", "eq21+", "--t", "0",
                      "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    rows = np.loadtxt(tmp_path / "eq21+_t0.csv", delimiter=",", skiprows=1)
    assert rows.shape[0] < 201  # gap rows omitted, never NaN
    assert np.all(np.isfinite(rows))
    xs, us = rows[:, 0], rows[:, 1]
    # magnitude grows approaching the pole from both sides
    left = us[xs < -0.1]
    right = us[xs > 0.1]
    assert abs(left[-1]) > 10 * abs(left[0])
    assert abs(right[0]) > 10 * abs(right[-1])
    manifest = json.loads((tmp_path / "eval_manifest.json").read_text())
    assert any("omitted" in note for note in manifest["notes"])


def test_eval_profile_translates_with_time(tmp_path, capsys):
    code, _, _ = run(["eval", "--entry", "eq20+", "--t", "0,0.5",
                      "--x=-10,10,401", "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    r0 = np.loadtxt(tmp_path / "eq20+_t0.csv", delimiter=",", skiprows=1)
    r1 = np.loadtxt(tmp_path / "eq20+_t1.csv", delimiter=",", skiprows=1)
    spec = resolve_entry("eq20+", None)
    shift = -(spec.w / spec.k) * 0.5
    # u(x, t) = u(x - shift, 0): compare at interpolated points
    interp = np.interp(r1[:, 0] - shift, r0[:, 0], r0[:, 1])
    inside = (r1[:, 0] - shift > -10) & (r1[:, 0] - shift < 10)
    assert np.max(np.abs(r1[inside, 1] - interp[inside])) < 1e-4


@pytest.mark.parametrize("x", ["--x=-10,10,5", "--x=10,-10,21"])
def test_eval_takes_short_and_reversed_x_grids(x, tmp_path, capsys):
    code, _, _ = run(["eval", "--entry", "eq20+", "--t", "0", x,
                      "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    rows = (tmp_path / "eq20+_t0.csv").read_text().splitlines()
    assert len(rows) == 1 + int(x.rsplit(",", 1)[1])


def test_eval_is_byte_deterministic(tmp_path, capsys):
    for sub in ("a", "b"):
        os.makedirs(tmp_path / sub)
        code, _, _ = run(["eval", "--entry", "eq20+", "--t", "0,1",
                          "--out-dir", str(tmp_path / sub)], capsys)
        assert code == 0
    for name in ("eq20+_t0.csv", "eq20+_t1.csv", "eval_manifest.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


# --- catalog ---------------------------------------------------------------------


def test_catalog_table(tmp_path, capsys):
    code, out, _ = run(["catalog", "--k", "1.0", "--out-dir", str(tmp_path)],
                       capsys)
    assert code == 0
    lines = (tmp_path / "catalog.csv").read_text().splitlines()
    assert lines[0].startswith("entry_id,family_code,family,reading")
    assert len(lines) == 55
    assert any(line.startswith("eq24+coth,") and line.endswith(",valid")
               for line in lines)
    assert any(line.startswith("eq26+printed,") and line.endswith(",invalid")
               for line in lines)


# --- verify ------------------------------------------------------------------------


def test_verify_passes_and_writes_audit(tmp_path, capsys):
    code, out, _ = run(["verify", "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    audit = json.loads((tmp_path / "audit.json").read_text())
    assert len(audit["rows"]) == 54
    assert all(audit["family_valid"].values())
    assert len(audit["equivalences"]) == 8
    assert all(e["confirmed"] for e in audit["equivalences"])


def test_verify_corrupted_family_fails_and_names_it(tmp_path, capsys):
    code, _, err = run(["verify", "--corrupt", "eq20",
                        "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    assert "eq20" in err
    assert "eq20+" in err


def test_verify_custom_grid(tmp_path, capsys):
    code, _, _ = run(["verify", "--grid=-5,5,41,0,0.5,3",
                      "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    audit = json.loads((tmp_path / "audit.json").read_text())
    assert audit["grid"]["nx"] == 41


# --- simulate / convergence -----------------------------------------------------------


def test_simulate_writes_exports(tmp_path, capsys):
    code, out, _ = run(["simulate", "--entry", "eq20+", "--T", "0.2",
                        "--grid=-20,20,201", "--out-dir", str(tmp_path)],
                       capsys)
    assert code == 0
    assert "measured front speed" in out
    traj = np.loadtxt(tmp_path / "sim_eq20+_rk4_trajectory.csv",
                      delimiter=",", skiprows=1)
    assert traj.shape[1] == 2
    metrics = (tmp_path / "sim_eq20+_rk4_metrics.csv").read_text().splitlines()
    assert metrics[0] == "t,linf_error,l2_error,energy"
    snap0 = np.loadtxt(tmp_path / "sim_eq20+_rk4_t0.csv", delimiter=",",
                       skiprows=1)
    assert snap0.shape == (201, 2)
    manifest = json.loads((tmp_path / "simulate_manifest.json").read_text())
    assert manifest["parameters"]["measured_speed"] is not None
    assert manifest["parameters"]["boundary"] == "exact_dirichlet"


def test_simulate_imex(tmp_path, capsys):
    code, out, _ = run(["simulate", "--entry", "eq20+", "--T", "0.1",
                        "--grid=-15,15,151", "--scheme", "imex",
                        "--dt", "0.0005", "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    metrics = np.loadtxt(tmp_path / "sim_eq20+_imex_metrics.csv",
                         delimiter=",", skiprows=1)
    assert metrics[-1, 1] < 1e-3


def test_convergence_command(tmp_path, capsys):
    code, out, _ = run(["convergence", "--entry", "eq20+", "--levels", "3",
                        "--T", "0.25", "--grid=-20,20,101",
                        "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    rows = np.genfromtxt(tmp_path / "convergence_eq20+.csv", delimiter=",",
                         skip_header=1)
    assert rows.shape[0] == 3
    orders = rows[1:, 3]
    assert np.all(np.abs(orders - 2.0) < 0.3)


def test_convergence_csv_cells_are_finite_or_empty(tmp_path, capsys):
    code, _, _ = run(["convergence", "--entry", "eq20+", "--T", "0.05",
                      "--grid=-20,20,51", "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    lines = (tmp_path / "convergence_eq20+.csv").read_text().splitlines()
    assert lines[0] == "h,n,linf_error,observed_order"
    cells = [line.split(",") for line in lines[1:]]
    assert cells[0][3] == ""  # the first level has no order
    for cell in (c for row in cells for c in row if c):
        assert math.isfinite(float(cell)), cell


# --- exit code contract -----------------------------------------------------------------


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])  # missing required --entry
    assert exc.value.code == 2


def test_periodic_boundary_is_not_a_cli_option(tmp_path, capsys):
    # every catalog entry tends to different values at its two ends
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--entry", "eq20+", "--boundary", "periodic",
              "--T", "1", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_bad_time_step_is_usage_error(capsys):
    code, _, err = run(["simulate", "--entry", "eq20+", "--dt=-1"], capsys)
    assert code == 2
    assert "time step must be positive" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["catalog", "--k", "nan"],
    ["eval", "--entry", "eq20+", "--t", "nan"],
    ["simulate", "--entry", "eq20+", "--grid=-20,20,201", "--dt", "nan"],
    ["simulate", "--entry", "eq20+", "--T", "nan"],
], ids=["catalog-k", "eval-t", "simulate-dt", "simulate-T"])
def test_non_finite_input_is_usage_error(argv, tmp_path, capsys):
    code, _, err = run(argv + ["--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []  # no CSV, no manifest


@pytest.mark.parametrize("argv, reason", [
    (["eval", "--entry", "eq20+", "--t", "0", "--x=nan,10,201"],
     "is not a finite number"),
    (["simulate", "--entry", "eq20+", "--grid=-20,inf,201"],
     "is not a finite number"),
    (["verify", "--threshold", "nan"], "is not a finite number"),
    (["verify", "--grid=-10,10,41,0,nan,3"], "is not a finite number"),
    # a threshold at or below zero would fail every entry
    (["verify", "--threshold", "0"], "'0' is not a positive number"),
    (["verify", "--threshold=-1"], "'-1' is not a positive number"),
], ids=["eval-x", "simulate-grid", "verify-threshold", "verify-grid",
        "verify-threshold-zero", "verify-threshold-negative"])
def test_non_finite_option_is_rejected_by_the_parser(argv, reason, tmp_path,
                                                     capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert reason in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, reason", [
    (["convergence", "--entry", "eq20+", "--grid=1,0,10"],
     "--grid: empty grid interval"),
    (["simulate", "--entry", "eq20+", "--grid=-20,20,4"],
     "--grid: grid needs at least 8 points"),
    (["verify", "--grid=-10,10,1,0,1,3"],
     "--grid: grid needs nx >= 2 and nt >= 1"),
    (["eval", "--entry", "eq20+", "--t", "0", "--x=-10,10,0"],
     "--x: grid needs at least 1 point"),
], ids=["convergence-empty", "simulate-short", "verify-short", "eval-empty"])
def test_grid_reason_reaches_the_usage_error(argv, reason, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {reason}" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("k", ["0", "nan", "-1"])
def test_derive_rejects_unusable_wave_number_before_printing(k, capsys):
    code, out, err = run(["derive", f"--k={k}"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: wave number k") and "Traceback" not in err


def test_wave_number_whose_square_underflows_is_usage_error(tmp_path, capsys):
    code, _, err = run(["verify", "--k", "1e-300", "--out-dir", str(tmp_path)],
                       capsys)
    assert code == 2
    assert "underflows" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["derive", "--k", "1e155"],
    ["catalog", "--k", "1e155"],
    ["verify", "--k", "1e155"],
    ["eval", "--entry", "eq20+", "--t", "0", "--k", "1e200"],
], ids=["derive", "catalog", "verify", "eval"])
def test_wave_number_whose_square_overflows_is_usage_error(argv, tmp_path,
                                                           capsys):
    if argv[0] != "derive":
        argv = argv + ["--out-dir", str(tmp_path)]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: wave number k") and err.count("\n") == 1
    assert "k**2 overflows" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("scheme", ["rk4", "imex"])
def test_time_step_below_the_floor_is_usage_error(scheme, tmp_path, capsys):
    # a short T keeps the run small should the check ever let dt through
    code, _, err = run(["simulate", "--entry", "eq20+", "--T", "1e-13",
                        "--dt", "1e-15", "--scheme", scheme,
                        "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert err == "error: time step 1e-15 is below the smallest step 1e-14\n"
    assert list(tmp_path.iterdir()) == []


def test_missing_output_directory_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing"
    code, _, err = run(["eval", "--entry", "eq20+", "--t", "0",
                        "--out-dir", str(missing)], capsys)
    assert code == 2
    assert "does not exist" in err and "Traceback" not in err
    assert not missing.exists()


def test_derive_loads_no_scipy():
    import cahnallen

    src = os.path.dirname(os.path.dirname(cahnallen.__file__))
    probe = ("import sys, contextlib, io\n"
             "import cahnallen.cli as cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    assert cli.main(['derive']) == 0\n"
             "print(sorted(m for m in sys.modules"
             " if m.split('.')[0] in ('numpy', 'scipy')))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv, reason", [
    (["simulate", "--entry", "eq20+", "--dt=-1"],
     "time step must be positive and finite"),
    (["convergence", "--entry", "eq20+", "--T", "nan"],
     "final time must be positive and finite"),
], ids=["simulate-dt", "convergence-T"])
def test_bad_time_is_reported_before_numpy_loads(argv, reason, tmp_path):
    import cahnallen

    src = os.path.dirname(os.path.dirname(cahnallen.__file__))
    probe = ("import sys\n"
             "from cahnallen.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "print('numpy' in sys.modules)\n"
             "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", probe, *argv],
                          capture_output=True, text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {reason}\n"
    assert proc.stdout == "False\n"
    assert list(tmp_path.iterdir()) == []


def test_unknown_subcommand_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
