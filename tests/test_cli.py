"""Command-line behavior: exit codes, file outputs, determinism."""

import importlib
import json
import math
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cahnallen
from cahnallen import reduction, simulate
from cahnallen.cli import _floats, build_parser, main, resolve_entry
from cahnallen.simulate import Grid1D, SimConfig, integrate
from cahnallen.solutions import catalog_by_id


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


def _ulps(got, want, scale):
    """|got - want| in units of the last place of scale."""
    return np.abs(np.asarray(got) - np.asarray(want)) / np.spacing(scale)


def _array_profile(spec, xs, t):
    """x, u and |u0| + |amp*S| of the rows outside the singular zone, by
    the array evaluator."""
    xi = spec.xi(xs, t)
    mask = spec.regular_mask(xi)
    s, _ = spec._core(xi[mask])
    scale = np.abs(spec.u0) + np.abs(spec.amp * s)
    return xs[mask], spec.eval(xs[mask], np.full(int(np.sum(mask)), t)), scale


@pytest.mark.parametrize("case", ["edge-values", "singular", "all-omitted"])
def test_emit_plot_data_matches_per_row_format(case, tmp_path):
    # each file is the per-row format(v, ".17g") of its rows; x is
    # numpy.linspace bit for bit and u is the array evaluator's within 2 ulp
    from cahnallen.cli import emit_plot_data

    spec, times, grid = {
        # far tails: u runs from 0 through subnormals to -1
        "edge-values": ("eq20-", [0.25], (-1100.0, 1100.0, 45)),
        "singular": ("eq21+", [0.0, 0.5], (-10, 10, 201)),
        "all-omitted": ("eq21+", [0.0], (-0.05, 0.05, 5)),
    }[case]
    spec = resolve_entry(spec, None)
    paths, notes = emit_plot_data(spec, times, grid, str(tmp_path), "r")
    assert len(paths) == len(times)
    for path, t in zip(paths, times):
        xs, us, scale = _array_profile(spec, np.linspace(*grid), t)
        text = pathlib.Path(path).read_text()
        rows = [tuple(map(float, line.split(","))) for line in
                text.splitlines()[1:]]
        assert text == "\n".join(["x,u", *(f"{x:.17g},{u:.17g}"
                                           for x, u in rows)]) + "\n"
        got = np.array(rows).reshape(-1, 2)
        assert got[:, 0].tobytes() == xs.tobytes()
        assert np.all(_ulps(got[:, 1], us, scale) <= 2.0)
    assert bool(notes) == (case != "edge-values")


@pytest.mark.parametrize("k", [0.5, 1.0, 1.37, 2.5, 1e-3, 30.0, 1e150,
                               1.3e154])
def test_scalar_and_array_profiles_agree(k):
    # the scalar profile writer and SolutionSpec.eval compute one closed
    # form, each the other's oracle: the same rows, and u within 2 ulp of
    # |u0| + |amp*S| (numpy's exp and libm's differ in the last bit)
    from cahnallen.solutions import enumerate_catalog

    xs = np.linspace(-10.0, 10.0, 201)
    worst = 0.0
    for spec in enumerate_catalog(k):
        for t in (0.0, 0.37, 1.0):
            rows, omitted = spec.profile_rows(xs.tolist(), t)
            want_x, want_u, scale = _array_profile(spec, xs, t)
            got = np.array(rows).reshape(-1, 2)
            assert omitted == xs.size - want_x.size, spec.entry_id
            assert got[:, 0].tobytes() == want_x.tobytes(), spec.entry_id
            worst = max(worst, float(np.max(_ulps(got[:, 1], want_u, scale),
                                            initial=0.0)))
    assert worst <= 2.0


@settings(max_examples=300, deadline=None)
@given(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300),
       st.integers(1, 40))
def test_linspace_matches_numpy_bit_for_bit(start, stop, n):
    assert np.array(reduction.linspace(start, stop, n)).tobytes() == \
        np.linspace(start, stop, n).tobytes()


@pytest.mark.parametrize("grid", [(0.0, 5e-324, 3), (-0.0, 0.0, 1),
                                  (5e-324, -0.0, 4), (1.0, 1.0, 3)])
def test_linspace_matches_numpy_on_tiny_steps(grid):
    assert np.array(reduction.linspace(*grid)).tobytes() == \
        np.linspace(*grid).tobytes()


@pytest.mark.parametrize("rows", [
    [(-0.0, 5e-324, 1e300, 0.1), (1 / 3, -1e300, -2.5e-17, 2.0)],
    [],
], ids=["edge-values", "no-rows"])
def test_write_floats_matches_per_row_format(rows):
    # rows as simulate passes its trajectory: a list of tuples
    assert _floats(["a", "b", "c", "d"], rows) == "a,b,c,d\n" + "".join(
        ",".join(format(v, ".17g") for v in row) + "\n" for row in rows)


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


@pytest.mark.parametrize("k", ["1e-3", "30", "1e6", "1.3e154"])
def test_catalog_validity_is_exact_at_every_scale(k, tmp_path, capsys):
    # a residual against an absolute tolerance judged 8 derived entries
    # invalid at k = 30 and k = 1e6; the structural zero holds at every k
    code, _, err = run(["catalog", "--k", k, "--out-dir", str(tmp_path)],
                       capsys)
    assert (code, err) == (0, "")
    rows = (tmp_path / "catalog.csv").read_text().splitlines()[1:]
    valid = [r.split(",")[0] for r in rows if r.endswith(",valid")]
    assert len(rows) == 54 and len(valid) == 42
    assert not any(entry.endswith("printed") for entry in valid)


# --- verify ------------------------------------------------------------------------


def test_verify_passes_and_writes_audit(tmp_path, capsys):
    code, out, _ = run(["verify", "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    audit = json.loads((tmp_path / "audit.json").read_text())
    assert len(audit["rows"]) == 54
    assert all(audit["family_valid"].values())
    assert audit["mismatches"] == []


@pytest.mark.parametrize("k", ["0.01", "30", "100", "1e4", "1e10", "1e100"])
def test_verify_verdicts_are_the_catalog_column_at_any_k(k, tmp_path, capsys):
    # the singular entries' absolute residuals grow with k; scaled, they
    # stay rounding noise
    assert run(["catalog", "--k", k, "--out-dir", str(tmp_path)],
               capsys)[0] == 0
    code, out, err = run(["verify", "--k", k, "--out-dir", str(tmp_path)],
                         capsys)
    assert (code, err) == (0, "") and "all 12 families certified" in out
    audit = json.loads((tmp_path / "audit.json").read_text())
    rows = (tmp_path / "catalog.csv").read_text().splitlines()[1:]
    assert [(r["entry_id"], r["verdict"]) for r in audit["rows"]] == \
        [(row.split(",")[0], row.split(",")[-1]) for row in rows]
    assert audit["mismatches"] == []


def test_verify_names_a_float_only_corruption(tmp_path, capsys, monkeypatch):
    # the entry's float speed is flipped and its exact core is not: the
    # exact verdict stays valid, and only the residual cross-check sees it
    from dataclasses import replace

    import cahnallen.solutions

    enumerate_catalog = cahnallen.solutions.enumerate_catalog

    def corrupted(k):
        return [replace(s, w=-s.w) if s.entry_id == "eq20-r" else s
                for s in enumerate_catalog(k)]

    monkeypatch.setattr(cahnallen.solutions, "enumerate_catalog", corrupted)
    code, _, err = run(["verify", "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    assert err == ("verification failed: the residuals of eq20-r disagree"
                   " with its exact verdict\n")
    audit = json.loads((tmp_path / "audit.json").read_text())
    assert audit["mismatches"] == ["eq20-r"]
    assert all(audit["family_valid"].values())


def test_verify_corrupted_family_fails_and_names_it(tmp_path, capsys):
    code, _, err = run(["verify", "--corrupt", "eq20",
                        "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    assert "eq20" in err
    assert "eq20+" in err


def test_corrupted_entries_are_exactly_invalid(tmp_path, capsys, monkeypatch):
    # --corrupt flips the exact speed ratio with the float speed, so each
    # audited entry's exact verdict is the numeric verdict audit.json writes
    import cahnallen.verify

    audited = []
    classify = cahnallen.verify.classify_branches

    def spy(catalog, *args):
        audited.extend(catalog)
        return classify(catalog, *args)

    monkeypatch.setattr(cahnallen.verify, "classify_branches", spy)
    code, _, _ = run(["verify", "--corrupt", "eq20",
                      "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    rows = json.loads((tmp_path / "audit.json").read_text())["rows"]
    assert [r["entry_id"] for r in rows] == [s.entry_id for s in audited]
    corrupted = [s for s in audited if s.entry_id.startswith("eq20")]
    assert len(corrupted) == 4
    assert not any(s.solves_ode for s in corrupted)
    for spec, row in zip(audited, rows):
        exact = "valid" if spec.solves_ode else "invalid"
        assert row["verdict"] == exact, spec.entry_id


def test_verify_custom_grid(tmp_path, capsys):
    code, _, _ = run(["verify", "--grid=-5,5,41,0,0.5,3",
                      "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    audit = json.loads((tmp_path / "audit.json").read_text())
    assert audit["grid"]["nx"] == 41


def _strict_json(path):
    """The parsed file; NaN and infinities are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} in {path.name}")
    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize("k", ["1e103", "1e150"])
def test_huge_wave_number_writes_strict_json(k, tmp_path, capsys):
    # next to the singular entries' pole the residual overflows: it is
    # written as null and fails the cross-check of the exact verdict, and no
    # numpy warning escapes (the suite turns RuntimeWarning into an error)
    code, _, err = run(["catalog", "--k", k, "--out-dir", str(tmp_path)], capsys)
    assert (code, err) == (0, "")
    _strict_json(tmp_path / "catalog_manifest.json")
    code, _, _ = run(["verify", "--k", k, "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    audit = _strict_json(tmp_path / "audit.json")
    unknown = [r for r in audit["rows"] if r["ode_max_abs"] is None]
    assert len(unknown) == 8
    assert all(r["verdict"] == "valid" for r in unknown)
    assert audit["mismatches"] == [r["entry_id"] for r in unknown]
    _strict_json(tmp_path / "verify_manifest.json")


def test_wave_number_at_the_top_of_the_range_builds_the_catalog(tmp_path,
                                                                capsys):
    # k*k is finite but 2*k*k is not; the general entries divide by k*k last
    code, out, err = run(["catalog", "--k", "1.3e154", "--out-dir",
                          str(tmp_path)], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("wrote 54 entries")


# --- simulate / convergence -----------------------------------------------------------


def test_simulate_writes_exports(tmp_path, capsys):
    # the default scheme is the split step, and the manifest records the
    # step it took: its own default, where --dt is not given
    code, out, _ = run(["simulate", "--entry", "eq20+", "--T", "0.2",
                        "--grid=-20,20,201", "--out-dir", str(tmp_path)],
                       capsys)
    assert code == 0
    assert "measured front speed" in out
    traj = np.loadtxt(tmp_path / "sim_eq20+_imex_trajectory.csv",
                      delimiter=",", skiprows=1)
    assert traj.shape[1] == 2
    metrics = (tmp_path / "sim_eq20+_imex_metrics.csv").read_text().splitlines()
    assert metrics[0] == "t,linf_error,l2_error,energy"
    snap0 = np.loadtxt(tmp_path / "sim_eq20+_imex_t0.csv", delimiter=",",
                       skiprows=1)
    assert snap0.shape == (201, 2)
    manifest = json.loads((tmp_path / "simulate_manifest.json").read_text())
    assert manifest["parameters"]["measured_speed"] is not None
    assert manifest["parameters"]["boundary"] == "exact_dirichlet"
    assert manifest["parameters"]["scheme"] == "imex_cn"
    assert manifest["parameters"]["dt"] == reduction.SPLIT_DT


def test_simulate_manifest_records_the_rk4_default_step(tmp_path, capsys):
    code, _, _ = run(["simulate", "--entry", "eq20+", "--T", "0.1",
                      "--grid=-20,20,201", "--scheme", "rk4",
                      "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    manifest = json.loads((tmp_path / "simulate_manifest.json").read_text())
    assert manifest["parameters"]["scheme"] == "explicit_rk4_mol"
    assert manifest["parameters"]["dt"] == reduction.explicit_dt_limit(0.2)


def test_simulate_imex(tmp_path, capsys):
    code, out, _ = run(["simulate", "--entry", "eq20+", "--T", "0.1",
                        "--grid=-15,15,151", "--scheme", "imex",
                        "--dt", "0.0005", "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    metrics = np.loadtxt(tmp_path / "sim_eq20+_imex_metrics.csv",
                         delimiter=",", skiprows=1)
    assert metrics[-1, 1] < 1e-3


def test_simulate_default_step_is_stable_on_coarse_grids(tmp_path, capsys):
    # h = 5.7 and 3.6: a default step that ignores the reaction's
    # stiffness blows up or stalls the front here; on the 8-point grid
    # fewer than 3 crossings are recorded, so it measures no speed.  The
    # command refuses both grids, which do not resolve the front; the
    # library still runs them
    spec = catalog_by_id(1.0)["eq20+"]
    integrate(spec, Grid1D(-20.0, 20.0, 8), SimConfig(T=100.0))
    result = integrate(spec, Grid1D(-20.0, 20.0, 12), SimConfig(T=30.0))
    assert result.measured_speed == pytest.approx(-spec.w / spec.k, rel=0.01)
    for grid in ("--grid=-20,20,8", "--grid=-20,20,12"):
        code, _, err = run(["simulate", "--entry", "eq20+", grid,
                            "--out-dir", str(tmp_path)], capsys)
        assert code == 2 and "exceeds the width" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, h", [
    (["simulate", "--entry", "eq20+", "--grid=-1e300,1e300,9", "--T", "0.1"],
     "2.5e+299"),
    (["convergence", "--entry", "eq20+", "--grid=-1e300,1e300,9"], "2.5e+299"),
    (["simulate", "--entry", "eq20+", "--grid=-40,40,17", "--T", "1"], "5"),
    (["convergence", "--entry", "eq20+", "--grid=-40,40,17"], "5"),
], ids=["simulate-huge", "convergence-huge", "simulate-h5", "convergence-h5"])
def test_grid_that_does_not_resolve_the_front_is_usage_error(argv, h,
                                                              tmp_path, capsys):
    # the eq20+ kink is 1/|N| = sqrt(2) wide in x
    code, out, err = run(argv + ["--out-dir", str(tmp_path)], capsys)
    assert (code, out) == (2, "")
    assert err == (f"error: grid spacing h = {h} exceeds the width"
                   " 1/|N| = 1.41421 of the eq20+ front; refine the grid\n")
    assert list(tmp_path.iterdir()) == []


def test_convergence_fails_on_an_order_short_of_second(tmp_path, capsys):
    # the printed eq26 reading does not solve the equation: its error does
    # not fall with h
    code, out, err = run(["convergence", "--entry", "eq26+printed",
                          "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    assert out.count("order = ") == 2
    lines = err.splitlines()
    assert [line.split(" at h = ")[1].split()[0] for line in lines] == \
        ["0.2", "0.1"]
    assert all(line.startswith("convergence check failed: observed order")
               and line.endswith("falls short of the stated order 2 by more"
                                 " than 0.25") for line in lines)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "convergence_eq26+printed.csv", "convergence_manifest.json"]


@pytest.mark.parametrize("orders, short", [
    ((1.0, 1.0), ["0.2", "0.1"]),
    ((2.0, 1.74), ["0.1"]),
    ((1.75, None), []),  # an exact-zero error has no order
])
def test_convergence_checks_each_observed_order(orders, short, tmp_path,
                                                capsys, monkeypatch):
    def planted(spec, grids, config):
        rows = [{"h": g.h, "n": g.n, "linf_error": 0.1 * g.h} for g in grids]
        for row, order in zip(rows[1:], orders):
            if order is not None:
                row["observed_order"] = order
        return rows

    monkeypatch.setattr(simulate, "convergence_study", planted)
    code, _, err = run(["convergence", "--entry", "eq20+",
                        "--out-dir", str(tmp_path)], capsys)
    assert code == (1 if short else 0)
    assert [line.split(" at h = ")[1].split()[0]
            for line in err.splitlines()] == short
    assert (tmp_path / "convergence_eq20+.csv").exists()


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
    # k*x is +inf and w*t is -inf: the wave coordinate overflows
    ["eval", "--entry", "eq20+", "--k", "2", "--x=1e308,1e308,1", "--t=-1e308"],
    # only at the second time: the first time's file is not written either
    ["eval", "--entry", "eq19+", "--x=0,0,1", "--t=0,8.5e307"],
], ids=["catalog-k", "eval-t", "simulate-dt", "simulate-T", "eval-xi",
        "eval-xi-second-time"])
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
    (["verify", "--grid=-10,10,41,0,nan,3"], "is not a finite number"),
], ids=["eval-x", "simulate-grid", "verify-grid"])
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
    (["eval", "--entry", "eq20+", "--t", "0", "--x=-10,10,abc"],
     "--x: 'abc' is not an integer"),
    (["verify", "--grid=-10,10,4.5,0,1,3"], "--grid: '4.5' is not an integer"),
    (["eval", "--entry", "eq20+", "--t", "0", "--x=-1e308,1e308,3"],
     "--x: grid span is not a finite number"),
    (["verify", "--grid=-1e308,1e308,3,0,1,2"],
     "--grid: grid span is not a finite number"),
    (["verify", "--grid=-10,10,3,-1e308,1e308,2"],
     "--grid: grid span is not a finite number"),
    (["simulate", "--entry", "eq20+", "--grid=-1e308,1e308,9", "--T", "0.1"],
     "--grid: grid span is not a finite number"),
], ids=["convergence-empty", "simulate-short", "verify-short", "eval-empty",
        "eval-count", "verify-count", "eval-span", "verify-x-span",
        "verify-t-span", "simulate-span"])
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


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    # an operating-system error while writing is a usage error too; the
    # temporary file the write went through is removed
    target = tmp_path / "catalog.csv"
    target.mkdir()
    code, out, err = run(["catalog", "--out-dir", str(tmp_path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {str(target)!r}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["catalog.csv"]


# each writing command, small, and the first file it writes; its manifest
# is the last
_WRITES = {
    "catalog": (["catalog"], "catalog.csv"),
    "verify": (["verify"], "audit.json"),
    "eval": (["eval", "--entry", "eq20+", "--t", "0,1"], "eq20+_t0.csv"),
    "simulate": (["simulate", "--entry", "eq20+", "--grid=-20,20,201",
                  "--T", "0.1"], "sim_eq20+_imex_t0.csv"),
    "convergence": (["convergence", "--entry", "eq20+", "--T", "0.05",
                     "--grid=-20,20,51"], "convergence_eq20+.csv"),
}


def _tree(root):
    """Every name under root, hidden ones included, with its bytes (None
    for a directory)."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("command", _WRITES)
def test_failed_write_leaves_the_output_directory_as_it_was(
        command, tmp_path, capsys, monkeypatch):
    # a directory held at the first output name, or at the manifest's, or
    # a temporary file that cannot be made for the last output: the
    # command exits 2 naming the path, and no file it would write, an
    # older one included, is replaced or left half written
    argv, first = _WRITES[command]
    manifest = f"{command}_manifest.json"
    clean = tmp_path / "clean"
    clean.mkdir()
    assert run([*argv, "--out-dir", str(clean)], capsys)[0] == 0
    count = len(list(clean.iterdir()))
    assert {first, manifest} <= {p.name for p in clean.iterdir()}
    mkstemp, calls = tempfile.mkstemp, []

    def full_disk(*args, **kwargs):
        calls.append(args)
        if len(calls) == count:
            raise OSError(28, "No space left on device")
        return mkstemp(*args, **kwargs)

    for case, (directory, older, reason) in {
        "first": (first, manifest, "Is a directory"),
        "manifest": (manifest, first, "Is a directory"),
        "staging": (None, first, "No space left on device"),
    }.items():
        out_dir = tmp_path / case
        out_dir.mkdir()
        (out_dir / older).write_bytes(b"older bytes\n")
        if directory is not None:
            (out_dir / directory).mkdir()
        else:
            monkeypatch.setattr(tempfile, "mkstemp", full_disk)
        before = _tree(out_dir)
        code, out, err = run([*argv, "--out-dir", str(out_dir)], capsys)
        failed = out_dir / (directory or manifest)
        assert (code, out) == (2, ""), (case, err)
        assert err == f"error: cannot write {str(failed)!r}: {reason}\n"
        assert _tree(out_dir) == before, case
    assert len(calls) == count


@pytest.mark.parametrize("argv", [
    ["derive"],
    ["catalog"],
    ["eval", "--entry", "eq20+", "--t", "0,1"],
    ["eval", "--entry", "eq21+", "--t", "0,1"],
], ids=["derive", "catalog", "eval-kink", "eval-singular"])
def test_stdlib_command_loads_no_numpy(argv, tmp_path):
    import cahnallen

    src = os.path.dirname(os.path.dirname(cahnallen.__file__))
    probe = ("import sys, contextlib, io\n"
             "import cahnallen.cli as cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    assert cli.main(sys.argv[1:]) == 0\n"
             "print(sorted(m for m in sys.modules"
             " if m.split('.')[0] in ('numpy', 'scipy')))\n")
    proc = subprocess.run([sys.executable, "-c", probe, *argv],
                          capture_output=True, text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_CAP = ", more than the cap of 10,000,000"
_HUGE = str(10**400)  # a count no float holds
_ONES = "1" * 5000  # a count int() does not read
_OVERSIZED = "... is not an integer of at most 4300 digits"
_LONG = "x" * 3000  # a text that no option reads
_ECHO = f"{_LONG[:12]!r}..."  # all of it that a usage error quotes

# every usage error in a command's arguments, not only a bad time: the
# case's id, its arguments and its reason
_USAGE_ERRORS = {
    "simulate-dt": (
        ["simulate", "--entry", "eq20+", "--dt=-1"],
        "time step must be positive and finite"),
    "convergence-T": (
        ["convergence", "--entry", "eq20+", "--T", "nan"],
        "final time must be positive and finite"),
    "simulate-steps": (
        ["simulate", "--entry", "eq20+", "--scheme", "imex", "--T", "0.1",
         "--dt", "1e-13"],
        "a run to T = 0.1 at dt = 1e-13 takes 1e+12 steps" + _CAP),
    # a grid option is parsed without numpy
    "simulate-grid": (
        ["simulate", "--entry", "eq20+", "--scheme", "imex",
         "--grid=-20,20,201", "--T", "0.1", "--dt", "1e-13"],
        "a run to T = 0.1 at dt = 1e-13 takes 1e+12 steps" + _CAP),
    "convergence-grid": (
        ["convergence", "--entry", "eq20+", "--grid=-20,20,201", "--T", "nan"],
        "final time must be positive and finite"),
    # the default steps, known from the grid alone: the split step's 0.01,
    # and the RK4 limit 2/(4/h^2 + 2) on the default grid
    "simulate-default-step": (
        ["simulate", "--entry", "eq20+", "--T", "1e6"],
        "a run to T = 1e+06 at dt = 0.01 takes 1e+08 steps" + _CAP),
    "simulate-rk4-default-step": (
        ["simulate", "--entry", "eq20+", "--scheme", "rk4", "--T", "2e4"],
        "a run to T = 20000 at dt = 0.00124844 takes 1.6e+07 steps" + _CAP),
    # the coarsest of three levels, at the RK4 default step 2/27, already
    # asks for more than the cap; the finest for about 2e8 steps
    "convergence-default-step": (
        ["convergence", "--entry", "eq20+", "--T", "1e6"],
        "a run to T = 1e+06 at dt = 0.0740741 takes 1.35e+07 steps" + _CAP),
    "convergence-levels": (
        ["convergence", "--entry", "eq20+", "--levels", "1"],
        "a refinement study needs at least 3 grids"),
    "simulate-k": (
        ["simulate", "--entry", "eq20+", "--k", "-1"],
        "wave number k must be positive and finite, got -1.0"),
    "convergence-k": (
        ["convergence", "--entry", "eq20+", "--k", "-1"],
        "wave number k must be positive and finite, got -1.0"),
    "verify-k": (
        ["verify", "--k", "-1"],
        "wave number k must be positive and finite, got -1.0"),
    "simulate-entry": (
        ["simulate", "--entry", "nosuch"],
        "unknown catalog entry 'nosuch'; run the catalog command for ids"),
    # argparse's usage error, after its usage lines
    "verify-grid": (
        ["verify", "--grid=-10,10,1,0,1,11"],
        "argument --grid: grid needs nx >= 2 and nt >= 1"),
    # the zone refusals: integrate's window, and an audit grid that the
    # zone holds (the audit's message for its first such entry)
    "simulate-window": (
        ["simulate", "--entry", "eq21+"],
        "eq21+ is singular inside the space-time window; choose a domain"
        " clear of the traveling pole"),
    "convergence-window": (
        ["convergence", "--entry", "eq21+"],
        "eq21+ is singular inside the space-time window; choose a domain"
        " clear of the traveling pole"),
    "verify-zone-grid": (
        ["verify", "--grid=-0.01,0.01,3,0,0.001,2"],
        "eq21+: every grid point fell inside a singular zone"),
    # a wave coordinate that overflows: in the audit at eq19+r, which comes
    # before eq21+, whose zone holds this one-point grid; in a run at t > 0
    "verify-overflow": (
        ["verify", "--grid=1e308,1e308,2,-4.714045207910316e+307,0,1"],
        "eq19+r: the wave coordinate k*x + w*t overflows at k = 1,"
        " w = -2.12132"),
    "simulate-overflow": (
        ["simulate", "--entry", "eq20+", "--k", "1e150", "--T", "1e160",
         "--dt", "1e154"],
        "eq20+: the wave coordinate k*x + w*t overflows at k = 1e+150,"
        " w = 2.12132e+150"),
    # point counts beyond reduction.MAX_POINTS, refused before anything is
    # allocated: counts no float holds, one that a float holds, an audit
    # grid whose nx*nt alone is too large, and a refinement study stopped
    # at its first level beyond the cap (the 15th, of 1638401 points)
    "simulate-huge-grid": (
        ["simulate", "--entry", "eq20+", f"--grid=-20,20,{_HUGE}"],
        "argument --grid: grid needs at most 1,000,000 points"),
    "convergence-huge-grid": (
        ["convergence", "--entry", "eq20+", f"--grid=-20,20,{_HUGE}"],
        "argument --grid: grid needs at most 1,000,000 points"),
    "eval-huge-grid": (
        ["eval", "--entry", "eq20+", "--t", "0", f"--x=-10,10,{_HUGE}"],
        "argument --x: grid needs at most 1,000,000 points"),
    "verify-huge-grid": (
        ["verify", f"--grid=-20,20,{_HUGE},0,1,2"],
        "argument --grid: grid needs nx*nt <= 1,000,000"),
    "simulate-points": (
        ["simulate", "--entry", "eq20+", f"--grid=-20,20,{10**9}"],
        "argument --grid: grid needs at most 1,000,000 points"),
    "verify-points": (
        ["verify", "--grid=-10,10,1001,0,1,1000"],
        "argument --grid: grid needs nx*nt <= 1,000,000"),
    "convergence-levels-points": (
        ["convergence", "--entry", "eq20+", "--levels", "100000000"],
        "grid needs at most 1,000,000 points"),
    # counts of more digits than int() reads: a short reason, which
    # echoes only the first 12 characters
    "simulate-oversized-grid": (
        ["simulate", "--entry", "eq20+", f"--grid=-20,20,{_ONES}"],
        f"argument --grid: {_ONES[:12]!r}{_OVERSIZED}"),
    "eval-oversized-grid": (
        ["eval", "--entry", "eq20+", "--t", "0", f"--x=-1,1,{'2' * 5000}"],
        f"argument --x: {'2' * 12!r}{_OVERSIZED}"),
    "verify-oversized-grid": (
        ["verify", f"--grid=-10,10,{_ONES},0,1,2"],
        f"argument --grid: {_ONES[:12]!r}{_OVERSIZED}"),
    "convergence-oversized-levels": (
        ["convergence", "--entry", "eq20+", "--levels", _ONES],
        f"argument --levels: {_ONES[:12]!r}{_OVERSIZED}"),
    # every other option that reads a number or a name quotes the same way
    "simulate-long-T": (
        ["simulate", "--entry", "eq20+", "--T", _LONG],
        f"argument --T: {_ECHO} is not a number"),
    "simulate-long-dt": (
        ["simulate", "--entry", "eq20+", "--dt", _LONG],
        f"argument --dt: {_ECHO} is not a number"),
    "simulate-long-k": (
        ["simulate", "--entry", "eq20+", "--k", _LONG],
        f"argument --k: {_ECHO} is not a number"),
    "catalog-long-k": (
        ["catalog", "--k", _LONG], f"argument --k: {_ECHO} is not a number"),
    "verify-long-k": (
        ["verify", "--k", _LONG], f"argument --k: {_ECHO} is not a number"),
    "eval-long-t": (
        ["eval", "--entry", "eq20+", "--t", f"0,{_LONG}"],
        f"argument --t: {_ECHO} is not a number"),
    "eval-empty-t": (
        ["eval", "--entry", "eq20+", "--t", "1,,2"],
        "argument --t: '' is not a number"),
    "eval-long-nan-t": (
        ["eval", "--entry", "eq20+", "--t", "0," * 1500 + "nan"],
        "times must be finite numbers, got '0,0,0,0,0,0,'..."),
    "eval-long-entry": (
        ["eval", "--entry", _LONG, "--t", "0"],
        f"unknown catalog entry {_ECHO}; run the catalog command for ids"),
    "derive-long-k": (
        ["derive", "--k", _LONG], f"argument --k: {_ECHO} is not a number"),
    "simulate-long-scheme": (
        ["simulate", "--entry", "eq20+", "--scheme", _LONG],
        f"argument --scheme: invalid choice: {_ECHO}"
        " (choose from 'rk4', 'imex')"),
}

# one interpreter runs every case of _USAGE_ERRORS, each in an empty
# directory of its own, and reports each case's exit code, stdout, stderr,
# whether numpy is loaded after it, and the files left in its directory
_USAGE_PROBE = """\
import contextlib, io, json, os, sys, traceback
from cahnallen.cli import main
results = {}
for case, argv, directory in json.load(sys.stdin):
    os.chdir(directory)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        except Exception:  # what the interpreter would print, and its code
            traceback.print_exc()
            code = 1
    results[case] = (code, out.getvalue(), err.getvalue(),
                     "numpy" in sys.modules, os.listdir(directory))
sys.stdout.write(json.dumps(results))
"""


@pytest.fixture(scope="module")
def usage_error_runs(tmp_path_factory):
    import cahnallen

    src = os.path.dirname(os.path.dirname(cahnallen.__file__))
    cases = [(case, argv, str(tmp_path_factory.mktemp(case)))
             for case, (argv, _) in _USAGE_ERRORS.items()]
    proc = subprocess.run([sys.executable, "-c", _USAGE_PROBE],
                          input=json.dumps(cases), capture_output=True,
                          text=True, timeout=120,
                          # argparse wraps its usage lines at COLUMNS
                          env={**os.environ, "PYTHONPATH": src,
                               "COLUMNS": "80"})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("case", _USAGE_ERRORS)
def test_bad_time_is_reported_before_numpy_loads(case, usage_error_runs):
    argv, reason = _USAGE_ERRORS[case]
    code, out, err, numpy_loaded, written = usage_error_runs[case]
    assert code == 2, err
    if err.startswith("usage: "):
        assert err.endswith(f" {argv[0]}: error: {reason}\n")
    else:
        assert err == f"error: {reason}\n"
    assert len(err.encode()) < 300
    assert out == ""
    assert not numpy_loaded
    assert written == []


@pytest.mark.parametrize("argv, reason", [
    # the cap holds with a grid option too
    (["simulate", "--entry", "eq20+", "--scheme", "imex", "--grid=-20,20,201",
      "--T", "0.1", "--dt", "1e-13"],
     "a run to T = 0.1 at dt = 1e-13 takes 1e+12 steps"),
], ids=["simulate-grid"])
def test_runs_beyond_the_step_cap_are_usage_errors(argv, reason, tmp_path):
    # run as a module; the default-step cases are cases of
    # test_bad_time_is_reported_before_numpy_loads
    import cahnallen

    src = os.path.dirname(os.path.dirname(cahnallen.__file__))
    proc = subprocess.run([sys.executable, "-m", "cahnallen.cli", *argv],
                          capture_output=True, text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {reason}{_CAP}\n"
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_grids_of_the_most_points_are_accepted():
    # the refusals beyond reduction.MAX_POINTS are cases of
    # test_bad_time_is_reported_before_numpy_loads
    most = reduction.MAX_POINTS
    assert most == 10**6
    assert Grid1D(-1.0, 1.0, most).n == most
    assert reduction.GridSpec(nx=1000, nt=1000).nx * 1000 == most
    args = build_parser().parse_args(
        ["eval", "--entry", "eq20+", "--t", "0", f"--x=-1,1,{most}"])
    assert args.x == (-1.0, 1.0, most)


def test_every_library_error_is_a_usage_error():
    # cli.main maps ValueError to exit 2, so no library error escapes as a
    # traceback; the library raises plain ValueErrors with their reasons,
    # and a new exception class would need a place in that one map
    defined = []
    for info in pkgutil.iter_modules(cahnallen.__path__):
        module = importlib.import_module(f"cahnallen.{info.name}")
        defined += [f"{info.name}.{name}" for name, obj in vars(module).items()
                    if isinstance(obj, type)
                    and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__]
    assert defined == []


# the required arguments of each command, for parsing it
_REQUIRED = {"derive": [], "catalog": [], "verify": [],
             "eval": ["--entry", "eq20+", "--t", "0"],
             "simulate": ["--entry", "eq20+"],
             "convergence": ["--entry", "eq20+"]}


@pytest.mark.parametrize("command", _REQUIRED)
def test_help_lists_each_option_once_with_its_default(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    # an option's entry starts on a line indented by two spaces
    entries = re.split(r"^  (?=-)", text.split("\noptions:\n")[1], flags=re.M)
    options = [entry.split()[0].rstrip(",") for entry in entries[1:]]
    assert len(options) == len(set(options)) > 1, options
    parser = build_parser()
    base = [command, *_REQUIRED[command]]
    checked = 0
    for entry in entries[1:]:
        option = entry.split()[0]
        found = re.search(r"\(default (\S+?)( or the id suffix)?\)",
                          " ".join(entry.split()))
        if found is None:
            continue
        printed, by_id = found.groups()
        dest = option.lstrip("-").replace("-", "_")
        default = getattr(parser.parse_args(base), dest)
        if by_id:  # no --k: the wave number resolve_entry gives the entry
            assert resolve_entry("eq20+", default).k == float(printed)
        else:
            given = getattr(parser.parse_args([*base, f"{option}={printed}"]),
                            dest)
            assert given == default, (option, printed)
        checked += 1
    assert checked == {"derive": 0, "catalog": 1, "verify": 2, "eval": 2,
                       "simulate": 3, "convergence": 4}[command]


def test_unknown_subcommand_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# --- fuzz ------------------------------------------------------------------------

ENTRY_IDS = sorted(catalog_by_id(1.0))  # kinks and singular entries alike
_big = st.floats(-1e308, 1e308)
# point counts that no float holds; a count between reduction.MAX_POINTS
# and 1e308 would be allocated by a tree without the cap
_huge_count = st.integers(10**309, 10**400)


def _fuzz_wave_number():
    return st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


def _check_parses(path):
    """Every numeric cell of a written CSV is finite; JSON refuses NaN and
    infinities."""
    if path.suffix == ".json":
        _strict_json(path)
        return
    for line in path.read_text().splitlines()[1:]:
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue  # an id, a family name, a verdict
            assert math.isfinite(value), f"{cell} in {path.name}"


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.builds(lambda k: ["catalog", "--k", repr(k)], _fuzz_wave_number()),
    st.builds(lambda entry, k, ts, x0, x1, n: [
        "eval", "--entry", entry, "--k", repr(k),
        "--t=" + ",".join(map(repr, ts)), f"--x={x0!r},{x1!r},{n}"],
        st.sampled_from(ENTRY_IDS), _fuzz_wave_number(),
        st.lists(_big, min_size=1, max_size=3), _big, _big,
        st.integers(1, 30) | _huge_count),
    st.builds(lambda k, bad, grid: [
        "verify", "--k", repr(k), *(["--corrupt", bad] if bad else []),
        *([f"--grid=-10,10,{grid[0]},0,1,{grid[1]}"] if grid else [])],
        _fuzz_wave_number(), st.none() | st.sampled_from(ENTRY_IDS),
        st.none() | st.tuples(_huge_count, st.integers(1, 11))
        | st.tuples(st.integers(2, 201), _huge_count)),
))
def test_catalog_and_eval_fuzz(argv):
    # a failed audit is verify's exit 1; catalog and eval have no check
    _run_fuzz_case(argv, (0, 1, 2) if argv[0] == "verify" else (0, 2))


def _fuzz_run_grid():
    """xmin,xmax,n with spans up to +-1e300 around the origin; the second
    range of exponents gives grids fine enough to run, and n is at most 40
    or a count that no float holds."""
    end = (st.floats(0.0, 300.0) | st.floats(0.0, 1.5)).map(lambda e: 10.0 ** e)
    return st.builds(lambda lo, hi, n: f"{-lo!r},{hi!r},{n}",
                     end, end, st.integers(8, 40) | _huge_count)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.builds(lambda entry, k, grid, T, scheme: [
        "simulate", "--entry", entry, "--k", repr(k), f"--grid={grid}",
        "--T", repr(T), "--scheme", scheme],
        st.sampled_from(ENTRY_IDS), _fuzz_wave_number(), _fuzz_run_grid(),
        st.floats(1e-3, 0.02), st.sampled_from(["rk4", "imex"])),
    st.builds(lambda entry, k, grid, T, levels: [
        "convergence", "--entry", entry, "--k", repr(k), f"--grid={grid}",
        "--T", repr(T), "--levels", str(levels)],
        st.sampled_from(ENTRY_IDS), _fuzz_wave_number(), _fuzz_run_grid(),
        # the default 3 levels, or so many that a level of any base grid
        # (8 points or more) exceeds reduction.MAX_POINTS: the 19th at most
        st.floats(1e-3, 0.02), st.just(3) | st.integers(19, 2000)),
))
def test_simulate_and_convergence_fuzz(argv):
    # simulate checks nothing yet; convergence checks its observed orders
    _run_fuzz_case(argv, (0, 1, 2) if argv[0] == "convergence" else (0, 2))


def _run_fuzz_case(argv, allowed):
    """Run one command: it exits with an allowed code and no traceback or
    warning, every file it writes parses, and a usage error writes none."""
    with tempfile.TemporaryDirectory() as out_dir, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = StringIO()
        with redirect_stdout(StringIO()), redirect_stderr(err):
            try:
                code = main([*argv, "--out-dir", out_dir])
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        written = sorted(pathlib.Path(out_dir).iterdir())
        for path in written:
            _check_parses(path)
        if argv[0] == "verify" and code == 1 and "--corrupt" not in argv:
            # uncorrupted, only a residual that overflows next to a pole
            # (huge k) may fail the cross-check
            rows = _strict_json(pathlib.Path(out_dir, "audit.json"))["rows"]
            assert any(r["pde_max_abs"] is None or r["ode_max_abs"] is None
                       for r in rows), err.getvalue()
    assert code in allowed, err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert caught == []
    if code == 2:
        assert err.getvalue().count("\n") >= 1
        assert written == []
    else:
        assert any(p.name.endswith("_manifest.json") for p in written)
