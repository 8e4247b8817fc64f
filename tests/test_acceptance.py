"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one pass/fail line (run with -s to stream them) and
enforces its runtime budget.
"""

import math
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import PerturbedSolution

from cahnallen.closure import (
    build_ansatz_derivatives,
    form_coefficient_system,
    solve_closure,
)
from cahnallen.qfield import Radical2
from cahnallen.reduction import EvolutionEquation, WaveFrame, reduce_to_ode
from cahnallen.simulate import Grid1D, SimConfig, convergence_study, integrate, simulate_field
from cahnallen.solutions import enumerate_catalog, reduce_ab_to_canonical
from cahnallen.symexpr import SymExpr, diff_xi
from cahnallen.verify import (
    ODE_THRESHOLD,
    PDE_THRESHOLD,
    GridSpec,
    classify_branches,
    fd_crosscheck,
    ode_residual,
    pde_residual,
)

SPEED = 3.0 / math.sqrt(2.0)

_RESULTS = []


def _criterion(number: int, description: str, passed: bool, elapsed: float,
               limit: float) -> None:
    ok = passed and elapsed < limit
    line = (f"[criterion {number}] {'PASS' if ok else 'FAIL'}"
            f" ({elapsed:.2f}s / limit {limit:.0f}s): {description}")
    _RESULTS.append(line)
    print(line, file=sys.stderr)
    assert passed, f"criterion {number} failed: {description}"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"


@pytest.fixture(scope="module")
def system():
    ode = reduce_to_ode(EvolutionEquation(3), WaveFrame())
    return form_coefficient_system(ode, build_ansatz_derivatives())


@pytest.fixture(scope="module")
def catalog():
    return enumerate_catalog(1.0)


def test_criterion_1_grade_equations(system):
    t0 = time.perf_counter()
    K, W = SymExpr.atom("k"), SymExpr.atom("w")
    A0, A1 = SymExpr.atom("A0"), SymExpr.atom("A1")
    S1, S2, S3 = (SymExpr.s_deriv(j) for j in (1, 2, 3))
    ok = system.grades() == (0, 1, 2, 3)
    ok &= system.equations[0] == A0**3 - A0
    ok &= system.equations[1] == (
        -(K**2) * A1 * S3 + (A0**2 * A1 * S1).scaled(3) + W * A1 * S2 - A1 * S1
    )
    # the mixed-derivative term carries k^2, not k^3
    ok &= system.equations[2] == (
        -W * A1 * S1**2 + (K**2 * A1 * S1 * S2).scaled(3)
        + (A0 * A1**2 * S1**2).scaled(3)
    )
    ok &= system.equations[3] == A1 * (A1**2 - (K**2).scaled(2)) * S1**3
    _criterion(1, "grade equations reproduced by exact structural equality",
               ok, time.perf_counter() - t0, 1.0)


def test_criterion_2_closure_branches(system):
    t0 = time.perf_counter()
    solution = solve_closure(system)
    rho = Radical2.sqrt2(Fraction(3, 2))
    ok = len(solution.branches) == 8
    ok &= sorted(b.a0_int for b in solution.branches) == [-1, -1, 0, 0, 0, 0, 1, 1]
    ok &= all(b.alpha in (Radical2.sqrt2(1), Radical2.sqrt2(-1))
              for b in solution.branches)
    ok &= all(b.w_over_k in (rho, -rho) for b in solution.branches)
    ok &= all(b.lam_times_k == b.mu_times_k for b in solution.branches)
    # the stationary roots of the shifted cases are surfaced, not silently lost
    ok &= len(solution.degenerate) == 4
    ok &= all(d.w_over_k == Radical2.of(0) and int(d.a0.r) in (1, -1)
              for d in solution.degenerate)
    _criterion(2, "closure branches exact: A0 in {0,+-1}, A1 = +-sqrt2*k,"
               " w = +-(3*sqrt2/2)*k, stationary roots recorded",
               ok, time.perf_counter() - t0, 1.0)


def test_criterion_3_catalog_certification(catalog):
    t0 = time.perf_counter()
    audit = classify_branches(catalog, GridSpec())
    ok = (PDE_THRESHOLD, ODE_THRESHOLD) == (1e-8, 1e-10)
    ok &= set(audit.family_valid) == {f"eq{n}" for n in range(19, 31)}
    ok &= audit.all_families_covered()
    by_id = {r.entry_id: r for r in audit.rows}
    # ambiguous readings are resolved empirically and recorded
    ok &= by_id["eq24+coth"].valid and not by_id["eq24+printed"].valid
    ok &= by_id["eq24+tanh"].valid
    for code in ("eq26", "eq28", "eq30"):
        ok &= by_id[f"{code}+"].valid and not by_id[f"{code}+printed"].valid
    ok &= not by_id["eq29+printed"].valid and by_id["eq29+"].valid
    ok &= not by_id["eq23+printed"].valid
    ok &= all(r.valid == (r.pde_max_abs < 1e-8 and r.ode_max_abs < 1e-10)
              for r in audit.rows)
    _criterion(3, "every family certified below 1e-8 (pde) and 1e-10 (ode);"
               " printed-variant failures recorded",
               ok, time.perf_counter() - t0, 10.0)


def test_criterion_4_shift_equivalences(catalog):
    t0 = time.perf_counter()
    X, T = GridSpec().mesh()
    checked = 0
    ok = True
    for spec in catalog:
        if spec.family.value != "ab_exp_form" or spec.reading != "derived":
            continue
        canon = reduce_ab_to_canonical(spec)
        ok &= float(np.max(np.abs(spec.eval(X, T) - canon.eval(X, T)))) < 1e-12
        checked += 1
    ok &= checked == 8
    _criterion(4, "exponential-constant forms match their canonical shifted"
               " kinks within 1e-12 pointwise",
               ok, time.perf_counter() - t0, 5.0)


def test_criterion_5_dynamic_speed(catalog):
    t0 = time.perf_counter()
    kink = next(e for e in catalog if e.entry_id == "eq20+")
    result = integrate(kink, Grid1D(-20.0, 20.0, 801), SimConfig(T=1.0))
    speed_ok = (result.measured_speed is not None
                and abs(abs(result.measured_speed) - SPEED) / SPEED < 0.01)
    error_ok = result.linf_errors[-1] < 1e-3
    _criterion(5, f"simulated front speed {result.measured_speed:+.6f}"
               f" within 1% of {SPEED:.6f}; final field error"
               f" {result.linf_errors[-1]:.2e} < 1e-3",
               speed_ok and error_ok, time.perf_counter() - t0, 60.0)


# --- criterion 6: property suites -------------------------------------------


def _random_expr(rng: random.Random, depth: int) -> SymExpr:
    leaves = [
        SymExpr.atom("k"), SymExpr.atom("w"), SymExpr.atom("A0"),
        SymExpr.atom("A1"), SymExpr.s_deriv(1), SymExpr.s_deriv(2),
        SymExpr.s_inverse(1),
        SymExpr.const(Radical2(Fraction(rng.randint(-4, 4)),
                               Fraction(rng.randint(-2, 2)))),
    ]
    if depth == 0:
        return rng.choice(leaves)
    op = rng.randrange(4)
    if op == 0:
        return rng.choice(leaves)
    if op == 1:
        return _random_expr(rng, depth - 1) + _random_expr(rng, depth - 1)
    if op == 2:
        return _random_expr(rng, depth - 1) * _random_expr(rng, depth - 1)
    return _random_expr(rng, depth - 1) ** rng.randint(0, 3)


def _kernel_properties(cases: int) -> bool:
    rng = random.Random(20260808)
    for _ in range(cases):
        a = _random_expr(rng, 3)
        b = _random_expr(rng, 3)
        if diff_xi(a * b) != diff_xi(a) * b + a * diff_xi(b):
            return False
        raw = SymExpr(tuple(reversed(a.terms)) + a.terms)
        once = raw.normalized()
        if once.normalized() != once or a.normalized() != a:
            return False
    return True


def test_criterion_6_property_suites(catalog):
    t0 = time.perf_counter()
    kink = next(e for e in catalog if e.entry_id == "eq20+")

    props_ok = _kernel_properties(200)

    fd = fd_crosscheck(kink, h_list=(0.2, 0.1, 0.05), stencil_order=4)
    fd_ok = all(order >= 3.5 for order in fd.observed_order.values())

    grid = Grid1D(-10.0, 10.0, 128)
    xs = grid.xs()
    length = grid.h * grid.n
    u0 = 0.8 * np.sin(2 * np.pi * xs / length) + 0.1 * np.cos(
        4 * np.pi * xs / length)
    energy_ok = True
    symmetry_ok = True
    for scheme, dt in (("explicit_rk4_mol", None), ("imex_cn", 5e-4)):
        cfg = SimConfig(dt=dt, T=0.2, boundary="periodic", scheme=scheme,
                        snapshot_times=tuple(np.linspace(0.0, 0.2, 81)))
        plus = simulate_field(u0, grid, cfg)
        minus = simulate_field(-u0, grid, cfg)
        energy_ok &= bool(np.all(np.diff(plus.energy_series) <= 1e-8))
        symmetry_ok &= all(
            float(np.max(np.abs(a + b))) == 0.0
            for a, b in zip(plus.snapshots, minus.snapshots))

    grids = [Grid1D(-20.0, 20.0, n) for n in (101, 201, 401)]
    rows = convergence_study(kink, grids, SimConfig(T=0.5))
    conv_ok = all(abs(r["observed_order"] - 2.0) <= 0.3
                  for r in rows if "observed_order" in r)

    bumped = PerturbedSolution(kink, eps=0.01)
    perturb_ok = (not pde_residual(bumped).is_valid
                  and not ode_residual(bumped).is_valid)

    ok = props_ok and fd_ok and energy_ok and symmetry_ok and conv_ok and perturb_ok
    _criterion(6, "kernel properties (200 cases each), derivative order"
               " >= 3.5, dissipative energy, odd symmetry, spatial order"
               " 2.0, perturbation rejected",
               ok, time.perf_counter() - t0, 120.0)


def test_criterion_7_profile_emission(catalog, tmp_path):
    t0 = time.perf_counter()
    from cahnallen.cli import main

    code_kink = main(["eval", "--entry", "eq20+k1", "--t", "0",
                      "--out-dir", str(tmp_path)])
    code_sing = main(["eval", "--entry", "eq21+k1", "--t", "0",
                      "--out-dir", str(tmp_path)])
    kink_rows = np.loadtxt(tmp_path / "eq20+_t0.csv", delimiter=",", skiprows=1)
    sing_rows = np.loadtxt(tmp_path / "eq21+_t0.csv", delimiter=",", skiprows=1)
    us = kink_rows[:, 1]
    kink_ok = (bool(np.all(np.diff(us) > 0)) and us[0] < 1e-2
               and us[-1] > 1 - 1e-2)
    xs_s, us_s = sing_rows[:, 0], sing_rows[:, 1]
    left, right = us_s[xs_s < -0.1], us_s[xs_s > 0.1]
    sing_ok = (sing_rows.shape[0] < 201
               and abs(left[-1]) > 10 * abs(left[0])
               and abs(right[0]) > 10 * abs(right[-1])
               and bool(np.all(np.isfinite(us_s))))
    ok = code_kink == 0 and code_sing == 0 and kink_ok and sing_ok
    _criterion(7, "emitted profiles: monotone 0->1 front and pole-divergent"
               " singular profile with omitted gap rows",
               ok, time.perf_counter() - t0, 30.0)


def test_zzz_summary():
    print("\nacceptance summary:", file=sys.stderr)
    for line in _RESULTS:
        print("  " + line, file=sys.stderr)
    assert len(_RESULTS) == 7
