"""Finite-difference dynamics: accuracy, fronts, invariants, two schemes."""

import math

import numpy as np
import pytest

from cahnallen.simulate import (
    ConfigError,
    Grid1D,
    InsufficientData,
    NoCrossing,
    SimConfig,
    UnstableStep,
    _Split,
    convergence_study,
    discrete_energy,
    front_position,
    integrate,
    measure_speed,
    simulate_field,
)
from cahnallen.solutions import make_general

SPEED = 3.0 / math.sqrt(2.0)

KINK_GRID = Grid1D(-20.0, 20.0, 801)


@pytest.fixture(scope="module")
def kink(table1):
    return table1["eq20+"]


@pytest.fixture(scope="module")
def kink_run(kink):
    return integrate(kink, KINK_GRID, SimConfig(T=1.0))


# --- grids and configuration ---------------------------------------------------


def test_grid_spacing():
    grid = Grid1D(0.0, 1.0, 11)
    assert grid.h == pytest.approx(0.1)
    assert len(grid.xs()) == 11
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        Grid1D(1.0, 0.0, 16)


def test_explicit_step_limit():
    grid = Grid1D(-20.0, 20.0, 801)
    limit = 0.4 * grid.h**2 / 2.0
    cfg = SimConfig(dt=limit * 2.0, T=0.1)
    with pytest.raises(ConfigError):
        integrate_dummy = make_general(0, 1, 1, 1.0, c1=0.0, c2=1.0)
        integrate(integrate_dummy, grid, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(T=-1.0)
    with pytest.raises(ValueError):
        SimConfig(boundary="reflecting")
    with pytest.raises(ValueError):
        SimConfig(scheme="spectral")


def test_integrate_rejects_periodic_boundaries(kink):
    with pytest.raises(ConfigError):
        integrate(kink, KINK_GRID, SimConfig(T=1.0, boundary="periodic"))


# --- equilibria ------------------------------------------------------------------


def test_equilibrium_one_is_preserved():
    const = make_general(1, 1, 1, 1.0, c1=0.0, c2=1.0)
    grid = Grid1D(-10.0, 10.0, 64)
    res = simulate_field(np.ones(64), grid,
                         SimConfig(T=1.0, boundary="periodic"))
    assert max(np.max(np.abs(s - 1.0)) for s in res.snapshots) < 1e-13
    res2 = integrate(const, grid, SimConfig(T=1.0))
    assert res2.linf_errors[-1] < 1e-13


def test_equilibrium_zero_stays_exactly_zero():
    grid = Grid1D(-10.0, 10.0, 64)
    res = simulate_field(np.zeros(64), grid,
                         SimConfig(T=1.0, boundary="periodic"))
    assert all(np.all(s == 0.0) for s in res.snapshots)


# --- the moving kink --------------------------------------------------------------


def test_kink_error_stays_small(kink_run):
    assert kink_run.linf_errors[0] == 0.0
    assert kink_run.linf_errors[-1] < 1e-3
    assert all(e >= 0 for e in kink_run.l2_errors)


def test_kink_speed_measurement(kink_run):
    assert kink_run.measured_speed is not None
    assert abs(abs(kink_run.measured_speed) - SPEED) / SPEED < 0.01
    assert kink_run.measured_speed < 0  # positive w moves the profile left


def test_trajectory_is_time_ordered(kink_run):
    ts = [t for t, _ in kink_run.front_trajectory]
    assert ts == sorted(ts)
    assert len(ts) == len(set(ts))


def test_schemes_agree_on_standard_run(kink, kink_run):
    r2 = integrate(kink, KINK_GRID, SimConfig(dt=1e-4, T=1.0, scheme="imex_cn"))
    assert np.max(np.abs(kink_run.snapshots[-1] - r2.snapshots[-1])) < 1e-3


def test_imex_matches_exact_solution(kink):
    res = integrate(kink, Grid1D(-20.0, 20.0, 401),
                    SimConfig(dt=2e-4, T=0.5, scheme="imex_cn"))
    assert res.linf_errors[-1] < 1e-3


def test_singular_profile_is_rejected_on_covering_grid(table1):
    with pytest.raises(ValueError):
        integrate(table1["eq21+"], KINK_GRID, SimConfig(T=0.1))


def test_traveling_pole_entering_domain_is_rejected(table1):
    # reversed frame: the pole sits left of the domain at t = 0 but moves in
    with pytest.raises(ValueError):
        integrate(table1["eq21+r"], Grid1D(1.0, 30.0, 301), SimConfig(T=1.0))


def test_singular_profile_runs_off_pole(table1):
    res = integrate(table1["eq21+"], Grid1D(2.0, 30.0, 401), SimConfig(T=0.05))
    assert res.linf_errors[-1] < 1e-3


def test_blowup_detection():
    grid = Grid1D(-10.0, 10.0, 64)
    with pytest.raises(UnstableStep):
        simulate_field(100.0 * _wavy_initial(grid), grid,
                       SimConfig(T=1.0, boundary="periodic"))


def test_split_scheme_is_bounded_at_huge_steps(kink):
    # exact reaction and diffusion substeps: no step size makes them unstable
    res = integrate(kink, Grid1D(-20.0, 20.0, 101),
                    SimConfig(dt=50.0, T=500.0, scheme="imex_cn"))
    assert max(np.max(np.abs(s)) for s in res.snapshots) <= 1.0 + 1e-12
    # steps past e^-step's underflow: the equilibrium 0 stays exactly 0
    grid = Grid1D(-10.0, 10.0, 64)
    res = simulate_field(np.zeros(64), grid, SimConfig(
        dt=1000.0, T=10000.0, boundary="periodic", scheme="imex_cn"))
    assert all(np.all(s == 0.0) for s in res.snapshots)


def test_split_scheme_is_second_order_in_time(kink):
    # n = 1601 keeps the spatial error below the temporal one at these steps
    errors = [integrate(kink, Grid1D(-20.0, 20.0, 1601),
                        SimConfig(dt=dt, T=1.0, scheme="imex_cn")).linf_errors[-1]
              for dt in (0.1, 0.05, 0.025)]
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders) >= 1.8, (errors, orders)


def test_split_scheme_is_second_order_on_periodic_grids():
    # against a run at a 16 times smaller step: the diffusion substep is
    # exact, so the differences are the splitting error alone
    grid = Grid1D(-10.0, 10.0, 128)

    def final(dt):
        cfg = SimConfig(dt=dt, T=1.0, boundary="periodic", scheme="imex_cn",
                        snapshot_times=(1.0,))
        return simulate_field(_wavy_initial(grid), grid, cfg).snapshots[-1]

    reference = final(0.05 / 16)
    errors = [np.max(np.abs(final(dt) - reference)) for dt in (0.2, 0.1, 0.05)]
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders) >= 1.8, (errors, orders)


# --- front tracking ----------------------------------------------------------------


def test_front_at_origin(kink):
    xs = KINK_GRID.xs()
    u = kink.eval(xs, np.zeros_like(xs))
    assert front_position(u, KINK_GRID, 0.5) == 0.0


def test_front_of_shifted_field(kink):
    xs = KINK_GRID.xs()
    u = kink.eval(xs - 3.7, np.zeros_like(xs))
    assert front_position(u, KINK_GRID, 0.5) == pytest.approx(3.7, abs=1e-12)


def test_no_crossing_raises(kink):
    xs = KINK_GRID.xs()
    u = kink.eval(xs, np.zeros_like(xs))
    with pytest.raises(NoCrossing):
        front_position(u, KINK_GRID, 2.0)


def test_analytic_trajectory_speed(kink):
    xs = KINK_GRID.xs()
    traj = []
    for t in np.linspace(0.0, 1.0, 51):
        u = kink.eval(xs, np.full_like(xs, t))
        traj.append((float(t), front_position(u, KINK_GRID, 0.5)))
    v = measure_speed(traj)
    assert v == pytest.approx(-SPEED, abs=1e-6)


def test_fixed_bump_has_zero_speed():
    traj = [(0.1 * i, 4.25) for i in range(6)]
    assert measure_speed(traj) == 0.0


def test_speed_needs_three_points():
    with pytest.raises(InsufficientData):
        measure_speed([(0.0, 0.0), (1.0, -2.1)])


# --- invariants ----------------------------------------------------------------------


def _wavy_initial(grid: Grid1D) -> np.ndarray:
    xs = grid.xs()
    length = grid.h * grid.n
    return 0.8 * np.sin(2 * np.pi * xs / length) + 0.1 * np.cos(
        4 * np.pi * xs / length)


def test_energy_never_increases_rk4():
    grid = Grid1D(-10.0, 10.0, 128)
    cfg = SimConfig(T=0.2, boundary="periodic",
                    snapshot_times=tuple(np.linspace(0.0, 0.2, 81)))
    res = simulate_field(_wavy_initial(grid), grid, cfg)
    increments = np.diff(res.energy_series)
    assert np.all(increments <= 1e-8)


def test_energy_never_increases_imex():
    grid = Grid1D(-10.0, 10.0, 128)
    cfg = SimConfig(dt=5e-4, T=0.2, boundary="periodic", scheme="imex_cn",
                    snapshot_times=tuple(np.linspace(0.0, 0.2, 81)))
    res = simulate_field(_wavy_initial(grid), grid, cfg)
    increments = np.diff(res.energy_series)
    assert np.all(increments <= 1e-8)


def _dense_flow(matrix: np.ndarray, dt: float):
    """phi_j(dt*matrix) for j = 0, 1, 2 from a dense eigendecomposition,
    with phi_0 = exp, phi_1(z) = (e^z - 1)/z, phi_2(z) = (e^z - 1 - z)/z^2."""
    lam, vecs = np.linalg.eigh(matrix)
    z = dt * lam
    with np.errstate(divide="ignore", invalid="ignore"):
        phis = (np.exp(z),
                np.where(z == 0.0, 1.0, np.expm1(z) / z),
                np.where(z == 0.0, 0.5, (np.expm1(z) - z) / (z * z)))
    return [vecs @ np.diag(phi) @ vecs.T for phi in phis]


def test_periodic_diffusion_step_matches_dense_eigensolution():
    n, h, dt = 16, 0.3, 0.05
    lap = (np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1)
           + np.diag(np.ones(n - 1), -1))
    lap[0, -1] = lap[-1, 0] = 1.0
    u = np.random.default_rng(3).uniform(-1.0, 1.0, n)
    flow, _, _ = _dense_flow(lap / (h * h), dt)
    got = _Split(Grid1D(0.0, h * (n - 1), n), [dt], periodic=True).diffuse(u, dt)
    assert np.max(np.abs(got - flow @ u)) < 1e-13


@pytest.mark.parametrize("n", [16, 17])
def test_dirichlet_diffusion_step_matches_dense_eigensolution(n):
    # interior nodes: u' = A u + g(t), where g carries boundary values that
    # move linearly in time from (a0, b0) to (a1, b1); the exact solution is
    # e^(dt A) u + dt phi1(dt A) g0 + dt phi2(dt A) (g1 - g0)
    h, dt = 0.3, 0.05
    m = n - 2
    lap = (np.diag(np.full(m, -2.0)) + np.diag(np.ones(m - 1), 1)
           + np.diag(np.ones(m - 1), -1)) / (h * h)
    rng = np.random.default_rng(n)
    u = rng.uniform(-1.0, 1.0, n)
    end = rng.uniform(-1.0, 1.0, 2)
    g0, g1 = np.zeros(m), np.zeros(m)
    g0[[0, -1]] = u[[0, -1]] / (h * h)
    g1[[0, -1]] = end / (h * h)
    flow, phi1, phi2 = _dense_flow(lap, dt)
    want = flow @ u[1:-1] + dt * phi1 @ g0 + dt * phi2 @ (g1 - g0)
    got = _Split(Grid1D(0.0, h * (n - 1), n), [dt], periodic=False).diffuse(
        u, dt, end)
    assert np.max(np.abs(got[1:-1] - want)) < 1e-13
    assert np.array_equal(got[[0, -1]], end)


def test_odd_symmetry_to_machine_precision():
    grid = Grid1D(-10.0, 10.0, 128)
    for scheme, dt in (("explicit_rk4_mol", None), ("imex_cn", 1e-3)):
        cfg = SimConfig(dt=dt, T=0.25, boundary="periodic", scheme=scheme)
        u0 = _wavy_initial(grid)
        plus = simulate_field(u0, grid, cfg)
        minus = simulate_field(-u0, grid, cfg)
        worst = max(np.max(np.abs(a + b))
                    for a, b in zip(plus.snapshots, minus.snapshots))
        assert worst == 0.0


def test_comparison_principle_spot_check():
    grid = Grid1D(-10.0, 10.0, 128)
    cfg = SimConfig(T=1.0, boundary="periodic",
                    snapshot_times=tuple(np.linspace(0.0, 1.0, 21)))
    res = simulate_field(_wavy_initial(grid), grid, cfg)
    for snap in res.snapshots:
        assert np.all(snap <= 1.0 + 1e-10)
        assert np.all(snap >= -1.0 - 1e-10)


def test_energy_of_known_field():
    grid = Grid1D(0.0, 1.0, 11)
    u = np.ones(11)
    # gradient part 0; potential -1/2 + 1/4 per point
    assert discrete_energy(u, grid.h, periodic=True) == pytest.approx(
        grid.h * 11 * (-0.25))
    assert discrete_energy(u, grid.h, periodic=False) == pytest.approx(
        grid.h * 10 * (-0.25))


# --- convergence ------------------------------------------------------------------------


def test_convergence_study_order_two(kink):
    grids = [Grid1D(-20.0, 20.0, n) for n in (101, 201, 401)]
    rows = convergence_study(kink, grids, SimConfig(T=0.5))
    orders = [r["observed_order"] for r in rows if "observed_order" in r]
    assert len(orders) == 2
    for order in orders:
        assert order == pytest.approx(2.0, abs=0.3)
    # error drops by about 4x per halving
    ratio = rows[0]["linf_error"] / rows[1]["linf_error"]
    assert ratio == pytest.approx(4.0, rel=0.3)


def test_convergence_study_constant_data():
    const = make_general(0, 1, 1, 1.0, c1=0.0, c2=1.0)
    grids = [Grid1D(-20.0, 20.0, n) for n in (101, 201, 401)]
    rows = convergence_study(const, grids, SimConfig(T=0.25))
    for r in rows:
        assert r["linf_error"] < 1e-14


def test_convergence_needs_three_grids(kink):
    with pytest.raises(ValueError):
        convergence_study(kink, [Grid1D(-20, 20, 101)], SimConfig(T=0.1))
