"""Finite-difference dynamics: accuracy, fronts, invariants, two schemes."""

import math
import tracemalloc

import numpy as np
import pytest

from cahnallen.simulate import (
    ConfigError,
    Grid1D,
    InsufficientData,
    NoCrossing,
    SimConfig,
    UnstableStep,
    _Rk4,
    _Split,
    _march,
    _schedule,
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


def test_no_step_is_longer_than_dt():
    config = SimConfig(dt=0.03, T=1.0, snapshot_times=(0.0, 0.1, 0.25, 1.0))
    at_zero, starts, steps, marks = _schedule(config, config.dt)
    assert at_zero and max(steps) <= 0.03
    assert math.isclose(sum(steps), 1.0)
    assert [m for m in marks if m is not None] == [0.1, 0.25, 1.0]
    # SimConfig rejects a dt below 1e-14; the schedule alone does not
    # stretch such a step to the next snapshot time either
    assert max(_schedule(SimConfig(T=2e-12), 1e-15)[2]) == 1e-15


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


@pytest.mark.parametrize("scheme", ["explicit_rk4_mol", "imex_cn"])
def test_blowup_check_catches_nan(scheme):
    # simulate_field rejects such data; _march's own check must not miss it
    grid = Grid1D(-10.0, 10.0, 64)
    u0 = _wavy_initial(grid)
    u0[17] = np.nan
    config = SimConfig(dt=1e-3, T=0.01, boundary="periodic", scheme=scheme)
    with pytest.raises(UnstableStep, match="exceeded"):
        _march(u0, grid, config, None)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_simulate_field_rejects_non_finite_data(bad):
    grid = Grid1D(-10.0, 10.0, 64)
    u0 = _wavy_initial(grid)
    u0[5] = bad
    with pytest.raises(ValueError, match="non-finite"):
        simulate_field(u0, grid, SimConfig(T=0.1, boundary="periodic"))


@pytest.mark.parametrize("shape", [(63,), (65,), (64, 1), ()],
                         ids=["short", "long", "column", "scalar"])
def test_simulate_field_rejects_mis_sized_data(shape):
    grid = Grid1D(-10.0, 10.0, 64)
    with pytest.raises(ValueError, match="on a grid of 64 points"):
        simulate_field(np.zeros(shape), grid,
                       SimConfig(T=0.1, boundary="periodic"))


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


# --- the buffered RK4 step against the plain formulas ----------------------------


def _plain_rhs(h):
    """a*(v[i+1] + v[i-1]) + v[i]*(b - v[i]*v[i]), a = 1/h^2, b = 1 - 2/h^2,
    as allocating array expressions: the order of _Rk4."""
    h2 = h * h
    a, b = 1.0 / h2, 1.0 - 2.0 / h2

    def rhs(v, edge):
        if edge is None:
            return a * (np.roll(v, -1) + np.roll(v, 1)) + v * (b - v * v)
        out = np.empty_like(v)
        mid = v[1:-1]
        out[1:-1] = a * (v[2:] + v[:-2]) + mid * (b - mid * mid)
        out[0], out[-1] = edge
        return out

    return rhs


def _previous_rhs(h):
    """(v[i+1] - 2 v[i] + v[i-1])/h^2 + (v[i] - v[i]^3): the order of the
    stepper before its right-hand side was regrouped."""
    h2 = h * h

    def rhs(v, edge):
        if edge is None:
            lap = (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / h2
            return lap + (v - v * v * v)
        out = np.empty_like(v)
        mid = v[1:-1]
        out[1:-1] = (v[2:] - 2.0 * mid + v[:-2]) / h2 + (mid - mid * mid * mid)
        out[0], out[-1] = edge
        return out

    return rhs


def _plain_rk4_step(u, step, rhs, u_t=None, end=None):
    """The RK4 step as allocating array expressions, the oracle of _Rk4."""
    if u_t is None:
        u_t = (None, None, None)
    k1 = rhs(u, u_t[0])
    k2 = rhs(u + 0.5 * step * k1, u_t[1])
    k3 = rhs(u + 0.5 * step * k2, u_t[1])
    k4 = rhs(u + step * k3, u_t[2])
    u = u + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if end is not None:
        u[0], u[-1] = end
    return u


def _rk4_case(periodic: bool, seed: int):
    """A stepper, a rough start field and a source of per-step boundary
    data (None on periodic grids) on the 801-point default grid."""
    rng = np.random.default_rng(seed)
    xs = KINK_GRID.xs()
    u = np.tanh(xs) + 0.05 * rng.standard_normal(xs.size)

    def edges():
        if periodic:
            return None, None
        return rng.uniform(-2.0, 2.0, (3, 2)).tolist(), rng.uniform(
            -1.0, 1.0, 2).tolist()

    return _Rk4(KINK_GRID), u, edges


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("steps", [1, 100])
def test_rk4_step_is_bit_identical_to_plain_formulas(periodic, steps):
    stepper, u, edges = _rk4_case(periodic, 0)
    dt = SimConfig().resolved_dt(KINK_GRID.h)
    want = got = u
    for i in range(steps):
        step = dt if i < steps - 1 else 0.37 * dt  # a shortened last step
        u_t, end = edges()
        want = _plain_rk4_step(want, step, _plain_rhs(KINK_GRID.h), u_t, end)
        got = stepper.step(got, step, u_t, end)
        assert np.array_equal(got, want), i


@pytest.mark.parametrize("periodic", [False, True])
def test_rk4_step_drifts_from_previous_order_by_rounding_only(periodic):
    stepper, u, edges = _rk4_case(periodic, 3)
    dt = SimConfig().resolved_dt(KINK_GRID.h)
    before = got = u
    for _ in range(100):
        u_t, end = edges()
        before = _plain_rk4_step(before, dt, _previous_rhs(KINK_GRID.h),
                                 u_t, end)
        got = stepper.step(got, dt, u_t, end)
    assert np.max(np.abs(got - before)) <= 1e-13


def test_rk4_step_returns_fresh_arrays():
    stepper, u, edges = _rk4_case(False, 1)
    dt = SimConfig().resolved_dt(KINK_GRID.h)
    before = u.copy()
    first = stepper.step(u, dt, *edges())
    second = stepper.step(u, dt, *edges())
    assert np.array_equal(u, before)
    for a, b in ((first, second), (first, u), (second, u)):
        assert not np.shares_memory(a, b)
    for buffer in (stepper.k, stepper.stage, stepper.scratch):
        assert not np.shares_memory(first, buffer)
        assert not np.shares_memory(second, buffer)


def test_rk4_step_allocates_only_its_result():
    stepper, u, edges = _rk4_case(False, 2)
    dt = SimConfig().resolved_dt(KINK_GRID.h)
    u = stepper.step(u, dt, *edges())  # warm-up
    data = [edges() for _ in range(200)]
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        for u_t, end in data:
            u = stepper.step(u, dt, u_t, end)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= 2.5 * u.size * u.itemsize, peak - start


# --- the in-place split step against the allocating one ---------------------------


def _previous_dst(x):
    """The allocating DST-I of the split stepper before it wrote in place."""
    m = x.shape[-1] + 1
    scale = math.sqrt(2.0 / m)
    sines = np.sin(np.pi * np.arange(1, m) / m)
    own, mirror = scale * (sines + 0.5), scale * (sines - 0.5)
    y = np.empty(x.shape[:-1] + (m,))
    y[..., 0] = 0.0
    np.multiply(own, x, out=y[..., 1:])
    y[..., 1:] += mirror * x[..., ::-1]
    big = np.fft.rfft(y)
    out = np.empty_like(x)
    np.negative(big.imag[..., 1:(m + 1) // 2], out=out[..., 1::2])
    big.real[..., 0] *= 0.5
    np.cumsum(big.real[..., :m // 2], axis=-1, out=out[..., 0::2])
    return out


def _previous_split_step(stepper, u, step, end=None):
    """The allocating Strang step, from the stepper's own factors."""
    decay, weights, half = stepper.factors[step]

    def react(v):
        w = v * v
        w *= 1.0 - half
        w += half
        np.sqrt(w, out=w)
        return np.divide(v, w, out=w)

    if stepper.periodic:
        return react(np.fft.irfft(decay * np.fft.rfft(react(u)), u.size))
    u = u.copy()
    u[1:-1] = react(u[1:-1])
    u_hat = _previous_dst(u[1:-1])
    u_hat *= decay
    u_hat += np.concatenate([u[[0, -1]], end]) @ weights
    out = np.empty_like(u)
    out[1:-1] = _previous_dst(u_hat)
    out[[0, -1]] = end
    out[1:-1] = react(out[1:-1])
    return out


def _split_case(periodic: bool, n: int, seed: int):
    """A split stepper for steps of 0.01 and a shortened 0.0037, a rough
    start field and a source of moving end values (None when periodic)."""
    rng = np.random.default_rng(seed)
    grid = Grid1D(-20.0, 20.0, n)
    u = np.tanh(grid.xs()) + 0.05 * rng.standard_normal(n)

    def ends():
        return None if periodic else rng.uniform(-1.0, 1.0, 2).tolist()

    return _Split(grid, [0.01, 0.0037], periodic), u, ends


@pytest.mark.parametrize("n", [64, 801])
@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("steps", [1, 100])
def test_split_step_is_bit_identical_to_allocating_step(n, periodic, steps):
    stepper, u, ends = _split_case(periodic, n, 4)
    before = u.copy()
    want = got = u
    for i in range(steps):
        step = 0.01 if i < steps - 1 else 0.0037  # a shortened last step
        end = ends()
        want = _previous_split_step(stepper, want, step, end)
        got = stepper.step(got, step, None, end)
        assert np.array_equal(got, want), i
    assert np.array_equal(u, before)
    assert not np.shares_memory(got, u)


def test_split_step_allocates_little_beyond_its_result():
    stepper, u, ends = _split_case(False, 6401, 5)
    u = stepper.step(u, 0.01, None, ends())  # warm-up
    data = [ends() for _ in range(50)]
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        for end in data:
            u = stepper.step(u, 0.01, None, end)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the result, the input it replaces, and the DST's padded copy and
    # rfft spectrum (about 4 fields); the allocating step peaked at about 7
    assert peak - start <= 5 * u.size * u.itemsize, peak - start


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


def _four_mode_field(n: int, seed: int) -> np.ndarray:
    """Four seeded Fourier modes of the period, scaled to a maximum of 0.9."""
    rng = np.random.default_rng(seed)
    theta = 2.0 * np.pi * np.arange(n) / n
    u = sum(rng.uniform(-1.0, 1.0) * np.sin(j * theta + rng.uniform(0.0, 2 * np.pi))
            for j in range(1, 5))
    return 0.9 * u / np.max(np.abs(u))


@pytest.mark.parametrize("n", [128, 1024])
@pytest.mark.parametrize("dt", [0.05, 0.1, 0.2])
def test_split_scheme_energy_at_large_steps(n, dt):
    # the energy falls at every step while the field settles; once two
    # fronts remain (from t = 5 on) and it changes only exponentially
    # slowly, the splitting error shows as rises that scale like dt^5
    # (1.4e-9 at dt = 0.05, 2e-6 at 0.2)
    grid = Grid1D(0.0, 16.0 * np.pi * (n - 1) / n, n)
    steps = round(10.0 / dt)
    settling = round(2.0 / dt)
    for seed in (0, 1):
        cfg = SimConfig(dt=dt, T=steps * dt, boundary="periodic",
                        scheme="imex_cn",
                        snapshot_times=tuple(dt * np.arange(steps + 1)))
        res = simulate_field(_four_mode_field(n, seed), grid, cfg)
        increments = np.diff(res.energy_series)
        assert np.all(increments[:settling] < 0.0), seed
        assert np.max(increments) <= 0.02 * dt**5, seed


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


@pytest.mark.parametrize("n", [801, 6401])
@pytest.mark.parametrize("periodic", [False, True])
def test_energy_matches_plain_sum(n, periodic):
    rng = np.random.default_rng(n)
    grid = Grid1D(-20.0, 20.0, n)
    u = np.tanh(grid.xs()) + 0.3 * rng.standard_normal(n)  # mixed sign
    h, values = grid.h, u.tolist()
    count = n if periodic else n - 1
    want = math.fsum(
        h * (0.5 * ((values[(i + 1) % n] - values[i]) / h) ** 2
             - 0.5 * values[i] ** 2 + 0.25 * values[i] ** 4)
        for i in range(count))
    assert discrete_energy(u, h, periodic) == pytest.approx(want, rel=1e-13)


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
