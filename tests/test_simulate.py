"""Finite-difference dynamics: accuracy, fronts, invariants, two schemes."""

import math
import random
import sys
import tracemalloc
import warnings
from itertools import islice

import numpy as np
import pytest
from conftest import constant_solution
from hypothesis import given, settings
from hypothesis import strategies as st

from cahnallen import simulate
from cahnallen.reduction import MAX_STEPS, SPLIT_DT, explicit_dt_limit
from cahnallen.solutions import SINGULAR_HALF_WIDTH
from cahnallen.simulate import (
    Grid1D,
    SimConfig,
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
    limit = explicit_dt_limit(grid.h)
    assert SimConfig().resolved_dt(grid.h) == limit
    integrate_dummy = constant_solution(0.0)
    with pytest.raises(ValueError, match="^explicit scheme needs dt <= "):
        integrate(integrate_dummy, grid, SimConfig(dt=limit * 2.0, T=0.1))
    res = integrate(integrate_dummy, grid, SimConfig(dt=limit, T=0.1))
    assert res.times[-1] == pytest.approx(0.1)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(T=-1.0)
    with pytest.raises(ValueError):
        SimConfig(boundary="reflecting")
    with pytest.raises(ValueError):
        SimConfig(scheme="spectral")


def test_no_step_is_longer_than_dt():
    config = SimConfig(dt=0.03, T=1.0, snapshot_times=(0.0, 0.1, 0.25, 1.0))
    at_zero, schedule = _schedule(config, config.dt)
    starts, steps, marks = zip(*schedule)
    assert at_zero and max(steps) <= 0.03
    assert math.isclose(sum(steps), 1.0)
    assert [t for times in marks for t in times] == [0.1, 0.25, 1.0]
    # SimConfig rejects a dt below 1e-14; the schedule alone does not
    # stretch such a step to the next snapshot time either
    schedule = _schedule(SimConfig(T=2e-12), 1e-15)[1]
    assert max(step for _, step, _ in schedule) == 1e-15


def test_schedule_is_made_step_by_step():
    # the first 1,000 steps of a million-step run, drawn before the rest
    # exist: the whole schedule as lists took about 55 MB
    config = SimConfig(dt=1e-6, T=1.0)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        at_zero, schedule = _schedule(config, config.dt)
        first = list(islice(schedule, 1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert at_zero and len(first) == 1000
    assert first[-1][0] == pytest.approx(999e-6)
    assert peak - start <= 1e6, peak - start


def test_on_lattice_run_starts_every_step_at_a_lattice_time():
    # the dynamics benchmark's split run: 200 steps of exactly dt, step i
    # from exactly i*dt, every twentieth one recorded; the running sum took
    # steps of 5 lengths here
    config = SimConfig(dt=0.005, T=1.0, scheme="imex_cn")
    at_zero, schedule = _schedule(config, config.dt)
    starts, steps, marks = zip(*schedule)
    assert at_zero == (0.0,)
    assert list(starts) == [i * 0.005 for i in range(200)]
    assert set(steps) == {0.005}
    assert [i for i, times in enumerate(marks) if times] == list(
        range(19, 200, 20))
    assert [t for times in marks for t in times] == list(
        config.resolved_snapshots()[1:])


def test_off_lattice_snapshot_cuts_exactly_one_step():
    config = SimConfig(dt=0.01, T=1.0, snapshot_times=(0.0, 0.333, 1.0))
    _, schedule = _schedule(config, config.dt)
    starts, steps, marks = zip(*schedule)
    assert len(steps) == 101
    # steps 0..32 and 34..99 of the lattice are whole; step 33 is cut at
    # the snapshot, which is recorded after its first piece
    assert list(starts) == [i * 0.01 for i in range(34)] + [0.333] + [
        i * 0.01 for i in range(34, 100)]
    assert [i for i, step in enumerate(steps) if step != 0.01] == [33, 34]
    assert steps[33] == 0.333 - 0.33 and steps[34] == 0.34 - 0.333
    assert marks[33] == (0.333,) and marks[-1] == (1.0,)
    assert sum(map(len, marks)) == 2


def test_off_lattice_final_time_cuts_only_the_last_step():
    T = 1.0037
    config = SimConfig(dt=0.01, T=T, snapshot_times=(T,))
    at_zero, schedule = _schedule(config, config.dt)
    starts, steps, marks = zip(*schedule)
    assert at_zero == () and len(steps) == 101
    assert list(starts) == [i * 0.01 for i in range(101)]
    assert set(steps[:-1]) == {0.01} and steps[-1] == T - 1.0
    assert marks[-1] == (T,) and sum(map(len, marks)) == 1


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, 1.0), st.integers(1, 500), st.floats(0.0, 1.0),
       st.lists(st.floats(0.0, 1.0) | st.integers(0, 500) | st.just(1.0),
                max_size=8))
def test_schedule_covers_the_run_in_positive_steps(dt, whole, part, picks):
    # T = (whole + part)*dt, on the lattice or off it; each pick is a
    # fraction of T or a lattice index, repeats and the ends included
    T = (whole + part) * dt
    times = tuple(min(p * dt, T) if isinstance(p, int) else p * T
                  for p in picks)
    config = SimConfig(dt=dt, T=T, snapshot_times=times)
    at_zero, schedule = _schedule(config, dt)
    steps = list(schedule)
    assert all(0.0 < step <= dt for _, step, _ in steps)
    ends = [start + step for start, step, _ in steps]
    assert all(math.isclose(end, start, rel_tol=1e-12, abs_tol=1e-12 * dt)
               for end, (start, _, _) in zip(ends, steps[1:]))
    assert abs(ends[-1] - T) <= 1e-9 * dt + 1e-12 * T
    recorded = list(at_zero) + [t for _, _, marks in steps for t in marks]
    assert recorded == sorted(times)
    for end, (_, _, marks) in zip(ends, steps):
        assert all(abs(t - end) <= 1e-9 * dt + 1e-12 * T for t in marks)


@pytest.mark.parametrize("scheme", ["explicit_rk4_mol", "imex_cn"])
@pytest.mark.parametrize("times", [(0.0, 0.5, 0.5, 1.0), (0.0, 0.0, 1.0)])
def test_repeated_snapshot_time_is_recorded_again(kink, scheme, times):
    # the running-sum schedule took a step of length 0 here, and the split
    # step's phi1 = 0/0 ended the run as unstable
    config = SimConfig(T=1.0, dt=0.01, scheme=scheme, snapshot_times=times)
    at_zero, schedule = _schedule(config, config.dt)
    assert min(step for _, step, _ in schedule) > 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = integrate(kink, Grid1D(-20.0, 20.0, 201), config)
    assert res.times == list(times)
    repeat = 0 if times[0] == times[1] else 1
    first, second = res.snapshots[repeat], res.snapshots[repeat + 1]
    assert np.array_equal(first, second) and first is not second
    assert res.linf_errors[-1] <= 1e-4  # RK4's spatial error on 201 points


def test_dynamics_split_run_fills_its_factors_once(kink, monkeypatch):
    # the dynamics benchmark's split configuration; the running-sum
    # schedule's ulp-short steps refilled them 18 times
    fills = []
    fill = _Split._fill

    def counted(self, step):
        fills.append(step)
        fill(self, step)

    monkeypatch.setattr(_Split, "_fill", counted)
    res = integrate(kink, Grid1D(-20.0, 20.0, 6401),
                    SimConfig(dt=0.005, T=1.0, scheme="imex_cn"))
    assert fills == [0.005]
    assert res.linf_errors[-1] <= 1e-7


def test_split_records_do_not_change_a_run(kink):
    # a record closes a copy and the march goes on from the open field, so
    # a snapshot at every step leaves the run's joined reactions as they are
    grid = Grid1D(-20.0, 20.0, 201)
    ends_only, every_step = (integrate(kink, grid, SimConfig(
        dt=0.01, T=0.5, scheme="imex_cn", snapshot_times=times))
        for times in ((0.5,), tuple(0.01 * np.arange(51))))
    assert len(every_step.snapshots) == 51
    assert np.array_equal(ends_only.snapshots[-1], every_step.snapshots[-1])


def test_step_count_is_capped_before_the_first_step(kink):
    # the split scheme's default step of 0.01 to T = 1e6 is 1e8 steps; the
    # refusal comes before any step, so the run fails at once
    with pytest.raises(ValueError, match="more than the cap"):
        integrate(kink, KINK_GRID, SimConfig(T=1e6, scheme="imex_cn"))
    with pytest.raises(ValueError, match="more than the cap"):
        integrate(kink, KINK_GRID, SimConfig(T=1.0, dt=0.99 / MAX_STEPS))


def test_step_count_is_capped_before_the_field_is_evaluated(kink,
                                                            monkeypatch):
    # the RK4 limit on 100001 points over [-20, 20] is about 8e-8, so a run
    # to T = 1 takes 1.25e7 steps; it is refused before the entry's eval
    # forms the 100001-point initial field
    calls = []
    monkeypatch.setattr(type(kink), "eval",
                        lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="takes 1.25e\\+07 steps, more"):
        integrate(kink, Grid1D(-20.0, 20.0, 100001), SimConfig(T=1.0))
    assert calls == []


def test_integrate_rejects_periodic_boundaries(kink):
    with pytest.raises(ValueError, match="^catalog entries need"
                       " exact_dirichlet boundaries$"):
        integrate(kink, KINK_GRID, SimConfig(T=1.0, boundary="periodic"))


# --- equilibria ------------------------------------------------------------------


def test_equilibrium_one_is_preserved():
    const = constant_solution(1.0)
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


def test_window_refusal_is_the_old_pole_test(catalog1):
    # integrate refuses a window exactly when the pole test it wrote inline
    # before SolutionSpec.check_zone says so, with the same text; every
    # other run here asks for more than MAX_STEPS steps, which checked_dt
    # refuses next, before any field is evaluated
    rng = random.Random(33)
    half = SINGULAR_HALF_WIDTH
    singular = [s for s in catalog1 if s.pole is not None]
    met = 0
    for _ in range(2000):
        spec = rng.choice(singular)
        x_min = rng.uniform(-3.0, 3.0) + rng.choice((0.0, half, -half))
        x_max = x_min + rng.choice((1e-9, rng.uniform(0.0, 2.0)))
        T = rng.uniform(1e-6, 0.2)
        lo = spec.k * x_min + min(0.0, spec.w * T)
        hi = spec.k * x_max + max(0.0, spec.w * T)
        meets = lo - half < spec.pole < hi + half
        with pytest.raises(ValueError) as exc:
            integrate(spec, Grid1D(x_min, x_max, 8),
                      SimConfig(dt=1e-14, T=T, scheme="imex_cn"))
        window = (f"{spec.entry_id} is singular inside the space-time window;"
                  " choose a domain clear of the traveling pole")
        assert (str(exc.value) == window) == meets, (spec.entry_id, x_min,
                                                     x_max, T)
        assert meets or "more than the cap" in str(exc.value)
        met += meets
    assert 200 < met < 1800


def test_singular_profile_runs_off_pole(table1):
    res = integrate(table1["eq21+"], Grid1D(2.0, 30.0, 401), SimConfig(T=0.05))
    assert res.linf_errors[-1] < 1e-3


def test_blowup_detection():
    grid = Grid1D(-10.0, 10.0, 64)
    with pytest.raises(ValueError, match="^field magnitude exceeded 1e\\+06"):
        simulate_field(100.0 * _wavy_initial(grid), grid,
                       SimConfig(T=1.0, boundary="periodic"))


@pytest.mark.parametrize("scheme", ["explicit_rk4_mol", "imex_cn"])
def test_blowup_check_catches_nan(scheme):
    # simulate_field rejects such data; _march's own check must not miss it
    grid = Grid1D(-10.0, 10.0, 64)
    u0 = _wavy_initial(grid)
    u0[17] = np.nan
    config = SimConfig(dt=1e-3, T=0.01, boundary="periodic", scheme=scheme)
    with pytest.raises(ValueError, match="^field magnitude exceeded 1e\\+06"):
        _march(u0, grid, config, config.dt, None)


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
    errors = [integrate(kink, Grid1D(-20.0, 20.0, 201),
                        SimConfig(dt=dt, T=1.0, scheme="imex_cn")).linf_errors[-1]
              for dt in (0.05, 0.025, 0.0125, 0.00625)]
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders) >= 1.95, (errors, orders)


def test_split_scheme_is_spectral_in_space(kink):
    # 41 points, h*|N| = 0.71, the coarsest grid the commands accept: the
    # three-point Laplacian's heat flow left an error of 1.1e-3 here
    grid = Grid1D(-20.0, 20.0, 41)
    assert grid.h * abs(float(kink.exact.N)) == pytest.approx(0.707, abs=1e-3)
    res = integrate(kink, grid, SimConfig(dt=0.01, T=0.5, scheme="imex_cn"))
    assert res.linf_errors[-1] <= 5e-7, res.linf_errors[-1]


def test_split_scheme_on_a_short_domain_is_second_order_in_space(kink):
    # on [-2, 2] the kink's u'' does not vanish at the ends, so the sine
    # series of u - l converges slowly: the error falls back to O(h^2)
    errors = [integrate(kink, Grid1D(-2.0, 2.0, n), SimConfig(
        dt=2e-4, T=0.25, scheme="imex_cn")).linf_errors[-1] for n in (41, 81)]
    assert max(errors) <= 5e-5, errors
    assert math.log2(errors[0] / errors[1]) >= 1.75, errors


def test_split_scheme_default_step(kink):
    # its own constant step, not RK4's h-dependent one: 100 steps to T = 1
    # on the default grid, at an error 25 times below RK4's default run
    config = SimConfig(T=1.0, scheme="imex_cn")
    assert config.resolved_dt(KINK_GRID.h) == SPLIT_DT
    schedule = _schedule(config, config.resolved_dt(KINK_GRID.h))[1]
    steps = [step for _, step, _ in schedule]
    assert len(steps) <= 100
    res = integrate(kink, KINK_GRID, config)
    assert res.linf_errors[-1] <= 5e-7, res.linf_errors[-1]


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


# --- the RK4 step limit ------------------------------------------------------------


@pytest.mark.parametrize("n", [101, 201, 801])
def test_rk4_step_scales_the_stiffest_mode_by_its_stability_function(n):
    # the highest Dirichlet sine mode at amplitude 1e-10, where the cubic
    # term is 1e-20 of the linear ones, and its eigenvalue under the flow
    # linearised at u = 0
    grid = Grid1D(-20.0, 20.0, n)
    mode = 1e-10 * np.sin(np.pi * (n - 2) * np.arange(n) / (n - 1))
    mode[[0, -1]] = 0.0
    lam = 1.0 - 4.0 / grid.h**2 * math.sin(
        math.pi * (n - 2) / (2 * (n - 1)))**2
    zero = [0.0, 0.0]
    factors = []
    # the default step, and one 1 % beyond RK4's real stability interval
    # [-2.7853, 0]
    for dt in (SimConfig().resolved_dt(grid.h), 1.01 * 2.7853 / abs(lam)):
        z = dt * lam
        want = 1.0 + z + z * z / 2.0 + z**3 / 6.0 + z**4 / 24.0
        got = _Rk4(grid).step(mode, dt, (zero, zero, zero), zero)
        assert np.max(np.abs(got - want * mode)) <= 1e-12 * 1e-10
        factors.append(float(np.dot(got, mode) / np.dot(mode, mode)))
    default, beyond = factors
    assert abs(default) <= 1.0 / 3.0 + 1e-12
    assert abs(beyond) > 1.0


@pytest.mark.parametrize("n, T", [(801, 1.0), (101, 0.5)],
                         ids=["default-grid", "coarsest-convergence-grid"])
def test_default_step_buys_only_spatial_accuracy(kink, n, T):
    # a run at a quarter of the default step moves the final field by at
    # most 1e-3 of the default run's error against the exact kink
    grid = Grid1D(-20.0, 20.0, n)
    default = integrate(kink, grid, SimConfig(T=T, snapshot_times=(T,)))
    quarter = integrate(kink, grid, SimConfig(
        dt=explicit_dt_limit(grid.h) / 4.0, T=T, snapshot_times=(T,)))
    temporal = np.max(np.abs(default.snapshots[-1] - quarter.snapshots[-1]))
    assert temporal <= 1e-3 * default.linf_errors[-1], (
        temporal, default.linf_errors[-1])


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


def _previous_react(v, length):
    """The allocating reaction flow over half of `length`."""
    decay = max(math.exp(-length), sys.float_info.min)
    w = v * v
    w *= 1.0 - decay
    w += decay
    np.sqrt(w, out=w)
    return np.divide(v, w, out=w)


def _previous_split_step(stepper, u, step, end=None, pending=0.0):
    """The allocating Strang step, with factors and a lift map of its own
    from the stepper's eigenvalues and lifts: one reaction over
    (pending + step)/2, then the heat flow over `step`; its closing half
    is `_previous_close`'s."""
    z = step * stepper.lam
    decay = np.exp(z)
    if stepper.periodic:
        return np.fft.irfft(decay * np.fft.rfft(_previous_react(
            u, pending + step)), u.size)
    phi1 = np.expm1(z) / z
    u = u.copy()
    u[1:-1] = _previous_react(u[1:-1], pending + step)
    u_hat = _previous_dst(u[1:-1])
    u_hat *= decay
    weights = np.concatenate([(phi1 - decay) * stepper.lift_hat,
                              (1.0 - phi1) * stepper.lift_hat])
    u_hat += np.concatenate([u[[0, -1]], end]) @ weights
    out = np.empty_like(u)
    out[1:-1] = _previous_dst(u_hat)
    out[[0, -1]] = end
    return out


def _previous_close(stepper, u, pending):
    """u after the closing half reaction of a step of length `pending`."""
    if stepper.periodic:
        return _previous_react(u, pending)
    out = u.copy()
    out[1:-1] = _previous_react(u[1:-1], pending)
    return out


def _split_case(periodic: bool, n: int, seed: int):
    """A split stepper, a rough start field and a source of moving end
    values (None when periodic)."""
    rng = np.random.default_rng(seed)
    grid = Grid1D(-20.0, 20.0, n)
    u = np.tanh(grid.xs()) + 0.05 * rng.standard_normal(n)

    def ends():
        return None if periodic else rng.uniform(-1.0, 1.0, 2).tolist()

    return _Split(grid, periodic), u, ends


@pytest.mark.parametrize("n", [64, 801])
@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("steps", [1, 100])
def test_split_step_is_bit_identical_to_allocating_step(n, periodic, steps):
    # each step's open field (its closing half reaction pending) and its
    # closed field; closing leaves the half pending for the next step
    stepper, u, ends = _split_case(periodic, n, 4)
    before = u.copy()
    want = got = u
    pending = 0.0
    for i in range(steps):
        step = 0.01 if i < steps - 1 else 0.0037  # a shortened last step
        end = ends()
        want = _previous_split_step(stepper, want, step, end, pending)
        pending = step
        got = stepper.step(got, step, None, end)
        assert np.array_equal(got, want), i
        closed = stepper.close(got)
        assert np.array_equal(closed, _previous_close(stepper, want, step)), i
        assert not np.shares_memory(closed, got)
    assert np.array_equal(u, before)
    assert not np.shares_memory(got, u)


@pytest.mark.parametrize("n", [64, 801])
def test_split_step_stays_bit_identical_across_step_lengths(n):
    # alternating step lengths refill the one set of factors and lift map
    # in both directions
    stepper, u, ends = _split_case(False, n, 6)
    buffers = stepper.exp_z, stepper.phi1, stepper.weights
    want = got = u
    pending = 0.0
    for i in range(20):
        step = (0.01, 0.0037)[i % 2]
        end = ends()
        want = _previous_split_step(stepper, want, step, end, pending)
        pending = step
        got = stepper.step(got, step, None, end)
        assert stepper.filled == step
        assert np.array_equal(got, want), i
        assert np.array_equal(stepper.close(got),
                              _previous_close(stepper, want, step)), i
    # one e^z, phi1(z) pair and lift map, refilled in place for each length
    # in turn
    assert all(a is b for a, b in zip(buffers, (stepper.exp_z, stepper.phi1,
                                                stepper.weights)))


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


def test_split_run_memory_is_bounded_by_the_grid(kink):
    # one run of the dynamics benchmark's size: the 11 snapshots, one e^z,
    # phi1(z) pair refilled for each of the schedule's 5 step lengths (they
    # differ by an ulp or a few), one lift map of 4 fields and the step's
    # own buffers come to about 32 fields; a pair kept per step length
    # peaked at 45, and a lift map per step length at 55
    grid = Grid1D(-20.0, 20.0, 6401)
    config = SimConfig(dt=0.005, T=1.0, scheme="imex_cn")
    integrate(kink, grid, config)  # warm-up
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        integrate(kink, grid, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= 36 * grid.n * 8, peak - start


def test_rk4_run_memory_is_bounded_by_one_block(kink):
    # the 801-step run of the simulate default: the 11 snapshots, the
    # stepper's buffers and one block of STEPS_PER_PROFILE steps' boundary
    # data come to about 0.36 MB; one block of all 801 steps peaked at 0.83
    config = SimConfig(T=1.0)
    integrate(kink, KINK_GRID, config)  # warm-up
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        integrate(kink, KINK_GRID, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= 0.45e6, peak - start


@pytest.mark.parametrize("block", [1, 7, 4096])
@pytest.mark.parametrize("scheme, dt", [("explicit_rk4_mol", None),
                                        ("imex_cn", 0.002)])
def test_boundary_blocks_do_not_change_a_run(kink, monkeypatch, block,
                                             scheme, dt):
    # 801 RK4 or 500 split steps, in blocks of the default size and of
    # `block` (4096: the whole run in one block)
    config = SimConfig(dt=dt, T=1.0, scheme=scheme)
    want = vars(integrate(kink, KINK_GRID, config))
    monkeypatch.setattr(simulate, "STEPS_PER_PROFILE", block)
    got = vars(integrate(kink, KINK_GRID, config))
    assert got.keys() == want.keys()
    for name, value in want.items():
        if name == "snapshots":
            assert [a.tobytes() for a in got[name]] == [
                a.tobytes() for a in value]
        else:
            assert repr(got[name]) == repr(value), name


# --- front tracking ----------------------------------------------------------------


def test_front_at_origin(kink):
    xs = KINK_GRID.xs()
    u = kink.eval(xs, np.zeros_like(xs))
    assert front_position(u, KINK_GRID, 0.5) == 0.0


def test_front_of_shifted_field(kink):
    xs = KINK_GRID.xs()
    u = kink.eval(xs - 3.7, np.zeros_like(xs))
    assert front_position(u, KINK_GRID, 0.5) == pytest.approx(3.7, abs=1e-12)


def test_no_crossing_is_none(kink):
    xs = KINK_GRID.xs()
    u = kink.eval(xs, np.zeros_like(xs))
    assert front_position(u, KINK_GRID, 2.0) is None


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
    assert measure_speed([(0.0, 0.0), (1.0, -2.1)]) is None


def test_speed_needs_times_that_spread():
    assert measure_speed([(0.5, 1.0), (0.5, 1.0), (0.5, 1.0)]) is None


@pytest.mark.parametrize("scheme", ["explicit_rk4_mol", "imex_cn"])
def test_run_at_one_time_measures_no_speed(kink, scheme):
    # three crossings at one time give the fit no slope; a 0/0 would warn,
    # which the suite treats as an error
    config = SimConfig(T=1.0, scheme=scheme, snapshot_times=(0.5, 0.5, 0.5))
    res = integrate(kink, Grid1D(-20.0, 20.0, 201), config)
    assert len(res.front_trajectory) == 3
    assert res.measured_speed is None


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
    # (2.6e-10 at dt = 0.05, 1.8e-6 at 0.2)
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
    """exp(dt*matrix) and phi1(dt*matrix), phi1(z) = (e^z - 1)/z, of a
    symmetric matrix from a dense eigendecomposition."""
    lam, vecs = np.linalg.eigh(matrix)
    z = dt * lam
    with np.errstate(divide="ignore", invalid="ignore"):
        phi1 = np.where(z == 0.0, 1.0, np.expm1(z) / z)
    return [vecs @ np.diag(phi) @ vecs.T for phi in (np.exp(z), phi1)]


def test_periodic_diffusion_step_matches_dense_eigensolution():
    # the heat equation on the period L = n*h: every Fourier mode the grid
    # carries, cos and sin of 2*pi*k*x/L, decays by exactly
    # e^(-(2*pi*k/L)^2 dt)
    h, dt = 0.3, 0.05
    for n in (16, 17):
        x = h * np.arange(n)
        length = n * h
        split = _Split(Grid1D(0.0, h * (n - 1), n), periodic=True)
        for k in range(n // 2 + 1):
            decay = math.exp(-((2.0 * math.pi * k / length) ** 2) * dt)
            for wave in (np.cos, np.sin):
                mode = wave(2.0 * math.pi * k * x / length)
                got = split.diffuse(mode, dt)
                assert np.max(np.abs(got - decay * mode)) < 1e-13, (n, k)


@pytest.mark.parametrize("n", [16, 17])
def test_dirichlet_diffusion_step_matches_dense_eigensolution(n):
    # the heat equation on [0, L], L = (n - 1)*h, with end values that move
    # linearly in time from (a0, b0) to (a1, b1).  With fixed zero ends each
    # sine mode sin(pi*j*x/L) decays by exactly e^(-(pi*j/L)^2 dt).  With
    # moving ends, v = u - l, where l is linear in x between the end values,
    # solves v_t = v_xx - l_t with zero ends: v(dt) = e^(dt A) v
    # - dt phi1(dt A) l_t, where A is the second derivative of the sine
    # interpolant on the interior nodes, built densely from the sine modes
    h, dt = 0.3, 0.05
    length = (n - 1) * h
    x = h * np.arange(1, n - 1)
    split = _Split(Grid1D(0.0, length, n), periodic=False)
    for j in range(1, n - 1):
        mode = np.zeros(n)
        mode[1:-1] = np.sin(math.pi * j * x / length)
        got = split.diffuse(mode, dt, [0.0, 0.0])
        decay = math.exp(-((math.pi * j / length) ** 2) * dt)
        assert np.max(np.abs(got - decay * mode)) < 1e-13, j
        assert np.array_equal(got[[0, -1]], [0.0, 0.0])

    wave = np.arange(1, n - 1) * math.pi / length
    sines = np.sin(np.outer(x, wave))  # column j: sine mode j on the nodes
    lap = sines @ np.diag(-wave * wave) @ np.linalg.inv(sines)
    flow, phi1 = _dense_flow(0.5 * (lap + lap.T), dt)
    rng = np.random.default_rng(n)
    u = rng.uniform(-1.0, 1.0, n)
    end = rng.uniform(-1.0, 1.0, 2)

    def lift(a, b):
        return a + (b - a) * x / length

    l0, l1 = lift(*u[[0, -1]]), lift(*end)
    want = flow @ (u[1:-1] - l0) - dt * phi1 @ ((l1 - l0) / dt) + l1
    got = split.diffuse(u, dt, end)
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
    const = constant_solution(0.0)
    grids = [Grid1D(-20.0, 20.0, n) for n in (101, 201, 401)]
    rows = convergence_study(const, grids, SimConfig(T=0.25))
    for r in rows:
        assert r["linf_error"] < 1e-14


def test_convergence_needs_three_grids(kink):
    with pytest.raises(ValueError):
        convergence_study(kink, [Grid1D(-20, 20, 101)], SimConfig(T=0.1))
