"""Initial-value runs of u_t = u_xx + u - u^3 on uniform grids.

Two independent schemes back each other, on numpy alone: an explicit RK4
method-of-lines integrator on the three-point Laplacian, and a
second-order Strang splitting of the exact reaction flow and the exact
heat flow of the grid's trigonometric interpolant (scheme "imex_cn", a
name kept from its Crank-Nicolson predecessor).  Seeding a run with an
exact catalog profile and tracking the mid-level crossing measures the
lab-frame front speed -w/k dynamically.

A run steps on a lattice: step i starts at i*dt and is dt long.  A
snapshot time within LATTICE_TOL*dt of a lattice time is recorded there;
only a snapshot off the lattice, or a T off it, cuts a step, and no step
is of zero length.  The split stepper leaves each step's closing half
reaction pending and joins it to the next step's opening half, one
reaction flow between two heat flows; a record closes a copy of the
field, and the march goes on from the open one.  So a run whose dt
divides its snapshot spacing has one step length and fills the split
stepper's factors once; they are refilled in place only when the step
length changes.

A run's memory is bounded by its grid, not by its step count: the step
schedule is made as the run takes each step, the exact boundary data are
evaluated one block of STEPS_PER_PROFILE steps at a time, each snapshot
evaluates the exact u alone, and the steppers own fixed work buffers.
A run takes its step, `reduction`'s SimConfig.checked_dt (at most
`MAX_STEPS` steps), before it evaluates or copies its initial field.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import islice, repeat

import numpy as np

from .reduction import Grid1D, SimConfig, refinement_levels
from .solutions import SolutionSpec

BLOWUP_LIMIT = 1e6
STEPS_PER_PROFILE = 256  # boundary data evaluated per block of steps
LATTICE_TOL = 1e-9  # a time this many dt from a lattice time lies on it


class SimResult:
    """What a run records, filled in while it marches."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.snapshots: list[np.ndarray] = []
        self.linf_errors: list[float] = []
        self.l2_errors: list[float] = []
        self.energy_series: list[float] = []
        self.front_trajectory: list[tuple[float, float]] = []
        self.measured_speed: float | None = None


def discrete_energy(u: np.ndarray, h: float, periodic: bool) -> float:
    """Lyapunov functional of the semi-discrete flow:
    sum h * (0.5*((u_{i+1}-u_i)/h)^2 - 0.5*u_i^2 + 0.25*u_i^4), with the
    potential formed as sum w_i*(0.25*w_i - 0.5), w_i = u_i^2."""
    if periodic:
        du = (np.roll(u, -1) - u) / h
        w = u * u
    else:
        du = np.diff(u) / h
        w = u[:-1] * u[:-1]
    grad = 0.5 * float(np.dot(du, du)) * h
    pot = float(np.dot(w, 0.25 * w - 0.5)) * h
    return grad + pot


def front_position(field_values: np.ndarray, grid: Grid1D, level: float,
                   xs: np.ndarray | None = None) -> float | None:
    """x of the leftmost level crossing, linearly interpolated, or None when
    the field never crosses the level; `xs`, the grid's nodes, is built
    when not given."""
    if xs is None:
        xs = grid.xs()
    d = np.asarray(field_values, dtype=float) - level
    exact_hits = np.flatnonzero(d == 0.0)
    sign_changes = np.flatnonzero(d[:-1] * d[1:] < 0.0)
    candidates = []
    if exact_hits.size:
        candidates.append(float(xs[exact_hits[0]]))
    if sign_changes.size:
        i = int(sign_changes[0])
        frac = d[i] / (d[i] - d[i + 1])
        candidates.append(float(xs[i] + frac * grid.h))
    return min(candidates, default=None)


def measure_speed(trajectory: list[tuple[float, float]]) -> float | None:
    """Least-squares slope of x_front versus t over (t, x_front) pairs, or
    None for fewer than 3 pairs or fewer than 2 distinct times."""
    if len(trajectory) < 3 or len({t for t, _ in trajectory}) < 2:
        return None
    ts = np.array([t for t, _ in trajectory])
    xs = np.array([x for _, x in trajectory])
    tm, xm = ts.mean(), xs.mean()
    return float(np.dot(ts - tm, xs - xm) / np.dot(ts - tm, ts - tm))


def _react(u: np.ndarray, decay: float, out=None, w=None) -> np.ndarray:
    """Exact flow of u' = u - u^3 over a time tau, with decay = e^(-2*tau):
    u / sqrt(decay + (1 - decay)*u^2).  It keeps 0 and +-1 fixed exactly
    and never overflows.  The denominator goes to `w`, a fresh array by
    default, and the result to `out` (which may be u), by default to w."""
    w = np.multiply(u, u, out=w)
    w *= 1.0 - decay
    w += decay
    np.sqrt(w, out=w)
    return np.divide(u, w, out=w if out is None else out)


@lru_cache(maxsize=8)
def _sinft_weights(m: int) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(2/m) * (sin(pi*j/m) +- 1/2) for j = 1..m-1."""
    scale = math.sqrt(2.0 / m)
    sines = np.sin(np.pi * np.arange(1, m) / m)
    return scale * (sines + 0.5), scale * (sines - 0.5)


def _dst(x: np.ndarray, out=None) -> np.ndarray:
    """Orthonormal DST-I along the last axis, its own inverse:
    F_k = sqrt(2/m) * sum_j x_j sin(pi*j*k/m) for j, k = 1..m-1.

    One rfft of half the odd extension's length (Numerical Recipes,
    section 12.4, sinft): with y_j = sin(pi*j/m)*(x_j + x_(m-j))
    + (x_j - x_(m-j))/2 and Y = rfft(y), F_2k = -Im Y_k and
    F_(2k+1) = F_(2k-1) + Re Y_k, where F_1 = Re Y_0 / 2.  `out`, a fresh
    array by default, must not overlap x.
    """
    m = x.shape[-1] + 1
    own, mirror = _sinft_weights(m)
    y = np.empty(x.shape[:-1] + (m,))
    y[..., 0] = 0.0
    np.multiply(own, x, out=y[..., 1:])
    out = np.multiply(mirror, x[..., ::-1], out=out)
    y[..., 1:] += out
    big = np.fft.rfft(y)
    np.negative(big.imag[..., 1:(m + 1) // 2], out=out[..., 1::2])
    big.real[..., 0] *= 0.5
    np.cumsum(big.real[..., :m // 2], axis=-1, out=out[..., 0::2])
    return out


class _Rk4:
    """Classical RK4 on the method-of-lines system.  On Dirichlet grids the
    boundary nodes take the exact u_t at the three stage times and end each
    step on the exact boundary values.

    A stepper owns one run's work buffers: four stage derivatives, a stage
    vector and an interior scratch vector, all written in place through
    views taken once.  Each step still returns a fresh array, which the
    caller may keep.  The right-hand side is a*(u[i+1] + u[i-1])
    + u[i]*(b - u[i]*u[i]) with a = 1/h^2 and b = 1 - 2/h^2, and the step
    u + step/6 * (((k1 + 2 k2) + 2 k3) + k4)."""

    stages = (0.0, 0.5, 1.0)  # where in a step the boundary u_t is needed

    def __init__(self, grid: Grid1D):
        h2 = grid.h * grid.h
        self.a, self.b = 1.0 / h2, 1.0 - 2.0 / h2
        self.k = np.empty((4, grid.n))
        self.doubled = self.k[1:3]
        self.rows = [(row, row[1:-1]) for row in self.k]
        self.stage = np.empty(grid.n)
        self.stage_views = self._views(self.stage)
        self.scratch = np.empty(grid.n - 2)

    @staticmethod
    def _views(u: np.ndarray):
        return u, u[:-2], u[1:-1], u[2:]

    def _node(self, left: float, mid: float, right: float) -> float:
        """The right-hand side at one node, in the order of the array code."""
        return self.a * (right + left) + mid * (self.b - mid * mid)

    def _rhs(self, views, edge, row) -> None:
        """u_xx + u - u^3 of `views` (from `_views`) into `row`, a k row and
        its interior: on the two boundary nodes the given u_t, or with edge
        None the periodic wrap-around."""
        u, left, mid, right = views
        out, lap = row
        cubic = self.scratch
        np.add(right, left, out=lap)
        lap *= self.a
        np.multiply(mid, mid, out=cubic)
        np.subtract(self.b, cubic, out=cubic)
        cubic *= mid
        lap += cubic
        if edge is None:
            first, second, penult, last = u[[0, 1, -2, -1]].tolist()
            edge = (self._node(last, first, second),
                    self._node(penult, last, first))
        out[0], out[-1] = edge

    def step(self, u: np.ndarray, step: float, u_t=None, end=None) -> np.ndarray:
        if u_t is None:
            u_t = (None, None, None)
        rows, stage = self.rows, self.stage
        self._rhs(self._views(u), u_t[0], rows[0])
        half = 0.5 * step
        for c, (prev, _), row, edge in ((half, rows[0], rows[1], u_t[1]),
                                         (half, rows[1], rows[2], u_t[1]),
                                         (step, rows[2], rows[3], u_t[2])):
            np.multiply(c, prev, out=stage)
            stage += u
            self._rhs(self.stage_views, edge, row)
        self.doubled *= 2.0
        np.add.reduce(self.k, axis=0, out=stage)
        stage *= step / 6.0
        u = u + stage
        if end is not None:
            u[0], u[-1] = end
        return u

    @staticmethod
    def close(u: np.ndarray) -> np.ndarray:
        """A step leaves nothing pending: a copy of u."""
        return u.copy()


class _Split:
    """Strang splitting: half a step of the exact reaction flow, one step of
    the exact heat flow, another half reaction step.  Each step leaves its
    closing half pending, and the next step joins it to its own opening
    half: one reaction flow, over half the sum of the two step lengths,
    between two heat flows (Strang, SIAM J. Numer. Anal. 5, 1968; McLachlan
    & Quispel, Acta Numerica 11, 2002).  `close` applies the pending half
    to a copy of the field.

    The heat flow is that of the grid's trigonometric interpolant: each
    Fourier mode (periodic grids, rfft) or sine mode of the interior nodes
    (Dirichlet grids, `_dst`) decays at its exact rate, -(2*pi*k/L)^2 or
    -(pi*j/L)^2, not at the three-point Laplacian's (Trefethen, Spectral
    Methods in MATLAB, SIAM 2000, ch. 3 and 7).  On Dirichlet grids the
    boundary values move linearly in time from their start to their end
    values, and u - l, with l their linear interpolant in x, solves the
    heat equation with source -dl/dt.  In sine space, with z = step*lam:

        u_hat(t + step) = e^z (u_hat - l0_hat) - phi1(z) (l1_hat - l0_hat)
                          + l1_hat,    phi1(z) = (e^z - 1)/z

    (Hochbruck & Ostermann, Acta Numerica 19, 2010).

    A stepper is built from the grid alone.  It keeps one e^z vector and,
    on Dirichlet grids, one phi1(z) vector and one (4, n - 2) lift map,
    all filled together for one step length and refilled in place only
    when the step length changes.
    """

    stages = (1.0,)  # the boundary values at the end of each step

    def __init__(self, grid: Grid1D, periodic: bool):
        n = grid.n
        self.periodic = periodic
        # 2/h * mode is the wave number 2*pi*k/L of each Fourier mode over
        # the period L = n*h, or pi*j/L of each sine mode over L = (n - 1)*h
        if periodic:
            mode = np.pi * np.arange(n // 2 + 1) / n
        else:
            mode = np.pi * np.arange(1, n - 1) / (2 * (n - 1))
            frac = np.arange(1, n - 1) / (n - 1)
            self.lift_hat = _dst(np.stack([1.0 - frac, frac]))
            # per-run buffers: sine coefficients, scratch, boundary values
            # and the lift map
            self.hat, self.work = np.empty((2, n - 2))
            self.ends = np.empty(4)
            self.weights = np.empty((4, n - 2))
        self.lam = -(2.0 / grid.h * mode) ** 2
        self.exp_z = np.empty_like(self.lam)
        self.phi1 = None if periodic else np.empty_like(self.lam)
        self.filled = None  # the step length the factors hold
        self.pending = 0.0  # the length of the step whose half is pending

    def _fill(self, step: float) -> None:
        """e^z and, on Dirichlet grids, phi1(z) and the (4, n - 2) map from
        the boundary values (start, end) to their share of the new u_hat,
        for one step length, in place."""
        if self.periodic:
            z = np.multiply(step, self.lam, out=self.exp_z)
            np.exp(z, out=z)
        else:
            z = phi1 = np.multiply(step, self.lam, out=self.phi1)
            np.exp(z, out=self.exp_z)
            # every eigenvalue is negative on Dirichlet grids
            np.divide(np.expm1(z), z, out=phi1)
            np.multiply(phi1 - self.exp_z, self.lift_hat, out=self.weights[:2])
            np.multiply(1.0 - phi1, self.lift_hat, out=self.weights[2:])
        self.filled = step

    def diffuse(self, u: np.ndarray, step: float, end=None,
                out=None) -> np.ndarray:
        """The exact heat flow over `step` of u's trigonometric interpolant
        (on Dirichlet grids, the sine interpolant of u less its lift), as a
        fresh array or, on Dirichlet grids, into `out` (which may be u);
        there the boundary values move linearly from u's two end nodes to
        `end`."""
        if step != self.filled:
            self._fill(step)
        if self.periodic:
            spectrum = np.fft.rfft(u)
            spectrum *= self.exp_z
            return np.fft.irfft(spectrum, u.size)
        u_hat, ends = _dst(u[1:-1], self.hat), self.ends
        u_hat *= self.exp_z
        ends[0], ends[1] = u[0], u[-1]
        ends[2:] = end
        u_hat += np.matmul(ends, self.weights, out=self.work)
        if out is None:
            out = np.empty_like(u)
        _dst(u_hat, out[1:-1])
        out[0], out[-1] = end
        return out

    def _reacted(self, u: np.ndarray, length: float) -> np.ndarray:
        """u after the reaction flow over half of `length`, as a fresh
        array; on Dirichlet grids the boundary nodes keep their values.
        The flow's decay e^-length is kept above zero so that a zero field
        stays zero (not 0/0) beyond about 708."""
        decay = max(math.exp(-length), sys.float_info.min)
        if self.periodic:
            return _react(u, decay)
        out = np.empty_like(u)
        out[0], out[-1] = u[0], u[-1]
        _react(u[1:-1], decay, out[1:-1], self.work)
        return out

    def step(self, u: np.ndarray, step: float, u_t=None, end=None) -> np.ndarray:
        """One reaction flow over (pending + step)/2, then the heat flow
        over `step`, as a fresh array; this step's closing half reaction is
        left pending."""
        reacted = self._reacted(u, self.pending + step)
        self.pending = step
        return self.diffuse(reacted, step, end, reacted)

    def close(self, u: np.ndarray) -> np.ndarray:
        """u with the pending half reaction applied, as a fresh array; it
        stays pending for the next step."""
        return self._reacted(u, self.pending)


def _schedule(config: SimConfig, dt: float):
    """The snapshot times recorded at t = 0, and an iterator over the
    steps: the start, length and recorded snapshot times (a tuple, most
    often empty) of each, made as the run takes it.

    Step i of the lattice starts at i*dt and is dt long.  A snapshot time
    within LATTICE_TOL*dt of a lattice time is recorded there, under its
    own value; one off the lattice, or a T off it, cuts the lattice step
    that holds it.  So every step has a positive length, and a repeated
    time is recorded again after the same step."""
    T, tol = config.T, LATTICE_TOL * dt

    def place(t: float) -> tuple[int, float | None]:
        """(i, None) for the lattice time i*dt, or (i, t) inside step i."""
        i = round(t / dt)
        if abs(t - i * dt) <= tol:
            return i, None
        return (i if i * dt < t else i - 1), t

    marks: dict[tuple[int, float | None], tuple[float, ...]] = {}
    for t in config.resolved_snapshots():
        key = place(min(t, T))
        marks[key] = marks.get(key, ()) + (t,)
    last, off = place(T)
    cuts: dict[int, list[float]] = {}  # the off-lattice times in each step
    for i, t in sorted({key for key in (*marks, (last, off))
                        if key[1] is not None}):
        cuts.setdefault(i, []).append(t)

    def steps():
        for i in range(last + 1):
            start = i * dt
            inside = cuts.get(i, ())
            for t in inside:
                yield start, t - start, marks.get((i, t), ())
                start = t
            if i < last:
                yield (start, (i + 1) * dt - start if inside else dt,
                       marks.get((i + 1, None), ()))

    return marks.get((0, None), ()), steps()


def _boundary_data(spec: SolutionSpec, edges: np.ndarray, schedule,
                   stages: tuple[float, ...]):
    """Each step of `schedule` with u_t on both boundary nodes at the
    `stages` fractions of the step and u there at the last one.  One
    profile evaluation serves a block of STEPS_PER_PROFILE steps, which
    bounds the memory of long runs."""
    fraction = np.array(stages)[:, None]
    while block := list(islice(schedule, STEPS_PER_PROFILE)):
        starts, steps, _ = zip(*block)
        t0 = np.array(starts)[:, None, None]
        length = np.array(steps)[:, None, None]
        u, du, _ = spec.profile(spec.xi(edges, t0 + fraction * length))
        yield from zip(block, (spec.w * du).tolist(), u[:, -1].tolist())


def _march(u, grid, config, dt: float, spec: SolutionSpec | None) -> SimResult:
    """One loop over the schedule at steps of dt (config.checked_dt) with
    the scheme's stepper from the field u, which no step writes into;
    `spec` gives the exact Dirichlet data, None means a periodic grid."""
    periodic = spec is None
    h = grid.h
    at_zero, schedule = _schedule(config, dt)
    stepper = (_Rk4(grid) if config.scheme == "explicit_rk4_mol"
               else _Split(grid, periodic))
    xs = grid.xs()
    stream = (zip(schedule, repeat(None), repeat(None)) if periodic else
              _boundary_data(spec, xs[[0, -1]], schedule, stepper.stages))

    result = SimResult()

    def record(t: float, u: np.ndarray) -> None:
        """Record u, a field no step writes into, as the snapshot at t."""
        result.times.append(t)
        result.snapshots.append(u)
        result.energy_series.append(discrete_energy(u, h, periodic))
        if spec is not None:
            exact = spec.eval(xs, t)
            diff = u - exact
            result.linf_errors.append(float(np.max(np.abs(diff))))
            result.l2_errors.append(float(math.sqrt(h * np.dot(diff, diff))))
            x = front_position(u, grid, spec.front_level(), xs)
            if x is not None:
                result.front_trajectory.append((t, x))

    u = np.asarray(u, dtype=float)
    for mark in at_zero:
        record(mark, u.copy())
    for (start, step, marks), u_t, end in stream:
        u = stepper.step(u, step, u_t, end)
        # NaN fails it too; the pending reaction keeps a passing field
        # within max(BLOWUP_LIMIT, 1)
        if not -BLOWUP_LIMIT <= u.min() <= u.max() <= BLOWUP_LIMIT:
            raise ValueError(f"field magnitude exceeded {BLOWUP_LIMIT:g}"
                             f" at t = {start + step:g}")
        for mark in marks:
            record(mark, stepper.close(u))

    result.measured_speed = measure_speed(result.front_trajectory)
    return result


def integrate(spec: SolutionSpec, grid: Grid1D, config: SimConfig) -> SimResult:
    """Evolve the exact profile at t = 0 and compare against it over time.

    Rejects profiles whose singular zone meets the run's space-time window
    (SolutionSpec.check_zone; the pole travels with the wave, so it can
    enter the domain after t = 0), and periodic boundaries: every catalog
    entry tends to different values at its two ends, so none is periodic.
    """
    if config.boundary != "exact_dirichlet":
        raise ValueError("catalog entries need exact_dirichlet boundaries")
    spec.check_zone((grid.x_min, grid.x_max), (0.0, config.T))
    dt = config.checked_dt(grid.h)
    return _march(spec.eval(grid.xs(), 0.0), grid, config, dt, spec)


def simulate_field(u0, grid: Grid1D, config: SimConfig) -> SimResult:
    """Evolve raw initial data (periodic boundaries only): finite values,
    one per grid point."""
    if config.boundary != "periodic":
        raise ValueError("raw initial data needs periodic boundaries")
    dt = config.checked_dt(grid.h)
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (grid.n,):
        raise ValueError(f"initial data of shape {u0.shape} on a grid of"
                         f" {grid.n} points")
    if not np.isfinite(u0).all():
        raise ValueError("initial data holds non-finite values")
    return _march(u0, grid, config, dt, None)


def convergence_study(spec: SolutionSpec, grids: list[Grid1D],
                      config: SimConfig) -> list[dict]:
    """Refinement study on the levels of refinement_levels(grids, config).

    Returns one row per grid with h, the final-time maximum error, and the
    observed order against the previous grid.
    """
    rows: list[dict] = []
    for g, level in zip(grids, refinement_levels(grids, config)):
        res = integrate(spec, g, level)
        rows.append({"h": g.h, "n": g.n, "linf_error": res.linf_errors[-1]})
    for prev, cur in zip(rows, rows[1:]):
        if prev["linf_error"] > 0.0 and cur["linf_error"] > 0.0:
            ratio = prev["linf_error"] / cur["linf_error"]
            cur["observed_order"] = math.log(ratio) / math.log(prev["h"] / cur["h"])
    return rows
