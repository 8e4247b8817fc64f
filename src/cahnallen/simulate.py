"""Finite-difference initial-value runs of u_t = u_xx + u - u^3.

Two independent schemes back each other, on numpy alone: an explicit RK4
method-of-lines integrator and a second-order Strang splitting of exact
reaction and exact diffusion substeps (scheme "imex_cn", a name kept from
its Crank-Nicolson predecessor).  Seeding a run with an exact catalog
profile and tracking the mid-level crossing measures the lab-frame front
speed -w/k dynamically.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import repeat

import numpy as np

from .qfield import Frozen
from .reduction import ConfigError, check_times
from .solutions import SolutionSpec

BLOWUP_LIMIT = 1e6
STEPS_PER_PROFILE = 4096  # boundary data evaluated per block of steps


def explicit_dt_limit(h: float) -> float:
    """The RK4 step on a grid of spacing h: the default step and the
    largest one a run accepts.  For |u| <= 1 the spectrum of the linearised
    right-hand side lies in [-(4/h^2 + 2), 1], so this step puts its
    stiffest mode at z = -2, where |R(z)| = 1/3, well inside RK4's real
    stability interval [-2.785, 0] (Hairer & Wanner, Solving ODEs II,
    section IV.2)."""
    return 2.0 / (4.0 / (h * h) + 2.0)


class UnstableStep(ValueError):
    pass


class NoCrossing(ValueError):
    pass


class InsufficientData(ValueError):
    pass


class Grid1D(Frozen):
    __slots__ = ("x_min", "x_max", "n")

    def __init__(self, x_min: float, x_max: float, n: int) -> None:
        if n < 8:
            raise ValueError("grid needs at least 8 points")
        if x_max <= x_min:
            raise ValueError("empty grid interval")
        if not math.isfinite(x_max - x_min):
            raise ValueError("grid span is not a finite number")
        super().__init__(x_min, x_max, n)

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)


class SimConfig(Frozen):
    __slots__ = ("dt", "T", "boundary", "scheme", "snapshot_times")

    def __init__(self, dt: float | None = None, T: float = 1.0,
                 boundary: str = "exact_dirichlet",
                 scheme: str = "explicit_rk4_mol",
                 snapshot_times: tuple[float, ...] | None = None) -> None:
        """boundary "exact_dirichlet" or "periodic"; scheme
        "explicit_rk4_mol" or "imex_cn", the split scheme."""
        check_times(T, dt)
        if boundary not in ("exact_dirichlet", "periodic"):
            raise ValueError(f"unknown boundary {boundary!r}")
        if scheme not in ("explicit_rk4_mol", "imex_cn"):
            raise ValueError(f"unknown scheme {scheme!r}")
        super().__init__(dt, T, boundary, scheme, snapshot_times)

    def resolved_dt(self, h: float) -> float:
        if self.dt is not None:
            return self.dt
        return explicit_dt_limit(h)

    def resolved_snapshots(self) -> tuple[float, ...]:
        if self.snapshot_times is not None:
            times = tuple(sorted(self.snapshot_times))
            if times and (times[0] < 0 or times[-1] > self.T * (1 + 1e-12)):
                raise ValueError("snapshot times outside [0, T]")
            return times
        return tuple(np.linspace(0.0, self.T, 11))


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


def front_position(field_values: np.ndarray, grid: Grid1D, level: float) -> float:
    """x of the leftmost level crossing, linearly interpolated."""
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
    if not candidates:
        raise NoCrossing(f"field never crosses level {level:g}")
    return min(candidates)


def measure_speed(trajectory: list[tuple[float, float]]) -> float:
    """Least-squares slope of x_front versus t over (t, x_front) pairs."""
    if len(trajectory) < 3:
        raise InsufficientData("speed fit needs at least 3 trajectory points")
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


class _Split:
    """Strang splitting: half a step of the exact reaction flow, one exact
    step of the discrete heat equation, another half reaction step.

    The diffusion step is exact in the Laplacian's eigenbasis: the Fourier
    modes of the circulant Laplacian on periodic grids (rfft), the sine
    modes of the interior nodes on Dirichlet grids (`_dst`).  There the
    boundary values move linearly in time from their start to their end
    values, and u - l, with l their linear interpolant in x, solves the
    heat equation with source -dl/dt.  In sine space, with z = step*lam:

        u_hat(t + step) = e^z (u_hat - l0_hat) - phi1(z) (l1_hat - l0_hat)
                          + l1_hat,    phi1(z) = (e^z - 1)/z

    (Hochbruck & Ostermann, Acta Numerica 19, 2010).
    """

    stages = (1.0,)  # the boundary values at the end of each step

    def __init__(self, grid: Grid1D, steps: list[float], periodic: bool):
        n = grid.n
        self.periodic = periodic
        if periodic:  # Fourier modes of the circulant Laplacian
            mode = np.pi * np.arange(n // 2 + 1) / n
        else:  # sine modes of the Laplacian on the n - 2 interior nodes
            mode = np.pi * np.arange(1, n - 1) / (2 * (n - 1))
            frac = np.arange(1, n - 1) / (n - 1)
            self.lift_hat = _dst(np.stack([1.0 - frac, frac]))
            # per-run buffers: sine coefficients, scratch, boundary values
            self.hat, self.work = np.empty((2, n - 2))
            self.ends = np.empty(4)
        lam = -(2.0 / grid.h * np.sin(mode)) ** 2
        # every step length of the run, so a partial step costs no rebuild
        self.factors = {s: self._factors(s, lam) for s in set(steps)}

    def _factors(self, step: float, lam: np.ndarray):
        """e^z; on Dirichlet grids the (4, n - 2) map from the boundary
        values (start, end) to their share of the new u_hat; the decay
        e^-step of a reaction half step, kept above zero so that a zero
        field stays zero (not 0/0) at steps beyond about 708."""
        z = step * lam
        decay = np.exp(z)
        half_step = max(math.exp(-step), sys.float_info.min)
        if self.periodic:
            return decay, None, half_step
        phi1 = np.expm1(z) / z  # every eigenvalue is negative here
        weights = np.concatenate([(phi1 - decay) * self.lift_hat,
                                  (1.0 - phi1) * self.lift_hat])
        return decay, weights, half_step

    def diffuse(self, u: np.ndarray, step: float, end=None,
                out=None) -> np.ndarray:
        """Exact heat flow over `step`, as a fresh array or, on Dirichlet
        grids, into `out` (which may be u); there the boundary values move
        linearly from u's two end nodes to `end`."""
        decay, weights, _ = self.factors[step]
        if self.periodic:
            return np.fft.irfft(decay * np.fft.rfft(u), u.size)
        u_hat, ends = _dst(u[1:-1], self.hat), self.ends
        u_hat *= decay
        ends[0], ends[1] = u[0], u[-1]
        ends[2:] = end
        u_hat += np.matmul(ends, weights, out=self.work)
        if out is None:
            out = np.empty_like(u)
        _dst(u_hat, out[1:-1])
        out[0], out[-1] = end
        return out

    def step(self, u: np.ndarray, step: float, u_t=None, end=None) -> np.ndarray:
        decay = self.factors[step][2]
        if self.periodic:
            return _react(self.diffuse(_react(u, decay), step), decay)
        out = np.empty_like(u)
        inner = out[1:-1]
        out[0], out[-1] = u[0], u[-1]
        _react(u[1:-1], decay, inner, self.work)
        self.diffuse(out, step, end, out)
        _react(inner, decay, inner, self.work)
        return out


def _schedule(config: SimConfig, dt: float):
    """Whether the run records t = 0, and the start, length and recorded
    snapshot time (or None) of every step.  Steps are dt long except where
    a snapshot time or T cuts one short."""
    pending = list(config.resolved_snapshots())
    at_zero = bool(pending) and abs(pending[0]) < 1e-12
    if at_zero:
        pending.pop(0)
    starts: list[float] = []
    steps: list[float] = []
    marks: list[float | None] = []
    t = 0.0
    while t < config.T - 1e-12:
        target = pending[0] if pending else config.T
        step = min(dt, target - t, config.T - t)
        starts.append(t)
        steps.append(step)
        t += step
        marks.append(pending.pop(0) if pending and t >= pending[0] - 1e-12
                     else None)
    return at_zero, starts, steps, marks


def _boundary_data(spec: SolutionSpec, edges: np.ndarray, starts: list[float],
                   steps: list[float], stages: tuple[float, ...]):
    """Per step, u_t on both boundary nodes at the `stages` fractions of the
    step and u there at the last one.  One profile evaluation serves a block
    of STEPS_PER_PROFILE steps, which bounds the memory of long runs."""
    fraction = np.array(stages)[:, None]
    for lo in range(0, len(steps), STEPS_PER_PROFILE):
        t0 = np.array(starts[lo:lo + STEPS_PER_PROFILE])[:, None, None]
        length = np.array(steps[lo:lo + STEPS_PER_PROFILE])[:, None, None]
        u, du, _ = spec.profile(spec.xi(edges, t0 + fraction * length))
        yield from zip((spec.w * du).tolist(), u[:, -1].tolist())


def _march(u0, grid, config, spec: SolutionSpec | None) -> SimResult:
    """One loop over the schedule with the scheme's stepper; `spec` gives
    the exact Dirichlet data, None means a periodic grid."""
    periodic = spec is None
    h = grid.h
    dt = config.resolved_dt(h)
    rk4 = config.scheme == "explicit_rk4_mol"
    if rk4:
        limit = explicit_dt_limit(h)
        if dt > limit * (1.0 + 1e-12):
            raise ConfigError(
                f"explicit scheme needs dt <= {limit:g} at h = {h:g}, got {dt:g}"
            )
    at_zero, starts, steps, marks = _schedule(config, dt)
    stepper = _Rk4(grid) if rk4 else _Split(grid, steps, periodic)
    xs = grid.xs()
    edges = (repeat((None, None)) if periodic else
             _boundary_data(spec, xs[[0, -1]], starts, steps, stepper.stages))

    result = SimResult()

    def record(t: float, u: np.ndarray) -> None:
        result.times.append(t)
        result.snapshots.append(u.copy())
        result.energy_series.append(discrete_energy(u, h, periodic))
        if spec is not None:
            exact = spec.eval(xs, np.full_like(xs, t))
            diff = u - exact
            result.linf_errors.append(float(np.max(np.abs(diff))))
            result.l2_errors.append(float(math.sqrt(h * np.dot(diff, diff))))
            try:
                level = spec.front_level()
                result.front_trajectory.append(
                    (t, front_position(u, grid, level)))
            except NoCrossing:
                pass

    u = np.asarray(u0, dtype=float).copy()
    if at_zero:
        record(0.0, u)
    for start, step, mark, (u_t, end) in zip(starts, steps, marks, edges):
        u = stepper.step(u, step, u_t, end)
        if not np.abs(u).max() <= BLOWUP_LIMIT:  # NaN fails it too
            raise UnstableStep(f"field magnitude exceeded {BLOWUP_LIMIT:g}"
                               f" at t = {start + step:g}")
        if mark is not None:
            record(mark, u)

    if len(result.front_trajectory) >= 3:
        result.measured_speed = measure_speed(result.front_trajectory)
    return result


def integrate(spec: SolutionSpec, grid: Grid1D, config: SimConfig) -> SimResult:
    """Evolve the exact profile at t = 0 and compare against it over time.

    Rejects profiles whose singular zone touches the space-time window of
    the run (the pole travels with the wave, so it can enter the domain
    after t = 0), and periodic boundaries: every catalog entry tends to
    different values at its two ends, so none is periodic.
    """
    if config.boundary != "exact_dirichlet":
        raise ConfigError("catalog entries need exact_dirichlet boundaries")
    xs = grid.xs()
    xi_lo = spec.k * grid.x_min + min(0.0, spec.w * config.T)
    xi_hi = spec.k * grid.x_max + max(0.0, spec.w * config.T)
    if not spec.clear_of_pole(xi_lo, xi_hi):
        raise ValueError(
            f"{spec.entry_id} is singular inside the space-time window;"
            " choose a domain clear of the traveling pole"
        )
    u0 = spec.eval(xs, np.zeros_like(xs))
    return _march(u0, grid, config, spec)


def simulate_field(u0, grid: Grid1D, config: SimConfig) -> SimResult:
    """Evolve raw initial data (periodic boundaries only): finite values,
    one per grid point."""
    if config.boundary != "periodic":
        raise ConfigError("raw initial data needs periodic boundaries")
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (grid.n,):
        raise ValueError(f"initial data of shape {u0.shape} on a grid of"
                         f" {grid.n} points")
    if not np.isfinite(u0).all():
        raise ValueError("initial data holds non-finite values")
    return _march(u0, grid, config, None)


def convergence_study(spec: SolutionSpec, grids: list[Grid1D],
                      config: SimConfig) -> list[dict]:
    """Refinement study: dt is scaled with h**2 so the spatial error leads.

    Returns one row per grid with h, the final-time maximum error, and the
    observed order against the previous grid.
    """
    if len(grids) < 3:
        raise ValueError("a refinement study needs at least 3 grids")
    h0 = grids[0].h
    dt0 = config.resolved_dt(h0)
    rows: list[dict] = []
    for g in grids:
        scaled = SimConfig(
            dt=dt0 * (g.h / h0) ** 2,
            T=config.T,
            boundary=config.boundary,
            scheme=config.scheme,
            snapshot_times=(0.0, config.T),
        )
        res = integrate(spec, g, scaled)
        rows.append({"h": g.h, "n": g.n, "linf_error": res.linf_errors[-1]})
    for prev, cur in zip(rows, rows[1:]):
        if prev["linf_error"] > 0.0 and cur["linf_error"] > 0.0:
            ratio = prev["linf_error"] / cur["linf_error"]
            cur["observed_order"] = math.log(ratio) / math.log(prev["h"] / cur["h"])
    return rows
