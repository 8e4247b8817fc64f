"""Finite-difference initial-value runs of u_t = u_xx + u - u^3.

Two independent schemes back each other: an explicit RK4 method-of-lines
integrator and an IMEX step with Crank-Nicolson diffusion (one tridiagonal
or cyclic solve per step) and explicit reaction.  Seeding a run with an
exact catalog profile and tracking the mid-level crossing measures the
lab-frame front speed -w/k dynamically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .solutions import SolutionSpec

BLOWUP_LIMIT = 1e6
EXPLICIT_DT_MARGIN = 0.4  # dt <= margin * h**2 / 2


class ConfigError(ValueError):
    pass


class UnstableStep(Exception):
    pass


class NoCrossing(Exception):
    pass


class InsufficientData(Exception):
    pass


@dataclass(frozen=True)
class Grid1D:
    x_min: float
    x_max: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 8:
            raise ValueError("grid needs at least 8 points")
        if self.x_max <= self.x_min:
            raise ValueError("empty grid interval")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)


@dataclass(frozen=True)
class SimConfig:
    dt: float | None = None
    T: float = 1.0
    boundary: str = "exact_dirichlet"  # or "periodic"
    scheme: str = "explicit_rk4_mol"  # or "imex_cn"
    snapshot_times: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.T) and self.T > 0):
            raise ConfigError("final time must be positive and finite")
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigError("time step must be positive and finite")
        if self.boundary not in ("exact_dirichlet", "periodic"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if self.scheme not in ("explicit_rk4_mol", "imex_cn"):
            raise ValueError(f"unknown scheme {self.scheme!r}")

    def resolved_dt(self, h: float) -> float:
        if self.dt is not None:
            return self.dt
        return EXPLICIT_DT_MARGIN * h * h / 2.0

    def resolved_snapshots(self) -> tuple[float, ...]:
        if self.snapshot_times is not None:
            times = tuple(sorted(self.snapshot_times))
            if times and (times[0] < 0 or times[-1] > self.T * (1 + 1e-12)):
                raise ValueError("snapshot times outside [0, T]")
            return times
        return tuple(np.linspace(0.0, self.T, 11))


@dataclass
class SimResult:
    grid: Grid1D
    config: SimConfig
    times: list[float] = field(default_factory=list)
    snapshots: list[np.ndarray] = field(default_factory=list)
    linf_errors: list[float] = field(default_factory=list)
    l2_errors: list[float] = field(default_factory=list)
    energy_series: list[float] = field(default_factory=list)
    front_trajectory: list[tuple[float, float]] = field(default_factory=list)
    measured_speed: float | None = None


def reaction(u: np.ndarray) -> np.ndarray:
    return u - u * u * u


def discrete_energy(u: np.ndarray, h: float, periodic: bool) -> float:
    """Lyapunov functional of the semi-discrete flow:
    sum h * (0.5*((u_{i+1}-u_i)/h)^2 - 0.5*u_i^2 + 0.25*u_i^4)."""
    if periodic:
        du = (np.roll(u, -1) - u) / h
        grad = 0.5 * float(np.dot(du, du)) * h
        pot = float(np.sum(-0.5 * u * u + 0.25 * u**4)) * h
    else:
        du = np.diff(u) / h
        grad = 0.5 * float(np.dot(du, du)) * h
        pot = float(np.sum(-0.5 * u[:-1] ** 2 + 0.25 * u[:-1] ** 4)) * h
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


def measure_speed(result_or_trajectory) -> float:
    """Least-squares slope of x_front versus t.

    Accepts a SimResult or a bare list of (t, x_front) pairs.
    """
    trajectory = getattr(result_or_trajectory, "front_trajectory",
                         result_or_trajectory)
    if len(trajectory) < 3:
        raise InsufficientData("speed fit needs at least 3 trajectory points")
    ts = np.array([t for t, _ in trajectory])
    xs = np.array([x for _, x in trajectory])
    tm, xm = ts.mean(), xs.mean()
    return float(np.dot(ts - tm, xs - xm) / np.dot(ts - tm, ts - tm))


class _Imex:
    """Crank-Nicolson diffusion solve with explicit reaction.

    The constructor factors the symmetric positive definite CN matrix once
    (LAPACK dpttrf, O(n)); each step is one dpttrs solve.  On periodic grids
    the cyclic matrix is A = B - r*e*e^T with e = e_0 + e_{n-1}, where B is
    tridiagonal with 1 + 3r in both corners of its diagonal, so each step
    solves with B and applies the Sherman-Morrison correction
    (Numerical Recipes, section 2.7).
    """

    def __init__(self, n: int, h: float, dt: float, periodic: bool):
        # imported here so that only runs taking an IMEX step load LAPACK
        from scipy.linalg.lapack import dpttrf, dpttrs

        self._dpttrs = dpttrs
        self.h, self.dt, self.periodic = h, dt, periodic
        r = dt / (2.0 * h * h)
        self.r = r
        m = n if periodic else n - 2
        diag = np.full(m, 1.0 + 2.0 * r)
        if periodic:
            diag[0] = diag[-1] = 1.0 + 3.0 * r
        self.d, self.e, _ = dpttrf(diag, np.full(m - 1, -r))
        if periodic:
            z = self._solve(np.concatenate(([-r], np.zeros(n - 2), [-r])))
            self.correction = z / (1.0 + z[0] + z[-1])

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        x, _ = self._dpttrs(self.d, self.e, rhs)
        return x

    def step(self, u, t_new, boundary_values):
        r, h = self.r, self.h
        if self.periodic:
            lap = (np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) / (h * h)
            y = self._solve(u + 0.5 * self.dt * lap + self.dt * reaction(u))
            return y - (y[0] + y[-1]) * self.correction
        lap = np.zeros_like(u)
        lap[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
        rhs = (u + 0.5 * self.dt * lap + self.dt * reaction(u))[1:-1]
        left, right = boundary_values(t_new)
        rhs[0] += r * left
        rhs[-1] += r * right
        return np.concatenate(([left], self._solve(rhs), [right]))


def _rk4_rhs_factory(grid: Grid1D, periodic: bool):
    """Method-of-lines right-hand side; on exact_dirichlet grids the two
    boundary nodes take the given (left, right) values of u_t."""
    h2 = grid.h * grid.h

    if periodic:
        def rhs(u: np.ndarray, edge) -> np.ndarray:
            lap = (np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) / h2
            return lap + reaction(u)
        return rhs

    def rhs(u: np.ndarray, edge) -> np.ndarray:
        out = np.empty_like(u)
        out[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h2 + reaction(u[1:-1])
        out[0], out[-1] = edge
        return out

    return rhs


def _march(u0, grid, config, spec: SolutionSpec | None) -> SimResult:
    periodic = config.boundary == "periodic"
    h = grid.h
    dt = config.resolved_dt(h)
    if dt <= 0:
        raise ConfigError("time step must be positive")
    rk4 = config.scheme == "explicit_rk4_mol"
    if rk4:
        limit = EXPLICIT_DT_MARGIN * h * h / 2.0
        if dt > limit * (1.0 + 1e-12):
            raise ConfigError(
                f"explicit scheme needs dt <= {limit:g} at h = {h:g}, got {dt:g}"
            )
        rhs = _rk4_rhs_factory(grid, periodic)
    else:
        imex = _Imex(grid.n, h, dt, periodic)

    xs = grid.xs()
    edges = xs[[0, -1]]

    def boundary_values(t: float) -> np.ndarray:
        u, _, _ = spec.profile(spec.xi(edges, t))
        return u

    def rk4_boundary_data(t: float, step: float):
        """u_t on both boundary nodes at the stage times t, t + step/2 and
        t + step, and u there at t + step, from one profile evaluation."""
        ts = np.array([[t], [t + 0.5 * step], [t + step]])
        u, du, _ = spec.profile(spec.xi(edges, ts))
        return spec.w * du, u[2]

    result = SimResult(grid, config)
    snapshots = config.resolved_snapshots()

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
    t = 0.0
    pending = [st for st in snapshots]
    if pending and abs(pending[0]) < 1e-12:
        record(0.0, u)
        pending.pop(0)

    while t < config.T - 1e-12:
        target = pending[0] if pending else config.T
        step = min(dt, target - t, config.T - t)
        if step < 1e-14:
            step = target - t
        if rk4:
            if periodic:
                u_t = (None, None, None)
            else:
                u_t, reset = rk4_boundary_data(t, step)
            k1 = rhs(u, u_t[0])
            k2 = rhs(u + 0.5 * step * k1, u_t[1])
            k3 = rhs(u + 0.5 * step * k2, u_t[1])
            k4 = rhs(u + step * k3, u_t[2])
            u = u + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not periodic:
                u[0], u[-1] = reset
        else:
            if abs(step - dt) > 1e-14 * max(1.0, dt) and step < dt:
                sub = _Imex(grid.n, h, step, periodic)
            else:
                sub = imex
            u = sub.step(u, t + step, None if periodic else boundary_values)
        t += step
        if float(np.max(np.abs(u))) > BLOWUP_LIMIT:
            raise UnstableStep(f"field magnitude exceeded {BLOWUP_LIMIT:g} at t = {t:g}")
        if pending and t >= pending[0] - 1e-12:
            record(pending[0], u)
            pending.pop(0)

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
    for zone in spec.singular_zones():
        if xi_lo - zone.half_width < zone.center < xi_hi + zone.half_width:
            raise ValueError(
                f"{spec.entry_id} is singular inside the space-time window;"
                " choose a domain clear of the traveling pole"
            )
    u0 = spec.eval(xs, np.zeros_like(xs))
    return _march(u0, grid, config, spec)


def simulate_field(u0, grid: Grid1D, config: SimConfig) -> SimResult:
    """Evolve raw initial data (periodic boundaries only)."""
    if config.boundary != "periodic":
        raise ConfigError("raw initial data needs periodic boundaries")
    return _march(np.asarray(u0, dtype=float), grid, config, None)


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
