"""Traveling-wave reduction of the bistable evolution family u_t = u_xx - u^m + u.

Passing to the comoving coordinate xi = k*x + w*t replaces u_t by w*u' and
u_xx by k**2 * u'', turning the PDE into a second-order ODE in xi.  The
homogeneous-balance rule then fixes the ansatz degree from the formal
degrees D(d^p u / dxi^p) = n + p and D(u^p * (d^q u)^s) = n*p + s*(n + q).

The module also decides, without numpy, what a valid run is (Grid1D,
GridSpec, SimConfig and its checked_dt, refinement_levels), so the command
line checks every run setting before numpy loads.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .qfield import Frozen
from .symexpr import SymExpr

# about 45 rounding units of t = 1; a run to T = 1 takes 1e14 such steps
MIN_TIME_STEP = 1e-14
# the most steps T/dt a run may ask for: far beyond the few thousand that
# any run of the toolkit takes, and at least minutes of stepping on the
# smallest grid, so a larger count is a mistyped T or dt
MAX_STEPS = 10**7
# the most points a grid may hold, an audit grid's nx*nt included: ten
# times the finest grid of the tests (100001 points), so a larger count is
# a mistyped one, refused before anything is allocated
MAX_POINTS = 10**6
# The split scheme's default step.  Its spatial error is spectral, so its
# error on the kink is temporal, about 2e-3*dt^2 at T = 1 on any grid that
# resolves the front: 2e-7 at this step, in 100 steps.
SPLIT_DT = 0.01
# each time stepper's name on the command line, and its SimConfig scheme
SCHEMES = {"rk4": "explicit_rk4_mol", "imex": "imex_cn"}


class EvolutionEquation(Frozen):
    """u_t = u_xx - u^m + u with integer nonlinearity power m >= 2.

    m = 3 is the bistable (Allen-Cahn/Cahn-Allen) case.
    """

    __slots__ = ("m",)

    def __init__(self, m: int = 3) -> None:
        if m < 2:
            raise ValueError("nonlinearity power m must be >= 2")
        super().__init__(m)


class WaveFrame(Frozen):
    """The comoving frame xi = k*x + w*t, with k and w the symbolic atoms."""

    __slots__ = ()


class Grid1D(Frozen):
    """A uniform grid of n points on [x_min, x_max]; checked, like the run
    times, without numpy, which only xs() loads."""

    __slots__ = ("x_min", "x_max", "n")

    def __init__(self, x_min: float, x_max: float, n: int) -> None:
        if n < 8:
            raise ValueError("grid needs at least 8 points")
        if n > MAX_POINTS:
            raise ValueError(f"grid needs at most {MAX_POINTS:,} points")
        if x_max <= x_min:
            raise ValueError("empty grid interval")
        if not math.isfinite(x_max - x_min):
            raise ValueError("grid span is not a finite number")
        super().__init__(x_min, x_max, n)

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    def xs(self):
        import numpy as np

        return np.linspace(self.x_min, self.x_max, self.n)


def check_wave_number(k: float) -> float:
    """k itself if it is a usable wave number, else a ValueError."""
    if not (math.isfinite(k) and k > 0):
        raise ValueError(f"wave number k must be positive and finite, got {k}")
    if k * k < sys.float_info.min:
        raise ValueError(f"wave number k = {k} is too small: k**2 underflows")
    if k * k == math.inf:
        raise ValueError(f"wave number k = {k} is too large: k**2 overflows")
    return k


def linspace(start: float, stop: float, n: int) -> list[float]:
    """numpy.linspace(start, stop, n), bit for bit, as a list."""
    delta = stop - start
    if n < 2:  # no step: numpy's 0*delta + start
        return [0.0 * delta + start] * n
    div = n - 1
    step = delta / div
    if step:
        xs = [i * step + start for i in range(n)]
    else:  # a step that underflows: scale each index by delta instead
        xs = [i / div * delta + start for i in range(n)]
    xs[-1] = stop
    return xs


class GridSpec(Frozen):
    """The audit's grid of nx points on x_range by nt on t_range; checked
    without numpy, which only mesh() loads."""

    __slots__ = ("x_range", "t_range", "nx", "nt")

    def __init__(self, x_range: tuple[float, float] = (-10.0, 10.0),
                 t_range: tuple[float, float] = (0.0, 1.0),
                 nx: int = 201, nt: int = 11) -> None:
        if nx < 2 or nt < 1:
            raise ValueError("grid needs nx >= 2 and nt >= 1")
        if nx * nt > MAX_POINTS:
            raise ValueError(f"grid needs nx*nt <= {MAX_POINTS:,}")
        if not all(math.isfinite(hi - lo) for lo, hi in (x_range, t_range)):
            raise ValueError("grid span is not a finite number")
        super().__init__(x_range, t_range, nx, nt)

    @lru_cache(maxsize=16)
    def mesh(self):
        """The (x, t) mesh, built once per grid and shared read-only."""
        import numpy as np

        xs = np.linspace(self.x_range[0], self.x_range[1], self.nx)
        ts = np.linspace(self.t_range[0], self.t_range[1], self.nt)
        X, T = np.meshgrid(xs, ts, indexing="ij")
        X.flags.writeable = T.flags.writeable = False
        return X, T


def explicit_dt_limit(h: float) -> float:
    """The RK4 step on a grid of spacing h: the default step and the
    largest one a run accepts.  For |u| <= 1 the spectrum of the linearised
    right-hand side lies in [-(4/h^2 + 2), 1], so this step puts its
    stiffest mode at z = -2, where |R(z)| = 1/3, well inside RK4's real
    stability interval [-2.785, 0] (Hairer & Wanner, Solving ODEs II,
    section IV.2)."""
    return 2.0 / (4.0 / (h * h) + 2.0)


class SimConfig(Frozen):
    __slots__ = ("dt", "T", "boundary", "scheme", "snapshot_times")

    def __init__(self, dt: float | None = None, T: float = 1.0,
                 boundary: str = "exact_dirichlet",
                 scheme: str = "explicit_rk4_mol",
                 snapshot_times: tuple[float, ...] | None = None) -> None:
        """boundary "exact_dirichlet" or "periodic"; scheme
        "explicit_rk4_mol" or "imex_cn", the split scheme."""
        if not (math.isfinite(T) and T > 0):
            raise ValueError("final time must be positive and finite")
        if dt is not None:
            if not (math.isfinite(dt) and dt > 0):
                raise ValueError("time step must be positive and finite")
            if dt < MIN_TIME_STEP:
                raise ValueError(f"time step {dt} is below the smallest"
                                 f" step {MIN_TIME_STEP}")
        if boundary not in ("exact_dirichlet", "periodic"):
            raise ValueError(f"unknown boundary {boundary!r}")
        if scheme not in SCHEMES.values():
            raise ValueError(f"unknown scheme {scheme!r}")
        if snapshot_times is not None:
            if not all(map(math.isfinite, snapshot_times)):
                raise ValueError("snapshot times must be finite numbers")
            if not all(0 <= t <= T * (1 + 1e-12) for t in snapshot_times):
                raise ValueError("snapshot times outside [0, T]")
        super().__init__(dt, T, boundary, scheme, snapshot_times)

    def resolved_dt(self, h: float) -> float:
        """The given dt, or the scheme's default step."""
        if self.dt is not None:
            return self.dt
        if self.scheme == "imex_cn":
            return SPLIT_DT
        return explicit_dt_limit(h)

    def checked_dt(self, h: float) -> float:
        """The step a run on a grid of spacing h takes, resolved_dt(h); a
        ValueError, with its reason, if the run takes more than MAX_STEPS
        steps, or if an RK4 run's step exceeds explicit_dt_limit(h)."""
        T, dt = self.T, self.resolved_dt(h)
        if T / dt > MAX_STEPS:
            raise ValueError(f"a run to T = {T:g} at dt = {dt:g} takes"
                             f" {T / dt:.3g} steps, more than the cap of"
                             f" {MAX_STEPS:,}")
        if self.scheme == "explicit_rk4_mol":
            limit = explicit_dt_limit(h)
            if dt > limit * (1.0 + 1e-12):
                raise ValueError(f"explicit scheme needs dt <= {limit:g}"
                                 f" at h = {h:g}, got {dt:g}")
        return dt

    def resolved_snapshots(self) -> tuple[float, ...]:
        if self.snapshot_times is not None:
            return tuple(sorted(self.snapshot_times))
        return tuple(linspace(0.0, self.T, 11))


def refinement_levels(grids: list[Grid1D],
                      config: SimConfig) -> list[SimConfig]:
    """The run settings of each grid of a refinement study: dt scaled with
    h**2 from the config's step on the first grid, so that the spatial
    error leads.  Every level's step is checked before any level runs."""
    if len(grids) < 3:
        raise ValueError("a refinement study needs at least 3 grids")
    h0 = grids[0].h
    dt0 = config.resolved_dt(h0)
    levels = [SimConfig(dt=dt0 * (g.h / h0) ** 2, T=config.T,
                        boundary=config.boundary, scheme=config.scheme,
                        snapshot_times=(0.0, config.T)) for g in grids]
    for g, level in zip(grids, levels):
        level.checked_dt(g.h)
    return levels


class TravelingWaveODE(NamedTuple):
    m: int
    expression: SymExpr  # in u, u', u'' with coefficients over k, w


def reduce_to_ode(eq: EvolutionEquation, frame: WaveFrame) -> TravelingWaveODE:
    """Apply the frame substitution; for m = 3 this is w*u' - k^2*u'' + u^3 - u."""
    u = SymExpr.u_deriv(0)
    u1 = SymExpr.u_deriv(1)
    u2 = SymExpr.u_deriv(2)
    expr = SymExpr.atom("w") * u1 - SymExpr.atom("k") ** 2 * u2 + u**eq.m - u
    return TravelingWaveODE(eq.m, expr)


def _degree_line(u_powers: tuple) -> tuple[int, int]:
    """Degree as the linear function a*n + b of the ansatz degree n."""
    a = sum(exp for _, exp in u_powers)
    b = sum(exp * order for order, exp in u_powers)
    return a, b


def balance_degree(ode: TravelingWaveODE) -> int:
    """Smallest positive integer n balancing the top nonlinearity against
    the top derivative; a ValueError when no such n exists."""
    nonlinear: list[tuple[int, int]] = []
    derivative: list[tuple[int, int]] = []
    for t in ode.expression.terms:
        if not t.u_powers:
            continue
        a, b = _degree_line(t.u_powers)
        if a >= 2:
            nonlinear.append((a, b))
        if b >= 1:
            derivative.append((b, a))
    if not nonlinear or not derivative:
        raise ValueError("ode needs a nonlinear term and a derivative term")
    an, bn = max(nonlinear)
    bd, ad = max(derivative)
    # an*n + bn = ad*n + bd
    if an == ad:
        raise ValueError("balance equation is degenerate")
    n = Fraction(bd - bn, an - ad)
    if n.denominator != 1 or n <= 0:
        raise ValueError(
            f"balance gives n = {n}, not a positive integer; method inapplicable"
        )
    return int(n)

