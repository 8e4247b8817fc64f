"""Traveling-wave reduction of the bistable evolution family u_t = u_xx - u^m + u.

Passing to the comoving coordinate xi = k*x + w*t replaces u_t by w*u' and
u_xx by k**2 * u'', turning the PDE into a second-order ODE in xi.  The
homogeneous-balance rule then fixes the ansatz degree from the formal
degrees D(d^p u / dxi^p) = n + p and D(u^p * (d^q u)^s) = n*p + s*(n + q).

The module also holds what the command line checks before numpy loads:
the run grid (Grid1D), the run times and the step count.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple

from .qfield import Frozen
from .symexpr import SymExpr

# about 45 rounding units of t = 1; a run to T = 1 takes 1e14 such steps
MIN_TIME_STEP = 1e-14
# the most steps T/dt a run may ask for: far beyond the few thousand that
# any run of the toolkit takes, and at least minutes of stepping on the
# smallest grid, so a larger count is a mistyped T or dt
MAX_STEPS = 10**7


class NonIntegerBalance(ValueError):
    """The balance equation has no positive integer solution."""


class ConfigError(ValueError):
    """A run configuration outside the domain of the time steppers."""


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


def check_times(T: float, dt: float | None) -> None:
    """A ConfigError unless the final time T and the time step dt (None:
    the scheme's default) are usable; needs no numpy, so the command line
    checks them before it loads the numeric layers."""
    if not (math.isfinite(T) and T > 0):
        raise ConfigError("final time must be positive and finite")
    if dt is None:
        return
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigError("time step must be positive and finite")
    if dt < MIN_TIME_STEP:
        raise ConfigError(
            f"time step {dt} is below the smallest step {MIN_TIME_STEP}")


def check_step_count(T: float, dt: float) -> None:
    """A ConfigError if a run to T at steps of dt takes more than MAX_STEPS
    steps.  check_times leaves it out, as a configuration may name any
    usable dt: each run checks its own count before its first step, and
    the command line checks a given --dt before it loads numpy."""
    if T / dt > MAX_STEPS:
        raise ConfigError(
            f"a run to T = {T:g} at dt = {dt:g} takes {T / dt:.3g} steps,"
            f" more than the cap of {MAX_STEPS:,}")


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
    the top derivative; raises NonIntegerBalance when no such n exists."""
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
        raise NonIntegerBalance("balance equation is degenerate")
    n = Fraction(bd - bn, an - ad)
    if n.denominator != 1 or n <= 0:
        raise NonIntegerBalance(
            f"balance gives n = {n}, not a positive integer; method inapplicable"
        )
    return int(n)

