"""Traveling-wave reduction of the bistable evolution family u_t = u_xx - u^m + u.

Passing to the comoving coordinate xi = k*x + w*t replaces u_t by w*u' and
u_xx by k**2 * u'', turning the PDE into a second-order ODE in xi.  The
homogeneous-balance rule then fixes the ansatz degree from the formal
degrees D(d^p u / dxi^p) = n + p and D(u^p * (d^q u)^s) = n*p + s*(n + q).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .qfield import Radical2
from .symexpr import SymExpr


class NonIntegerBalance(Exception):
    """The balance equation has no positive integer solution."""


@dataclass(frozen=True)
class EvolutionEquation:
    """u_t = u_xx - u^m + u with integer nonlinearity power m >= 2.

    m = 3 is the bistable (Allen-Cahn/Cahn-Allen) case.
    """

    m: int = 3

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError("nonlinearity power m must be >= 2")


@dataclass(frozen=True)
class WaveFrame:
    """The comoving frame xi = k*x + w*t.

    k and w are kept symbolic when None; an exact value pins them.
    """

    k: Radical2 | None = None
    w: Radical2 | None = None

    def __post_init__(self) -> None:
        if self.k is not None and not self.k:
            raise ValueError("numeric wave number k must be nonzero")

    def k_expr(self) -> SymExpr:
        return SymExpr.atom("k") if self.k is None else SymExpr.const(self.k)

    def w_expr(self) -> SymExpr:
        return SymExpr.atom("w") if self.w is None else SymExpr.const(self.w)


def check_wave_number(k: float) -> float:
    """k itself if it is a usable wave number, else a ValueError."""
    if not (math.isfinite(k) and k > 0):
        raise ValueError(f"wave number k must be positive and finite, got {k}")
    if k * k < sys.float_info.min:
        raise ValueError(f"wave number k = {k} is too small: k**2 underflows")
    return k


@dataclass(frozen=True)
class TravelingWaveODE:
    m: int
    expression: SymExpr  # in u, u', u'' with coefficients over k, w


def reduce_to_ode(eq: EvolutionEquation, frame: WaveFrame) -> TravelingWaveODE:
    """Apply the frame substitution; for m = 3 this is w*u' - k^2*u'' + u^3 - u."""
    u = SymExpr.u_deriv(0)
    u1 = SymExpr.u_deriv(1)
    u2 = SymExpr.u_deriv(2)
    expr = frame.w_expr() * u1 - frame.k_expr() ** 2 * u2 + u**eq.m - u
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

