"""Evaluatable catalog of the closed-form traveling waves.

Every derived entry lowers to one numeric core

    u(x, t) = u0 + amp * S(theta),   theta = nu*xi + shift,  xi = k*x + w*t,

where S(theta) = 1/(1 + e^-theta) for the regular (kink) entries and
S(theta) = 1/(1 - e^-theta) for the singular ones.  The core constants come
from the exact closure branches: u0 = A0, amp = A1*nu is +-1 exactly, nu is
the branch exponential rate, and shift encodes the integration constants
(c2/c1 ratio, a/b ratio, or the canonical shift c).  Printed-variant entries
reproduce ambiguous published sign/scale readings literally so the verifier
can classify them; each is a row of branch data: u0, amp and a multiple of
the rate of one closure branch, whose speed it takes, with shift 0.

Every entry also carries its core in Q(sqrt(2)) (ExactCore): u0, amp, the
rate N = nu*k and the speed ratio W = w/k, none of which depends on k, and
its floats are that core read at k (ExactCore.lowered, the one lowering).
The ODE residual of the core is a cubic in S whose four coefficients
(ode_coefficients) are then k-free too, so whether an entry solves the ODE
(SolutionSpec.solves_ode, the one validity predicate) is decided by
structural zero, not by a tolerance.

Building the catalog needs only the standard library; the array methods
(xi, regular_mask, profile, eval, partials, logistic_pair) load numpy when
they run.  Its scalar twin, profile_rows, evaluates the same closed form
with math; each is the other's test oracle.

Entry ids are stable catalog codes: family code (eq19..eq30), one sign
character, then an optional variant suffix.  For the a0 = 0 families the
sign is the overall sign of the wave and "r" marks the reversed frame
(w < 0).  For the a0 = +-1 families the sign is the sign of A0 and "m"
marks the mixed choice sign(A1) != sign(A0).  Reading variants carry
"printed", "tanh", or "coth".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .closure import ClosureBranch, run_derivation
from .qfield import Radical2
from .reduction import (EvolutionEquation, WaveFrame, check_wave_number,
                        reduce_to_ode)

SINGULAR_HALF_WIDTH = 0.1


def logistic_pair(theta):
    """(1/(1 + e^-theta), 1/(1 + e^theta)) to full relative precision.

    With e = e^-|theta|, written as (e if theta < 0 else 1) / (1 + e) and
    its mirror: the one exponent is <= 0, so nothing overflows, and the
    small half never comes from a cancellation.
    """
    import numpy as np

    e = np.exp(-np.abs(theta))
    d = 1.0 + e
    s, h = np.where(theta < 0.0, e, 1.0), np.where(theta > 0.0, e, 1.0)
    s /= d  # in place: a run's snapshots peak one field lower
    h /= d
    return s, h


class Family(str, Enum):
    GENERAL_EXP_RATIO = "general_exp_ratio"
    TANH_KINK = "tanh_kink"
    COTH_SINGULAR = "coth_singular"
    AB_EXP_FORM = "ab_exp_form"
    CANONICAL_TANH = "canonical_tanh"


@lru_cache(maxsize=1)
def _branches() -> dict[tuple[int, int, int], ClosureBranch]:
    """Closure branches keyed by (a0, s1, sw); k-independent scaled data."""
    report = run_derivation(reduce_to_ode(EvolutionEquation(3), WaveFrame()))
    return {(b.a0_int, b.s1, b.sw): b for b in report.solution.branches}


def branch_for(a0: int, s1: int, sw: int) -> ClosureBranch:
    key = (a0, s1, sw)
    table = _branches()
    if key not in table:
        raise KeyError(f"no nondegenerate branch for (a0, s1, sw) = {key}")
    return table[key]


class ExactCore(NamedTuple):
    """The k-free exact data of an entry: u = u0 + amp*S(theta) with
    nu = N/k and w = W*k."""

    u0: Radical2
    amp: Radical2
    N: Radical2
    W: Radical2

    def lowered(self, k: float) -> dict[str, float]:
        """The SolutionSpec floats u0, amp, nu and w of this core read at
        wave number k: every entry's numbers are built here."""
        return {"u0": float(self.u0), "amp": float(self.amp),
                "nu": float(self.N) / k, "w": float(self.W) * k}


@dataclass(frozen=True)
class SolutionSpec:
    """One concrete traveling-wave profile with analytic partials."""

    entry_id: str
    family_code: str
    family: Family
    reading: str  # "derived" or "printed"
    a0: int
    s1: int
    sw: int
    k: float
    exact: ExactCore
    # the family's free constants, (name, value) in the catalog's order
    params: tuple[tuple[str, float], ...] = ()
    # lowered numeric core
    u0: float = 0.0
    amp: float = 0.0
    nu: float = 0.0
    shift: float = 0.0
    qsign: int = 1
    w: float = 0.0

    # -- geometry ------------------------------------------------------

    def xi(self, x, t):
        """The wave coordinate k*x + w*t; a ValueError where it overflows."""
        import numpy as np

        x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        try:
            with np.errstate(over="raise", invalid="raise"):
                return self.k * x + self.w * t
        except FloatingPointError:
            raise self._overflow() from None

    def _overflow(self) -> ValueError:
        return ValueError(f"{self.entry_id}: the wave coordinate k*x + w*t"
                          f" overflows at k = {self.k:g}, w = {self.w:g}")

    @property
    def wave(self) -> tuple:
        """The floats every evaluation reads: two entries with equal waves
        give the same numbers at every point."""
        return (self.k, self.w, self.u0, self.amp, self.nu, self.shift,
                self.qsign)

    @property
    def pole(self) -> float | None:
        """The wave coordinate of the singular entries' pole, else None."""
        return None if self.qsign > 0 else -self.shift / self.nu

    def front_level(self) -> float:
        return self.u0 + self.amp / 2.0

    def regular_mask(self, xi, margin: float = 0.0):
        """True where xi lies outside the singular zone widened by margin:
        the one array form of the rule |xi - pole| < SINGULAR_HALF_WIDTH."""
        import numpy as np

        pole = self.pole
        if pole is None:
            return np.ones(np.shape(xi), dtype=bool)
        return ~(np.abs(np.asarray(xi, dtype=float) - pole)
                 < SINGULAR_HALF_WIDTH + margin)

    def check_zone(self, x_range, t_range, every: bool = False) -> None:
        """Refuse, without numpy, a run's window x_range x t_range that the
        zone meets (lo - half < pole < hi + half, xi in [lo, hi]), or with
        every an audit grid with these corners whose xi overflows or lies in
        the zone at every point: the corners bound xi = k*x + w*t and each
        rounding is monotone, so they decide what xi and regular_mask do."""
        xis = [self.k * x + self.w * t for x in x_range for t in t_range]
        lo, hi, pole, half = min(xis), max(xis), self.pole, SINGULAR_HALF_WIDTH
        if not every:
            if pole is not None and lo - half < pole < hi + half:
                raise ValueError(f"{self.entry_id} is singular inside the"
                                 " space-time window; choose a domain clear"
                                 " of the traveling pole")
        elif not all(map(math.isfinite, xis)):
            raise self._overflow()
        elif pole is not None and max(abs(lo - pole), abs(hi - pole)) < half:
            raise ValueError(f"{self.entry_id}: every grid point fell inside"
                             " a singular zone")

    def _check_regular(self, xi) -> None:
        pole = self.pole
        if pole is not None and not self.regular_mask(xi).all():
            raise ValueError(
                f"{self.entry_id}: point inside singular zone at"
                f" xi = {pole:g} (half width {SINGULAR_HALF_WIDTH:g})"
            )

    # -- evaluation ----------------------------------------------------

    def _core(self, xi):
        """S and 1-S of the lowered core, evaluated stably."""
        import numpy as np

        theta = self.nu * np.asarray(xi, dtype=float) + self.shift
        if self.qsign > 0:
            s, h = logistic_pair(theta)
        else:
            with np.errstate(over="ignore", divide="ignore"):
                s = 1.0 / (-np.expm1(-theta))
                h = -1.0 / np.expm1(theta)
        return s, h

    def profile(self, xi):
        """(u, du/dxi, d2u/dxi2) along the wave coordinate."""
        import numpy as np

        xi = np.asarray(xi, dtype=float)
        self._check_regular(xi)
        s, h = self._core(xi)
        sp = s * h
        du = self.amp * self.nu * sp
        d2 = self.amp * self.nu * self.nu * sp * (h - s)
        return self.u0 + self.amp * s, du, d2

    def eval(self, x, t):
        """Wave value at laboratory coordinates; scalar in, scalar out."""
        import numpy as np

        xi = self.xi(x, t)
        self._check_regular(xi)
        u = self.u0 + self.amp * self._core(xi)[0]  # profile's u, alone
        return float(u) if np.isscalar(x) and np.isscalar(t) else u

    def profile_rows(self, xs: list[float],
                     t: float) -> tuple[list[tuple[float, float]], int]:
        """The (x, u) rows of the wave at time t outside the singular zone,
        and the number of rows omitted inside it.

        The scalar twin of eval, with math in place of numpy: the same
        formulas in the same order, so the two differ only where libm's exp
        and numpy's differ in the last bit.  A wave coordinate that
        overflows is the same ValueError.
        """
        k, nu, shift, u0, amp = self.k, self.nu, self.shift, self.u0, self.amp
        pole, kink = self.pole, self.qsign > 0
        wt, exp, expm1, inf = self.w * t, math.exp, math.expm1, math.inf
        rows: list[tuple[float, float]] = []
        append = rows.append
        omitted = 0
        for x in xs:
            xi = k * x + wt
            if not -inf < xi < inf:
                raise self._overflow()
            if pole is not None and abs(xi - pole) < SINGULAR_HALF_WIDTH:
                omitted += 1
                continue
            theta = nu * xi + shift
            if kink:  # logistic_pair's S: (e if theta < 0 else 1) / (1 + e)
                e = exp(-abs(theta))
                append((x, u0 + amp * ((e if theta < 0.0 else 1.0) / (1.0 + e))))
                continue
            try:
                s = 1.0 / -expm1(-theta)
            except OverflowError:  # numpy's expm1 gives +inf: S is 1/-inf
                s = -0.0
            append((x, u0 + amp * s))
        return rows, omitted

    def partials(self, x, t):
        """(u_t, u_x, u_xx) from the closed-form chain rule."""
        import numpy as np

        xi = self.xi(x, t)
        _, du, d2 = self.profile(xi)
        u_t = self.w * du
        u_x = self.k * du
        u_xx = self.k * self.k * d2
        if np.isscalar(x) and np.isscalar(t):
            return float(u_t), float(u_x), float(u_xx)
        return u_t, u_x, u_xx

    @property
    def solves_ode(self) -> bool:
        """Whether the entry solves the ODE, at every k: the one validity
        predicate, the structural zero of its ode_coefficients."""
        return not any(ode_coefficients(self.exact))


@lru_cache(maxsize=64)
def ode_coefficients(core: ExactCore) -> tuple[Radical2, ...]:
    """The coefficients of S^0..S^3 in the ODE residual w*u' - k^2*u'' +
    u^3 - u of an entry's exact core, computed once per distinct core.

    With S' = S(1 - S), u = u0 + amp*S(nu*xi + shift), N = nu*k and
    W = w/k, the residual is a cubic in S whose coefficients hold no k:
    the entry solves the ODE, at every k, exactly when all four are zero.
    """
    u0, amp, n, w = core
    return (u0 * u0 * u0 - u0,
            amp * (w * n - n * n + 3 * u0 * u0 - 1),
            amp * (3 * n * n - w * n + 3 * u0 * amp),
            amp * (amp * amp - 2 * n * n))


def derived_entry(entry_id: str, family_code: str, family: Family, a0: int,
                  s1: int, sw: int, k: float, **params: float) -> SolutionSpec:
    """The entry of closure branch (a0, s1, sw) at wave number k, with the
    free constants its family names (params) lowered to the core.

    The canonical form's c is the shift, -2c.  Every other family fixes the
    ratio q of the additive constant to the exponential's coefficient in S:
    c2/(s_scale*c1)/k^2 (general), 1 (tanh kink), -1 (coth) or a/b (a-b
    form); the shift is -ln|q| and the sign of q picks S.
    """
    branch = branch_for(a0, s1, sw)
    if family is Family.CANONICAL_TANH:
        shift, qsign = -2.0 * params["c"], 1
    else:
        scale = 1.0
        if family is Family.GENERAL_EXP_RATIO:
            num, den = params["c2"], float(branch.s_scale) * params["c1"]
            scale = k * k  # divides last: the ratio is finite wherever k*k is
        elif family is Family.AB_EXP_FORM:
            num, den = params["a"], params["b"]
        else:
            num, den = (1.0 if family is Family.TANH_KINK else -1.0), 1.0
        q = num / den / scale if den else 0.0
        if not (q and math.isfinite(q)):
            raise ValueError(
                f"{entry_id} at k = {k:g}: the constant ratio"
                f" {num:g}/{den:g} is not a finite nonzero number")
        shift, qsign = -math.log(abs(q)), (1 if q > 0 else -1)
    rate = branch.nu_times_k
    exact = ExactCore(branch.a0, branch.alpha * rate, rate, branch.w_over_k)
    return SolutionSpec(entry_id, family_code, family, "derived", a0, s1, sw,
                        k, exact, tuple(params.items()), **exact.lowered(k),
                        shift=shift, qsign=qsign)


# (id suffix, a0, s1, sw) of the sign variants, for a0 = 0 and a0 = +-1
A0_ZERO = (("+", 0, 1, 1), ("-", 0, -1, 1), ("+r", 0, -1, -1), ("-r", 0, 1, -1))
A0_UNIT = (("+", 1, 1, 1), ("+m", 1, -1, -1), ("-", -1, -1, 1), ("-m", -1, 1, -1))


def enumerate_catalog(k: float) -> list[SolutionSpec]:
    """Every sign/reading variant of the catalog, with stable ids."""
    check_wave_number(k)
    entries: list[SolutionSpec] = []

    def derived(code, family, variants, tail="", **params):
        for suffix, a0, s1, sw in variants:
            entries.append(derived_entry(f"{code}{suffix}{tail}", code, family,
                                         a0, s1, sw, k, **params))

    def printed(family, params, *rows):
        # a row: (id stem, (a0, s1, sw), key of the branch whose rate and
        # speed it takes, u0, amp, multiple of that rate); shift 0, logistic S
        for stem, (a0, s1, sw), key, u0, amp, multiple in rows:
            branch = branch_for(*key)
            exact = ExactCore(Radical2.of(u0), Radical2.of(amp),
                              branch.nu_times_k * multiple, branch.w_over_k)
            entries.append(SolutionSpec(
                f"{stem}printed", stem[:4], family, "printed", a0, s1, sw, k,
                exact, tuple(params.items()), **exact.lowered(k)))

    derived("eq19", Family.GENERAL_EXP_RATIO, A0_ZERO, c1=1.0, c2=1.0)
    derived("eq20", Family.TANH_KINK, A0_ZERO, c1=1.0)
    derived("eq21", Family.COTH_SINGULAR, A0_ZERO, c1=1.0)
    derived("eq22", Family.GENERAL_EXP_RATIO, A0_UNIT, c1=1.0, c2=1.0)
    derived("eq23", Family.TANH_KINK, A0_UNIT, c1=1.0)
    derived("eq24", Family.COTH_SINGULAR, A0_UNIT, "coth", c1=1.0)
    # the tanh reading of the minus-constant choice, at the derived scaling,
    # reproduces the plus-constant kink; kept so the audit can say so
    derived("eq24", Family.TANH_KINK, (A0_UNIT[0], A0_UNIT[2]), "tanh", c1=1.0)

    # printed readings of the shifted-kink pair: amplitude -1 on the whole
    # brace and the exponential rate as tanh argument (no half scaling)
    printed(Family.TANH_KINK, {"c1": 1.0},
            ("eq23+", (1, 1, 1), (1, 1, 1), 1, -2, 2),
            ("eq23-", (-1, -1, 1), (-1, -1, 1), -1, -2, 2))
    printed(Family.COTH_SINGULAR, {"c1": 1.0},
            ("eq24+", (1, 1, 1), (1, 1, 1), 1, -2, 2),
            ("eq24-", (-1, -1, 1), (-1, -1, 1), -1, -2, 2))

    derived("eq25", Family.AB_EXP_FORM, A0_ZERO, a=1.0, b=1.0)
    derived("eq26", Family.CANONICAL_TANH, A0_ZERO, c=0.0)
    for s1, sgn in ((1, "+"), (-1, "-")):
        for a0, ab_code, canonical_code in ((1, "eq27", "eq28"), (-1, "eq29", "eq30")):
            variant = ((sgn, a0, s1, a0 * s1),)
            derived(ab_code, Family.AB_EXP_FORM, variant, a=1.0, b=1.0)
            derived(canonical_code, Family.CANONICAL_TANH, variant, c=0.0)

    # printed double-scale canonical readings tanh(sigma*x/sqrt2 + 3t/2 + c),
    # at the rate and speed of the a0 = 0 branch (0, sigma, sigma)
    printed(Family.CANONICAL_TANH, {"c": 0.0},
            ("eq26+", (0, 1, 1), (0, 1, 1), 0, 1, 2),
            ("eq26-", (0, 1, -1), (0, -1, -1), 0, -1, 2),
            ("eq28+", (1, 1, 1), (0, 1, 1), 0, 1, 2),
            ("eq28-", (1, -1, -1), (0, -1, -1), 0, 1, 2),
            ("eq30+", (-1, 1, 1), (0, 1, 1), 0, -1, 2),
            ("eq30-", (-1, -1, -1), (0, -1, -1), 0, -1, 2))
    # printed leading "-1 -" reading of the a0 = -1 exponential form
    printed(Family.AB_EXP_FORM, {"a": 1.0, "b": 1.0},
            ("eq29+", (-1, 1, -1), (-1, 1, -1), -1, -1, 1),
            ("eq29-", (-1, -1, 1), (-1, -1, 1), -1, -1, 1))

    return entries


def catalog_by_id(k: float) -> dict[str, SolutionSpec]:
    return {e.entry_id: e for e in enumerate_catalog(k)}


def reduce_ab_to_canonical(spec: SolutionSpec) -> SolutionSpec:
    """Rewrite S = a + b*exp(nu*xi) as the canonical shifted kink.

    Requires a > 0 and b > 0; the shift is c = ln(a/b)/2.
    """
    if spec.family is not Family.AB_EXP_FORM:
        raise ValueError("reduce_ab_to_canonical needs an a-b exponential spec")
    constants = dict(spec.params)
    a, b = constants["a"], constants["b"]
    if a <= 0 or b <= 0:
        raise ValueError("reduction needs a > 0 and b > 0")
    c = 0.5 * math.log(a / b)
    # the paper numbers each canonical form right after its a-b form
    code = f"eq{int(spec.family_code[2:]) + 1}"
    return derived_entry(f"{spec.entry_id}->canonical", code,
                         Family.CANONICAL_TANH, spec.a0, spec.s1, spec.sw,
                         spec.k, c=c)
