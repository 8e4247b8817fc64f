"""Evaluatable catalog of the closed-form traveling waves.

Every derived entry lowers to one numeric core

    u(x, t) = u0 + amp * S(theta),   theta = nu*xi + shift,  xi = k*x + w*t,

where S(theta) = 1/(1 + e^-theta) for the regular (kink) entries and
S(theta) = 1/(1 - e^-theta) for the singular ones.  The core constants come
from the exact closure branches: u0 = A0, amp = A1*nu is +-1 exactly, nu is
the branch exponential rate, and shift encodes the integration constants
(c2/c1 ratio, a/b ratio, or the canonical shift c).  Printed-variant entries
reproduce ambiguous published sign/scale readings literally so the verifier
can classify them; they use the same core with their own constants.

Entry ids are stable catalog codes: family code (eq19..eq30), one sign
character, then an optional variant suffix.  For the a0 = 0 families the
sign is the overall sign of the wave and "r" marks the reversed frame
(w < 0).  For the a0 = +-1 families the sign is the sign of A0 and "m"
marks the mixed choice sign(A1) != sign(A0).  Reading variants carry
"printed", "tanh", or "coth".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .closure import ClosureBranch, run_derivation
from .qfield import Radical2
from .reduction import (EvolutionEquation, WaveFrame, check_wave_number,
                        reduce_to_ode)

SINGULAR_HALF_WIDTH = 0.1


class SingularEvaluation(ValueError):
    """A point inside a singular zone was evaluated."""


class InvalidReduction(ValueError):
    """The a/b -> shift reduction needs positive constants."""


def logistic_pair(theta):
    """(1/(1 + e^-theta), 1/(1 + e^theta)) to full relative precision.

    Written as e^min(theta, 0) / (1 + e^-|theta|) and its mirror: every
    exponent is <= 0, so nothing overflows, and the small half never comes
    from a cancellation.
    """
    d = 1.0 + np.exp(-np.abs(theta))
    return np.exp(np.minimum(theta, 0.0)) / d, np.exp(np.minimum(-theta, 0.0)) / d


class Family(str, Enum):
    GENERAL_EXP_RATIO = "general_exp_ratio"
    TANH_KINK = "tanh_kink"
    COTH_SINGULAR = "coth_singular"
    AB_EXP_FORM = "ab_exp_form"
    CANONICAL_TANH = "canonical_tanh"


class SingularZone(NamedTuple):
    center: float
    half_width: float = SINGULAR_HALF_WIDTH

    def contains(self, xi) -> np.ndarray:
        return np.abs(np.asarray(xi, dtype=float) - self.center) < self.half_width


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
    # family parameters (unused ones stay None)
    c1: float | None = None
    c2: float | None = None
    a: float | None = None
    b: float | None = None
    c: float | None = None
    c2_choice: str = ""
    # lowered numeric core
    u0: float = 0.0
    amp: float = 0.0
    nu: float = 0.0
    shift: float = 0.0
    qsign: int = 1
    w: float = 0.0
    # exact provenance (derived entries only)
    nu_hat: Radical2 | None = None
    amp_exact: Radical2 | None = None

    # -- geometry ------------------------------------------------------

    def xi(self, x, t):
        return self.k * np.asarray(x, dtype=float) + self.w * np.asarray(t, dtype=float)

    def singular_zones(self) -> tuple[SingularZone, ...]:
        if self.qsign > 0 or self.amp == 0.0:
            return ()
        return (SingularZone(-self.shift / self.nu),)

    def front_level(self) -> float:
        return self.u0 + self.amp / 2.0

    def regular_mask(self, xi) -> np.ndarray:
        """True where xi lies outside every singular zone."""
        mask = np.ones(np.shape(xi), dtype=bool)
        for zone in self.singular_zones():
            mask &= ~zone.contains(xi)
        return mask

    def _check_regular(self, xi) -> None:
        zones = self.singular_zones()
        if zones and not self.regular_mask(xi).all():
            zone = zones[0]
            raise SingularEvaluation(
                f"{self.entry_id}: point inside singular zone at"
                f" xi = {zone.center:g} (half width {zone.half_width:g})"
            )

    # -- evaluation ----------------------------------------------------

    def _core(self, xi):
        """S and 1-S of the lowered core, evaluated stably."""
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
        xi = np.asarray(xi, dtype=float)
        self._check_regular(xi)
        if self.amp == 0.0:
            z = np.zeros_like(xi)
            return self.u0 + z, z, z.copy()
        s, h = self._core(xi)
        sp = s * h
        du = self.amp * self.nu * sp
        d2 = self.amp * self.nu * self.nu * sp * (h - s)
        return self.u0 + self.amp * s, du, d2

    def eval(self, x, t):
        """Wave value at laboratory coordinates; scalar in, scalar out."""
        xi = self.xi(x, t)
        u, _, _ = self.profile(xi)
        return float(u) if np.isscalar(x) and np.isscalar(t) else u

    def partials(self, x, t):
        """(u_t, u_x, u_xx) from the closed-form chain rule."""
        xi = self.xi(x, t)
        _, du, d2 = self.profile(xi)
        u_t = self.w * du
        u_x = self.k * du
        u_xx = self.k * self.k * d2
        if np.isscalar(x) and np.isscalar(t):
            return float(u_t), float(u_x), float(u_xx)
        return u_t, u_x, u_xx

    def params(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in ("c1", "c2", "a", "b", "c"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


def _derived_core(branch: ClosureBranch, k: float, q: float | None,
                  shift: float | None = None) -> dict:
    """Numeric core of a derived entry: q is the c2/(2*c1*k^2)-style ratio."""
    nu_hat = branch.nu_times_k
    amp_exact = branch.alpha * nu_hat
    if shift is None:
        if q is None or q == 0.0:
            raise ValueError("need a nonzero constant ratio")
        shift = -math.log(abs(q))
        qsign = 1 if q > 0 else -1
    else:
        qsign = 1
    return dict(
        u0=float(branch.a0_int),
        amp=float(amp_exact),
        nu=float(nu_hat) / k,
        shift=shift,
        qsign=qsign,
        w=float(branch.w_over_k) * k,
        nu_hat=nu_hat,
        amp_exact=amp_exact,
    )


def _constant_ratio(branch: ClosureBranch, k: float, c1: float, c2: float) -> float:
    """c2 over the exponential coefficient of S: the pole/shift control ratio."""
    p_hat = float(branch.s_scale)  # 2 for every branch
    return c2 / (p_hat * c1 * k * k)


def _case1_ids(code: str) -> list[tuple[str, int, int]]:
    """(entry_id, eps, sw) for the a0 = 0 families."""
    out = []
    for sw, suffix in ((1, ""), (-1, "r")):
        for eps, sgn in ((1, "+"), (-1, "-")):
            out.append((f"{code}{sgn}{suffix}", eps, sw))
    return out


def _case2_ids(code: str, variant: str = "") -> list[tuple[str, int, int]]:
    """(entry_id, a0, s1) for the a0 = +-1 families."""
    out = []
    for a0, sgn in ((1, "+"), (-1, "-")):
        for s1_same, suffix in ((True, ""), (False, "m")):
            s1 = a0 if s1_same else -a0
            out.append((f"{code}{sgn}{suffix}{variant}", a0, s1))
    return out


def make_general(a0: int, s1: int, sw: int, k: float, c1: float, c2: float,
                 entry_id: str = "", family_code: str = "") -> SolutionSpec:
    """General exponential-ratio solution with free constants c1 (may be 0), c2."""
    branch = branch_for(a0, s1, sw)
    if c1 == 0.0 or c2 == 0.0:
        # either constant collapses the ratio to an equilibrium:
        # c1 = 0 leaves u = a0; c2 = 0 leaves u = a0 + A1*rate
        level = float(a0) if c1 == 0.0 else float(a0) + float(
            branch.alpha * branch.nu_times_k)
        core = dict(u0=level, amp=0.0, nu=0.0, shift=0.0, qsign=1,
                    w=float(branch.w_over_k) * k, nu_hat=branch.nu_times_k,
                    amp_exact=Radical2())
    else:
        core = _derived_core(branch, k, _constant_ratio(branch, k, c1, c2))
    return SolutionSpec(
        entry_id or f"general({a0:+d},{s1:+d},{sw:+d})",
        family_code or ("eq19" if a0 == 0 else "eq22"),
        Family.GENERAL_EXP_RATIO, "derived", a0, s1, sw, k,
        c1=c1, c2=c2, **core,
    )


def make_kink(a0: int, s1: int, sw: int, k: float, entry_id: str = "",
              family_code: str = "") -> SolutionSpec:
    branch = branch_for(a0, s1, sw)
    return SolutionSpec(
        entry_id or f"kink({a0:+d},{s1:+d},{sw:+d})",
        family_code or ("eq20" if a0 == 0 else "eq23"),
        Family.TANH_KINK, "derived", a0, s1, sw, k,
        c1=1.0, c2_choice="+", **_derived_core(branch, k, 1.0),
    )


def make_singular(a0: int, s1: int, sw: int, k: float, entry_id: str = "",
                  family_code: str = "") -> SolutionSpec:
    branch = branch_for(a0, s1, sw)
    return SolutionSpec(
        entry_id or f"singular({a0:+d},{s1:+d},{sw:+d})",
        family_code or ("eq21" if a0 == 0 else "eq24"),
        Family.COTH_SINGULAR, "derived", a0, s1, sw, k,
        c1=1.0, c2_choice="-", **_derived_core(branch, k, -1.0),
    )


def make_ab(a0: int, s1: int, sw: int, k: float, a: float, b: float,
            entry_id: str = "", family_code: str = "") -> SolutionSpec:
    if b == 0.0:
        raise ValueError("b must be nonzero")
    branch = branch_for(a0, s1, sw)
    code = {0: "eq25", 1: "eq27", -1: "eq29"}[a0]
    return SolutionSpec(
        entry_id or f"ab({a0:+d},{s1:+d},{sw:+d})",
        family_code or code,
        Family.AB_EXP_FORM, "derived", a0, s1, sw, k,
        a=a, b=b, **_derived_core(branch, k, a / b),
    )


def make_canonical(a0: int, s1: int, sw: int, k: float, c: float,
                   entry_id: str = "", family_code: str = "") -> SolutionSpec:
    branch = branch_for(a0, s1, sw)
    code = {0: "eq26", 1: "eq28", -1: "eq30"}[a0]
    return SolutionSpec(
        entry_id or f"canonical({a0:+d},{s1:+d},{sw:+d})",
        family_code or code,
        Family.CANONICAL_TANH, "derived", a0, s1, sw, k,
        c=c, **_derived_core(branch, k, None, shift=-2.0 * c),
    )


def _printed_entry(entry_id: str, family_code: str, family: Family,
                   a0: int, s1: int, sw: int, k: float, *, u0: float,
                   amp: float, nu: float, shift: float, w: float,
                   **params) -> SolutionSpec:
    return SolutionSpec(
        entry_id, family_code, family, "printed", a0, s1, sw, k,
        u0=u0, amp=amp, nu=nu, shift=shift, qsign=1, w=w, **params,
    )


def enumerate_catalog(k: float) -> list[SolutionSpec]:
    """Every sign/reading variant of the catalog, with stable ids."""
    check_wave_number(k)
    entries: list[SolutionSpec] = []

    for eid, eps, sw in _case1_ids("eq19"):
        entries.append(make_general(0, eps * sw, sw, k, 1.0, 1.0, eid, "eq19"))
    for eid, eps, sw in _case1_ids("eq20"):
        entries.append(make_kink(0, eps * sw, sw, k, eid, "eq20"))
    for eid, eps, sw in _case1_ids("eq21"):
        entries.append(make_singular(0, eps * sw, sw, k, eid, "eq21"))

    for eid, a0, s1 in _case2_ids("eq22"):
        entries.append(make_general(a0, s1, a0 * s1, k, 1.0, 1.0, eid, "eq22"))
    for eid, a0, s1 in _case2_ids("eq23"):
        entries.append(make_kink(a0, s1, a0 * s1, k, eid, "eq23"))
    for eid, a0, s1 in _case2_ids("eq24", "coth"):
        entries.append(make_singular(a0, s1, a0 * s1, k, eid, "eq24"))
    # the tanh reading of the minus-constant choice, at the derived scaling,
    # reproduces the plus-constant kink; kept so the audit can say so
    for a0, sgn in ((1, "+"), (-1, "-")):
        spec = make_kink(a0, a0, 1, k, f"eq24{sgn}tanh", "eq24")
        entries.append(replace(spec, c2_choice="-"))

    # printed readings of the shifted-kink pair: amplitude -1 on the whole
    # brace and the exponential rate as tanh argument (no half scaling)
    for code in ("eq23", "eq24"):
        for a0, sgn in ((1, "+"), (-1, "-")):
            branch = branch_for(a0, a0, 1)
            nu = float(branch.nu_times_k) / k
            entries.append(_printed_entry(
                f"{code}{sgn}printed", code,
                Family.TANH_KINK if code == "eq23" else Family.COTH_SINGULAR,
                a0, a0, 1, k,
                u0=float(a0), amp=-2.0, nu=2.0 * nu, shift=0.0,
                w=float(branch.w_over_k) * k, c1=1.0,
            ))

    for eid, eps, sw in _case1_ids("eq25"):
        entries.append(make_ab(0, eps * sw, sw, k, 1.0, 1.0, eid, "eq25"))
    for eid, eps, sw in _case1_ids("eq26"):
        entries.append(make_canonical(0, eps * sw, sw, k, 0.0, eid, "eq26"))

    for s1, sgn in ((1, "+"), (-1, "-")):
        entries.append(make_ab(1, s1, s1, k, 1.0, 1.0, f"eq27{sgn}", "eq27"))
        entries.append(make_canonical(1, s1, s1, k, 0.0, f"eq28{sgn}", "eq28"))
        entries.append(make_ab(-1, s1, -s1, k, 1.0, 1.0, f"eq29{sgn}", "eq29"))
        entries.append(make_canonical(-1, s1, -s1, k, 0.0, f"eq30{sgn}", "eq30"))

    # printed double-scale canonical readings: tanh(sigma*x/sqrt2 + 3t/2 + c)
    w_of = {sigma: float(branch_for(0, sigma, sigma).w_over_k) * k for sigma in (1, -1)}
    nu_of = {sigma: float(branch_for(0, sigma, sigma).nu_times_k) / k for sigma in (1, -1)}
    for eps, sigma, sgn in ((1, 1, "+"), (-1, -1, "-")):
        entries.append(_printed_entry(
            f"eq26{sgn}printed", "eq26", Family.CANONICAL_TANH,
            0, eps * sigma, sigma, k,
            u0=0.0, amp=float(eps), nu=2.0 * nu_of[sigma], shift=0.0,
            w=w_of[sigma], c=0.0,
        ))
    for code, u0, amp_sign, a0 in (("eq28", 0.0, 1.0, 1), ("eq30", 0.0, -1.0, -1)):
        for sigma, sgn in ((1, "+"), (-1, "-")):
            entries.append(_printed_entry(
                f"{code}{sgn}printed", code, Family.CANONICAL_TANH,
                a0, sigma, sigma, k,
                u0=u0, amp=amp_sign, nu=2.0 * nu_of[sigma], shift=0.0,
                w=w_of[sigma], c=0.0,
            ))
    # printed leading "-1 -" reading of the a0 = -1 exponential form
    for s1, sgn in ((1, "+"), (-1, "-")):
        branch = branch_for(-1, s1, -s1)
        entries.append(_printed_entry(
            f"eq29{sgn}printed", "eq29", Family.AB_EXP_FORM,
            -1, s1, -s1, k,
            u0=-1.0, amp=-1.0, nu=float(branch.nu_times_k) / k, shift=0.0,
            w=float(branch.w_over_k) * k, a=1.0, b=1.0,
        ))

    return entries


def catalog_by_id(k: float) -> dict[str, SolutionSpec]:
    return {e.entry_id: e for e in enumerate_catalog(k)}


def reduce_ab_to_canonical(spec: SolutionSpec) -> SolutionSpec:
    """Rewrite S = a + b*exp(nu*xi) as the canonical shifted kink.

    Requires a > 0 and b > 0; the shift is c = ln(a/b)/2.
    """
    if spec.family is not Family.AB_EXP_FORM:
        raise ValueError("reduce_ab_to_canonical needs an a-b exponential spec")
    if spec.a is None or spec.b is None or spec.a <= 0 or spec.b <= 0:
        raise InvalidReduction("reduction needs a > 0 and b > 0")
    c = 0.5 * math.log(spec.a / spec.b)
    code = {0: "eq26", 1: "eq28", -1: "eq30"}[spec.a0]
    return make_canonical(
        spec.a0, spec.s1, spec.sw, spec.k, c,
        entry_id=f"{spec.entry_id}->canonical", family_code=code,
    )
