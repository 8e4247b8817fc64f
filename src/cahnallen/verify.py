"""Numerical cross-check of the catalog's exact verdicts against the PDE
and ODE.

Whether an entry is valid is decided exactly, once, by
SolutionSpec.solves_ode; the residual audit is its independent check.  Each
pointwise residual r = u_t - u_xx + u^3 - u is judged relative to its own
terms, |r| / (1 + |w u'| + |k^2 u''| + |u^3| + |u|) (the Oettli-Prager
componentwise backward error), which does not move with k: an exact wave
leaves rounding noise (below 1e-15), a wrong sign pairing or a mis-scaled
argument an O(0.1) share.  An entry whose residual verdict disagrees with
its exact one is a mismatch.

Where an entry may be evaluated is the entry's business: the residuals are
computed only at the points its regular_mask keeps, and the cross check
asks it for the zone widened by the stencil reach.

The audit evaluates each distinct wave once.  Printed readings and the a-b
and canonical forms repeat other entries' floats (the catalog's 54 rows are
32 waves), so rows that share a wave share their residual reports.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .reduction import GridSpec
from .solutions import SolutionSpec

PDE_THRESHOLD = 1e-8
ODE_THRESHOLD = 1e-10

STANDARD_XI_POINTS = tuple(np.linspace(-15.0, 15.0, 61))


class ResidualReport(NamedTuple):
    """The largest |residual| (information) and its (x, t), and the largest
    scaled residual, which the threshold judges."""

    entry_id: str
    max_abs: float
    argmax: tuple[float, float]
    max_scaled: float
    threshold: float
    n_points: int
    n_excluded: int

    @property
    def is_valid(self) -> bool:
        return self.max_scaled < self.threshold  # NaN never passes


def _residual(spec, xi):
    """(|r|, |r| / (1 + |w u'| + |k^2 u''| + |u^3| + |u|)) of r = w*u' -
    k^2*u'' + u^3 - u at the wave coordinates xi: the ODE residual, and the
    PDE residual u_t - u_xx + u^3 - u at the matching (x, t).

    Near a pole at huge k it overflows to inf or NaN, which no threshold
    passes."""
    with np.errstate(over="ignore", invalid="ignore"):
        u, du, d2 = spec.profile(xi)
        wdu, kkd2, u3 = spec.w * du, spec.k * spec.k * d2, u * u * u
        abs_r = np.abs(wdu - kkd2 + u3 - u)
        return abs_r, abs_r / (1.0 + np.abs(wdu) + np.abs(kkd2)
                               + np.abs(u3) + np.abs(u))


def _report(spec, xi, xs, ts, threshold) -> ResidualReport:
    """Max and location of |residual|, and the max scaled residual, over
    the points of xi that the entry calls regular; xs and ts hold each
    point's (x, t)."""
    keep = np.flatnonzero(spec.regular_mask(xi))
    if keep.size == 0:
        raise ValueError(f"{spec.entry_id}: every grid point fell inside a"
                         " singular zone")
    vals, scaled = _residual(spec, xi.ravel()[keep])
    at = int(np.argmax(vals))
    where = keep[at]
    return ResidualReport(
        spec.entry_id, float(vals[at]),
        (float(xs.flat[where]), float(ts.flat[where])),
        float(np.max(scaled)), threshold, keep.size, xi.size - keep.size,
    )


def pde_residual(spec, grid: GridSpec | None = None) -> ResidualReport:
    """Pointwise u_t - u_xx + u^3 - u on the grid's regular points."""
    X, T = (grid or GridSpec()).mesh()
    return _report(spec, spec.xi(X, T), X, T, PDE_THRESHOLD)


def ode_residual(spec) -> ResidualReport:
    """Pointwise w*u' - k^2*u'' + u^3 - u at the regular points of
    STANDARD_XI_POINTS along the wave coordinate."""
    xi = np.asarray(STANDARD_XI_POINTS, dtype=float)
    return _report(spec, xi, xi, np.zeros_like(xi), ODE_THRESHOLD)


# --- finite-difference cross check ----------------------------------------

_STENCILS = {
    2: {
        "d1": ((-1, -0.5), (1, 0.5)),
        "d2": ((-1, 1.0), (0, -2.0), (1, 1.0)),
    },
    4: {
        "d1": ((-2, 1 / 12), (-1, -8 / 12), (1, 8 / 12), (2, -1 / 12)),
        "d2": ((-2, -1 / 12), (-1, 16 / 12), (0, -30 / 12), (1, 16 / 12),
               (2, -1 / 12)),
    },
}


class ConvergenceTable(NamedTuple):
    max_diff: dict[str, tuple[float, ...]]
    observed_order: dict[str, float]


def _lsq_slope(xs: list[float], ys: list[float]) -> float:
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def fd_crosscheck(spec, grid: GridSpec | None = None,
                  h_list=(1e-2, 5e-3, 2.5e-3), stencil_order: int = 2,
                  ) -> ConvergenceTable:
    """Analytic partials against central finite differences.

    Steps apart from the singular zone by the largest stencil arm so every
    sample stays evaluable.  Reports one observed order (least-squares slope
    of log max-difference against log h) per partial derivative.
    """
    steps = tuple(h_list)
    if (len(steps) < 2 or not math.isfinite(steps[0])
            or not all(a > b > 0 for a, b in zip(steps, steps[1:]))):
        raise ValueError("h_list must hold at least two finite positive steps"
                         " in strictly decreasing order")
    grid = grid or GridSpec(nx=41, nt=5)
    d1, d2 = _STENCILS[stencil_order]["d1"], _STENCILS[stencil_order]["d2"]
    arms = max(abs(o) for o, _ in d1 + d2)
    X, T = grid.mesh()
    xi = spec.xi(X, T)
    margin = steps[0] * arms * (abs(spec.k) + abs(spec.w)) + 1e-9
    mask = spec.regular_mask(xi, margin)
    if not mask.any():
        raise ValueError(f"{spec.entry_id}: every grid point fell inside a"
                         " singular zone widened by the stencil reach"
                         f" {margin:.3g}")
    xs, ts = X[mask], T[mask]

    # one profile call for the wave shifted by o*h along t, then along x,
    # both laid out as (h, offset, point), and for the centre, which is
    # every stencil's offset 0
    hs = np.array(steps).reshape(-1, 1)
    t_offsets = [o for o, _ in d1]
    x_offsets = sorted({o for o, _ in d1 + d2} - {0})
    parts = (spec.xi(xs, ts + (hs * t_offsets)[..., None]),
             spec.xi(xs + (hs * x_offsets)[..., None], ts), xi[mask])
    u, du, d2u = spec.profile(np.concatenate([p.ravel() for p in parts]))
    n_t = parts[0].size
    along_t = u[:n_t].reshape(len(steps), len(t_offsets), -1)
    along_x = u[n_t:-xs.size].reshape(len(steps), len(x_offsets), -1)
    centre, du, d2u = u[-xs.size:], du[-xs.size:], d2u[-xs.size:]

    def fd(along, offsets, weights):
        # term by term in the stencil's order, for every h at once
        return sum(c * (along[:, offsets.index(o)] if o else centre)
                   for o, c in weights)

    # finite differences less the analytic partials (partials' chain rule)
    diffs = {
        "u_t": fd(along_t, t_offsets, d1) / hs - spec.w * du,
        "u_x": fd(along_x, x_offsets, d1) / hs - spec.k * du,
        "u_xx": fd(along_x, x_offsets, d2) / (hs * hs) - spec.k * spec.k * d2u,
    }
    max_diff = {name: tuple(np.max(np.abs(d), axis=1).tolist())
                for name, d in diffs.items()}
    logs_h = [math.log(h) for h in steps]
    orders = {
        name: _lsq_slope(logs_h, [math.log(max(d, 1e-300)) for d in ds])
        for name, ds in max_diff.items()
    }
    return ConvergenceTable(max_diff, orders)


# --- audit ------------------------------------------------------------------


class AuditRow(NamedTuple):
    entry_id: str
    family_code: str
    family: str
    reading: str
    a0: int
    s1: int
    sw: int
    params: dict
    pde_max_abs: float
    ode_max_abs: float
    valid: bool


class AuditTable(NamedTuple):
    rows: tuple[AuditRow, ...]
    family_valid: dict[str, bool]
    mismatches: tuple[str, ...]  # ids whose residual verdict is not exact

    def all_families_covered(self) -> bool:
        return all(self.family_valid.values())


def classify_branches(catalog: list[SolutionSpec],
                      grid: GridSpec | None = None) -> AuditTable:
    """Label every entry with its exact verdict and cross-check it.

    An entry is valid when it solves the ODE (SolutionSpec.solves_ode).  Its
    residual verdict passes when both scaled residuals are below
    PDE_THRESHOLD and ODE_THRESHOLD; an entry whose two verdicts differ is a
    mismatch.  The residuals are computed once per distinct wave
    (SolutionSpec.wave).
    """
    grid = grid or GridSpec()
    rows: list[AuditRow] = []
    family_valid: dict[str, bool] = {}
    mismatches: list[str] = []
    reports: dict[tuple, tuple[ResidualReport, ResidualReport]] = {}
    for spec in catalog:
        wave = spec.wave
        if wave not in reports:
            reports[wave] = (pde_residual(spec, grid), ode_residual(spec))
        pde, ode = reports[wave]
        valid = spec.solves_ode
        if valid != (pde.is_valid and ode.is_valid):
            mismatches.append(spec.entry_id)
        rows.append(AuditRow(
            spec.entry_id, spec.family_code, spec.family.value, spec.reading,
            spec.a0, spec.s1, spec.sw, dict(spec.params),
            pde.max_abs, ode.max_abs, valid,
        ))
        family_valid[spec.family_code] = family_valid.get(spec.family_code, False) or valid
    return AuditTable(tuple(rows), family_valid, tuple(mismatches))
