"""Numerical certification of catalog entries against the PDE and ODE.

An exact traveling wave drives the pointwise residual u_t - u_xx + u^3 - u
down to rounding noise (~1e-13 on the standard grid); a wrong sign pairing
or a mis-scaled argument leaves an O(1) residual.  The default threshold of
1e-8 separates the two classes by more than five orders of magnitude.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .qfield import Frozen
from .solutions import (SINGULAR_HALF_WIDTH, Family, SolutionSpec,
                        reduce_ab_to_canonical)

PDE_THRESHOLD = 1e-8
ODE_THRESHOLD = 1e-10
EQUIVALENCE_TOL = 1e-12

STANDARD_XI_POINTS = tuple(np.linspace(-15.0, 15.0, 61))


class GridSpec(Frozen):
    __slots__ = ("x_range", "t_range", "nx", "nt")

    def __init__(self, x_range: tuple[float, float] = (-10.0, 10.0),
                 t_range: tuple[float, float] = (0.0, 1.0),
                 nx: int = 201, nt: int = 11) -> None:
        if nx < 2 or nt < 1:
            raise ValueError("grid needs nx >= 2 and nt >= 1")
        if not all(math.isfinite(hi - lo) for lo, hi in (x_range, t_range)):
            raise ValueError("grid span is not a finite number")
        super().__init__(x_range, t_range, nx, nt)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """The (x, t) mesh, built once per grid and shared read-only."""
        return _mesh(self)


@lru_cache(maxsize=16)
def _mesh(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    xs = np.linspace(grid.x_range[0], grid.x_range[1], grid.nx)
    ts = np.linspace(grid.t_range[0], grid.t_range[1], grid.nt)
    X, T = np.meshgrid(xs, ts, indexing="ij")
    X.flags.writeable = T.flags.writeable = False
    return X, T


class ResidualReport(NamedTuple):
    entry_id: str
    max_abs: float
    mean_abs: float
    argmax: tuple[float, float]
    threshold: float
    n_points: int
    n_excluded: int

    @property
    def is_valid(self) -> bool:
        return self.max_abs < self.threshold


def _regular_part(spec, xi: np.ndarray):
    """(mask, xi with singular points moved one unit off the pole); the
    mask is None when the entry has no pole."""
    pole = spec.pole
    if pole is None:
        return None, xi
    mask = spec.regular_mask(xi)
    return mask, np.where(mask, xi, pole + 1.0)


def _report(entry_id, resid, xs, ts, mask, threshold) -> ResidualReport:
    """Max, mean and location of |resid| over the points the mask keeps
    (every point when mask is None)."""
    vals = np.abs(resid)
    if mask is None:
        n_points, total = vals.size, np.sum(vals)
    else:
        n_points, total = int(np.count_nonzero(mask)), np.sum(vals, where=mask)
        vals[~mask] = -1.0
    if n_points == 0:
        raise ValueError("every grid point fell inside a singular zone")
    at = int(np.argmax(vals))
    i, j = np.unravel_index(at, vals.shape)
    return ResidualReport(
        entry_id, float(vals.flat[at]), float(total) / n_points,
        (float(xs[i, j]), float(ts[i, j])),
        threshold, n_points, vals.size - n_points,
    )


def _residual(spec, xi):
    """w*u' - k^2*u'' + u^3 - u at the wave coordinates xi: the ODE residual,
    and the PDE residual u_t - u_xx + u^3 - u at the matching (x, t).

    Near a pole at huge k it overflows to inf or NaN, which no threshold
    passes."""
    with np.errstate(over="ignore", invalid="ignore"):
        u, du, d2 = spec.profile(xi)
        return spec.w * du - spec.k * spec.k * d2 + u * u * u - u


def pde_residual(spec, grid: GridSpec | None = None,
                 threshold: float = PDE_THRESHOLD) -> ResidualReport:
    """Pointwise u_t - u_xx + u^3 - u on the grid, singular zones excluded."""
    grid = grid or GridSpec()
    X, T = grid.mesh()
    mask, xi = _regular_part(spec, spec.xi(X, T))
    resid = _residual(spec, xi)
    return _report(spec.entry_id, resid, X, T, mask, threshold)


def ode_residual(spec, xi_points=STANDARD_XI_POINTS,
                 threshold: float = ODE_THRESHOLD) -> ResidualReport:
    """Pointwise w*u' - k^2*u'' + u^3 - u along the wave coordinate."""
    xi = np.asarray(xi_points, dtype=float).reshape(-1, 1)
    mask, xi_safe = _regular_part(spec, xi)
    resid = _residual(spec, xi_safe)
    zeros = np.zeros_like(xi)
    return _report(spec.entry_id, resid, xi, zeros, mask, threshold)


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


def _shifts(rows: list[tuple[float, int]]) -> np.ndarray:
    """The column of steps o*h, one per (h, o) row."""
    return np.array([o * h for h, o in rows]).reshape(-1, 1)


def fd_crosscheck(spec, grid: GridSpec | None = None,
                  h_list=(1e-2, 5e-3, 2.5e-3), stencil_order: int = 2,
                  ) -> ConvergenceTable:
    """Analytic partials against central finite differences.

    Steps apart from the singular zone by the largest stencil arm so every
    sample stays evaluable.  Reports one observed order (least-squares slope
    of log max-difference against log h) per partial derivative.
    """
    if list(h_list) != sorted(h_list, reverse=True) or min(h_list) <= 0:
        raise ValueError("h_list must be positive and decreasing")
    grid = grid or GridSpec(nx=41, nt=5)
    stencil = _STENCILS[stencil_order]
    arms = max(abs(o) for o, _ in stencil["d1"] + stencil["d2"])
    X, T = grid.mesh()
    xi = spec.xi(X, T)
    margin = max(h_list) * arms * (abs(spec.k) + abs(spec.w)) + 1e-9
    mask = np.ones(xi.shape, dtype=bool)
    if spec.pole is not None:
        mask = np.abs(xi - spec.pole) > SINGULAR_HALF_WIDTH + margin
    xs, ts = X[mask], T[mask]

    # one evaluation per direction: row (h, o) is the wave shifted by o*h
    t_rows = [(h, o) for h in h_list for o, _ in stencil["d1"]]
    x_rows = [(h, o) for h in h_list
              for o in sorted({o for o, _ in stencil["d1"] + stencil["d2"]})]
    along_t = dict(zip(t_rows, spec.eval(xs, ts + _shifts(t_rows))))
    along_x = dict(zip(x_rows, spec.eval(xs + _shifts(x_rows), ts)))

    diffs: dict[str, list[float]] = {"u_t": [], "u_x": [], "u_xx": []}
    u_t, u_x, u_xx = spec.partials(xs, ts)
    for h in h_list:
        fd_t = sum(c * along_t[h, o] for o, c in stencil["d1"]) / h
        fd_x = sum(c * along_x[h, o] for o, c in stencil["d1"]) / h
        fd_xx = sum(c * along_x[h, o] for o, c in stencil["d2"]) / (h * h)
        diffs["u_t"].append(float(np.max(np.abs(fd_t - u_t))))
        diffs["u_x"].append(float(np.max(np.abs(fd_x - u_x))))
        diffs["u_xx"].append(float(np.max(np.abs(fd_xx - u_xx))))

    logs_h = [math.log(h) for h in h_list]
    orders = {
        name: _lsq_slope(logs_h, [math.log(max(d, 1e-300)) for d in ds])
        for name, ds in diffs.items()
    }
    return ConvergenceTable(
        {name: tuple(ds) for name, ds in diffs.items()}, orders)


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


class EquivalenceRow(NamedTuple):
    ab_entry: str
    canonical_code: str
    shift_c: float
    max_abs_diff: float
    confirmed: bool


class AuditTable(NamedTuple):
    rows: tuple[AuditRow, ...]
    equivalences: tuple[EquivalenceRow, ...]
    family_valid: dict[str, bool]

    def all_families_covered(self) -> bool:
        return all(self.family_valid.values())


def classify_branches(catalog: list[SolutionSpec],
                      grid: GridSpec | None = None,
                      pde_threshold: float = PDE_THRESHOLD,
                      ode_threshold: float = ODE_THRESHOLD) -> AuditTable:
    """Label every entry valid/invalid and confirm the shift equivalences.

    An entry is valid only when both residuals pass their thresholds.  For
    every valid a-b exponential entry with positive constants, the canonical
    reduction is built and compared pointwise on the grid.
    """
    grid = grid or GridSpec()
    rows: list[AuditRow] = []
    family_valid: dict[str, bool] = {}
    for spec in catalog:
        pde = pde_residual(spec, grid, pde_threshold)
        ode = ode_residual(spec, threshold=ode_threshold)
        valid = pde.is_valid and ode.is_valid
        rows.append(AuditRow(
            spec.entry_id, spec.family_code, spec.family.value, spec.reading,
            spec.a0, spec.s1, spec.sw, spec.params(),
            pde.max_abs, ode.max_abs, valid,
        ))
        family_valid[spec.family_code] = family_valid.get(spec.family_code, False) or valid

    equivalences: list[EquivalenceRow] = []
    X, T = grid.mesh()
    for spec, row in zip(catalog, rows):
        if spec.family is not Family.AB_EXP_FORM or spec.reading != "derived":
            continue
        if not row.valid or spec.a is None or spec.a <= 0 or spec.b <= 0:
            continue
        canon = reduce_ab_to_canonical(spec)
        diff = float(np.max(np.abs(spec.eval(X, T) - canon.eval(X, T))))
        equivalences.append(EquivalenceRow(
            spec.entry_id, canon.family_code, canon.c or 0.0, diff,
            diff < EQUIVALENCE_TOL,
        ))

    return AuditTable(tuple(rows), tuple(equivalences), family_valid)
