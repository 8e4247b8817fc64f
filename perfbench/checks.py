"""Output checks built apart from the program.

Every expected value here comes from the Cahn-Allen equation itself, not
from the catalog: the traveling fronts of u_t = u_xx + u - u^3 joining the
unstable state 0 to a stable state sigma = +-1 are

    u(x, t) = sigma * (1 + d*tanh((x + d*c*t) / (2*sqrt(2)))) / 2,

with c = 3/sqrt(2) and d = +-1 the side the stable state sits on, so the
front moves with velocity -d*c.  The exact branch speeds are
w = +-(3*sqrt(2)/2)*k.  A failed check raises CheckFailed; the benchmark
counts the operation as failed.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

SQRT2 = math.sqrt(2.0)
FRONT_SPEED = 3.0 / SQRT2
BRANCH_SPEED_RATIO = 1.5 * SQRT2  # |w| / k

# Kink ids by the README's id scheme -> (sigma, d).  sigma is the sign of the
# stable state the front joins to 0; d = +1 puts that state on the right
# (front moves left: a0 = 0 entries without "r", shifted entries whose speed
# sign is positive), d = -1 on the left.
KINKS = {
    "eq20+": (1, 1), "eq20-": (-1, 1), "eq20+r": (1, -1), "eq20-r": (-1, -1),
    "eq23+": (1, 1), "eq23+m": (1, -1), "eq23-": (-1, 1), "eq23-m": (-1, -1),
    "eq26+": (1, 1), "eq26-": (-1, 1), "eq26+r": (1, -1), "eq26-r": (-1, -1),
    "eq28+": (1, 1), "eq28-": (1, -1), "eq30+": (-1, -1), "eq30-": (-1, 1),
}

PROFILE_TOL = 1e-12  # closed form against the program's evaluation
ORDER_RANGE = (1.8, 2.2)  # second-order stencils and schemes


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def kink_profile(entry_id: str, x, t):
    sigma, d = KINKS[entry_id]
    z = (np.asarray(x, dtype=float) + d * FRONT_SPEED * t) / (2.0 * SQRT2)
    return sigma * 0.5 * (1.0 + d * np.tanh(z))


def front_velocity(entry_id: str) -> float:
    return -KINKS[entry_id][1] * FRONT_SPEED


def speed_rel_err(entry_id: str, measured, tol: float) -> float:
    require(measured is not None and math.isfinite(measured),
            f"{entry_id}: no finite front speed ({measured!r})")
    expected = front_velocity(entry_id)
    err = abs(measured - expected) / abs(expected)
    require(err <= tol, f"{entry_id}: front speed {measured!r} against"
            f" {expected!r} is off by {err:.3g} (tolerance {tol:g})")
    return err


def profile_linf_err(entry_id: str, xs, us, t: float, tol: float) -> float:
    us = np.asarray(us, dtype=float)
    require(bool(np.all(np.isfinite(us))), f"{entry_id}: non-finite field")
    err = float(np.max(np.abs(us - kink_profile(entry_id, xs, t))))
    require(err <= tol, f"{entry_id}: field at t = {t:g} is off the closed"
            f" form by {err:.3g} (tolerance {tol:g})")
    return err


def check_branch_speeds(speeds: list[float], k: float) -> None:
    """Eight branches, half of each sign, each at +-(3*sqrt(2)/2)*k."""
    require(len(speeds) == 8, f"expected 8 branches, got {len(speeds)}")
    expected = BRANCH_SPEED_RATIO * k
    for w in speeds:
        require(abs(abs(w) - expected) <= 1e-12 * expected,
                f"branch speed {w!r} is not +-{expected!r}")
    require(sum(w > 0 for w in speeds) == 4,
            f"branch speeds are not four of each sign: {speeds}")


def check_orders(orders, what: str) -> None:
    lo, hi = ORDER_RANGE
    for order in orders:
        require(math.isfinite(order) and lo <= order <= hi,
                f"{what}: observed order {order!r} outside [{lo}, {hi}]")


def check_verdicts(rows: list[tuple[str, str, bool]]) -> None:
    """Each (entry_id, reading, valid): derived readings are valid and
    printed ones invalid."""
    require(len(rows) == 54, f"expected 54 catalog entries, got {len(rows)}")
    for entry_id, reading, valid in rows:
        require(reading in ("derived", "printed"),
                f"{entry_id}: unknown reading {reading!r}")
        require(valid == (reading == "derived"),
                f"{entry_id}: {reading} reading judged"
                f" {'valid' if valid else 'invalid'}")


def check_periodic(energies, snapshots) -> None:
    """The discrete energy never increases and the field stays in [-1, 1]."""
    e = np.asarray(energies, dtype=float)
    require(e.size >= 2 and bool(np.all(np.isfinite(e))), "bad energy series")
    rise = np.diff(e)
    require(bool(np.all(rise <= 1e-12 * np.abs(e[:-1]))),
            f"energy increases by up to {float(np.max(rise)):.3g}")
    for u in snapshots:
        require(bool(np.all(np.isfinite(u))) and float(np.max(np.abs(u))) <= 1.0,
                "periodic field leaves [-1, 1]")


# --- file parsing -----------------------------------------------------------


def _reject_constant(name: str):
    raise CheckFailed(f"JSON holds the non-finite constant {name}")


def load_json(path: str):
    with open(path) as fh:
        text = fh.read()
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{path}: invalid JSON ({exc})") from None


def finite(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"{where}: {text!r} is not a number") from None
    require(math.isfinite(value), f"{where}: non-finite value {text!r}")
    return value


def read_csv(path: str, header: list[str]) -> list[list[str]]:
    """Rows of a CSV whose first line must be exactly `header`."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    require(bool(rows) and rows[0] == header,
            f"{path}: header {rows[0] if rows else None} is not {header}")
    for i, row in enumerate(rows[1:], 2):
        require(len(row) == len(header), f"{path}:{i}: {len(row)} fields")
    return rows[1:]


def read_numeric_csv(path: str, header: list[str]) -> np.ndarray:
    """All-numeric CSV as a float array; NaN and infinities are rejected."""
    rows = read_csv(path, header)
    require(bool(rows), f"{path}: no data rows")
    return np.array([[finite(v, f"{path}:{i}") for v in row]
                     for i, row in enumerate(rows, 2)])
