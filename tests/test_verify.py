"""Residual certification, finite-difference cross checks, branch audit."""

import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from conftest import PerturbedSolution, constant_solution

from cahnallen import verify
from cahnallen.solutions import (SINGULAR_HALF_WIDTH, Family, catalog_by_id,
                                 derived_entry, enumerate_catalog,
                                 ode_coefficients)
from cahnallen.verify import (
    _STENCILS,
    ODE_THRESHOLD,
    PDE_THRESHOLD,
    GridSpec,
    _lsq_slope,
    classify_branches,
    fd_crosscheck,
    ode_residual,
    pde_residual,
)


@pytest.fixture(scope="module")
def audit(catalog1):
    return classify_branches(catalog1)


# --- residuals on single entries ---------------------------------------------


def test_equilibria_have_exactly_zero_residual():
    for level in (0.0, 1.0, -1.0):
        const = constant_solution(level)
        # its exact core is that constant, which is exactly valid too
        assert (float(const.exact.u0), const.exact.amp) == (level, 0)
        assert const.solves_ode
        assert pde_residual(const).max_abs == 0.0
        assert ode_residual(const).max_abs == 0.0


def test_kink_pde_residual_is_rounding_noise(table1):
    report = pde_residual(table1["eq20+"])
    assert report.max_abs < 1e-10
    assert report.is_valid
    assert report.n_points == 201 * 11


def test_kink_ode_residual_on_sample_points(table1):
    report = ode_residual(table1["eq20+"])
    assert report.max_abs < 1e-12
    assert report.n_points == len(verify.STANDARD_XI_POINTS) == 61


def test_singular_entry_grid_exclusion(table1):
    report = pde_residual(table1["eq21+"])
    assert report.n_excluded > 0
    assert report.max_abs < 1e-8
    assert report.n_points + report.n_excluded == 201 * 11


def test_perturbed_solution_is_rejected(table1):
    bumped = PerturbedSolution(table1["eq20+"], eps=0.01)
    report = pde_residual(bumped)
    assert report.max_abs > 1e-3
    assert not report.is_valid
    assert ode_residual(bumped).max_abs > 1e-3


@pytest.mark.parametrize("entry", ["eq21+", "eq20+"])
def test_pde_report_matches_plain_residual_over_regular_points(table1, entry):
    # the plain formulation over the regular points, located by a 2-D
    # argmax: guards the mapping of the best point back to (x, t)
    spec = table1[entry]
    X, T = np.meshgrid(np.linspace(-10.0, 10.0, 201), np.linspace(0.0, 1.0, 11),
                       indexing="ij")
    xi = spec.k * X + spec.w * T
    keep = np.ones(xi.shape, dtype=bool)
    if spec.pole is not None:
        keep &= np.abs(xi - spec.pole) >= SINGULAR_HALF_WIDTH
    u, du, d2 = spec.profile(np.where(keep, xi, (spec.pole or 0.0) + 1.0))
    resid = np.abs(spec.w * du - spec.k * spec.k * d2 + u * u * u - u)
    resid[~keep] = -np.inf
    i, j = np.unravel_index(np.argmax(resid), resid.shape)
    report = pde_residual(spec)
    assert report.max_abs == resid[i, j]
    assert report.argmax == (X[i, j], T[i, j])
    assert report.n_points == np.count_nonzero(keep)
    assert report.n_excluded == xi.size - np.count_nonzero(keep)
    assert (report.n_excluded > 0) == (spec.pole is not None)


def test_all_singular_grid_names_the_entry(table1):
    spec = table1["eq21+"]
    x = spec.pole / spec.k
    inside = GridSpec((x - 0.01, x + 0.01), (0.0, 0.0), 5, 1)
    with pytest.raises(ValueError, match=r"^eq21\+: every grid point"):
        pde_residual(spec, inside)


# --- finite-difference cross check --------------------------------------------


def test_second_order_stencils_converge_at_order_two(table1):
    table = fd_crosscheck(table1["eq20+"], stencil_order=2)
    for name in ("u_t", "u_x", "u_xx"):
        assert table.observed_order[name] == pytest.approx(2.0, abs=0.2)


def test_fourth_order_stencils_converge_at_order_four(table1):
    table = fd_crosscheck(table1["eq20+"], h_list=(0.2, 0.1, 0.05),
                          stencil_order=4)
    for name in ("u_t", "u_x", "u_xx"):
        assert table.observed_order[name] >= 3.5


def test_fourth_order_mismatch_is_tiny_at_small_steps(table1):
    # at h <= 1e-2 the fourth-order mismatch sits at the truncation-plus-
    # roundoff floor; assert the magnitude rather than a slope there
    table = fd_crosscheck(table1["eq20+"], stencil_order=4)
    assert table.observed_order["u_t"] >= 3.5
    for name in ("u_t", "u_x", "u_xx"):
        assert max(table.max_diff[name]) < 1e-9


def test_constant_profile_has_exactly_zero_differences():
    const = constant_solution(0.0)
    table = fd_crosscheck(const, stencil_order=2)
    for diffs in table.max_diff.values():
        assert all(d == 0.0 for d in diffs)


def test_halving_h_quarters_second_derivative_mismatch(table1):
    table = fd_crosscheck(table1["eq20+"], h_list=(2e-2, 1e-2), stencil_order=2)
    ratio = table.max_diff["u_xx"][0] / table.max_diff["u_xx"][1]
    assert ratio == pytest.approx(4.0, rel=0.3)


def test_crosscheck_avoids_singular_zone(table1):
    table = fd_crosscheck(table1["eq21+"], stencil_order=2)
    for name in ("u_t", "u_x", "u_xx"):
        assert np.isfinite(table.max_diff[name]).all()
        assert table.observed_order[name] == pytest.approx(2.0, abs=0.2)


def test_crosscheck_rejects_bad_step_lists(table1):
    for h_list in ((1e-3, 1e-2), (), (1e-2,), (1e-2, 1e-2, 1e-2), (1e-2, 0.0),
                   (1e-2, math.nan), (math.inf, 1e-2)):
        with pytest.raises(ValueError, match="at least two finite positive"
                                             " steps in strictly decreasing"):
            fd_crosscheck(table1["eq20+"], h_list=h_list)


@pytest.mark.parametrize("entry", ["eq21+", "eq24+coth"])
def test_all_singular_crosscheck_names_the_entry(entry):
    # at k = 0.001 the default grid spans |xi| <= 0.012, inside the zone
    spec = catalog_by_id(0.001)[entry]
    with pytest.raises(ValueError, match=rf"^{re.escape(entry)}: every grid"
                       " point fell inside a singular zone widened by the"
                       " stencil reach"):
        fd_crosscheck(spec)


# --- the audit ----------------------------------------------------------------


def test_every_family_has_a_valid_variant(audit):
    assert audit.all_families_covered()
    assert set(audit.family_valid) == {f"eq{n}" for n in range(19, 31)}


def test_soundness_of_valid_labels(audit):
    for row in audit.rows:
        if row.valid:
            assert row.pde_max_abs < 1e-8
            assert row.ode_max_abs < 1e-10


def test_validity_separation_is_wide(audit):
    valid_max = max(r.pde_max_abs for r in audit.rows if r.valid)
    invalid_min = min(r.pde_max_abs for r in audit.rows if not r.valid)
    assert invalid_min / valid_max > 1e5


def test_printed_variants_are_classified(audit):
    outcomes = {r.entry_id: r.valid for r in audit.rows}
    # the minus-constant family: the coth reading solves, the literal
    # printed tanh reading does not
    assert outcomes["eq24+coth"] is True
    assert outcomes["eq24+tanh"] is True  # same kink as the plus-constant entry
    assert outcomes["eq24+printed"] is False
    # double-scaled canonical arguments fail; half-scaled derived ones pass
    for code in ("eq26", "eq28", "eq30"):
        assert outcomes[f"{code}+printed"] is False
        assert outcomes[f"{code}+"] is True
    # the printed leading sign of the a0 = -1 exponential form fails
    assert outcomes["eq29+printed"] is False
    assert outcomes["eq29+"] is True
    assert outcomes["eq23+printed"] is False


def test_frame_consistency_of_verdicts(catalog1):
    for spec in catalog1:
        pde_ok = pde_residual(spec).is_valid
        ode_ok = ode_residual(spec).is_valid
        assert pde_ok == ode_ok


def _flip_speed(catalog, prefix):
    """The catalog as `verify --corrupt prefix` audits it."""
    out = []
    for spec in catalog:
        if spec.entry_id.startswith(prefix):
            exact = spec.exact._replace(W=-spec.exact.W)
            spec = replace(spec, exact=exact, **exact.lowered(spec.k))
        out.append(spec)
    return out


@pytest.mark.parametrize("corrupt", [None, "eq20"])
def test_audit_evaluates_each_wave_once(monkeypatch, corrupt):
    catalog = enumerate_catalog(1.37)
    if corrupt:
        catalog = _flip_speed(catalog, corrupt)
    # the row-by-row audit: each entry audited on its own
    alone = [classify_branches([spec]) for spec in catalog]

    calls = Counter()

    def counted(name):
        real = getattr(verify, name)

        def call(spec, *args, **kwargs):
            calls[name] += 1
            return real(spec, *args, **kwargs)
        return call

    for name in ("pde_residual", "ode_residual"):
        monkeypatch.setattr(verify, name, counted(name))
    audit = classify_branches(catalog)

    waves = len({spec.wave for spec in catalog})
    assert calls == {"pde_residual": waves, "ode_residual": waves}
    if not corrupt:
        assert waves == 32
    else:
        assert not any(r.valid for r in audit.rows
                       if r.entry_id.startswith(corrupt))
    # repr writes every float to the last bit
    assert repr(audit.rows) == repr(tuple(a.rows[0] for a in alone))
    assert audit.mismatches == tuple(m for a in alone for m in a.mismatches)


def test_translation_invariance_of_verdict():
    for c in (0.0, 0.7, -2.3):
        spec = derived_entry("eq26+", "eq26", Family.CANONICAL_TANH,
                             0, 1, 1, 1.0, c=c)
        assert pde_residual(spec).is_valid
        assert ode_residual(spec).is_valid


def test_corrupted_entry_fails_audit(table1):
    wrong_speed = replace(table1["eq20+"], w=-table1["eq20+"].w)
    assert not pde_residual(wrong_speed).is_valid


def test_custom_grid_and_threshold(table1):
    grid = GridSpec((-5.0, 5.0), (0.0, 0.5), 51, 3)
    report = pde_residual(table1["eq20+"], grid)
    assert report.n_points == 51 * 3
    assert report.threshold == PDE_THRESHOLD
    assert ode_residual(table1["eq20+"]).threshold == ODE_THRESHOLD
    assert report.is_valid


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(nx=1)
    assert GridSpec().nx == 201


# --- the cheaper kernels against the plain formulations -------------------------


def _fd_oracle(spec, h_list=(1e-2, 5e-3, 2.5e-3), stencil_order=2):
    """The cross check with one evaluation per (h, offset), as first written."""
    stencil = _STENCILS[stencil_order]
    arms = max(abs(o) for o, _ in stencil["d1"] + stencil["d2"])
    X, T = np.meshgrid(np.linspace(-10.0, 10.0, 41), np.linspace(0.0, 1.0, 5),
                       indexing="ij")
    xi = spec.k * X + spec.w * T
    margin = max(h_list) * arms * (abs(spec.k) + abs(spec.w)) + 1e-9
    mask = np.ones(xi.shape, dtype=bool)
    if spec.pole is not None:
        mask &= np.abs(xi - spec.pole) > SINGULAR_HALF_WIDTH + margin
    xs, ts = X[mask], T[mask]
    diffs = {"u_t": [], "u_x": [], "u_xx": []}
    u_t, u_x, u_xx = spec.partials(xs, ts)
    for h in h_list:
        fd_t = sum(c * spec.eval(xs, ts + o * h) for o, c in stencil["d1"]) / h
        fd_x = sum(c * spec.eval(xs + o * h, ts) for o, c in stencil["d1"]) / h
        fd_xx = sum(c * spec.eval(xs + o * h, ts) for o, c in stencil["d2"]) / (h * h)
        diffs["u_t"].append(float(np.max(np.abs(fd_t - u_t))))
        diffs["u_x"].append(float(np.max(np.abs(fd_x - u_x))))
        diffs["u_xx"].append(float(np.max(np.abs(fd_xx - u_xx))))
    logs_h = [math.log(h) for h in h_list]
    orders = {name: _lsq_slope(logs_h, [math.log(max(d, 1e-300)) for d in ds])
              for name, ds in diffs.items()}
    return {name: tuple(ds) for name, ds in diffs.items()}, orders


@pytest.mark.parametrize("entry, kwargs", [
    ("eq20+", dict(stencil_order=2)),
    ("eq20+", dict(stencil_order=4, h_list=(0.2, 0.1, 0.05))),
    ("eq21+", dict(stencil_order=2)),
    ("constant", dict(stencil_order=2)),
])
def test_batched_crosscheck_is_bit_identical(table1, entry, kwargs):
    spec = constant_solution(0.0) if entry == "constant" else table1[entry]
    table = fd_crosscheck(spec, **kwargs)
    max_diff, orders = _fd_oracle(spec, **kwargs)
    assert table.max_diff == max_diff
    assert table.observed_order == orders


def _verdict_oracle(catalog):
    """Verdicts and family coverage from the exact coefficients, and the
    mismatches from the plain scaled residual on a fresh mesh per entry."""
    def fresh_mesh():
        return np.meshgrid(np.linspace(-10.0, 10.0, 201),
                           np.linspace(0.0, 1.0, 11), indexing="ij")

    def residual_ok(spec, xi, threshold):
        mask = np.ones(xi.shape, dtype=bool)
        if spec.pole is not None:
            mask &= ~(np.abs(xi - spec.pole) < SINGULAR_HALF_WIDTH)
        center = 0.0 if spec.pole is None else spec.pole
        u, du, d2 = spec.profile(np.where(mask, xi, center + 1.0))
        terms = (spec.w * du, -spec.k**2 * d2, u**3, -u)
        scaled = np.abs(sum(terms)) / (1.0 + sum(np.abs(t) for t in terms))
        return bool(np.all(scaled[mask] < threshold))

    valid, family_valid, mismatches = [], {}, []
    for spec in catalog:
        X, T = fresh_mesh()
        ok = not any(ode_coefficients(spec.exact))
        residual = (
            residual_ok(spec, spec.k * X + spec.w * T, PDE_THRESHOLD)
            and residual_ok(spec, np.linspace(-15.0, 15.0, 61).reshape(-1, 1),
                            ODE_THRESHOLD))
        valid.append((spec.entry_id, ok))
        family_valid[spec.family_code] = family_valid.get(spec.family_code, False) or ok
        if residual != ok:
            mismatches.append(spec.entry_id)
    return valid, family_valid, mismatches


def _assert_audit_matches_oracle(catalog):
    audit = classify_branches(catalog)
    valid, family_valid, mismatches = _verdict_oracle(catalog)
    assert [(r.entry_id, r.valid) for r in audit.rows] == valid
    assert audit.family_valid == family_valid
    assert list(audit.mismatches) == mismatches
    return audit


@pytest.mark.parametrize("k", (0.05, 0.5, 1.0, 1.37, 2.5, 5.0, 10.0, 15.0))
def test_audit_verdicts_match_plain_formulation(k):
    assert _assert_audit_matches_oracle(enumerate_catalog(k)).mismatches == ()
    with pytest.raises(ValueError):
        GridSpec().mesh()[0][0, 0] = 1.0


@pytest.mark.parametrize("k", (0.5, 30.0, 1e10))
def test_audit_mismatches_match_plain_formulation(k):
    # float-only corruptions, exact cores untouched: a kink and a singular
    # entry that no longer solve, and a printed reading moved to the branch
    # rate, which does
    catalog = [replace(s, w=-s.w) if s.entry_id in ("eq20+", "eq21-")
               else replace(s, nu=s.nu / 2) if s.entry_id == "eq26+printed"
               else s for s in enumerate_catalog(k)]
    assert _assert_audit_matches_oracle(catalog).mismatches == \
        ("eq20+", "eq21-", "eq26+printed")


def test_each_grid_mesh_is_built_once(table1, catalog1, monkeypatch):
    builds = []
    meshgrid = np.meshgrid

    def counted(*args, **kwargs):
        builds.append(args)
        return meshgrid(*args, **kwargs)

    monkeypatch.setattr(np, "meshgrid", counted)
    audit_grid = GridSpec((-7.5, 7.5), (0.0, 0.75), 97, 7)
    fd_grid = GridSpec((-6.5, 6.5), (0.0, 0.25), 37, 3)
    classify_branches(catalog1, audit_grid)
    for _ in range(3):
        for entry in ("eq20+", "eq21+", "eq23-m"):
            fd_crosscheck(table1[entry], fd_grid)
    assert audit_grid.mesh() is audit_grid.mesh()
    assert len(builds) <= 2
