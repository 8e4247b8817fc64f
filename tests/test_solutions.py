"""Catalog entries: values, partials, constants, equivalences, symmetries."""

import math
import pathlib
import random
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import constant_solution
from hypothesis import given, settings
from hypothesis import strategies as st

from cahnallen import solutions
from cahnallen.qfield import Radical2
from cahnallen.reduction import GridSpec
from cahnallen.solutions import (
    SINGULAR_HALF_WIDTH,
    Family,
    InvalidReduction,
    SingularEvaluation,
    branch_for,
    catalog_by_id,
    derived_entry,
    enumerate_catalog,
    logistic_pair,
    ode_coefficients,
    reduce_ab_to_canonical,
)

SQRT2 = math.sqrt(2.0)
SPEED = 3.0 / SQRT2  # |w|/k on every branch


def ab_entry(a0, s1, sw, k, a, b):
    """An a-b form entry with its catalog family code (eq25, eq27, eq29)."""
    code = {0: "eq25", 1: "eq27", -1: "eq29"}[a0]
    return derived_entry(f"{code}(a={a:g},b={b:g})", code, Family.AB_EXP_FORM,
                         a0, s1, sw, k, a=a, b=b)


# --- the logistic core -------------------------------------------------------


def _logistic_oracle(theta: float) -> float:
    if theta >= 0:
        return 1.0 / (1.0 + math.exp(-theta))
    e = math.exp(theta)
    return e / (1.0 + e)


def test_logistic_pair_matches_math_exp_to_full_precision():
    theta = np.linspace(-745.0, 745.0, 20001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s, h = logistic_pair(theta)
    for got, sign in ((s, 1.0), (h, -1.0)):
        want = np.array([_logistic_oracle(sign * t) for t in theta])
        assert np.all(np.abs(got - want) <= 1e-15 * want)


def _three_exponential_pair(theta):
    """logistic_pair's earlier form: e^min(theta, 0) / (1 + e^-|theta|)
    and its mirror."""
    d = 1.0 + np.exp(-np.abs(theta))
    return np.exp(np.minimum(theta, 0.0)) / d, np.exp(np.minimum(-theta, 0.0)) / d


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True)
                | st.sampled_from([0.0, -0.0, 745.5, -745.5, 800.0, -800.0,
                                   5e-324, -5e-324]),
                min_size=1, max_size=40))
def test_logistic_pair_equals_the_three_exponential_form(values):
    # one exponential where there were three, with the same inputs: equal
    # bit for bit, NaN in the same places (its sign bit is not kept)
    theta = np.array(values)
    with np.errstate(invalid="ignore"):
        pairs = zip(logistic_pair(theta), _three_exponential_pair(theta))
        for got, want in pairs:
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert got[~nan].tobytes() == want[~nan].tobytes()


# --- exact verdicts ---------------------------------------------------------


def exact_valid(spec) -> bool:
    valid = not any(ode_coefficients(spec.exact))
    assert spec.solves_ode is valid
    return valid


@pytest.mark.parametrize("k", [1e-3, 0.5, 1.0, 30.0, 1e6, 1.3e154])
def test_exact_verdict_splits_derived_from_printed(k):
    catalog = enumerate_catalog(k)
    assert [exact_valid(s) for s in catalog] == \
        [s.reading == "derived" for s in catalog]


def _assert_core_is_evaluated(k):
    # the floats the evaluators use are the exact core read at k, bit for
    # bit (signs of zero included), for every entry and canonical reduction
    catalog = enumerate_catalog(k)
    reductions = [reduce_ab_to_canonical(s) for s in catalog
                  if s.family is Family.AB_EXP_FORM and s.reading == "derived"]
    assert len(reductions) == 8
    for spec in catalog + reductions:
        u0, amp, n, w = spec.exact
        want = (float(u0), float(amp), float(n) / k, float(w) * k)
        got = (spec.u0, spec.amp, spec.nu, spec.w)
        assert struct.pack("<4d", *got) == struct.pack("<4d", *want), \
            spec.entry_id


@pytest.mark.parametrize("k", [1e-3, 1.37, 1e6])
def test_exact_core_is_the_evaluated_core(k):
    _assert_core_is_evaluated(k)


@settings(max_examples=100, deadline=None)
@given(st.floats(-150.0, 150.0).map(lambda e: 10.0 ** e))
def test_exact_core_is_the_evaluated_core_at_any_k(k):
    _assert_core_is_evaluated(k)


def _printed_at_derived_rate(table1):
    """eq26+printed is the eq26+ kink read at twice its rate; at the
    branch rate it is that kink again."""
    spec = table1["eq26+printed"]
    return replace(spec, exact=spec.exact._replace(N=spec.exact.N / 2))


def test_printed_reading_at_the_branch_rate_is_valid(table1):
    assert not exact_valid(table1["eq26+printed"])
    assert exact_valid(_printed_at_derived_rate(table1))


@pytest.mark.parametrize("field", ["u0", "amp", "N", "W"])
def test_perturbing_one_input_flips_the_verdict(field, table1):
    spec = _printed_at_derived_rate(table1)
    value = getattr(spec.exact, field)
    bumped = value + Radical2(1, 0) / 1000
    perturbed = replace(spec, exact=spec.exact._replace(**{field: bumped}))
    assert not exact_valid(perturbed)
    # a perturbation in the sqrt(2) part alone is caught as well
    bumped = value + Radical2.sqrt2(1) / 1000
    perturbed = replace(spec, exact=spec.exact._replace(**{field: bumped}))
    assert not exact_valid(perturbed)


# --- enumeration ------------------------------------------------------------


def test_catalog_is_stable(catalog1):
    ids = [e.entry_id for e in catalog1]
    assert len(ids) == len(set(ids)) == 54
    again = [e.entry_id for e in enumerate_catalog(1.0)]
    assert ids == again


def test_catalog_contains_expected_entries(table1):
    kink = table1["eq20+"]
    assert kink.family is Family.TANH_KINK
    assert (kink.a0, kink.s1, kink.sw) == (0, 1, 1)
    assert table1["eq21-"].family is Family.COTH_SINGULAR
    assert table1["eq24+coth"].family is Family.COTH_SINGULAR
    ab_a0 = {table1[i].a0 for i in ("eq25+", "eq27+", "eq29+")}
    assert ab_a0 == {0, 1, -1}


def test_every_family_code_is_covered(catalog1):
    codes = {e.family_code for e in catalog1}
    assert codes == {f"eq{n}" for n in range(19, 31)}


def test_catalog_rejects_nonpositive_wavenumber():
    with pytest.raises(ValueError):
        enumerate_catalog(0.0)


def test_speed_is_never_stored_independently(catalog1):
    for e in catalog1:
        assert abs(abs(e.w) - SPEED * e.k) < 1e-14
        assert e.k > 0


# --- point values -----------------------------------------------------------


def test_kink_midpoint_value(table1):
    assert table1["eq20+"].eval(0.0, 0.0) == 0.5
    assert table1["eq20-"].eval(0.0, 0.0) == -0.5


def test_canonical_midpoint_value(table1):
    assert table1["eq26+"].eval(0.0, 0.0) == 0.5
    assert table1["eq26-"].eval(0.0, 0.0) == -0.5


def test_ab_equal_constants_midpoint(table1):
    assert table1["eq25+"].eval(0.0, 0.0) == 0.5
    e = ab_entry(0, 1, 1, 1.0, a=2.0, b=2.0)
    assert e.eval(0.0, 0.0) == 0.5


def test_kink_values_stay_strictly_between_equilibria(table1):
    kink = table1["eq20+"]
    xs = np.linspace(-40, 40, 401)
    u = kink.eval(xs, np.zeros_like(xs))
    assert np.all(u > 0.0) and np.all(u < 1.0)


def test_coth_eval_refuses_singular_zone(table1):
    sing = table1["eq21+"]
    with pytest.raises(SingularEvaluation):
        sing.eval(0.0, 0.0)
    with pytest.raises(SingularEvaluation):
        sing.eval(np.array([-5.0, 0.05, 5.0]), np.zeros(3))
    assert np.isfinite(sing.eval(0.2, 0.0))


@pytest.mark.parametrize("k", [1.0, 2.75])
def test_eval_is_the_value_of_profile_bit_for_bit(k):
    # eval forms u alone; profile forms u, du and d2 from the same core
    t = 0.3
    for spec in enumerate_catalog(k):
        xs = np.linspace(-12.0, 12.0, 481)
        xs = xs[spec.regular_mask(spec.xi(xs, t))]
        want = spec.profile(spec.xi(xs, t))[0]
        assert spec.eval(xs, t).tobytes() == want.tobytes(), spec.entry_id
        assert (spec.eval(xs, np.full_like(xs, t)).tobytes()
                == want.tobytes()), spec.entry_id
        for x, u in zip(xs[::60].tolist(), want[::60].tolist()):
            got = spec.eval(x, t)
            assert type(got) is float and got.hex() == u.hex(), spec.entry_id
        if spec.pole is not None:
            x_pole = (spec.pole - spec.w * t) / spec.k
            with pytest.raises(SingularEvaluation):
                spec.eval(x_pole, t)
            with pytest.raises(SingularEvaluation):
                spec.eval(np.array([-20.0, x_pole, 20.0]), t)


def test_regular_mask_excludes_exactly_the_singular_zone(table1):
    xi = np.linspace(-1.0, 1.0, 201)
    pole = table1["eq21+"].pole
    mask = table1["eq21+"].regular_mask(xi)
    assert np.array_equal(mask, np.abs(xi - pole) >= SINGULAR_HALF_WIDTH)
    wide = table1["eq21+"].regular_mask(xi, 0.25)
    assert np.array_equal(wide, np.abs(xi - pole) >= SINGULAR_HALF_WIDTH + 0.25)
    assert np.count_nonzero(~wide) > np.count_nonzero(~mask) > 0
    assert table1["eq20+"].pole is None
    assert table1["eq20+"].regular_mask(xi, 0.25).all()
    assert table1["eq20+"].regular_mask(xi.reshape(3, 67)).all()
    assert table1["eq20+"].regular_mask(xi).shape == xi.shape


def test_only_solutions_states_the_zone_rule():
    package = pathlib.Path(solutions.__file__).parent
    naming = sorted(p.name for p in package.glob("*.py")
                    if "SINGULAR_HALF_WIDTH" in p.read_text())
    assert naming == ["solutions.py"]


def _refuses(spec, x_range, t_range, every=False) -> bool:
    """Whether check_zone refuses the rectangle for its singular zone (an
    overflow is not such a refusal)."""
    try:
        spec.check_zone(x_range, t_range, every)
    except ValueError as exc:
        if "overflows" in str(exc):
            raise
        return True
    return False


def _window_meets(spec, x_min, x_max, T) -> bool:
    """The run window's pole test as integrate wrote it before check_zone:
    the parent oracle for check_zone's "meets"."""
    pole = spec.pole
    if pole is None:
        return False
    lo = spec.k * x_min + min(0.0, spec.w * T)
    hi = spec.k * x_max + max(0.0, spec.w * T)
    return lo - SINGULAR_HALF_WIDTH < pole < hi + SINGULAR_HALF_WIDTH


def test_check_zone_is_the_mask_over_a_span(table1):
    spec = table1["eq21+"]
    pole = spec.pole
    for lo, hi in ((pole - 3.0, pole - 0.2), (pole + 0.2, pole + 3.0),
                   (pole - 3.0, pole - 0.05), (pole - 1.0, pole + 1.0),
                   (pole + 0.05, pole + 0.05)):
        span = np.linspace(lo, hi, 2001)  # k = 1 and t = 0: xi is x
        assert _refuses(spec, (lo, hi), (0.0, 0.0)) == (
            not spec.regular_mask(span).all())
        assert _refuses(spec, (lo, hi), (0.0, 0.0), every=True) == (
            not spec.regular_mask(span).any())
    table1["eq20+"].check_zone((-1e300, 1e300), (0.0, 0.0))
    table1["eq20+"].check_zone((-1e300, 1e300), (0.0, 0.0), every=True)


def _singular_specs():
    """(spec, number of grids): each coth entry, each at its own k, and
    general-ratio entries whose negative constant ratio puts the pole off
    xi = 0."""
    coth = [s for s in enumerate_catalog(1.0) if s.pole is not None]
    assert len(coth) == 8
    specs = [(catalog_by_id(k)[s.entry_id], 400) for s, k in
             zip(coth, (1.0, 0.37, 8.0, 0.05, 3.0, 1.7, 20.0, 0.6))]
    specs += [(derived_entry("eq19(c2=-3)", "eq19", Family.GENERAL_EXP_RATIO,
                             0, s1, sw, k, c1=1.0, c2=-3.0), 200)
              for k in (0.5, 3.0) for s1, sw in ((1, 1), (-1, -1))]
    assert all(s.pole is not None for s, _ in specs)
    return specs


def _near(rng, centre, scale):
    """A float near centre: often one of the zone's edges a few ulps off,
    where the rounding of every step decides."""
    edge = centre + rng.choice((-1.0, 1.0)) * SINGULAR_HALF_WIDTH
    value = edge if rng.random() < 0.4 else centre + rng.uniform(-scale, scale)
    for _ in range(rng.randrange(4)):
        value = math.nextafter(value, rng.choice((-math.inf, math.inf)))
    return value


def test_corner_rule_is_the_mask_on_every_grid():
    # seeded: every grid near a pole, with reversed x ranges, nt = 1 and
    # zero-width spans; "holds" is the mask on the whole mesh, and "meets"
    # is the run window's pole test
    rng = random.Random(20261021)
    tally = {"grids": 0, "held": 0, "met": 0}
    for spec, count in _singular_specs():
        pole, k, w = spec.pole, spec.k, spec.w
        for _ in range(count):
            t0 = rng.choice((0.0, rng.uniform(-0.05, 0.05)))
            t1 = rng.choice((t0, t0 + rng.uniform(0.0, 0.05)))
            # x ends whose wave coordinates at t0 lie near the zone
            x0 = _near(rng, pole, 0.3) / k - w * t0 / k
            x1 = rng.choice((x0, _near(rng, pole, 0.3) / k - w * t0 / k))
            if rng.random() < 0.5:
                x0, x1 = x1, x0
            nt = rng.choice((1, 1, 2, 3, 5))
            grid = GridSpec((x0, x1), (t0, t1), rng.choice((2, 3, 5)), nt)
            holds = not spec.regular_mask(spec.xi(*grid.mesh())).any()
            assert _refuses(spec, grid.x_range, grid.t_range[:nt], True) \
                == holds, (spec.entry_id, grid)
            x_min, x_max, T = min(x0, x1), max(x0, x1), abs(t1 - t0)
            meets = _window_meets(spec, x_min, x_max, T)
            assert _refuses(spec, (x_min, x_max), (0.0, T)) == meets, (
                spec.entry_id, x_min, x_max, T)
            tally["grids"] += 1
            tally["held"] += holds
            tally["met"] += meets
    assert tally["grids"] == 4000
    # both answers are often yes and often no
    assert 0.1 < tally["held"] / tally["grids"] < 0.9
    assert 0.1 < tally["met"] / tally["grids"] < 0.9


def test_window_rule_is_the_old_one_at_every_magnitude():
    # the run window's decision for any finite floats, including windows
    # whose wave coordinates overflow to +-inf or to nan
    rng = random.Random(7)
    magnitude = (lambda: rng.choice((-1.0, 1.0))
                 * 10.0 ** rng.uniform(-5.0, 308.25))
    specs = [s for k in (1e-10, 1.0, 1e150) for s in enumerate_catalog(k)]
    specs += [s for s, _ in _singular_specs()]
    met = overflowed = 0
    for _ in range(4000):
        spec = rng.choice(specs)
        x_min, x_max = sorted((magnitude(), magnitude()))
        T = abs(magnitude())
        meets = _window_meets(spec, x_min, x_max, T)
        assert _refuses(spec, (x_min, x_max), (0.0, T)) == meets, (
            spec.entry_id, x_min, x_max, T)
        met += meets
        overflowed += not math.isfinite(spec.k * x_max + spec.w * T)
    assert met > 400 and overflowed > 400


def test_audit_grid_refusal_names_an_overflow():
    spec = catalog_by_id(1.0)["eq20+"]
    with pytest.raises(ValueError, match=r"^eq20\+: the wave coordinate"):
        spec.check_zone((0.0, 1e308), (0.0, 1e308), every=True)
    spec.check_zone((0.0, 1e308), (0.0, 1e308))  # a run's window: no pole


def test_case_two_kink_connects_zero_and_a0(table1):
    for eid, lo, hi in (("eq23+", 0.0, 1.0), ("eq23-", -1.0, 0.0)):
        spec = table1[eid]
        ends = {spec.u0, spec.u0 + spec.amp}  # the limits of u0 + amp*S
        assert {round(u, 12) for u in ends} == {lo, hi}


# --- partials ---------------------------------------------------------------


def test_partials_value_at_origin(table1):
    u_t, u_x, u_xx = table1["eq20+"].partials(0.0, 0.0)
    assert u_x == pytest.approx(1.0 / (4.0 * SQRT2), abs=1e-15)
    assert u_t == pytest.approx(0.375, abs=1e-15)
    assert u_xx == pytest.approx(0.0, abs=1e-16)


def test_frame_identity(catalog1):
    xs = np.linspace(-8.0, 8.0, 33)
    ts = np.linspace(0.0, 1.0, 5)
    X, T = np.meshgrid(xs, ts, indexing="ij")
    for spec in catalog1:
        mask = spec.regular_mask(spec.xi(X, T))
        u_t, u_x, _ = spec.partials(X[mask], T[mask])
        assert np.max(np.abs(spec.k * u_t - spec.w * u_x)) < 1e-12


def test_overflowing_wave_coordinate_is_refused(table1):
    # w*t overflows at the second point; no numpy warning escapes (the suite
    # turns RuntimeWarning into an error)
    with pytest.raises(ValueError, match=r"coordinate k\*x \+ w\*t overflows"):
        table1["eq20+"].xi(np.array([0.0, 1e308]), 1e308)


def test_constant_solution_has_zero_partials():
    const = constant_solution(1.0)
    assert const.eval(2.0, 0.3) == 1.0
    assert const.partials(2.0, 0.3) == (0.0, 0.0, 0.0)


def test_partials_match_central_differences(table1):
    spec = table1["eq20+"]
    h = 1e-5
    for x, t in ((0.0, 0.0), (1.3, 0.4), (-2.0, 0.9)):
        u_t, u_x, u_xx = spec.partials(x, t)
        fd_t = (spec.eval(x, t + h) - spec.eval(x, t - h)) / (2 * h)
        fd_x = (spec.eval(x + h, t) - spec.eval(x - h, t)) / (2 * h)
        fd_xx = (spec.eval(x + h, t) - 2 * spec.eval(x, t) + spec.eval(x - h, t)) / h**2
        assert u_t == pytest.approx(fd_t, abs=1e-9)
        assert u_x == pytest.approx(fd_x, abs=1e-9)
        assert u_xx == pytest.approx(fd_xx, abs=1e-6)


# --- the free constants -------------------------------------------------------


# c2 = +-(coefficient of the exponential in S)*c1*k^2: the plus choice
# removes the pole and gives the kink, the minus choice places the pole at
# xi = 0 and gives the singular profile


def _general(c2):
    return derived_entry("eq19+", "eq19", Family.GENERAL_EXP_RATIO, 0, 1, 1,
                         1.0, c1=1.0, c2=c2)


def test_specialize_plus_agrees_with_general(table1):
    p_hat = float(branch_for(0, 1, 1).s_scale)
    kink = table1["eq20+"]
    assert kink.family is Family.TANH_KINK
    bound = _general(p_hat)
    for xi in (-3.0, -1.0, 2.0):
        assert abs(bound.eval(xi, 0.0) - kink.eval(xi, 0.0)) == 0.0


def test_specialize_minus_gives_singular(table1):
    p_hat = float(branch_for(0, 1, 1).s_scale)
    sing = table1["eq21+"]
    assert sing.family is Family.COTH_SINGULAR
    assert p_hat == 2.0
    bound = _general(-p_hat)
    for xi in (-3.0, -1.0, 2.0):
        assert bound.eval(xi, 0.0) == pytest.approx(sing.eval(xi, 0.0), abs=1e-14)


@pytest.mark.parametrize("family, params", [
    (Family.GENERAL_EXP_RATIO, dict(c1=1.0, c2=0.0)),
    (Family.GENERAL_EXP_RATIO, dict(c1=0.0, c2=1.0)),
    (Family.AB_EXP_FORM, dict(a=1.0, b=0.0)),
])
def test_constants_without_a_finite_ratio_are_refused(family, params):
    # the equilibrium limits c2 = 0 and c1 = 0, and b = 0, leave no shift
    with pytest.raises(ValueError, match="constant ratio"):
        derived_entry("eq19+", "eq19", family, 0, 1, 1, 1.0, **params)


def test_speed_constraint_keeps_denominator_positive(catalog1):
    # the constant-binding denominator w**2 - 3k**2 equals (3/2)k**2 exactly
    for e in catalog1:
        assert e.w * e.w - 3.0 * e.k * e.k == pytest.approx(1.5 * e.k**2, rel=1e-14)


# --- a/b reduction to the canonical kink -------------------------------------


def test_reduce_equal_constants_gives_zero_shift(table1):
    canon = reduce_ab_to_canonical(table1["eq25+"])
    assert canon.c == 0.0
    assert canon.family is Family.CANONICAL_TANH


def test_reduce_log_ratio():
    ab = ab_entry(0, 1, 1, 1.0, a=math.e**2, b=1.0)
    canon = reduce_ab_to_canonical(ab)
    assert canon.c == pytest.approx(1.0, abs=1e-15)


def test_reduce_requires_positive_constants():
    with pytest.raises(InvalidReduction):
        reduce_ab_to_canonical(ab_entry(0, 1, 1, 1.0, a=-1.0, b=1.0))
    with pytest.raises(InvalidReduction):
        reduce_ab_to_canonical(ab_entry(0, 1, 1, 1.0, a=1.0, b=-2.0))


def test_reduce_pointwise_equality_on_grid(table1):
    xs = np.linspace(-10.0, 10.0, 41)
    ts = np.linspace(0.0, 1.0, 11)
    X, T = np.meshgrid(xs, ts, indexing="ij")
    for eid in ("eq25+", "eq25-", "eq27+", "eq27-", "eq29+", "eq29-"):
        ab = table1[eid]
        canon = reduce_ab_to_canonical(ab)
        assert np.max(np.abs(ab.eval(X, T) - canon.eval(X, T))) < 1e-12


def test_catalog_ab_entries_match_catalog_canonical_entries(table1):
    # unit constants on the two-constant form equal the zero-shift kink
    xs = np.linspace(-10.0, 10.0, 41)
    ts = np.linspace(0.0, 1.0, 11)
    X, T = np.meshgrid(xs, ts, indexing="ij")
    for ab_id, canon_id in (("eq25+", "eq26+"), ("eq25-", "eq26-"),
                            ("eq27+", "eq28+"), ("eq29-", "eq30-")):
        diff = np.max(np.abs(table1[ab_id].eval(X, T)
                             - table1[canon_id].eval(X, T)))
        assert diff < 1e-12


def test_reduction_with_general_constants():
    ab = ab_entry(1, -1, -1, 2.0, a=0.7, b=3.1)
    canon = reduce_ab_to_canonical(ab)
    xs = np.linspace(-5.0, 5.0, 21)
    u1 = ab.eval(xs, np.full_like(xs, 0.25))
    u2 = canon.eval(xs, np.full_like(xs, 0.25))
    assert np.max(np.abs(u1 - u2)) < 1e-12


# --- profile properties -------------------------------------------------------


def test_kink_boundary_values(catalog1):
    equilibria = {-1.0, 0.0, 1.0}
    for spec in catalog1:
        if spec.family is not Family.TANH_KINK or spec.reading != "derived":
            continue
        left = spec.eval(-30.0 / spec.nu / spec.k, 0.0)
        right = spec.eval(30.0 / spec.nu / spec.k, 0.0)
        assert min(abs(left - q) for q in equilibria) < 1e-8
        assert min(abs(right - q) for q in equilibria) < 1e-8
        far_left = spec.eval(-50.0 / spec.nu / spec.k, 0.0)
        far_right = spec.eval(50.0 / spec.nu / spec.k, 0.0)
        assert min(abs(far_left - q) for q in equilibria) < 1e-10
        assert min(abs(far_right - q) for q in equilibria) < 1e-10
        assert {spec.u0, spec.u0 + spec.amp} <= equilibria


def test_kink_profiles_are_strictly_monotone(catalog1):
    xs = np.linspace(-20.0, 20.0, 2001)
    for spec in catalog1:
        if spec.family is not Family.TANH_KINK or spec.reading != "derived":
            continue
        u = spec.eval(xs, np.zeros_like(xs))
        d = np.diff(u)
        assert np.all(d > 0) or np.all(d < 0)


def test_overall_sign_flip_negates(table1):
    # the entry with the opposite overall sign is the pointwise negation
    xs = np.linspace(-10.0, 10.0, 101)
    ts = np.full_like(xs, 0.35)
    pairs = [("eq19+", "eq19-"), ("eq20+", "eq20-"), ("eq20+r", "eq20-r"),
             ("eq25+", "eq25-"), ("eq26+", "eq26-"), ("eq26+r", "eq26-r")]
    for pos, neg in pairs:
        up = table1[pos].eval(xs, ts)
        un = table1[neg].eval(xs, ts)
        assert np.max(np.abs(up + un)) == 0.0
    off_pole = np.concatenate([np.linspace(-10.0, -0.5, 20),
                               np.linspace(0.5, 10.0, 20)])
    zeros = np.zeros_like(off_pole)
    sing_pos = table1["eq21+"].eval(off_pole, zeros)
    sing_neg = table1["eq21-"].eval(off_pole, zeros)
    assert np.max(np.abs(sing_pos + sing_neg)) == 0.0


def test_canonical_shift_default(table1):
    spec = derived_entry("eq26+", "eq26", Family.CANONICAL_TANH, 0, 1, 1, 1.0,
                         c=0.7)
    shifted = table1["eq26+"]
    # a shift in c translates the profile: u_c(xi) = u_0(xi - 2c/nu)
    xi = 1.3
    assert spec.eval(xi, 0.0) == pytest.approx(
        shifted.eval(xi - 2 * 0.7 / spec.nu, 0.0), abs=1e-14
    )
