"""Ansatz closure: grade system, exact branches, closed forms, trace."""

from fractions import Fraction

import pytest

from cahnallen.closure import (
    ClosureUnsupported,
    CoefficientSystem,
    _coeffs,
    backsubstitute,
    build_ansatz_derivatives,
    form_coefficient_system,
    integrate_closure,
    assemble_general_solution,
    run_derivation,
    solve_closure,
)
from cahnallen.qfield import Radical2
from cahnallen.reduction import EvolutionEquation, WaveFrame, reduce_to_ode
from cahnallen.symexpr import SymExpr, diff_xi, substitute

K = SymExpr.atom("k")
W = SymExpr.atom("w")
A0 = SymExpr.atom("A0")
A1 = SymExpr.atom("A1")
S1 = SymExpr.s_deriv(1)
S2 = SymExpr.s_deriv(2)
S3 = SymExpr.s_deriv(3)
SINV = SymExpr.s_inverse(1)

HALF3_SQRT2 = Radical2.sqrt2(Fraction(3, 2))  # 3*sqrt2/2
HALF_SQRT2 = Radical2.sqrt2(Fraction(1, 2))


@pytest.fixture(scope="module")
def system():
    ode = reduce_to_ode(EvolutionEquation(3), WaveFrame())
    return form_coefficient_system(ode, build_ansatz_derivatives(1))


@pytest.fixture(scope="module")
def solution(system):
    return solve_closure(system)


# --- ansatz -----------------------------------------------------------------


def test_ansatz_shape():
    ansatz = build_ansatz_derivatives(1)
    assert ansatz.u == A0 + A1 * S1 * SINV
    assert ansatz.u1 == diff_xi(ansatz.u)
    assert ansatz.u2 == diff_xi(ansatz.u1)


def test_second_derivative_contains_cross_term():
    ansatz = build_ansatz_derivatives(1)
    from cahnallen.symexpr import Monomial

    cross = Monomial.make(-3, sym={"A1": 1}, deriv={1: 1, 2: 1}, s_grade=2)
    assert cross in ansatz.u2.terms


def test_constant_ansatz_has_zero_derivative():
    ansatz = build_ansatz_derivatives(1)
    u1_bound = substitute(ansatz.u1, {"A1": SymExpr.const(0)})
    assert u1_bound.is_zero()


def test_higher_degree_ansatz_builds_structurally():
    ansatz = build_ansatz_derivatives(2)
    top = (SymExpr.atom("A2") * (S1 * SINV) ** 2).terms[0]
    assert top in ansatz.u.terms


# --- grade system -----------------------------------------------------------


def test_grades_are_exactly_zero_to_three(system):
    assert system.grades() == (0, 1, 2, 3)


def test_grade_zero_is_cubic_root_condition(system):
    assert system.equations[0] == A0**3 - A0


def test_grade_three_isolates_top_coefficient(system):
    assert system.equations[3] == A1 * (A1**2 - (K**2).scaled(2)) * S1**3


def test_grade_one_form(system):
    expected = (
        -(K**2) * A1 * S3
        + (A0**2 * A1 * S1).scaled(3)
        + W * A1 * S2
        - A1 * S1
    )
    assert system.equations[1] == expected


def test_grade_two_form_carries_k_squared(system):
    # independent hand expansion of the quadratic-grade terms
    expected = (
        -W * A1 * S1**2
        + (K**2 * A1 * S1 * S2).scaled(3)
        + (A0 * A1**2 * S1**2).scaled(3)
    )
    assert system.equations[2] == expected
    # the k-cubed variant is a different expression
    k3_variant = (
        -W * A1 * S1**2
        + (K**3 * A1 * S1 * S2).scaled(3)
        + (A0 * A1**2 * S1**2).scaled(3)
    )
    assert system.equations[2] != k3_variant


# --- closure ----------------------------------------------------------------


def test_branch_census(solution):
    assert len(solution.branches) == 8
    a0_values = sorted(b.a0_int for b in solution.branches)
    assert a0_values == [-1, -1, 0, 0, 0, 0, 1, 1]
    assert {b.s1 for b in solution.branches} == {1, -1}
    assert {b.w_over_k for b in solution.branches} == {HALF3_SQRT2, -HALF3_SQRT2}


def test_case_one_speeds(solution):
    case1 = [b for b in solution.branches if b.a0_int == 0]
    assert len(case1) == 4
    for b in case1:
        assert b.w_over_k * b.w_over_k == Radical2.of(Fraction(9, 2))


def test_case_two_keeps_single_speed_per_sign(solution):
    for a0 in (1, -1):
        for s1 in (1, -1):
            matches = [
                b for b in solution.branches if b.a0_int == a0 and b.s1 == s1
            ]
            assert len(matches) == 1
            expected = HALF3_SQRT2 if a0 * s1 > 0 else -HALF3_SQRT2
            assert matches[0].w_over_k == expected


def test_stationary_roots_recorded(solution):
    assert len(solution.degenerate) == 4
    for root in solution.degenerate:
        assert root.w_over_k == Radical2.of(0)
        assert root.a0_int if hasattr(root, "a0_int") else int(root.a0.r) != 0
        assert "stationary" in root.reason


def test_rates_match_exactly(solution):
    for b in solution.branches:
        assert b.lam_times_k == b.mu_times_k
        beta = 3 * b.a0 * b.alpha
        assert b.lam_times_k == (b.w_over_k - beta) / 3


def test_case_one_exponent(solution):
    b = next(
        b for b in solution.branches
        if b.a0_int == 0 and b.s1 == 1 and b.w_over_k == HALF3_SQRT2
    )
    assert b.nu_times_k == HALF_SQRT2  # rate 1/(sqrt2*k)


def test_backsubstitution_is_structural_zero(system, solution):
    for b in solution.branches:
        assert backsubstitute(system, b)


def test_backsubstitution_rejects_wrong_branches(system, solution):
    from cahnallen.closure import ClosureBranch

    good = solution.branches[0]
    wrong_speed = ClosureBranch(good.a0, good.s1, Radical2.of(1),
                                good.lam_times_k, good.mu_times_k,
                                good.denom_scale)
    assert not backsubstitute(system, wrong_speed)
    wrong_plateau = ClosureBranch(Radical2.of(2), good.s1, good.w_over_k,
                                  good.lam_times_k, good.mu_times_k,
                                  good.denom_scale)
    assert not backsubstitute(system, wrong_plateau)
    wrong_denominator = ClosureBranch(good.a0, good.s1, good.w_over_k,
                                      good.lam_times_k, good.mu_times_k,
                                      Radical2.of(7))
    assert not backsubstitute(system, wrong_denominator)


def test_closure_rejects_other_grade_sets():
    ode = reduce_to_ode(EvolutionEquation(2), WaveFrame())
    sys2 = form_coefficient_system(ode, build_ansatz_derivatives(1))
    with pytest.raises(ClosureUnsupported):
        solve_closure(sys2)


def test_non_homogeneous_top_condition_is_rejected(system):
    # A1*(A1^2 - 2*k) has the same roots in A1 at k = 1 as the true
    # A1*(A1^2 - 2*k^2), so without the homogeneity check the closure would
    # return branches that fail back-substitution
    equations = dict(system.equations)
    equations[3] = A1 * (A1**2 - SymExpr.const(2) * K) * S1**3
    with pytest.raises(ValueError, match="not homogeneous"):
        solve_closure(CoefficientSystem(equations, system.substituted))


# --- coefficient lists --------------------------------------------------------


def test_coeffs_keeps_interior_zeros():
    assert _coeffs(A0**3 - A0, "A0") == [Radical2.of(c) for c in (0, -1, 0, 1)]


def test_coeffs_of_zero_polynomial():
    assert _coeffs(SymExpr.zero(), "w") == [Radical2()]


@pytest.mark.parametrize("expr", [W * A0 + W, W**2 + S1, W * SINV],
                         ids=["foreign-atom", "s-derivative", "grade"])
def test_coeffs_rejects_non_scalar_polynomials(expr):
    with pytest.raises(ValueError):
        _coeffs(expr, "w")


# --- closed forms -----------------------------------------------------------


def test_integration_scales(solution):
    for b in solution.branches:
        forms = integrate_closure(b)
        beta = 3 * b.a0 * b.alpha
        assert forms.s1_scale == Radical2.of(3) / (b.w_over_k - beta)
        assert forms.s_scale == Radical2.of(3) / b.denom_scale
        # antiderivative chain: multiplying by the rate walks down the chain
        assert forms.s_scale * forms.nu_times_k == forms.s1_scale
        assert forms.s1_scale * forms.nu_times_k == forms.s2_scale


def test_denominator_scale_value(solution):
    # 3*(3*A0^2 - 1) + rho*(rho - beta) = 3/2 on every branch
    for b in solution.branches:
        assert b.denom_scale == Radical2.of(Fraction(3, 2))


def test_general_solution_coefficients(solution):
    expected_num = {
        (0, 1, 1): 2, (0, 1, -1): -2, (0, -1, 1): -2, (0, -1, -1): 2,
        (1, 1, 1): -2, (1, -1, -1): -2, (-1, 1, -1): 2, (-1, -1, 1): 2,
    }
    for b in solution.branches:
        form = assemble_general_solution(b)
        key = (b.a0_int, b.s1, b.sw)
        assert form.num_scale == Radical2.of(expected_num[key])
        assert form.den_scale == Radical2.of(2)


def test_constant_limit_of_general_solution(solution):
    form = assemble_general_solution(solution.branches[0])
    for xi in (-2.0, 0.0, 1.5):
        assert form.eval_xi(xi, k=1.0, c1=0.0, c2=1.0) == form.branch.a0_int


# --- full derivation with trace ----------------------------------------------


def test_all_structural_checks_pass(report):
    assert report.all_checks_pass()
    names = [name for name, _ in report.checks]
    assert "branch census: 8 nondegenerate with speed ratio +-3*sqrt2/2" in names


def test_trace_contains_key_lines(report):
    assert "g=0 : -A0 + A0^3 = 0" in report.trace
    assert "A1 = +sqrt2*k or -sqrt2*k" in report.trace
    assert "stationary frame (w = 0)" in report.trace
    assert "3*k^2" in report.trace


GOLDEN_TRACE_HEAD = """\
traveling-wave reduction (m = 3):
  ode: -u + u^3 + w*u' - k^2*u'' = 0
homogeneous balance of the top nonlinearity against u'': n = 1
ansatz and derivatives:
  u   = A0 + A1*S'*S^-1
  u'  = A1*S''*S^-1 - A1*S'^2*S^-2
  u'' = A1*S'''*S^-1 - 3*A1*S'*S''*S^-2 + 2*A1*S'^3*S^-3
grade equations (coefficient of S^-g must vanish):
  g=0 : -A0 + A0^3 = 0
  g=1 : 3*A0^2*A1*S' - A1*S' + w*A1*S'' - k^2*A1*S''' = 0
  g=2 : 3*k^2*A1*S'*S'' + 3*A0*A1^2*S'^2 - w*A1*S'^2 = 0
  g=3 : A1^3*S'^3 - 2*k^2*A1*S'^3 = 0
"""


def test_trace_golden_head(report):
    assert report.trace.startswith(GOLDEN_TRACE_HEAD)


def test_trace_is_deterministic(report):
    again = run_derivation(reduce_to_ode(EvolutionEquation(3), WaveFrame()))
    assert again.trace == report.trace


def test_trace_matches_golden_file(report):
    import pathlib

    golden = pathlib.Path(__file__).parent / "data" / "derivation_trace.txt"
    assert report.trace == golden.read_text()
