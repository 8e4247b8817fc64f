"""Ansatz closure for the traveling-wave ODE.

The pipeline: build u = A0 + A1*S'/S and its xi-derivatives, substitute into
the ODE, collect the coefficient of every inverse power of S, and close the
resulting algebraic/differential system exactly.  The grade-2 equation fixes
the ratio S''/S', the grade-1 equation fixes S'''/S''; a valid branch is a
choice of (A0, sign of A1, w) for which the two exponential rates coincide.
That consistency requirement is a quadratic in the speed w over Q(sqrt(2))
and is solved exactly; every surviving branch is certified by structural
back-substitution into all four grade equations with k left symbolic.

S is integrated in closed form only at the very end: each branch yields
S'' = c1*exp(nu*xi), then S' and S by division with the same rate, and the
general solution u = A0 + A1*S'/S follows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .qfield import Radical2
from .reduction import TravelingWaveODE, balance_degree
from .symexpr import (
    Monomial,
    SymExpr,
    collect_grades,
    diff_xi,
    recombine_grades,
    substitute,
    substitute_s,
    substitute_u,
)


class ClosureUnsupported(Exception):
    """The closure solver only treats the degree-1 ansatz."""


class DegenerateBranch(Exception):
    """A closed form was requested for a branch outside its validity domain."""


class Ansatz(NamedTuple):
    n: int
    u: SymExpr
    u1: SymExpr
    u2: SymExpr


class CoefficientSystem(NamedTuple):
    """Grade -> expression that must vanish; grades exactly as collected."""

    equations: dict[int, SymExpr]
    substituted: SymExpr

    def grades(self) -> tuple[int, ...]:
        return tuple(sorted(self.equations))


class ClosureBranch(NamedTuple):
    """One exact solution of the coefficient system.

    A0 = a0, A1 = s1*sqrt(2)*k, w = w_over_k * k.  The stored ratios are the
    dimensionless products lambda*k and mu*k (both ratios scale as 1/k); the
    integration constants c1, c2 stay symbolic until a catalog entry binds
    them.  denom_scale is the S closed-form denominator divided by k**2.
    """

    a0: Radical2
    s1: int
    w_over_k: Radical2
    lam_times_k: Radical2
    mu_times_k: Radical2
    denom_scale: Radical2

    @property
    def alpha(self) -> Radical2:
        """A1 / k."""
        return Radical2.sqrt2(self.s1)

    @property
    def a0_int(self) -> int:
        return int(self.a0.r)

    @property
    def sw(self) -> int:
        return 1 if float(self.w_over_k) > 0 else -1

    @property
    def nu_times_k(self) -> Radical2:
        """Exponential rate of the closed forms, times k."""
        return self.mu_times_k

    def label(self) -> str:
        sgn = "+" if self.s1 > 0 else "-"
        a0 = f"{self.a0_int:+d}" if self.a0_int else "0"
        return f"a0={a0} A1={sgn}sqrt2*k w=({self.w_over_k})*k"


class DegenerateRoot(NamedTuple):
    a0: Radical2
    s1: int
    w_over_k: Radical2
    reason: str

    def label(self) -> str:
        sgn = "+" if self.s1 > 0 else "-"
        return (
            f"a0={int(self.a0.r):+d} A1={sgn}sqrt2*k w=({self.w_over_k})*k"
            f" : {self.reason}"
        )


class ClosureSolution(NamedTuple):
    branches: tuple[ClosureBranch, ...]
    degenerate: tuple[DegenerateRoot, ...]
    # every branch back-substitutes to a structural zero, k symbolic
    backsubstituted: bool


class SClosedForms(NamedTuple):
    """Exponential closed forms of one branch.

    S''  = s2_scale * c1        * exp(nu*xi)
    S'   = s1_scale * c1 * k    * exp(nu*xi)
    S    = s_scale  * c1 * k**2 * exp(nu*xi) + c2
    with nu = nu_times_k / k.
    """

    branch: ClosureBranch
    nu_times_k: Radical2
    s2_scale: Radical2
    s1_scale: Radical2
    s_scale: Radical2


class GeneralSolutionForm(NamedTuple):
    """u = a0 + num_scale*c1*k**2*E / (den_scale*c1*k**2*E + c2), E = exp(nu*xi)."""

    branch: ClosureBranch
    nu_times_k: Radical2
    num_scale: Radical2
    den_scale: Radical2

    def eval_xi(self, xi: float, k: float, c1: float, c2: float) -> float:
        e = math.exp(float(self.nu_times_k) / k * xi)
        num = float(self.num_scale) * c1 * k * k * e
        den = float(self.den_scale) * c1 * k * k * e + c2
        return self.branch.a0_int + num / den


# --- small exact polynomial helpers ---------------------------------------


def _poly_roots(coeffs: list[Radical2]) -> tuple[list[Radical2], int]:
    """Exact roots of sum(coeffs[i] * x**i) in Q(sqrt(2)).

    Returns (nonzero roots, multiplicity of the root 0).  Supports degree
    <= 2 after stripping the zero root; raises if roots leave the field.
    """
    while coeffs and not coeffs[-1]:
        coeffs = coeffs[:-1]
    if not coeffs:
        raise ValueError("zero polynomial")
    zero_mult = 0
    while not coeffs[0]:
        zero_mult += 1
        coeffs = coeffs[1:]
    deg = len(coeffs) - 1
    if deg == 0:
        return [], zero_mult
    if deg == 1:
        return [-coeffs[0] / coeffs[1]], zero_mult
    if deg == 2:
        c0, c1, c2 = coeffs
        disc = c1 * c1 - 4 * c2 * c0
        root = disc.sqrt()
        if root is None:
            raise ValueError(f"discriminant {disc} has no square root in Q(sqrt(2))")
        return [(-c1 + root) / (2 * c2), (-c1 - root) / (2 * c2)], zero_mult
    raise ValueError(f"cannot solve degree {deg} exactly")


def _coeffs(e: SymExpr, atom: str) -> list[Radical2]:
    """Dense coefficient list of an expression that is a polynomial in one
    scalar atom; the zero polynomial gives [0]."""
    out = [Radical2()]
    for t in e.terms:
        if t.u_powers or t.deriv_powers or t.s_grade:
            raise ValueError("expression is not a scalar polynomial")
        power = 0
        for name, exp in t.sym_powers:
            if name != atom:
                raise ValueError(f"unexpected atom {name!r}")
            power = exp
        out.extend([Radical2()] * (power + 1 - len(out)))
        out[power] = out[power] + t.coeff
    return out


def _horner(coeffs: list[Radical2], x: Radical2) -> Radical2:
    """sum(coeffs[i] * x**i) by Horner's rule."""
    out = Radical2()
    for a in reversed(coeffs):
        out = out * x + a
    return out


# --- pipeline steps --------------------------------------------------------


def build_ansatz_derivatives(n: int) -> Ansatz:
    """u = A0 + sum A_i (S'/S)^i and its first two xi-derivatives."""
    if n < 1:
        raise ValueError("ansatz degree must be >= 1")
    ratio = SymExpr.s_deriv(1) * SymExpr.s_inverse(1)
    u = SymExpr.atom("A0")
    for i in range(1, n + 1):
        u = u + SymExpr.atom(f"A{i}") * ratio**i
    u1 = diff_xi(u)
    u2 = diff_xi(u1)
    return Ansatz(n, u, u1, u2)


def form_coefficient_system(ode: TravelingWaveODE, ansatz: Ansatz) -> CoefficientSystem:
    """Substitute the ansatz into the ODE and collect inverse powers of S."""
    subbed = substitute_u(
        ode.expression, {0: ansatz.u, 1: ansatz.u1, 2: ansatz.u2}
    )
    return CoefficientSystem(collect_grades(subbed), subbed)


def _coeffs_by_s_signature(e: SymExpr) -> dict[tuple, SymExpr]:
    """Split a grade equation by its S-derivative signature."""
    parts: dict[tuple, list[Monomial]] = {}
    for t in e.terms:
        flat = Monomial(t.coeff, t.sym_powers, t.u_powers, (), 0)
        parts.setdefault(t.deriv_powers, []).append(flat)
    return {sig: SymExpr.from_terms(ms) for sig, ms in parts.items()}


_S1 = ((1, 1),)
_S2 = ((2, 1),)
_S3 = ((3, 1),)
_S1S1 = ((1, 2),)
_S1S2 = ((1, 1), (2, 1))


def backsubstitute(system: CoefficientSystem, branch: ClosureBranch) -> bool:
    """Structural zero check of all grade equations, with k symbolic.

    Replaces A0, A1, w by the branch values and the S-derivatives by their
    closure ratios S' : S'' : S''' = 3*k**2 : (rho - beta)*k : denom_scale
    (each times a common factor that is uniform inside a grade because every
    grade has a single total S-derivative degree).
    """
    k = SymExpr.atom("k")
    rho = branch.w_over_k
    beta = 3 * branch.a0 * branch.alpha
    bindings = {
        "A0": SymExpr.const(branch.a0),
        "A1": k.scaled(branch.alpha),
        "w": k.scaled(rho),
    }
    s1 = SymExpr.s_deriv(1)
    ratios = {
        1: (k**2).scaled(3) * s1,
        2: k.scaled(rho - beta) * s1,
        3: SymExpr.const(branch.denom_scale) * s1,
    }
    for grade, eq in system.equations.items():
        degrees = {t.s_degree() for t in eq.terms}
        if len(degrees) > 1:
            return False
        bound = substitute(eq, bindings)
        if not substitute_s(bound, ratios).is_zero():
            return False
    return True


def solve_closure(system: CoefficientSystem) -> ClosureSolution:
    """Enumerate every exact branch of the coefficient system.

    A0 comes from the grade-0 polynomial, A1 from grade 3 (its zero root is
    rejected: the ansatz would lose its top coefficient), and for each pair
    the requirement that grade 1 and grade 2 share one exponential rate is a
    quadratic in w, solved exactly.  Roots that leave no traveling wave or no
    integrable closed form are recorded as degenerate instead of returned.
    Each returned branch is back-substituted once; the outcome is recorded.
    """
    grades = system.grades()
    if grades != (0, 1, 2, 3):
        raise ClosureUnsupported(f"expected grades (0, 1, 2, 3), got {grades}")

    a0_roots_nz, a0_zero = _poly_roots(_coeffs(system.equations[0], "A0"))
    a0_values = ([Radical2()] if a0_zero else []) + a0_roots_nz

    g3 = _coeffs_by_s_signature(system.equations[3])
    if set(g3) != {((1, 3),)}:
        raise ClosureUnsupported("grade-3 equation is not a pure (S')^3 condition")
    top = g3[((1, 3),)]
    if len({sum(p for _, p in t.sym_powers) for t in top.terms}) > 1:
        raise ValueError("polynomial is not homogeneous")
    # homogeneous in (A1, k), so its roots in A1/k are its roots at k = 1
    alpha_roots, alpha_zero = _poly_roots(
        _coeffs(substitute(top, {"k": 1}), "A1"))
    del alpha_zero  # A1 = 0 collapses the ansatz; only nonzero roots proceed
    if not alpha_roots:
        raise ClosureUnsupported(
            "top-coefficient condition admits only A1 = 0; ansatz closes"
            " for no branch")
    signs = sorted({1 if float(a) > 0 else -1 for a in alpha_roots}, reverse=True)

    branches: list[ClosureBranch] = []
    degenerate: list[DegenerateRoot] = []
    backsubstituted = True
    for a0 in a0_values:
        for s1 in signs:
            alpha = Radical2.sqrt2(s1)
            # scalar extraction at k = 1 (every equation is homogeneous in k;
            # the surviving branches are re-certified with k symbolic below)
            bind = {"A0": SymExpr.const(a0), "A1": SymExpr.const(alpha),
                    "k": SymExpr.const(1)}
            g2 = _coeffs_by_s_signature(substitute(system.equations[2], bind))
            g1 = _coeffs_by_s_signature(substitute(system.equations[1], bind))
            zero = SymExpr.zero()
            num, den = -g2.get(_S1S1, zero), g2.get(_S1S2, zero)
            e3, e2, e1 = (g1.get(sig, zero) for sig in (_S3, _S2, _S1))
            # grade 1 with S'' = lam*S' and S''' = mu*lam*S', under mu = lam:
            consistency = _coeffs(
                e3 * num * num + e2 * num * den + e1 * den * den, "w")
            if len(consistency) != 3:
                raise ClosureUnsupported("speed consistency is not quadratic")
            lam_num, lam_den, c_s3, c_s2, c_s1 = (
                _coeffs(p, "w") for p in (num, den, e3, e2, e1))
            roots, zero_mult = _poly_roots(consistency)
            all_roots = ([Radical2()] * zero_mult) + roots
            beta = 3 * a0 * alpha
            for rho in all_roots:
                den_at = _horner(lam_den, rho)
                lam = _horner(lam_num, rho) / den_at if den_at else None
                dscale = (3 * (3 * a0 * a0 - 1)) + rho * (rho - beta)
                if not rho:
                    degenerate.append(DegenerateRoot(
                        a0, s1, rho, "stationary frame (w = 0)"))
                    continue
                if lam is None or not lam:
                    degenerate.append(DegenerateRoot(
                        a0, s1, rho, "exponential rate vanishes (w = 3*A0*A1)"))
                    continue
                if not dscale:
                    degenerate.append(DegenerateRoot(
                        a0, s1, rho, "closed-form denominator vanishes"))
                    continue
                mu_num = -(_horner(c_s2, rho) * lam + _horner(c_s1, rho))
                mu = mu_num / (_horner(c_s3, rho) * lam)
                if lam != mu:
                    raise AssertionError("consistency root with lambda != mu")
                branch = ClosureBranch(a0, s1, rho, lam, mu, dscale)
                backsubstituted &= backsubstitute(system, branch)
                branches.append(branch)

    return ClosureSolution(tuple(branches), tuple(degenerate), backsubstituted)


def integrate_closure(branch: ClosureBranch) -> SClosedForms:
    """Closed exponential forms of S'', S', S for one branch."""
    rho, beta = branch.w_over_k, 3 * branch.a0 * branch.alpha
    if not (rho - beta):
        raise DegenerateBranch("exponent denominator vanishes")
    if not branch.denom_scale:
        raise DegenerateBranch("closed-form denominator vanishes")
    nu = branch.nu_times_k
    s1_scale = Radical2.of(3) / (rho - beta)
    s_scale = Radical2.of(3) / branch.denom_scale
    forms = SClosedForms(branch, nu, Radical2.of(1), s1_scale, s_scale)
    # d/dxi consistency: each scale times nu reproduces the next derivative.
    if s_scale * nu != s1_scale or s1_scale * nu != forms.s2_scale:
        raise AssertionError("closed forms are not an antiderivative chain")
    return forms


def assemble_general_solution(branch: ClosureBranch) -> GeneralSolutionForm:
    """u = A0 + A1*S'/S with the closed forms of the branch inserted."""
    forms = integrate_closure(branch)
    num_scale = branch.alpha * forms.s1_scale
    return GeneralSolutionForm(branch, forms.nu_times_k, num_scale, forms.s_scale)


# --- trace and certified derivation ---------------------------------------


def _cancel_common(num: SymExpr, den: SymExpr) -> tuple[SymExpr, SymExpr]:
    """Divide a ratio of polynomials by their shared monomial content."""

    def content(e: SymExpr) -> dict[str, int]:
        out: dict[str, int] | None = None
        for t in e.terms:
            powers = dict(t.sym_powers)
            if out is None:
                out = powers
            else:
                out = {a: min(p, powers.get(a, 0)) for a, p in out.items()}
        return {a: p for a, p in (out or {}).items() if p}

    shared = {
        a: min(p, content(den).get(a, 0)) for a, p in content(num).items()
    }
    shared = {a: p for a, p in shared.items() if p}

    def divide(e: SymExpr) -> SymExpr:
        terms = []
        for t in e.terms:
            powers = dict(t.sym_powers)
            for a, p in shared.items():
                powers[a] -= p
            terms.append(Monomial.make(t.coeff, sym=powers))
        return SymExpr.from_terms(terms)

    num2, den2 = divide(num), divide(den)
    if den2.terms and float(den2.terms[0].coeff) < 0:
        num2, den2 = -num2, -den2
    return num2, den2


class DerivationReport(NamedTuple):
    ode: TravelingWaveODE
    n: int
    ansatz: Ansatz
    system: CoefficientSystem
    solution: ClosureSolution
    forms: tuple[SClosedForms, ...]
    general: tuple[GeneralSolutionForm, ...]
    checks: tuple[tuple[str, bool], ...]
    trace: str

    def all_checks_pass(self) -> bool:
        return all(ok for _, ok in self.checks)


def _expected_grade_forms() -> dict[int, SymExpr]:
    """Independently constructed target forms for the four grade equations.

    Grade 2 carries 3*k**2 on the S'*S'' term: expanding -k**2*u'' against
    u = A0 + A1*S'/S gives +3*k**2*A1*S''*S'/S**2 and no k**3 ever arises.
    """
    k, w = SymExpr.atom("k"), SymExpr.atom("w")
    a0, a1 = SymExpr.atom("A0"), SymExpr.atom("A1")
    s1, s2, s3 = SymExpr.s_deriv(1), SymExpr.s_deriv(2), SymExpr.s_deriv(3)
    three = SymExpr.const(3)
    return {
        0: a0**3 - a0,
        1: -(k**2) * a1 * s3 + three * a0**2 * a1 * s1 + w * a1 * s2 - a1 * s1,
        2: -w * a1 * s1**2 + three * k**2 * a1 * s1 * s2 + three * a0 * a1**2 * s1**2,
        3: a1 * (a1**2 - SymExpr.const(2) * k**2) * s1**3,
    }


def run_derivation(ode: TravelingWaveODE) -> DerivationReport:
    """Execute the full pipeline with structural checks and a printable trace."""
    n = balance_degree(ode)
    if n != 1:
        raise ClosureUnsupported(f"closure requires balance degree 1, got {n}")
    ansatz = build_ansatz_derivatives(n)
    system = form_coefficient_system(ode, ansatz)
    solution = solve_closure(system)
    forms = tuple(integrate_closure(b) for b in solution.branches)
    general = tuple(assemble_general_solution(b) for b in solution.branches)

    checks: list[tuple[str, bool]] = []
    checks.append(("balance degree is 1", n == 1))
    checks.append(("grades collected are exactly 0..3", system.grades() == (0, 1, 2, 3)))
    checks.append((
        "grade split reconstructs the substituted ode",
        recombine_grades(system.equations) == system.substituted,
    ))
    expected = _expected_grade_forms()
    for g in (0, 1, 2, 3):
        checks.append((
            f"grade {g} equation has its derived form",
            system.equations[g] == expected[g],
        ))
    for g in (0, 3):
        has_w = any(
            name == "w" for t in system.equations[g].terms for name, _ in t.sym_powers
        )
        checks.append((f"grade {g} is independent of the speed", not has_w))
    checks.append((
        "every branch satisfies lambda = mu exactly",
        all(b.lam_times_k == b.mu_times_k for b in solution.branches),
    ))
    checks.append((
        "every branch back-substitutes to zero",
        solution.backsubstituted,
    ))
    half3 = Radical2(Fraction(0), Fraction(3, 2))
    checks.append((
        "branch census: 8 nondegenerate with speed ratio +-3*sqrt2/2",
        len(solution.branches) == 8
        and all(b.w_over_k in (half3, -half3) for b in solution.branches),
    ))
    checks.append((
        "stationary roots recorded for a0 = +-1",
        len(solution.degenerate) == 4
        and all(not d.w_over_k and d.a0 for d in solution.degenerate),
    ))
    checks.append((
        "closed forms chain under differentiation",
        all(f.s_scale * f.nu_times_k == f.s1_scale for f in forms),
    ))

    trace = _render_trace(ode, ansatz, system, solution, forms, general)
    return DerivationReport(
        ode, n, ansatz, system, solution, forms, general,
        tuple(checks), trace,
    )


def _render_trace(ode, ansatz, system, solution, forms, general) -> str:
    lines: list[str] = []
    add = lines.append
    add(f"traveling-wave reduction (m = {ode.m}):")
    add(f"  ode: {ode.expression} = 0")
    add("homogeneous balance of the top nonlinearity against u'': n = 1")
    add("ansatz and derivatives:")
    add(f"  u   = {ansatz.u}")
    add(f"  u'  = {ansatz.u1}")
    add(f"  u'' = {ansatz.u2}")
    add("grade equations (coefficient of S^-g must vanish):")
    for g in system.grades():
        add(f"  g={g} : {system.equations[g]} = 0")
    add("  note: the S'*S'' coefficient in g=2 re-derives as 3*k^2;")
    add("        a 3*k^3 variant seen in transcriptions does not expand back"
        " to the ode.")
    a1_roots = "A1 = +sqrt2*k or -sqrt2*k (A1 = 0 rejected: top coefficient)"
    add("roots of the polynomial conditions:")
    add("  g=0 : A0 in {0, 1, -1}")
    add(f"  g=3 : {a1_roots}")
    mu_num, mu_den = _mu_ratio_exprs(system)
    add("rate of the third derivative over the second, from g=1 with g=2:")
    add(f"  S'''/S'' = ({mu_num}) / ({mu_den})")
    add("speed from the rate consistency S''/S' = S'''/S'' (exact quadratic):")
    for b in solution.branches:
        add(f"  branch {b.label()}  rate*k = {b.nu_times_k}")
    for d in solution.degenerate:
        add(f"  discarded {d.label()}")
    add("closed forms per branch (E = exp(rate*xi)):")
    for f in forms:
        add(f"  [{f.branch.label()}]")
        add(f"    S'' = c1*E ; S' = ({f.s1_scale})*c1*k*E ;"
            f" S = ({f.s_scale})*c1*k^2*E + c2")
    add("general solution per branch:")
    for gform in general:
        add(f"  [{gform.branch.label()}]")
        add(
            f"    u = {gform.branch.a0_int} + ({gform.num_scale})*c1*k^2*E"
            f" / (({gform.den_scale})*c1*k^2*E + c2)"
        )
    return "\n".join(lines) + "\n"


def _mu_ratio_exprs(system: CoefficientSystem) -> tuple[SymExpr, SymExpr]:
    """The S'''/S'' ratio as a cancelled ratio of polynomials in k, w, A0, A1."""
    g2 = _coeffs_by_s_signature(system.equations[2])
    g1 = _coeffs_by_s_signature(system.equations[1])
    lam_num = -g2[_S1S1]
    lam_den = g2[_S1S2]
    num = -(g1[_S2] * lam_num + g1[_S1] * lam_den)
    den = g1[_S3] * lam_num
    return _cancel_common(num, den)
