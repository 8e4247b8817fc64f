"""Ansatz closure for the traveling-wave ODE.

The pipeline: build u = A0 + A1*S'/S and its xi-derivatives, substitute into
the ODE, collect the coefficient of every inverse power of S, and close the
resulting algebraic/differential system exactly.  The grade-2 equation fixes
the ratio S''/S', the grade-1 equation fixes S'''/S''; a valid branch is a
choice of (A0, sign of A1, w) for which the two exponential rates coincide.
That consistency requirement is a quadratic in the speed w over Q(sqrt(2))
and is solved exactly; every surviving branch is certified by structural
back-substitution into all four grade equations with k left symbolic.

The two rates are formed once, as ratios of polynomials in k, w, A0 and A1
split out of grades 2 and 1 by S-derivative signature.  The speed condition
is their cross product, and the trace prints the same S'''/S'' ratio.  No
other step rewrites expressions: one helper evaluates the terms of an
expression in Q(sqrt(2)) with scalar values for its bound atoms and sums
the exact coefficients keyed by the powers left over (of k or w, of the
S-derivatives, and of any unbound atom).  The closure reads from it the
speed condition's coefficient list in w and the two rates at each root;
back-substitution asks that every coefficient, keyed by its power of k, be
a structural zero.

S is integrated in closed form only at the very end: each branch yields
S'' = c1*exp(nu*xi), then S' and S by division with the same rate, and the
general solution u = A0 + A1*S'/S follows; the two scales of that closed form
are exact properties of the branch.
"""

from __future__ import annotations

import operator
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Mapping, NamedTuple

from .qfield import ONE, ZERO, Radical2
from .reduction import TravelingWaveODE, balance_degree
from .symexpr import (
    Monomial,
    SymExpr,
    collect_grades,
    diff_xi,
    recombine_grades,
    substitute_u,
)


class Ansatz(NamedTuple):
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

    The closed form, with E = exp(nu*xi) and nu = nu_times_k / k:

        S''  = c1 * E
        S'   = s1_scale * c1 * k    * E
        S    = s_scale  * c1 * k**2 * E + c2
        u    = a0 + alpha*s1_scale*c1*k**2*E / (s_scale*c1*k**2*E + c2)
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

    @property
    def s1_scale(self) -> Radical2:
        """S' over c1*k*E: 3 over the exponent denominator w/k - 3*a0*alpha."""
        return 3 / (self.w_over_k - 3 * self.a0 * self.alpha)

    @property
    def s_scale(self) -> Radical2:
        """The coefficient of c1*k**2*E in S."""
        return 3 / self.denom_scale

    def label(self) -> str:
        return _label(self.a0, self.s1, self.w_over_k)


class DegenerateRoot(NamedTuple):
    a0: Radical2
    s1: int
    w_over_k: Radical2
    reason: str

    def label(self) -> str:
        return f"{_label(self.a0, self.s1, self.w_over_k)} : {self.reason}"


def _signed(value: Radical2) -> str:
    """value's text with a sign, + too, unless it is 0."""
    text = str(value)
    return text if text.startswith("-") or not value else f"+{text}"


def _label(a0: Radical2, s1: int, w_over_k: Radical2) -> str:
    """The a0=... A1=... w=(...)*k name of a branch or a discarded root."""
    return (f"a0={_signed(a0)} A1={_signed(Radical2.sqrt2(s1))}*k"
            f" w=({w_over_k})*k")


class ClosureSolution(NamedTuple):
    branches: tuple[ClosureBranch, ...]
    degenerate: tuple[DegenerateRoot, ...]
    # every branch back-substitutes to a structural zero, k symbolic
    backsubstituted: bool
    # (lambda, mu) = (S''/S', S'''/S''), each a (numerator, denominator) pair
    rates: tuple[tuple[SymExpr, SymExpr], tuple[SymExpr, SymExpr]]


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


def _evaluate(eq: SymExpr, scalars: Mapping[str, tuple[Radical2, int]],
              s_ratios: Mapping[int, tuple[Radical2, int]] | None = None,
              ) -> dict[tuple, Radical2]:
    """The terms of an expression with its bound atoms evaluated exactly.

    scalars[name] = (v, p) binds the atom to v * x**p for one symbolic x;
    s_ratios[j] = (v, p) binds S^(j) to v * x**p * S'.  Returns the summed
    Q(sqrt(2)) coefficients keyed by the powers left over, (power of x,
    grade, S-derivative powers, u powers, unbound atoms); zero coefficients
    are dropped, so the expression vanishes identically in x and in every
    unbound atom exactly when the result is empty.
    """
    s_ratios = s_ratios or {}
    out: dict[tuple, Radical2] = {}
    for t in eq.terms:
        c, xp, kept = t.coeff, 0, []
        for name, e in t.sym_powers:
            bound = scalars.get(name)
            if bound is None:
                kept.append((name, e))
            else:
                c = c * bound[0] ** e
                xp += bound[1] * e
        sig, s1 = [], 0
        for order, e in t.deriv_powers:
            bound = s_ratios.get(order)
            if bound is None:
                sig.append((order, e))
            else:
                c = c * bound[0] ** e
                xp += bound[1] * e
                s1 += e
        if s1:  # the bound S-derivatives become powers of S'
            sig = dict(sig)
            sig[1] = sig.get(1, 0) + s1
            sig = sorted(sig.items())
        key = (xp, t.s_grade, tuple(sig), t.u_powers, tuple(kept))
        out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if c}


def _coeff_lists(e: SymExpr, scalars: Mapping[str, tuple[Radical2, int]]
                 ) -> dict[tuple, list[Radical2]]:
    """Dense coefficient lists in x, one per S-derivative signature.

    Every scalar atom of e must be bound and e must carry no u atoms and no
    power of S**-1.  A signature whose terms cancel is absent, so the zero
    polynomial gives {}.
    """
    out: dict[tuple, list[Radical2]] = {}
    for (p, grade, sig, u, kept), c in _evaluate(e, scalars).items():
        if grade or u or kept:
            raise ValueError("expression is not a scalar polynomial")
        coeffs = out.setdefault(sig, [])
        coeffs.extend([ZERO] * (p + 1 - len(coeffs)))
        coeffs[p] = c
    return out


def _value(e: SymExpr, scalars: Mapping[str, tuple[Radical2, int]]
           ) -> Radical2:
    """The exact value of a polynomial with every atom bound to a number."""
    [c] = _coeff_lists(e, scalars).get((), [ZERO])
    return c


# --- pipeline steps --------------------------------------------------------


def build_ansatz_derivatives() -> Ansatz:
    """u = A0 + A1*S'/S and its first two xi-derivatives."""
    u = (SymExpr.atom("A0")
         + SymExpr.atom("A1") * SymExpr.s_deriv(1) * SymExpr.s_inverse(1))
    u1 = diff_xi(u)
    u2 = diff_xi(u1)
    return Ansatz(u, u1, u2)


def form_coefficient_system(ode: TravelingWaveODE, ansatz: Ansatz) -> CoefficientSystem:
    """Substitute the ansatz into the ODE and collect inverse powers of S."""
    subbed = substitute_u(
        ode.expression, {0: ansatz.u, 1: ansatz.u1, 2: ansatz.u2}
    )
    return CoefficientSystem(collect_grades(subbed), subbed)


_S1 = ((1, 1),)
_S2 = ((2, 1),)
_S3 = ((3, 1),)
_S1S1 = ((1, 2),)
_S1S2 = ((1, 1), (2, 1))


def _rate_ratios(system: CoefficientSystem
                 ) -> tuple[tuple[SymExpr, SymExpr], tuple[SymExpr, SymExpr]]:
    """The rates lambda = S''/S' and mu = S'''/S'' as ratios of polynomials
    in k, w, A0 and A1, each a (numerator, denominator) pair.

    Grade 2 reads a*S'^2 + b*S'*S'' = 0, so lambda = -a/b.  Grade 1 reads
    c3*S''' + c2*S'' + c1*S' = 0; divided by S'', with S'/S'' = 1/lambda,
    it gives mu = -(c2*lambda + c1) / (c3*lambda).
    """

    def by_s_signature(e: SymExpr) -> dict[tuple, SymExpr]:
        parts: dict[tuple, list[Monomial]] = {}
        for (_, _, sig, u, kept), c in _evaluate(e, {}).items():
            parts.setdefault(sig, []).append(Monomial(c, kept, u))
        return {sig: SymExpr.from_terms(ms) for sig, ms in parts.items()}

    g2 = by_s_signature(system.equations[2])
    g1 = by_s_signature(system.equations[1])
    zero = SymExpr()
    lam_num, lam_den = -g2.get(_S1S1, zero), g2.get(_S1S2, zero)
    c3, c2, c1 = (g1.get(sig, zero) for sig in (_S3, _S2, _S1))
    return ((lam_num, lam_den),
            (-(c2 * lam_num + c1 * lam_den), c3 * lam_num))


def backsubstitute(system: CoefficientSystem, branch: ClosureBranch) -> bool:
    """Structural zero check of all grade equations, with k symbolic.

    Each grade equation is evaluated term by term in Q(sqrt(2)) with
    A0 = a0, A1 = alpha*k, w = rho*k and the S-derivatives replaced by their
    closure ratios S' : S'' : S''' = 3*k**2 : (rho - beta)*k : denom_scale,
    each times a common factor that cancels because terms stay apart by
    their power of S'.  The coefficients are keyed by their power of k, their
    power of S' and any atom left unbound, so the check is an exact
    polynomial identity in k: every coefficient must be a structural zero,
    with no float and no tolerance.
    """
    rho = branch.w_over_k
    beta = 3 * branch.a0 * branch.alpha
    scalars = {"A0": (branch.a0, 0), "A1": (branch.alpha, 1), "w": (rho, 1),
               "k": (ONE, 1)}
    s_ratios = {1: (Radical2.of(3), 2), 2: (rho - beta, 1),
                3: (branch.denom_scale, 0)}
    return not any(_evaluate(eq, scalars, s_ratios)
                   for eq in system.equations.values())


def solve_closure(system: CoefficientSystem) -> ClosureSolution:
    """Enumerate every exact branch of the coefficient system.

    A0 comes from the grade-0 polynomial, A1 from grade 3 (its zero root is
    rejected: the ansatz would lose its top coefficient).  The rates
    lambda = S''/S' from grade 2 and mu = S'''/S'' from grade 1 are formed
    once; for each pair, lambda = mu with denominators cleared is a
    quadratic in w, solved exactly, and both rates are read off at each
    root.  Roots that leave no traveling wave or no integrable closed form
    are recorded as degenerate instead of returned.  Each returned branch is
    back-substituted once; the outcome and the rates are recorded.
    """
    grades = system.grades()
    if grades != (0, 1, 2, 3):
        raise ValueError(f"expected grades (0, 1, 2, 3), got {grades}")

    g0 = _coeff_lists(system.equations[0], {"A0": (ONE, 1)})
    if set(g0) != {()}:
        raise ValueError("grade-0 equation is not a polynomial in A0")
    a0_roots_nz, a0_zero = _poly_roots(g0[()])
    a0_values = ([Radical2()] if a0_zero else []) + a0_roots_nz

    # homogeneous in (A1, k), so its roots in A1/k are its roots at k = 1
    g3 = _coeff_lists(system.equations[3], {"A1": (ONE, 1), "k": (ONE, 0)})
    if set(g3) != {((1, 3),)}:
        raise ValueError("grade-3 equation is not a pure (S')^3 condition")
    if len({sum(p for _, p in t.sym_powers)
            for t in system.equations[3].terms}) > 1:
        raise ValueError("polynomial is not homogeneous")
    alpha_roots, alpha_zero = _poly_roots(g3[((1, 3),)])
    del alpha_zero  # A1 = 0 collapses the ansatz; only nonzero roots proceed
    if not alpha_roots:
        raise ValueError(
            "top-coefficient condition admits only A1 = 0; ansatz closes"
            " for no branch")
    signs = sorted({1 if float(a) > 0 else -1 for a in alpha_roots}, reverse=True)

    rates = _rate_ratios(system)
    (lam_num, lam_den), (mu_num, mu_den) = rates
    consistency = lam_num * mu_den - mu_num * lam_den  # lambda = mu
    branches: list[ClosureBranch] = []
    degenerate: list[DegenerateRoot] = []
    backsubstituted = True
    for a0 in a0_values:
        for s1 in signs:
            alpha = Radical2.sqrt2(s1)
            # at k = 1 (every equation is homogeneous in k; the surviving
            # branches are re-certified with k symbolic below)
            pair = {"A0": (a0, 0), "A1": (alpha, 0), "k": (ONE, 0)}
            coeffs = _coeff_lists(consistency, {**pair, "w": (ONE, 1)})
            if len(coeffs.get((), ())) != 3:
                raise ValueError("speed consistency is not quadratic")
            roots, zero_mult = _poly_roots(coeffs[()])
            beta = 3 * a0 * alpha
            for rho in [Radical2()] * zero_mult + roots:
                if not rho:
                    degenerate.append(DegenerateRoot(
                        a0, s1, rho, "stationary frame (w = 0)"))
                    continue
                at = {**pair, "w": (rho, 0)}
                den_at = _value(lam_den, at)
                lam = _value(lam_num, at) / den_at if den_at else ZERO
                if not lam:
                    degenerate.append(DegenerateRoot(
                        a0, s1, rho, "exponential rate vanishes (w = 3*A0*A1)"))
                    continue
                dscale = (3 * (3 * a0 * a0 - 1)) + rho * (rho - beta)
                if not dscale:
                    degenerate.append(DegenerateRoot(
                        a0, s1, rho, "closed-form denominator vanishes"))
                    continue
                mu = _value(mu_num, at) / _value(mu_den, at)
                branch = ClosureBranch(a0, s1, rho, lam, mu, dscale)
                backsubstituted &= backsubstitute(system, branch)
                branches.append(branch)

    return ClosureSolution(tuple(branches), tuple(degenerate), backsubstituted,
                           rates)


# --- trace and certified derivation ---------------------------------------


def _cancel_common(num: SymExpr, den: SymExpr) -> tuple[SymExpr, SymExpr]:
    """Divide a ratio of polynomials by their shared monomial content: the
    multiset intersection of the scalar powers of all their terms."""
    shared = reduce(operator.and_, (Counter(dict(t.sym_powers))
                                    for t in num.terms + den.terms))

    def divide(e: SymExpr) -> SymExpr:
        return SymExpr.from_terms(
            Monomial.make(t.coeff, sym=Counter(dict(t.sym_powers)) - shared)
            for t in e.terms)

    num2, den2 = divide(num), divide(den)
    if den2.terms and float(den2.terms[0].coeff) < 0:
        num2, den2 = -num2, -den2
    return num2, den2


class DerivationReport(NamedTuple):
    ansatz: Ansatz
    system: CoefficientSystem
    solution: ClosureSolution
    checks: tuple[tuple[str, bool], ...]
    trace: str

    def all_checks_pass(self) -> bool:
        return all(ok for _, ok in self.checks)


@lru_cache(maxsize=1)
def _expected_grade_forms() -> tuple[SymExpr, ...]:
    """Independently constructed target forms for the four grade equations,
    indexed by grade; built once per process (the tuple and its forms are
    immutable, so every derivation can share them).

    Grade 2 carries 3*k**2 on the S'*S'' term: expanding -k**2*u'' against
    u = A0 + A1*S'/S gives +3*k**2*A1*S''*S'/S**2 and no k**3 ever arises.
    """
    k, w = SymExpr.atom("k"), SymExpr.atom("w")
    a0, a1 = SymExpr.atom("A0"), SymExpr.atom("A1")
    s1, s2, s3 = SymExpr.s_deriv(1), SymExpr.s_deriv(2), SymExpr.s_deriv(3)
    three = SymExpr.const(3)
    return (
        a0**3 - a0,
        -(k**2) * a1 * s3 + three * a0**2 * a1 * s1 + w * a1 * s2 - a1 * s1,
        -w * a1 * s1**2 + three * k**2 * a1 * s1 * s2 + three * a0 * a1**2 * s1**2,
        a1 * (a1**2 - SymExpr.const(2) * k**2) * s1**3,
    )


def run_derivation(ode: TravelingWaveODE) -> DerivationReport:
    """Execute the full pipeline with structural checks and a printable trace."""
    n = balance_degree(ode)
    if n != 1:
        raise ValueError(f"closure requires balance degree 1, got {n}")
    ansatz = build_ansatz_derivatives()
    system = form_coefficient_system(ode, ansatz)
    solution = solve_closure(system)

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
        all(b.s_scale * b.nu_times_k == b.s1_scale
            and b.s1_scale * b.nu_times_k == 1 for b in solution.branches),
    ))

    trace = _render_trace(n, ode, ansatz, system, solution)
    return DerivationReport(ansatz, system, solution, tuple(checks), trace)


def _render_trace(n, ode, ansatz, system, solution) -> str:
    """The printed derivation: n is the balance degree, and the roots of
    g=0 and g=3 are those of the branches and discarded roots found."""
    roots = (*solution.branches, *solution.degenerate)
    a0_roots = ", ".join(map(str, dict.fromkeys(r.a0 for r in roots)))
    a1_roots = " or ".join(f"{_signed(Radical2.sqrt2(s1))}*k"
                           for s1 in dict.fromkeys(r.s1 for r in roots))
    lines: list[str] = []
    add = lines.append
    add(f"traveling-wave reduction (m = {ode.m}):")
    add(f"  ode: {ode.expression} = 0")
    add(f"homogeneous balance of the top nonlinearity against u'': n = {n}")
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
    add("roots of the polynomial conditions:")
    add(f"  g=0 : A0 in {{{a0_roots}}}")
    add(f"  g=3 : A1 = {a1_roots} (A1 = 0 rejected: top coefficient)")
    mu_num, mu_den = _cancel_common(*solution.rates[1])
    add("rate of the third derivative over the second, from g=1 with g=2:")
    add(f"  S'''/S'' = ({mu_num}) / ({mu_den})")
    add("speed from the rate consistency S''/S' = S'''/S'' (exact quadratic):")
    for b in solution.branches:
        add(f"  branch {b.label()}  rate*k = {b.nu_times_k}")
    for d in solution.degenerate:
        add(f"  discarded {d.label()}")
    add("closed forms per branch (E = exp(rate*xi)):")
    for b in solution.branches:
        add(f"  [{b.label()}]")
        add(f"    S'' = c1*E ; S' = ({b.s1_scale})*c1*k*E ;"
            f" S = ({b.s_scale})*c1*k^2*E + c2")
    add("general solution per branch:")
    for b in solution.branches:
        add(f"  [{b.label()}]")
        add(f"    u = {b.a0_int} + ({b.alpha * b.s1_scale})*c1*k^2*E"
            f" / (({b.s_scale})*c1*k^2*E + c2)")
    return "\n".join(lines) + "\n"
