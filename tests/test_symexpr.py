"""Kernel expression algebra: normalization, differentiation, grading."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_qfield import _fractions

from cahnallen.qfield import Radical2
from cahnallen.symexpr import (
    Monomial,
    SymExpr,
    collect_grades,
    diff_xi,
    recombine_grades,
    substitute,
    substitute_u,
    to_text,
)
from cahnallen.closure import build_ansatz_derivatives, form_coefficient_system
from cahnallen.reduction import EvolutionEquation, WaveFrame, reduce_to_ode

K = SymExpr.atom("k")
W = SymExpr.atom("w")
A0 = SymExpr.atom("A0")
A1 = SymExpr.atom("A1")
S1 = SymExpr.s_deriv(1)
S2 = SymExpr.s_deriv(2)
S3 = SymExpr.s_deriv(3)
SINV = SymExpr.s_inverse(1)
SQRT2 = Radical2.sqrt2()


# --- strategies -------------------------------------------------------------

_consts = _fractions(5, 6).map(
    lambda f: SymExpr.const(Radical2(f, Fraction(0)))
) | st.sampled_from([SymExpr.const(SQRT2), SymExpr.const(Radical2(Fraction(1), Fraction(1)))])

_leaves = st.sampled_from([K, W, A0, A1, S1, S2, SINV]) | _consts


def _exprs(depth: int):
    if depth == 0:
        return _leaves
    sub = _exprs(depth - 1)
    return st.one_of(
        _leaves,
        st.tuples(sub, sub).map(lambda ab: ab[0] + ab[1]),
        st.tuples(sub, sub).map(lambda ab: ab[0] * ab[1]),
        st.tuples(sub, st.integers(0, 3)).map(lambda ab: ab[0] ** ab[1]),
    )


exprs = _exprs(3)


# --- basic algebra ----------------------------------------------------------


def test_additive_inverse_is_zero():
    x = A0 * S1 + K**2
    assert (x + (-x)).is_zero()


def test_radical_coefficients_multiply_exactly():
    root2k = K.scaled(SQRT2)
    assert root2k * root2k == (K**2).scaled(2)


def test_cube_of_ansatz_contains_multinomial_terms():
    base = A0 + A1 * S1 * SINV
    cube = base**3
    # oracle: binomial expansion (x + y)^3 with exact coefficients
    expected = SymExpr()
    for j in range(4):
        coeff = math.comb(3, j)
        term = (A0 ** (3 - j)) * ((A1 * S1 * SINV) ** j)
        expected = expected + term.scaled(coeff)
    assert cube == expected
    # the top term A1^3 * S'^3 * S^-3 appears with unit coefficient
    top = Monomial.make(1, sym={"A1": 3}, deriv={1: 3}, s_grade=3)
    assert top in cube.terms


def test_pow_matches_repeated_product_with_fewest_squarings(monkeypatch):
    ansatz = build_ansatz_derivatives(1)
    e = ansatz.u + ansatz.u1 + ansatz.u2  # derivation-sized: 7 monomials
    products = []
    real_mul = SymExpr.__mul__

    def counted(self, other):
        products.append(1)
        return real_mul(self, other)

    repeated = SymExpr.const(1)
    for n in range(6):
        products.clear()
        monkeypatch.setattr(SymExpr, "__mul__", counted)
        power = e**n
        monkeypatch.setattr(SymExpr, "__mul__", real_mul)
        assert power == repeated
        # one product per set bit, one squaring per bit after the first
        assert len(products) == (bin(n).count("1") + n.bit_length() - 1
                                 if n else 0)
        repeated = repeated * e


def test_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        A0**-1
    with pytest.raises(ValueError):
        (A0 + A1 * S1) ** -2


# --- differentiation --------------------------------------------------------


def test_diff_constant_is_zero():
    assert diff_xi(A0).is_zero()
    assert diff_xi(SymExpr.const(Radical2(Fraction(5), Fraction(-2)))).is_zero()


def test_diff_of_log_derivative_ratio():
    u1 = diff_xi(A1 * S1 * SINV)
    assert u1 == A1 * S2 * SINV - A1 * S1**2 * SINV**2


def test_second_diff_matches_cubic_tail():
    u2 = diff_xi(diff_xi(A1 * S1 * SINV))
    expected = (
        A1 * S3 * SINV
        - (A1 * S2 * S1 * SINV**2).scaled(3)
        + (A1 * S1**3 * SINV**3).scaled(2)
    )
    assert u2 == expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(exprs, exprs)
def test_product_rule(a, b):
    assert diff_xi(a * b) == diff_xi(a) * b + a * diff_xi(b)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(exprs, exprs, exprs)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=200, deadline=None, derandomize=True)
@given(exprs)
def test_normalization_idempotence(e):
    raw = SymExpr(tuple(reversed(e.terms)) + e.terms)  # denormalized duplicate
    once = raw.normalized()
    assert once.normalized() == once
    assert e.normalized() == e


# --- substitution -----------------------------------------------------------


def test_substitute_cubic_root():
    e = A0**3 - A0
    assert substitute(e, {"A0": SymExpr.const(1)}).is_zero()
    assert substitute(e, {"A0": SymExpr.const(-1)}).is_zero()
    assert substitute(e, {"A0": SymExpr.const(0)}).is_zero()


def test_substitute_radical_root():
    e = A1**2 - (K**2).scaled(2)
    assert substitute(e, {"A1": K.scaled(SQRT2)}).is_zero()
    assert substitute(e, {"A1": K.scaled(-SQRT2)}).is_zero()


def test_substitute_empty_is_identity():
    e = A0 * S1 + W
    assert substitute(e, {}) == e


def test_substitute_rejects_function_atoms():
    with pytest.raises(ValueError):
        substitute(S1, {"S'": SymExpr.const(1)})
    with pytest.raises(ValueError):
        substitute(A0, {"u": SymExpr.const(1)})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(exprs, exprs)
def test_substitute_is_multiplicative(a, b):
    bindings = {"A0": SymExpr.const(Radical2(Fraction(2), Fraction(-1))), "k": W}
    lhs = substitute(a * b, bindings)
    rhs = substitute(a, bindings) * substitute(b, bindings)
    assert lhs == rhs


# --- one-pass rewriting against the per-term sum ------------------------------
#
# The oracles below are the term-by-term definitions: each monomial, stripped
# of the replaced atoms, times the product of the replacements' powers, summed
# one term at a time.


def _per_term_sum(e, split, values):
    out = SymExpr()
    for t in e.terms:
        base, replaced = split(t)
        factor = SymExpr.const(1)
        for atom, exp in replaced:
            factor = factor * values[atom] ** exp
        out = out + SymExpr.from_terms([base]) * factor
    return out


def _oracle_substitute(e, bindings):
    def split(t):
        kept = tuple(p for p in t.sym_powers if p[0] not in bindings)
        return (Monomial(t.coeff, kept, t.u_powers, t.deriv_powers, t.s_grade),
                [p for p in t.sym_powers if p[0] in bindings])
    return _per_term_sum(e, split, bindings)


def _oracle_substitute_u(e, replacements):
    def split(t):
        return (Monomial(t.coeff, t.sym_powers, (), t.deriv_powers, t.s_grade),
                t.u_powers)
    return _per_term_sum(e, split, replacements)


def _derivation_exprs():
    ansatz = build_ansatz_derivatives(1)
    ode = reduce_to_ode(EvolutionEquation(3), WaveFrame())
    system = form_coefficient_system(ode, ansatz)
    return ode, ansatz, system


def test_one_pass_substitute_u_matches_per_term_sum():
    ode, ansatz, _ = _derivation_exprs()
    for n in (1, 2):
        a = build_ansatz_derivatives(n)
        reps = {0: a.u, 1: a.u1, 2: a.u2}
        assert substitute_u(ode.expression, reps) == _oracle_substitute_u(
            ode.expression, reps)
    reps = {0: ansatz.u1, 1: ansatz.u2 * K, 2: ansatz.u + W}
    assert substitute_u(ode.expression, reps) == _oracle_substitute_u(
        ode.expression, reps)


def test_one_pass_substitute_matches_per_term_sum():
    _, ansatz, system = _derivation_exprs()
    bindings = [
        {"A0": SymExpr.const(1), "A1": SymExpr.const(SQRT2),
         "k": SymExpr.const(1)},
        {"A0": SymExpr.const(Radical2(Fraction(-1), Fraction(0))),
         "A1": K.scaled(-SQRT2), "w": K.scaled(Radical2.sqrt2(Fraction(3, 2)))},
        {"k": W + A0, "A1": A1**2 - K},
    ]
    exprs = [*system.equations.values(), system.substituted, ansatz.u2]
    for e in exprs:
        for b in bindings:
            assert substitute(e, b) == _oracle_substitute(e, b)


def test_derivation_grades_recombine_in_one_pass():
    _, ansatz, system = _derivation_exprs()
    for e in (system.substituted, ansatz.u2, ansatz.u1 * ansatz.u2):
        parts = collect_grades(e)
        assert recombine_grades(parts) == e
        pairwise = SymExpr()
        for g, p in parts.items():
            pairwise = pairwise + p * SymExpr.s_inverse(g)
        assert pairwise == e


# --- grade collection -------------------------------------------------------


def test_collect_grades_of_zero():
    assert collect_grades(SymExpr()) == {}


def test_collect_grades_direct_construction():
    e = A0**3 - A0 + (A1**3 * S1**3) * SymExpr.s_inverse(3)
    parts = collect_grades(e)
    assert set(parts) == {0, 3}
    assert parts[0] == A0**3 - A0
    assert parts[3] == A1**3 * S1**3


@settings(max_examples=200, deadline=None, derandomize=True)
@given(exprs)
def test_grade_round_trip(e):
    assert recombine_grades(collect_grades(e)) == e


def test_grade_parts_carry_no_inverse_powers():
    e = A0 * SINV**2 + K * S1 * SINV
    for part in collect_grades(e).values():
        assert all(t.s_grade == 0 for t in part.terms)


# --- printing ---------------------------------------------------------------


def test_text_rendering():
    e = (A1 * S1 * S2 * SINV**2).scaled(-3) + K**2
    assert to_text(e) == "k^2 - 3*A1*S'*S''*S^-2"
    assert to_text(SymExpr()) == "0"
    assert to_text(K.scaled(Radical2.sqrt2(Fraction(3, 2)))) == "3*sqrt2/2*k"


def test_text_is_deterministic_under_construction_order():
    e1 = A0 + K * S1
    e2 = K * S1 + A0
    assert to_text(e1) == to_text(e2)
    assert e1 == e2


def test_monomials_compare_equal_regardless_of_map_order():
    m1 = Monomial.make(2, sym={"k": 1, "A1": 2}, deriv={2: 1, 1: 3}, s_grade=2)
    m2 = Monomial.make(2, sym={"A1": 2, "k": 1}, deriv={1: 3, 2: 1}, s_grade=2)
    assert m1 == m2
    assert hash(m1) == hash(m2)
