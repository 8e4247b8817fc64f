"""Canonical polynomial expressions for the ansatz calculus.

An expression is a normalized sum of monomials.  A monomial multiplies an
exact Q(sqrt(2)) coefficient with

* powers of scalar atoms (k, w, A0, A1, c1, c2),
* powers of profile-derivative atoms u, u', u'', ...,
* powers of the unknown-function derivative atoms S', S'', S''', ...,
* a grade g >= 0, the power of S**-1 carried by the term.

Only the differentiation rules are attached to S and u; no functional form
is assumed for either until the closure is integrated.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from .qfield import Frozen, Radical2

CORE_ATOMS = ("k", "w", "A0", "A1", "c1", "c2")

ScalarLike = Union[Radical2, Fraction, int]
Bindable = Union["SymExpr", Radical2, Fraction, int]


def _atom_sort_key(name: str) -> int:
    if name in CORE_ATOMS:
        return CORE_ATOMS.index(name)
    raise ValueError(f"unknown scalar atom {name!r}")


def _canon_powers(powers: Mapping, key=None) -> tuple:
    items = [(a, int(e)) for a, e in powers.items() if e]
    for a, e in items:
        if e < 0:
            raise ValueError(f"negative exponent for {a!r}")
    items.sort(key=(lambda it: key(it[0])) if key else (lambda it: it[0]))
    return tuple(items)


class Monomial(Frozen):
    """coeff times (atom, exponent) powers of each kind, times S**-s_grade."""

    __slots__ = ("coeff", "sym_powers", "u_powers", "deriv_powers", "s_grade")

    def __init__(self, coeff: Radical2, sym_powers: tuple = (),
                 u_powers: tuple = (), deriv_powers: tuple = (),
                 s_grade: int = 0) -> None:
        _set_coeff(self, coeff)
        _set_sym(self, sym_powers)
        _set_u(self, u_powers)
        _set_deriv(self, deriv_powers)
        _set_grade(self, s_grade)

    @classmethod
    def make(
        cls,
        coeff: ScalarLike,
        sym: Mapping[str, int] | None = None,
        u: Mapping[int, int] | None = None,
        deriv: Mapping[int, int] | None = None,
        s_grade: int = 0,
    ) -> "Monomial":
        if s_grade < 0:
            raise ValueError("s_grade must be non-negative")
        return cls(
            Radical2.of(coeff),
            _canon_powers(sym or {}, key=_atom_sort_key),
            _canon_powers(u or {}),
            _canon_powers(deriv or {}),
            s_grade,
        )

    def signature(self) -> tuple:
        return (self.s_grade, self.deriv_powers, self.u_powers, self.sym_powers)

    def scaled(self, factor: ScalarLike) -> "Monomial":
        return Monomial(
            self.coeff * Radical2.of(factor),
            self.sym_powers,
            self.u_powers,
            self.deriv_powers,
            self.s_grade,
        )


_set_coeff = Monomial.coeff.__set__
_set_sym = Monomial.sym_powers.__set__
_set_u = Monomial.u_powers.__set__
_set_deriv = Monomial.deriv_powers.__set__
_set_grade = Monomial.s_grade.__set__


def _merge_powers(a: tuple, b: tuple, key=None) -> tuple:
    merged: dict = {}
    for atom, e in a:
        merged[atom] = merged.get(atom, 0) + e
    for atom, e in b:
        merged[atom] = merged.get(atom, 0) + e
    return _canon_powers(merged, key=key)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return Monomial(
        a.coeff * b.coeff,
        _merge_powers(a.sym_powers, b.sym_powers, key=_atom_sort_key),
        _merge_powers(a.u_powers, b.u_powers),
        _merge_powers(a.deriv_powers, b.deriv_powers),
        a.s_grade + b.s_grade,
    )


class SymExpr(Frozen):
    """Normalized sum of monomials; the empty sum is zero."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple = ()) -> None:
        _set_terms(self, terms)

    @classmethod
    def const(cls, value: ScalarLike) -> "SymExpr":
        return cls.from_terms([Monomial.make(value)])

    @classmethod
    def atom(cls, name: str) -> "SymExpr":
        return cls.from_terms([Monomial.make(1, sym={name: 1})])

    @classmethod
    def u_deriv(cls, order: int) -> "SymExpr":
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        return cls.from_terms([Monomial.make(1, u={order: 1})])

    @classmethod
    def s_deriv(cls, order: int) -> "SymExpr":
        if order < 1:
            raise ValueError("S-derivative order must be >= 1")
        return cls.from_terms([Monomial.make(1, deriv={order: 1})])

    @classmethod
    def s_inverse(cls, grade: int = 1) -> "SymExpr":
        return cls.from_terms([Monomial.make(1, s_grade=grade)])

    @classmethod
    def from_terms(cls, terms: Iterable[Monomial]) -> "SymExpr":
        acc: dict[tuple, Radical2] = {}
        keep: dict[tuple, Monomial] = {}
        for t in terms:
            sig = t.signature()
            if sig in acc:
                acc[sig] = acc[sig] + t.coeff
            else:
                acc[sig] = t.coeff
                keep[sig] = t
        out = [
            Monomial(acc[sig], m.sym_powers, m.u_powers, m.deriv_powers, m.s_grade)
            for sig, m in keep.items()
            if acc[sig]
        ]
        out.sort(key=lambda m: m.signature())
        return cls(tuple(out))

    def normalized(self) -> "SymExpr":
        return SymExpr.from_terms(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: Bindable) -> "SymExpr":
        other = as_expr(other)
        return SymExpr.from_terms(self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self) -> "SymExpr":
        return SymExpr(tuple(t.scaled(-1) for t in self.terms))

    def __sub__(self, other: Bindable) -> "SymExpr":
        return self + (-as_expr(other))

    def __rsub__(self, other: Bindable) -> "SymExpr":
        return (-self) + as_expr(other)

    def __mul__(self, other: Bindable) -> "SymExpr":
        other = as_expr(other)
        return SymExpr.from_terms(
            _mono_mul(a, b) for a in self.terms for b in other.terms
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "SymExpr":
        if n < 0:
            raise ValueError("exponent must be >= 0")
        out = SymExpr.const(1)
        base = self
        while n > 0:
            if n & 1:
                out = out * base
            n >>= 1
            if n:  # square only while bits remain
                base = base * base
        return out

    def scaled(self, factor: ScalarLike) -> "SymExpr":
        f = Radical2.of(factor)
        if not f:
            return SymExpr()
        return SymExpr(tuple(t.scaled(f) for t in self.terms))

    def __str__(self) -> str:
        return to_text(self)


_set_terms = SymExpr.terms.__set__


def as_expr(value: Bindable) -> SymExpr:
    if isinstance(value, SymExpr):
        return value
    return SymExpr.const(Radical2.of(value))


def diff_xi(e: SymExpr) -> SymExpr:
    """Differentiate with respect to the wave coordinate.

    Scalar atoms are constants; d/dxi S^(j) = S^(j+1); d/dxi u^(j) = u^(j+1);
    d/dxi S**-g = -g * S**-(g+1) * S'.
    """
    out: list[Monomial] = []
    for t in e.terms:
        for j, exp in t.deriv_powers:
            out.append(Monomial(t.coeff * exp, t.sym_powers, t.u_powers,
                                _raise_order(t.deriv_powers, j), t.s_grade))
        for j, exp in t.u_powers:
            out.append(Monomial(t.coeff * exp, t.sym_powers,
                                _raise_order(t.u_powers, j), t.deriv_powers,
                                t.s_grade))
        if t.s_grade:
            with_s1 = _merge_powers(t.deriv_powers, ((1, 1),))
            out.append(Monomial(t.coeff * (-t.s_grade), t.sym_powers,
                                t.u_powers, with_s1, t.s_grade + 1))
    return SymExpr.from_terms(out)


def _raise_order(powers: tuple, j: int) -> tuple:
    """The powers with one factor of order j raised to order j + 1."""
    return _merge_powers(powers, ((j, -1), (j + 1, 1)))


def _rewrite(e: SymExpr, split, values: Mapping) -> SymExpr:
    """Replace atoms in every term and normalize the sum once.

    split(term) returns the term with the replaced atoms removed and the
    (atom, exponent) pairs to replace; each power values[atom]**exp is
    computed once per call.
    """
    powers: dict[tuple, SymExpr] = {}
    out: list[Monomial] = []
    for t in e.terms:
        base, replaced = split(t)
        factor: SymExpr | None = None
        for key in replaced:
            p = powers.get(key)
            if p is None:
                p = powers[key] = values[key[0]] ** key[1]
            factor = p if factor is None else factor * p
        if factor is None:
            out.append(base)
        else:
            out.extend(_mono_mul(base, f) for f in factor.terms)
    return SymExpr.from_terms(out)


def substitute(e: SymExpr, bindings: Mapping[str, Bindable]) -> SymExpr:
    """Replace scalar atoms by expressions or exact scalars.

    Only scalar atoms may be bound; the function symbols S and u carry
    differentiation structure and are rejected.
    """
    for name in bindings:
        if not isinstance(name, str):
            raise TypeError("bindings must be keyed by scalar atom names")
        _atom_sort_key(name)  # raises for unknown atoms, incl. S'/u forms
    if not bindings:
        return e
    values = {name: as_expr(v) for name, v in bindings.items()}

    def split(t: Monomial) -> tuple[Monomial, list]:
        kept = tuple(p for p in t.sym_powers if p[0] not in values)
        replaced = [p for p in t.sym_powers if p[0] in values]
        return Monomial(t.coeff, kept, t.u_powers, t.deriv_powers,
                        t.s_grade), replaced

    return _rewrite(e, split, values)


def substitute_u(e: SymExpr, replacements: Mapping[int, SymExpr]) -> SymExpr:
    """Replace profile-derivative atoms u^(j) by expressions."""

    def split(t: Monomial) -> tuple[Monomial, tuple]:
        for order, _ in t.u_powers:
            if order not in replacements:
                raise KeyError(f"no replacement for u^({order})")
        return Monomial(t.coeff, t.sym_powers, (), t.deriv_powers,
                        t.s_grade), t.u_powers

    return _rewrite(e, split, replacements)


def collect_grades(e: SymExpr) -> dict[int, SymExpr]:
    """Split by the power of S**-1; each returned part carries grade zero."""
    buckets: dict[int, list[Monomial]] = {}
    for t in e.terms:
        flat = Monomial(t.coeff, t.sym_powers, t.u_powers, t.deriv_powers, 0)
        buckets.setdefault(t.s_grade, []).append(flat)
    return {g: SymExpr.from_terms(ms) for g, ms in sorted(buckets.items())}


def recombine_grades(parts: Mapping[int, SymExpr]) -> SymExpr:
    return SymExpr.from_terms(
        Monomial(t.coeff, t.sym_powers, t.u_powers, t.deriv_powers,
                 t.s_grade + g)
        for g, part in parts.items() for t in part.terms
    )


# --- pretty printing -------------------------------------------------------

_PRIMES = {1: "S'", 2: "S''", 3: "S'''"}
_U_NAMES = {0: "u", 1: "u'", 2: "u''", 3: "u'''"}


def _pow_str(base: str, exp: int) -> str:
    return base if exp == 1 else f"{base}^{exp}"


def _mono_text(m: Monomial) -> tuple[bool, str]:
    """Return (negative, unsigned text) for one monomial."""
    factors: list[str] = []
    for atom, exp in m.sym_powers:
        factors.append(_pow_str(atom, exp))
    for order, exp in m.u_powers:
        name = _U_NAMES.get(order, f"u^({order})")
        factors.append(_pow_str(name, exp))
    for order, exp in m.deriv_powers:
        name = _PRIMES.get(order, f"S^({order})")
        factors.append(_pow_str(name, exp))
    if m.s_grade:
        factors.append(f"S^-{m.s_grade}")

    c = m.coeff
    negative = float(c) < 0
    if negative:
        c = -c
    if not factors:
        return negative, str(c)
    if c == Radical2.of(1):
        return negative, "*".join(factors)
    cs = str(c)
    if c.r and c.s:
        cs = f"({cs})"
    return negative, "*".join([cs] + factors)


def to_text(e: SymExpr) -> str:
    """Deterministic text rendering in the derivation-trace notation."""
    if not e:
        return "0"
    pieces: list[str] = []
    for i, m in enumerate(e.terms):
        neg, body = _mono_text(m)
        if i == 0:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces)
