"""Exact scalar arithmetic over Q(sqrt(2)).

All coefficients of the traveling-wave derivation live in the quadratic
field Q(sqrt(2)): rationals extended by sqrt(2).  Keeping them exact lets
every closure branch be checked by structural zero instead of a floating
tolerance.

A ``Radical2`` holds ``(a + b*sqrt(2)) / d`` as three Python integers over
one common denominator, kept in canonical form: ``d > 0`` and
``gcd(a, b, d) == 1`` (zero is ``(0, 0, 1)``).  Equal values therefore have
one representation, so equality and hashing compare the triple.  Each
operation works on the integers directly and restores the invariant with a
single ``math.gcd``; the rational parts r = a/d and s = b/d are available as
``fractions.Fraction`` values for callers that need them.

``Frozen`` is the base of the package's immutable ``__slots__`` value
types, ``Radical2`` among them.  Such a class builds no code when it is
defined, unlike a frozen dataclass, which compiles six methods per class.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]

SQRT2 = math.sqrt(2.0)

_gcd = math.gcd


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a non-negative rational, or None if irrational."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn = math.isqrt(num)
    rd = math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _raw(a: int, b: int, d: int) -> "Radical2":
    """A Radical2 from a triple that is already canonical."""
    out = _new(Radical2)
    _set_a(out, a)
    _set_b(out, b)
    _set_d(out, d)
    return out


def _reduced(a: int, b: int, d: int) -> "Radical2":
    """A Radical2 from any triple with d != 0."""
    g = _gcd(a, b, d)
    if d < 0:
        g = -g
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _raw(a, b, d)


class Frozen:
    """An immutable record of its ``__slots__``: equality, hash, repr and
    pickling go by the slot values in order, and assignment raises.  A
    subclass's ``__init__`` takes the slots in order, checks them and
    passes them on to this one (hot types set them through the slot
    descriptors' ``__set__`` instead)."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class Radical2(Frozen):
    """The number ``r + s*sqrt(2)`` with exact rational parts r, s."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, r: RationalLike = 0, s: RationalLike = 0) -> None:
        r, s = Fraction(r), Fraction(s)
        # over the lcm of two reduced denominators the triple is canonical
        d = math.lcm(r.denominator, s.denominator)
        _set_a(self, r.numerator * (d // r.denominator))
        _set_b(self, s.numerator * (d // s.denominator))
        _set_d(self, d)

    def __reduce__(self):
        return _raw, (self._a, self._b, self._d)

    @classmethod
    def of(cls, value: "Radical2 | RationalLike") -> "Radical2":
        if isinstance(value, Radical2):
            return value
        if isinstance(value, int):
            return _raw(int(value), 0, 1)
        return cls(value)

    @classmethod
    def sqrt2(cls, multiple: RationalLike = 1) -> "Radical2":
        return cls(0, multiple)

    @property
    def r(self) -> Fraction:
        """Rational part a/d."""
        return Fraction(self._a, self._d)

    @property
    def s(self) -> Fraction:
        """Coefficient b/d of sqrt(2)."""
        return Fraction(self._b, self._d)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __neg__(self) -> "Radical2":
        return _raw(-self._a, -self._b, self._d)

    def __add__(self, other: "Radical2 | RationalLike") -> "Radical2":
        if not isinstance(other, Radical2):
            other = Radical2.of(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _reduced(self._a + other._a, self._b + other._b, d1)
        return _reduced(self._a * d2 + other._a * d1,
                        self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other: "Radical2 | RationalLike") -> "Radical2":
        return self + (-Radical2.of(other))

    def __rsub__(self, other: "Radical2 | RationalLike") -> "Radical2":
        return (-self) + Radical2.of(other)

    def __mul__(self, other: "Radical2 | RationalLike") -> "Radical2":
        if not isinstance(other, Radical2):
            other = Radical2.of(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _reduced(a1 * a2 + 2 * b1 * b2, a1 * b2 + b1 * a2,
                        self._d * other._d)

    __rmul__ = __mul__

    def inverse(self) -> "Radical2":
        a, b, d = self._a, self._b, self._d
        n = a * a - 2 * b * b  # zero only for zero, sqrt(2) being irrational
        if not n:
            raise ZeroDivisionError("zero has no inverse in Q(sqrt(2))")
        return _reduced(d * a, -d * b, n)

    def __truediv__(self, other: "Radical2 | RationalLike") -> "Radical2":
        return self * Radical2.of(other).inverse()

    def __rtruediv__(self, other: "Radical2 | RationalLike") -> "Radical2":
        return Radical2.of(other) * self.inverse()

    def __pow__(self, n: int) -> "Radical2":
        if n < 0:
            return self.inverse() ** (-n)
        if not n:
            return ONE
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        out = base
        n >>= 1
        while n:  # square only while bits remain
            base = base * base
            if n & 1:
                out = out * base
            n >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Radical2):
            return (self._a == other._a and self._b == other._b
                    and self._d == other._d)
        if isinstance(other, (int, Fraction)):
            return (not self._b and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __float__(self) -> float:
        # a/d is float(Fraction(a, d)): int true division rounds correctly
        return self._a / self._d + self._b / self._d * SQRT2

    def sqrt(self) -> "Radical2 | None":
        """Exact square root within Q(sqrt(2)), or None if there is none.

        Solves (x + y*sqrt(2))**2 = r + s*sqrt(2), i.e. x**2 + 2*y**2 = r
        and 2*x*y = s.  Returns the non-negative root.
        """
        if not self:
            return Radical2()
        r, s = self.r, self.s
        candidates: list[Radical2] = []
        if s == 0:
            x = rational_sqrt(r)
            if x is not None:
                candidates.append(Radical2(x, 0))
            y = rational_sqrt(r / 2)
            if y is not None:
                candidates.append(Radical2(0, y))
        else:
            disc = rational_sqrt(r * r - 2 * s * s)  # root of the norm
            if disc is not None:
                for sign in (1, -1):
                    y2 = (r + sign * disc) / 4
                    y = rational_sqrt(y2)
                    if y is None or y == 0:
                        continue
                    x = s / (2 * y)
                    candidates.append(Radical2(x, y))
        for cand in candidates:
            if cand * cand == self:
                return cand if float(cand) >= 0 else -cand
        return None

    def __str__(self) -> str:
        if not self:
            return "0"
        parts: list[str] = []
        if self._a:
            parts.append(str(self.r))
        if self._b:
            mag = abs(self.s)
            if mag.numerator == 1:
                core = "sqrt2"
            else:
                core = f"{mag.numerator}*sqrt2"
            if mag.denominator != 1:
                core += f"/{mag.denominator}"
            if parts:
                parts.append("- " + core if self._b < 0 else "+ " + core)
            else:
                parts.append("-" + core if self._b < 0 else core)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Radical2({self.r!r}, {self.s!r})"


_new = object.__new__
_set_a = Radical2._a.__set__
_set_b = Radical2._b.__set__
_set_d = Radical2._d.__set__

ZERO = Radical2()
ONE = Radical2.of(1)
