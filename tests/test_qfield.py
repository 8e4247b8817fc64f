"""Exact arithmetic in Q(sqrt(2))."""

import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cahnallen.qfield import Radical2, rational_sqrt


def _fractions(bound: int, max_denominator: int):
    """The fractions n/d with d <= max_denominator and |n/d| <= bound, drawn
    as two integers (st.fractions draws them far more slowly)."""
    return st.integers(1, max_denominator).flatmap(
        lambda d: st.integers(-bound * d, bound * d).map(
            lambda n: Fraction(n, d)))


fractions = _fractions(100, 50)
radicals = st.builds(Radical2, fractions, fractions)


def test_rational_is_reduced_with_positive_denominator():
    q = Radical2(Fraction(6, -8))
    assert (q._a, q._b, q._d) == (-3, 0, 4)
    assert Radical2(Fraction(2, 4)) + Fraction(1, 4) == Fraction(3, 4)
    assert Radical2(Fraction(1, 3)) * 3 == 1


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None
    assert rational_sqrt(Fraction(0)) == 0


def test_radical_basic_arithmetic():
    s2 = Radical2.sqrt2()
    assert s2 * s2 == Radical2.of(2)
    assert (Radical2.of(1) + s2) * (Radical2.of(1) - s2) == Radical2.of(-1)
    assert float(s2) == pytest.approx(math.sqrt(2), abs=1e-15)
    assert Radical2(Fraction(1, 2), Fraction(3, 4)) - Radical2(
        Fraction(1, 2), Fraction(3, 4)
    ) == Radical2.of(0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(radicals)
def test_conjugate_identity(v):
    prod = v * Radical2(v.r, -v.s)
    assert prod.s == 0
    assert prod.r == v.r**2 - 2 * v.s**2


@settings(max_examples=200, deadline=None, derandomize=True)
@given(radicals)
def test_inverse(v):
    if not v:
        with pytest.raises(ZeroDivisionError):
            v.inverse()
    else:
        assert v * v.inverse() == Radical2.of(1)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(radicals, radicals)
def test_field_distributivity(a, b):
    c = Radical2(Fraction(2, 3), Fraction(-1, 5))
    assert (a + b) * c == a * c + b * c


def test_exact_sqrt_in_field():
    assert Radical2.of(72).sqrt() == Radical2.sqrt2(6)
    assert Radical2.of(18).sqrt() == Radical2.sqrt2(3)
    assert Radical2.of(Fraction(9, 2)).sqrt() == Radical2.sqrt2(Fraction(3, 2))
    assert Radical2.of(4).sqrt() == Radical2.of(2)
    assert Radical2.of(3).sqrt() is None
    # (1 + sqrt2)**2 = 3 + 2*sqrt2
    assert Radical2(Fraction(3), Fraction(2)).sqrt() == Radical2(
        Fraction(1), Fraction(1)
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(radicals)
def test_sqrt_of_square_roundtrip(v):
    root = (v * v).sqrt()
    assert root is not None
    assert root * root == v * v
    assert float(root) >= 0


def test_pow_and_division():
    v = Radical2(Fraction(1), Fraction(1))
    assert v**0 == Radical2.of(1)
    assert v**3 == v * v * v
    assert v**-2 == (v * v).inverse()
    assert (Radical2.of(3) / Radical2.sqrt2()) == Radical2.sqrt2(Fraction(3, 2))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(st.just(Radical2()), radicals), st.integers(-5, 9))
def test_pow_matches_repeated_product_with_fewest_multiplications(x, n):
    if n < 0 and not x:
        with pytest.raises(ZeroDivisionError):
            x**n
        return
    base = x if n >= 0 else x.inverse()
    repeated = Radical2.of(1)
    for _ in range(abs(n)):
        repeated = repeated * base
    products = []
    real_mul = Radical2.__mul__

    def counted(self, other):
        products.append(1)
        return real_mul(self, other)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Radical2, "__mul__", counted)
        power = x**n
    assert power == repeated
    # one product per set bit after the first, one squaring per bit after
    # the first: x**1 costs none, x**2 and x**3 one and two
    m = abs(n)
    assert len(products) == (bin(m).count("1") + m.bit_length() - 2
                             if m else 0)


def test_pow_of_zero():
    zero = Radical2()
    assert zero**0 == 1 and zero**1 == 0 and zero**4 == 0
    for n in (-1, -2, -5):
        with pytest.raises(ZeroDivisionError):
            zero**n


def test_text_form():
    assert str(Radical2.of(0)) == "0"
    assert str(Radical2.of(Fraction(-3, 2))) == "-3/2"
    assert str(Radical2.sqrt2()) == "sqrt2"
    assert str(Radical2.sqrt2(Fraction(-3, 2))) == "-3*sqrt2/2"
    assert str(Radical2(Fraction(1), Fraction(1))) == "1 + sqrt2"
    assert str(Radical2(Fraction(1, 2), Fraction(-1, 4))) == "1/2 - sqrt2/4"


# --- property test against a Fraction-pair oracle -------------------------------
#
# The oracle keeps r + s*sqrt(2) as a plain pair of Fractions.


def _pair(v):
    return v.r, v.s


def _omul(x, y):
    (a, b), (c, d) = x, y
    return a * c + 2 * b * d, a * d + b * c


def _oinv(x):
    a, b = x
    n = a * a - 2 * b * b
    return a / n, -b / n


def _ostr(x):
    r, s = x
    text = [str(r)] if r else []
    if s:
        mag = abs(s)
        core = "sqrt2" if mag.numerator == 1 else f"{mag.numerator}*sqrt2"
        if mag.denominator != 1:
            core += f"/{mag.denominator}"
        sign = "-" if s < 0 else "+"
        text.append(f"{sign} {core}" if text else
                    ("-" + core if s < 0 else core))
    return " ".join(text) or "0"


def _canonical(v):
    a, b, d = v._a, v._b, v._d
    return d > 0 and math.gcd(a, b, d) == 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(radicals, radicals, st.integers(-4, 4))
def test_radical_matches_fraction_pair_oracle(x, y, n):
    px, py = _pair(x), _pair(y)
    assert _canonical(x) and _canonical(y)
    assert _pair(x + y) == (px[0] + py[0], px[1] + py[1])
    assert _pair(x - y) == (px[0] - py[0], px[1] - py[1])
    assert _pair(x * y) == _omul(px, py)
    assert _pair(-x) == (-px[0], -px[1])
    assert float(x) == float(px[0]) + float(px[1]) * math.sqrt(2.0)
    assert str(x) == _ostr(px)
    assert repr(x) == f"Radical2({px[0]!r}, {px[1]!r})"
    if y:
        assert _pair(y.inverse()) == _oinv(py)
        assert _pair(x / y) == _omul(px, _oinv(py))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    if x or n >= 0:
        power = (Fraction(1), Fraction(0))
        base = px if n >= 0 else _oinv(px)
        for _ in range(abs(n)):
            power = _omul(power, base)
        assert _pair(x**n) == power
    results = [x + y, x - y, x * y, x**2, -x]
    if y:
        results += [y.inverse(), x / y, y**-3]
    assert all(_canonical(v) for v in results)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(radicals, fractions)
def test_radical_equality_and_hash_are_exact(x, q):
    same = Radical2(x.r * 6, x.s * 6) / 6
    assert same == x and hash(same) == hash(x)
    assert (x == q) == (x.s == 0 and x.r == q)
    assert (Radical2.of(q) == q) and Radical2.of(q) == Radical2(q, 0)
    if q.denominator == 1:
        assert Radical2.of(int(q)) == int(q)
        assert hash(Radical2.of(int(q))) == hash(Radical2.of(q))
    root = (x * x).sqrt()
    assert root is not None and _pair(root) in {_pair(x), _pair(-x)}


def test_radical_is_immutable():
    v = Radical2(Fraction(1, 2), Fraction(3))
    with pytest.raises(AttributeError):
        v.r = Fraction(1)
    with pytest.raises(AttributeError):
        v._a = 5
    assert (v._a, v._b, v._d) == (1, 6, 2)
    assert pickle.loads(pickle.dumps(v)) == v and copy.copy(v) == v
