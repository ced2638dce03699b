"""Ring descriptor axioms and element round trips."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import whlaurent as wl
from whlaurent.rings import RingError

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@given(rationals, rationals, rationals)
def test_rational_ring_axioms(x, y, z):
    Q = wl.rational_ring()
    assert Q.add(Q.add(x, y), z) == Q.add(x, Q.add(y, z))
    assert Q.mul(x, y) == Q.mul(y, x)
    assert Q.mul(x, Q.add(y, z)) == Q.add(Q.mul(x, y), Q.mul(x, z))
    assert Q.add(x, Q.neg(x)) == Q.zero
    assert Q.mul(x, Q.one) == x


@given(rationals)
def test_rational_inverse(x):
    Q = wl.rational_ring()
    if x == 0:
        with pytest.raises(RingError):
            Q.inverse(x)
    else:
        assert Q.mul(x, Q.inverse(x)) == Q.one


@given(st.tuples(rationals, rationals), st.tuples(rationals, rationals))
def test_product_ring_componentwise(x, y):
    R = wl.product_ring(wl.rational_ring(), 2)
    assert R.add(x, y) == (x[0] + y[0], x[1] + y[1])
    assert R.mul(x, y) == (x[0] * y[0], x[1] * y[1])
    assert R.seminorm(x) == max(abs(float(x[0])), abs(float(x[1])))


def test_product_ring_indicator_idempotents():
    R = wl.product_ring(wl.rational_ring(), 3)
    e = (Fraction(1), Fraction(0), Fraction(0))
    f = (Fraction(0), Fraction(1), Fraction(1))
    assert R.mul(e, e) == e
    assert R.mul(f, f) == f
    assert R.mul(e, f) == R.zero
    assert R.add(e, f) == R.one


def test_product_ring_has_zero_divisors():
    R = wl.product_ring(wl.rational_ring(), 2)
    a = (Fraction(1), Fraction(0))
    b = (Fraction(0), Fraction(5))
    assert R.is_zero(R.mul(a, b))
    assert not R.is_zero(a) and not R.is_zero(b)
    with pytest.raises(RingError):
        R.inverse(a)


def test_complex_ring_tolerance_equality():
    C = wl.complex_ring(1e-9)
    assert C.equals(1.0 + 0j, 1.0 + 1e-12j)
    assert not C.equals(1.0 + 0j, 1.0 + 1e-6j)
    assert not C.is_exact and C.tolerance == 1e-9
    with pytest.raises(RingError):
        C.inverse(0j)
    with pytest.raises(RingError):
        wl.complex_ring(0.0)


def test_parse_fmt_round_trips():
    Q = wl.rational_ring()
    for x in [Fraction(3, 7), Fraction(-2), Fraction(0)]:
        assert Q.parse(Q.fmt(x)) == x
    C = wl.complex_ring()
    z = complex(0.25, -1.5)
    assert C.parse(C.fmt(z)) == z
    R2 = wl.product_ring(Q, 2)
    t = (Fraction(1, 3), Fraction(-5, 2))
    assert R2.parse(R2.fmt(t)) == t
    nested = wl.product_ring(R2, 2)
    u = (t, (Fraction(0), Fraction(7)))
    assert nested.parse(nested.fmt(u)) == u


def test_product_split_merge():
    R = wl.product_ring(wl.rational_ring(), 3)
    x = (Fraction(1), Fraction(2), Fraction(3))
    assert R.merge(R.split(x)) == x
    assert len(R.components) == 3
