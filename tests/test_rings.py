"""Ring descriptor axioms and element round trips."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import whlaurent as wl
from whlaurent.rings import RingError, leaf_kind, parse_rational, sup
from whlaurent.serialize import series_from_json
from whlaurent.series import LaurentSeries, laurent_ring

from conftest import dual_ring

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
    assert len(R.components) == 3


def test_leaf_kind_reads_the_leaf_ring():
    Q, C = wl.rational_ring(), wl.complex_ring()
    assert leaf_kind(Q) is Fraction
    assert leaf_kind(wl.product_ring(wl.product_ring(Q, 2), 3)) is Fraction
    assert leaf_kind(C) is complex
    assert leaf_kind(wl.product_ring(C, 2)) is complex
    assert leaf_kind(wl.laurent_ring(Q)) is None
    assert leaf_kind(dual_ring(C)) is None
    assert leaf_kind(wl.product_ring(dual_ring(Q), 2)) is None


def test_complex_parse_rejects_non_finite_parts():
    C = wl.complex_ring()
    for s in ("nan,0", "0,nan", "inf,0", "1,-inf"):
        with pytest.raises(RingError, match="non-finite"):
            C.parse(s)
    with pytest.raises(RingError):
        wl.product_ring(C, 2).parse("(1,0|nan,0)")


def test_sup_keeps_nan():
    # max() drops a NaN met after a larger value; a sup norm must not
    nan = float("nan")
    assert sup([]) == 0.0 and sup([0.5, 2.0, 1.0]) == 2.0
    for norms in ([nan, 3.0], [3.0, nan], [0.0, nan, 1.0]):
        assert math.isnan(sup(norms))
    C2 = wl.product_ring(wl.complex_ring(), 2)
    assert math.isnan(C2.seminorm((2 + 0j, complex(nan, 0))))
    a = wl.LaurentSeries(wl.complex_ring(), {0: 2 + 0j, 1: complex(nan, 0)})
    for x in (a, a.shift(-2)):
        assert math.isnan(x.sup_seminorm())
        assert math.isnan(x.sup_diff(wl.LaurentSeries.one(x.ring)))


# the numerator parser against Fraction(str): the same values, the same
# error classes
Q_ACCEPTED = ["-3/4", " 7 ", "+2", "0.5", "1e-3", "1_000/3", "6/4", "-0", ".5", "1.",
              "2.5E+2", "\t-12_3.4_5e-1_0\n", "0/7"]
Q_MALFORMED = ["1/", "/2", "1//2", "nan", "inf", "True", "", "1/-2", "--1", "1e", "0x10",
               "1_/2", "(1|2)"]
Q2_MALFORMED = {"(1|2": RingError, "1|2)": RingError, "(1|2|3)": RingError, "(1)": RingError,
                "3/4": RingError, "(1|nan)": ValueError, "(1|/2)": ValueError}


@pytest.mark.parametrize("s", Q_ACCEPTED)
def test_rational_parser_matches_fraction(s):
    Q = wl.rational_ring()
    num, den = parse_rational(s)
    want = Fraction(s)
    assert den > 0 and Fraction(num, den) == want
    assert Q.parse(s) == want and type(Q.parse(s)) is Fraction
    assert series_from_json(Q, [{"n": 3, "c": s}]).coeffs == ({3: want} if want else {})
    R2 = wl.product_ring(Q, 2)
    pair = (Fraction(1), want)
    literal = "(1|%s)" % s
    assert R2.parse(literal) == pair
    assert series_from_json(R2, [{"n": -1, "c": literal}]).coeffs == {-1: pair}
    nested = wl.product_ring(R2, 2)
    literal = " ((%s|0)|(1|-2/3)) " % s
    want_nested = ((want, Fraction(0)), (Fraction(1), Fraction(-2, 3)))
    assert nested.parse(literal) == want_nested
    assert series_from_json(nested, [{"n": 0, "c": literal}]).coeffs == {0: want_nested}


@pytest.mark.parametrize("s", Q_MALFORMED)
def test_rational_parser_rejects_what_fraction_rejects(s):
    Q = wl.rational_ring()
    with pytest.raises(ValueError) as ref:
        Fraction(s.strip())
    for parse in (parse_rational, Q.parse,
                  lambda x: series_from_json(Q, [{"n": 0, "c": x}])):
        with pytest.raises(ValueError) as info:
            parse(s)
        assert type(info.value) is type(ref.value)


# plain literals, which parse_rational reads with int(), and strings of
# pieces that send a literal to Fraction(s) or make it malformed
DIGITS = st.text("0123456789", min_size=1, max_size=25)
PLAIN_LITERALS = st.builds(lambda sign, num, den: sign + num + den, st.sampled_from(["", "-", "+"]),
                           DIGITS, st.one_of(st.just(""), DIGITS.map("/".__add__)))
LITERAL_PIECES = st.lists(st.sampled_from(["0", "7", "12", "-", "+", "/", " ", "_", ".", "e",
                                           "\u0663", "\u00b2", "x"]), max_size=6).map("".join)


@given(st.one_of(PLAIN_LITERALS, LITERAL_PIECES))
def test_rational_fast_path_matches_the_grammar(s):
    # parse_rational gives the value of Fraction(s), by int() on a plain
    # literal, and a ValueError wherever Fraction(s) raises, a zero
    # denominator (ZeroDivisionError there) included
    try:
        want = Fraction(s)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            parse_rational(s)
    else:
        num, den = parse_rational(s)
        assert den > 0 and Fraction(num, den) == want


@pytest.mark.parametrize("s", sorted(Q2_MALFORMED))
def test_product_parser_error_classes(s):
    R2 = wl.product_ring(wl.rational_ring(), 2)
    for parse in (R2.parse, lambda x: series_from_json(R2, [{"n": 0, "c": x}])):
        with pytest.raises(ValueError) as info:
            parse(s)
        assert type(info.value) is Q2_MALFORMED[s]


@pytest.mark.parametrize("s", ["1/0", "-3/0", "0/0", "(1|1/0)", " 1/0", "1_0/0"])
def test_zero_denominator_is_a_value_error(s):
    # Fraction(str) raises ZeroDivisionError here, which is no ValueError, so
    # a job would not name the field
    R = wl.rational_ring() if s[0] != "(" else wl.product_ring(wl.rational_ring(), 2)
    for parse in (R.parse, lambda x: series_from_json(R, [{"n": 0, "c": x}])):
        with pytest.raises(ValueError, match="zero denominator"):
            parse(s)


QW = laurent_ring(wl.rational_ring(), "w")


@pytest.mark.parametrize("call, err, match", [
    (lambda: wl.rational_ring().pow(Fraction(2), -1), ValueError, "nonnegative exponent"),
    (lambda: wl.product_ring(wl.rational_ring(), 0), RingError, "arity"),
    (lambda: series_from_json(QW, [{"n": 0, "c": "1"}]), RingError, "cannot parse"),
    (lambda: QW.inverse(LaurentSeries(QW.base, {0: Fraction(1), 1: Fraction(1)})),
     RingError, "only monomials"),
], ids=["pow", "arity", "parse", "inverse"])
def test_ring_guards(call, err, match):
    # a negative power, a product of no rings, a ring with no parser (the
    # series ring Q[w, w^-1]) and 1 + w, which is no unit of Q[w, w^-1]
    with pytest.raises(err, match=match):
        call()


def test_mixed_tolerances_are_a_ring_mismatch():
    # two C rings share the name "C"; with different tolerances each of the
    # three compatibility tests raises, rather than take the left one's
    from whlaurent.factorization import OrthogonalDecomposition, product_of_orthogonals
    from whlaurent.matrices import Lattice, identity, mat_add

    fine, coarse = wl.complex_ring(1e-9), wl.complex_ring(1e-2)
    for x, y in ((fine, coarse), (wl.product_ring(fine, 2), wl.product_ring(coarse, 2))):
        s, t = wl.LaurentSeries(x, {0: x.one}), wl.LaurentSeries(y, {0: y.one})
        for op in (s.add, s.sub, s.mul, s.equals):
            with pytest.raises(RingError, match="tolerance"):
                op(t)
        with pytest.raises(RingError, match="tolerance"):
            mat_add(identity(x, Lattice.INTEGER, (-2, 2)), identity(y, Lattice.INTEGER, (-2, 2)))
        with pytest.raises(RingError, match="tolerance"):
            product_of_orthogonals(OrthogonalDecomposition(x, {0: x.one}, x.one),
                                   OrthogonalDecomposition(y, {0: y.one}, y.one))
    # two copies of one ring are one ring
    again = wl.complex_ring(1e-9)
    assert wl.LaurentSeries(fine, {0: 1j}).mul(wl.LaurentSeries(again, {1: 2.0})).coeffs == {1: 2j}
