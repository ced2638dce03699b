"""Laurent series arithmetic, truncation windows, and inverses."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import whlaurent as wl
from whlaurent import serialize
from whlaurent.rings import RingError
from whlaurent.series import LaurentSeries, SeriesClass

Q = wl.rational_ring()

coeff = st.fractions(min_value=-9, max_value=9, max_denominator=6)
series = st.dictionaries(st.integers(min_value=-5, max_value=5), coeff,
                         max_size=5).map(lambda d: LaurentSeries(Q, d))


@given(series, series, series)
@settings(max_examples=60)
def test_arithmetic_laws(a, b, c):
    assert a.mul(b).equals(b.mul(a))
    assert a.mul(b.add(c)).equals(a.mul(b).add(a.mul(c)))
    assert a.mul(b).mul(c).equals(a.mul(b.mul(c)))
    assert a.add(a.neg()).is_zero()


@given(series, st.integers(min_value=-4, max_value=4))
@settings(max_examples=40)
def test_shift_is_monomial_multiplication(a, k):
    assert a.shift(k).equals(a.mul(LaurentSeries.monomial(Q, k)))


@given(series, series, coeff)
@settings(max_examples=40)
def test_evaluate_is_multiplicative(a, b, point):
    if point == 0 and any(n < 0 for n in a.support() + b.support()):
        return
    p = a.mul(b)
    assert p.evaluate(point) == Q.mul(a.evaluate(point), b.evaluate(point))


def test_window_meet_on_addition():
    a = LaurentSeries(Q, {0: Fraction(1)}, (-4, 9))
    b = LaurentSeries(Q, {1: Fraction(2)}, (-7, 5))
    assert a.add(b).window == (-4, 5)
    assert a.add(LaurentSeries.one(Q)).window == (-4, 9)


def test_product_window_shrinks_by_exact_support():
    # an exact factor with support [s_lo, s_hi] makes the product reliable
    # on [lo + s_hi, hi + s_lo]
    trunc = LaurentSeries(Q, {0: Fraction(1)}, (-10, 10))
    exact = LaurentSeries(Q, {-1: Fraction(1), 2: Fraction(3)})
    assert trunc.mul(exact).window == (-8, 9)
    assert exact.mul(trunc).window == (-8, 9)
    other = LaurentSeries(Q, {0: Fraction(1)}, (-6, 12))
    assert trunc.mul(other).window == (-6, 10)


def test_truncated_product_of_geometric_inverses_is_exact_inside():
    # (sum 2^-n z^-n on [-20,0]) * (1 - z^-1/2) is exactly 1 on the
    # shrunken window, with the truncation dirt outside it
    alpha = Fraction(1, 2)
    b = LaurentSeries(Q, {-n: alpha ** n for n in range(21)}, (-20, 0))
    a = LaurentSeries(Q, {0: Fraction(1), -1: -alpha})
    prod = a.mul(b)
    assert prod.window == (-20, -1)
    assert prod.equals(LaurentSeries.one(Q, prod.window))


def test_two_sided_inverse_closed_form():
    # 1/((1 - a/z)(1 - b z)) has coefficients b^n/(1-ab) for n >= 0 and
    # a^(-n)/(1-ab) for n <= 0
    al, be = Fraction(1, 2), Fraction(1, 3)
    pair = wl.invert_from_factors(Q, [wl.Antiholo(al), wl.Holo(be)], (-12, 12))
    assert pair.residual == 0.0
    scale = 1 / (1 - al * be)  # = 6/5
    assert scale == Fraction(6, 5)
    for n in range(0, 13):
        assert pair.b.coeff(n) == scale * be ** n
        assert pair.b.coeff(-n) == scale * al ** n


def test_repeated_root_inverse():
    al = Fraction(1, 2)
    pair = wl.invert_from_factors(Q, [wl.Antiholo(al), wl.Antiholo(al)], (-10, 10))
    assert pair.residual == 0.0
    for k in range(0, 11):
        assert pair.b.coeff(-k) == (k + 1) * al ** k
    assert pair.b.coeff(1) == 0


def test_mixed_repeated_roots_inverse_is_exact():
    factors = [wl.Antiholo(Fraction(1, 2)), wl.Antiholo(Fraction(1, 2)),
               wl.Holo(Fraction(-1, 3)), wl.Holo(Fraction(-1, 3)),
               wl.Mono(-1, Fraction(2))]
    pair = wl.invert_from_factors(Q, factors, (-16, 16))
    assert pair.residual == 0.0


def test_one_sided_inverse_on_window_without_zero():
    half, third = Fraction(1, 2), Fraction(1, 3)
    pair = wl.invert_from_factors(Q, [wl.Holo(half)], (3, 20))
    assert pair.b.window == (3, 20)
    for n in range(3, 21):
        assert pair.b.coeff(n) == half ** n
    pair = wl.invert_from_factors(Q, [wl.Antiholo(half), wl.Antiholo(third)], (-20, -3))
    for n in range(3, 21):
        assert pair.b.coeff(-n) == sum(half ** k * third ** (n - k) for k in range(n + 1))


def test_exact_inverse_matches_circle_sampling():
    C = wl.complex_ring()
    rng = random.Random(7)
    params = [Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5)]
    for _ in range(40):
        fs = [rng.choice([wl.Antiholo, wl.Holo])(rng.choice(params))
              for _ in range(rng.randint(1, 8))]
        fs.append(wl.Mono(rng.randint(-2, 2), rng.choice([Fraction(1), Fraction(-2),
                                                           Fraction(1, 3)])))
        exact = wl.invert_from_factors(Q, fs, (-24, 24)).b
        a = wl.factors_to_series(Q, fs)
        numeric = wl.invert_numeric(
            LaurentSeries(C, {n: complex(c) for n, c in a.coeffs.items()}), 1024).b
        for n in range(-24, 25):
            assert abs(float(exact.coeff(n)) - numeric.coeff(n)) < 1e-8, (fs, n)


def test_reciprocal_root_collision_rejected():
    with pytest.raises(RingError):
        wl.invert_from_factors(Q, [wl.Antiholo(Fraction(1, 2)),
                                   wl.Holo(Fraction(2))], (-8, 8))


def test_product_ring_inverse_componentwise():
    R = wl.product_ring(Q, 2)
    al = (Fraction(1, 2), Fraction(0))
    pair = wl.invert_from_factors(
        R, [wl.Antiholo(al), wl.Mono(1, R.one)], (-10, 10))
    assert pair.residual == 0.0
    # first component: shifted geometric; second: plain z^-1
    assert pair.b.coeff(-1) == (Fraction(1), Fraction(1))
    assert pair.b.coeff(-2) == (Fraction(1, 2), Fraction(0))


def test_float_parameter_on_circle_rejected():
    C = wl.complex_ring()
    with pytest.raises(RingError):
        wl.invert_from_factors(C, [wl.Holo(complex(1.0))], (-8, 8))


def test_invert_numeric_symmetric_symbol():
    C = wl.complex_ring()
    a = LaurentSeries(C, {-1: -1.0 + 0j, 0: 3.0 + 0j, 1: -1.0 + 0j})
    pair = wl.invert_numeric(a, 256)
    assert pair.residual < 1e-8
    assert abs(pair.b.coeff(0) - 1.0 / math.sqrt(5.0)) < 1e-10
    with pytest.raises(ValueError):
        wl.invert_numeric(a, 100)  # not a power of two


def test_invert_numeric_rejects_nonpositive_samples():
    C = wl.complex_ring()
    a = LaurentSeries(C, {-1: -1.0 + 0j, 0: 3.0 + 0j, 1: -1.0 + 0j})
    for samples in (0, -4):
        with pytest.raises(ValueError, match="samples must be a power of two"):
            wl.invert_numeric(a, samples)


def test_invert_numeric_rejects_circle_zero():
    C = wl.complex_ring()
    a = LaurentSeries(C, {0: 1.0 + 0j, 1: -1.0 + 0j})
    with pytest.raises(RingError):
        wl.invert_numeric(a, 256)


def test_div_unit_round_trips():
    rng = random.Random(3)
    u = LaurentSeries(Q, {0: Fraction(1), 1: Fraction(1, 3), 2: Fraction(-2, 5)})
    x = LaurentSeries(Q, {n: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                          for n in range(-3, 4)})
    q = wl.div_unit(x, u, (-12, 12))
    assert q.mul(u).equals(x.truncate((-9, 9)))
    # descending division by a unit in the inverse variable
    v = LaurentSeries(Q, {0: Fraction(1), -1: Fraction(1, 2)})
    q2 = wl.div_unit(x, v, (-12, 12))
    assert q2.mul(v).equals(x.truncate((-11, 11)))
    with pytest.raises(RingError):
        wl.div_unit(x, x, (-12, 12))


def test_classify_memberships():
    hol = LaurentSeries(Q, {0: Fraction(1), 2: Fraction(1, 3)})
    assert wl.classify(hol) == {SeriesClass.STRICTLY_HOLOMORPHIC}
    anti = LaurentSeries(Q, {0: Fraction(1), -1: Fraction(-1, 2)})
    assert wl.classify(anti) == {SeriesClass.STRICTLY_ANTIHOLOMORPHIC}
    mono = LaurentSeries(Q, {3: Fraction(7)})
    assert wl.classify(mono) == {SeriesClass.ORTHOGONAL}
    one = LaurentSeries.one(Q)
    assert wl.classify(one) == {SeriesClass.STRICTLY_HOLOMORPHIC,
                                SeriesClass.STRICTLY_ANTIHOLOMORPHIC,
                                SeriesClass.ORTHOGONAL}
    R = wl.product_ring(Q, 2)
    orth = LaurentSeries(R, {0: (Fraction(2), Fraction(0)),
                             1: (Fraction(0), Fraction(1, 3))})
    assert SeriesClass.ORTHOGONAL in wl.classify(orth)
    generic = LaurentSeries(Q, {0: Fraction(2), 1: Fraction(3)})
    assert wl.classify(generic) == set()


def test_json_round_trip():
    for ring, coeffs in [
        (Q, {-2: Fraction(-1, 3), 0: Fraction(5)}),
        (wl.complex_ring(), {1: complex(0.5, -2.0)}),
        (wl.product_ring(Q, 2), {0: (Fraction(1), Fraction(-7, 2))}),
    ]:
        a = LaurentSeries(ring, coeffs)
        data = serialize.series_to_json(a)
        back = serialize.series_from_json(ring, data)
        assert back.equals(a) and back.coeffs == a.coeffs


def test_ring_from_json():
    assert serialize.ring_from_json({"kind": "rational"}).name == "Q"
    assert serialize.ring_from_json({"kind": "complex", "tolerance": 1e-7}).tolerance == 1e-7
    prod = serialize.ring_from_json({"kind": "product", "arity": 3})
    assert prod.name == "Q^3"
    with pytest.raises(RingError):
        serialize.ring_from_json({"kind": "galois"})


def test_pair_symbol_equals_product_of_factors():
    # a is built as u z^p A B from the products the inverse uses; it must
    # equal the product of the factors in the order given
    rng = random.Random(17)
    C = wl.complex_ring()
    R = wl.product_ring(Q, 2)
    params = [Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5), Fraction(0)]
    for _ in range(20):
        kinds = [rng.choice([wl.Antiholo, wl.Holo]) for _ in range(rng.randint(0, 6))]
        fs = [k(rng.choice(params)) for k in kinds] + [wl.Mono(rng.randint(-2, 2), Fraction(-2))]
        rng.shuffle(fs)
        assert wl.invert_from_factors(Q, fs, (-16, 16)).a.coeffs == \
            wl.factors_to_series(Q, fs).coeffs
        fs2 = [k((rng.choice(params), rng.choice(params))) for k in kinds] + \
            [wl.Mono(1, (Fraction(3), Fraction(-1)))]
        assert wl.invert_from_factors(R, fs2, (-16, 16)).a.coeffs == \
            wl.factors_to_series(R, fs2).coeffs
        fsc = [k(complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))) for k in kinds] + \
            [wl.Mono(-1, complex(0.5, 2.0))]
        got = wl.invert_from_factors(C, fsc, (-16, 16)).a
        assert got.window is None
        assert got.sup_diff(wl.factors_to_series(C, fsc)) < 1e-12
