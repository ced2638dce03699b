"""Laurent series arithmetic, truncation windows, and inverses."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import whlaurent as wl
from whlaurent import cli, serialize
from whlaurent.corpus import (random_complex_factors, random_complex_parameter,
                             random_rational_factors, random_rational_parameter)
from whlaurent.exact import from_terms, int_div
from whlaurent.factorization import FactorizationError, _check_projection, residual_bound
from whlaurent.rings import RingError
from whlaurent.series import LaurentSeries, WindowError, factor_series

from conftest import dual_ring, sixteen_factor_symbol

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


windowed = st.tuples(st.dictionaries(st.integers(min_value=-5, max_value=5), coeff, max_size=5),
                     st.none() | st.tuples(st.integers(-6, 0), st.integers(0, 6))).map(
    lambda dw: LaurentSeries(Q, *dw))


@given(windowed, windowed)
@settings(max_examples=40)
def test_reflection_is_an_involution_and_multiplicative(a, b):
    twice = a.reflect().reflect()
    assert (twice.coeffs, twice.window) == (a.coeffs, a.window)
    p, q = a.mul(b).reflect(), a.reflect().mul(b.reflect())
    assert (p.coeffs, p.window) == (q.coeffs, q.window)


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
    # over the dual numbers the Sylvester elimination meets the zero pivot
    D = dual_ring(Q)
    with pytest.raises(RingError, match="no two-sided inverse"):
        wl.invert_from_factors(D, [wl.Antiholo((Fraction(1, 2), Fraction(0))),
                                   wl.Holo((Fraction(2), Fraction(0)))], (-8, 8))


def test_zero_series_repr_and_non_factor():
    assert repr(LaurentSeries(Q, {})) == "<0>"
    assert repr(LaurentSeries(Q, {}, (-2, 2))) == "<0 on [-2,2]>"
    with pytest.raises(TypeError, match="not an elementary factor"):
        factor_series(Q, Fraction(1, 2))


@pytest.mark.parametrize("ring, beta", [(Q, Fraction(1, 2)), (wl.complex_ring(), 0.5 + 0j)],
                         ids=["Q", "C"])
def test_empty_window_rejected(ring, beta):
    # lo > hi fails as an empty window, with or without a monomial factor
    for factors in ([wl.Holo(beta)], [wl.Holo(beta), wl.Mono(2, ring.one)]):
        with pytest.raises(WindowError, match=r"empty window \[5,3\]"):
            wl.invert_from_factors(ring, factors, (5, 3))


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
    for par in (complex(1.0), complex(math.nan, 0.0)):  # NaN is not below 1 either
        with pytest.raises(RingError):
            wl.invert_from_factors(C, [wl.Holo(par)], (-8, 8))


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
    # is_orthogonal: nonzero, every two distinct coefficients multiply to 0
    for coeffs, want in [({0: Fraction(1), 2: Fraction(1, 3)}, False),   # holomorphic
                         ({0: Fraction(1), -1: Fraction(-1, 2)}, False),  # antiholomorphic
                         ({3: Fraction(7)}, True), ({0: Fraction(1)}, True),
                         ({0: Fraction(2), 1: Fraction(3)}, False), ({}, False)]:
        assert wl.is_orthogonal(LaurentSeries(Q, coeffs)) is want, coeffs
    R = wl.product_ring(Q, 2)
    orth = LaurentSeries(R, {0: (Fraction(2), Fraction(0)),
                             1: (Fraction(0), Fraction(1, 3))})
    assert wl.is_orthogonal(orth)
    # over an exact ring with nilpotents: e * e = 0
    D = dual_ring(Q)
    eps = (Fraction(0), Fraction(1))
    assert wl.is_orthogonal(LaurentSeries(D, {0: eps, 1: eps}))
    assert not wl.is_orthogonal(LaurentSeries(D, {0: D.one, 1: eps}))
    # over C a product is 0 within the tolerance times both moduli, each at least 1
    C = wl.complex_ring()
    assert wl.is_orthogonal(LaurentSeries(C, {0: 2e-5 + 0j, 3: 2e-5j}))
    assert not wl.is_orthogonal(LaurentSeries(C, {0: 1.0 + 0j, 3: 2e-9 + 0j}))
    assert not wl.is_orthogonal(LaurentSeries(C, {0: 1e6 + 0j, 1: 1e-3 + 0j}))
    assert not wl.is_orthogonal(LaurentSeries(C, {}))


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


LEAF_TERMS = st.dictionaries(st.integers(-4, 4), st.tuples(st.integers(-60, 60),
                                                          st.integers(1, 40)), max_size=5)
EXACT_RINGS = [(Q, 1), (wl.product_ring(Q, 2), 2), (wl.product_ring(Q, 3), 3),
               (wl.product_ring(wl.product_ring(Q, 2), 2), 4)]


@given(st.sampled_from(EXACT_RINGS), st.lists(LEAF_TERMS, min_size=4, max_size=4))
def test_exact_series_json_is_the_rings_fmt(ring_leaves, leaves):
    # each coefficient written from the integer forms is byte-identical to
    # the ring's own fmt of its Fraction value, zero components included,
    # and writing builds no Fraction map
    ring, count = ring_leaves
    forms = [from_terms([(n, num, den) for n, (num, den) in terms.items()])
             for terms in leaves[:count]]
    a = LaurentSeries._from_ints(ring, forms)
    got = serialize.series_to_json(a)
    assert a._coeffs is None
    ref = LaurentSeries._from_ints(ring, forms).coeffs
    assert got == [{"n": n, "c": ring.fmt(ref[n])} for n in sorted(ref)]


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


# -- the integer kernels over Q and Q^2 against plain Fraction loops --

Q2 = wl.product_ring(Q, 2)


def _ref_mul(x, y):
    """Product of two maps to Fractions by the schoolbook dict loop."""
    out = {}
    for n, a in x.items():
        for m, b in y.items():
            out[n + m] = out.get(n + m, 0) + a * b
    return out


def _ref_div(x, u, window):
    """div_unit's recurrence on Fractions: q_n = x_n - sum_m u_m q_(n-m)."""
    lo, hi = window
    ascending = all(n >= 0 for n in u)
    q = {}
    for n in (range(lo, hi + 1) if ascending else range(hi, lo - 1, -1)):
        q[n] = x.get(n, 0) - sum(um * q.get(n - m, 0) for m, um in u.items() if m)
    return q


def _componentwise(ring, f, *maps):
    """``f`` on each component's maps, zipped back into ``ring``'s
    elements, zeros dropped and restricted to ``window`` (last argument)."""
    *maps, window = maps
    arity = 1 if ring.components is None else len(ring.components)
    parts = [f(*[{n: (c if arity == 1 else c[i]) for n, c in m.items()} for m in maps])
             for i in range(arity)]
    out = {}
    for n in set().union(*parts):
        if window is not None and not window[0] <= n <= window[1]:
            continue
        vals = tuple(Fraction(p.get(n, 0)) for p in parts)
        if any(vals):
            out[n] = vals[0] if arity == 1 else vals
    return out


def _rand_elem(ring, rng, zero_share=0.2):
    def leaf():
        if rng.random() < zero_share:
            return Fraction(0)
        return Fraction(rng.randint(-99, 99), rng.choice([1, 2, 3, 7, 12, 2**31 - 1, 3**20]))
    return leaf() if ring.components is None else tuple(leaf() for _ in ring.components)


def _rand_series(ring, rng, size, lo, windowed):
    coeffs = {lo + k: _rand_elem(ring, rng) for k in range(size)}
    window = (lo + rng.randint(-3, size // 2), lo + size - 1 + rng.randint(-size // 2, 3)) \
        if windowed else None
    return LaurentSeries(ring, coeffs, window)


def _ref_mul_window(x, y):
    if x.window is None and y.window is None:
        return None
    if x.window is not None and y.window is not None:
        return (max(x.window[0], y.window[0]), min(x.window[1], y.window[1]))
    exact, windowed = (x, y) if x.window is None else (y, x)
    supp = exact.support()
    if not supp:
        return windowed.window
    return (windowed.window[0] + supp[-1], windowed.window[1] + supp[0])


@pytest.mark.parametrize("ring", [Q, Q2], ids=["Q", "Q^2"])
def test_mul_matches_fraction_loop(ring):
    rng = random.Random("mul" + ring.name)
    sizes = list(range(1, 71, 3)) + [1, 2, 16, 17, 70]
    for i, size in enumerate(sizes):
        x = _rand_series(ring, rng, size, rng.randint(-40, 10), windowed=i % 3 == 1)
        y = _rand_series(ring, rng, rng.choice(sizes), rng.randint(-40, 10), windowed=i % 4 == 2)
        got = x.mul(y)
        assert got.window == _ref_mul_window(x, y)
        assert got.coeffs == _componentwise(ring, _ref_mul, x.coeffs, y.coeffs, got.window), size
        assert all(type(c) is Fraction for e in got.coeffs.values()
                   for c in (e if isinstance(e, tuple) else (e,)))
    # an exact zero factor keeps the windowed factor's window
    x = _rand_series(ring, rng, 5, -3, windowed=True)
    zero = LaurentSeries.zero(ring)
    for got in (zero.mul(x), x.mul(zero)):
        assert got.window == x.window == _ref_mul_window(zero, x) and not got.coeffs


@pytest.mark.parametrize("ring", [Q, Q2], ids=["Q", "Q^2"])
def test_div_unit_matches_fraction_recurrence(ring):
    rng = random.Random("div" + ring.name)
    for i, size in enumerate(list(range(1, 71, 4)) + [70]):
        x = _rand_series(ring, rng, size, rng.randint(-35, 5), windowed=i % 2 == 1)
        sgn = 1 if i % 3 else -1
        u = {sgn * k: _rand_elem(ring, rng) for k in range(1, rng.randint(1, 12))}
        u = LaurentSeries(ring, {0: ring.one, **u})
        lo = rng.randint(-40, 0)
        window = (lo, lo + rng.randint(0, 70))
        got = wl.div_unit(x, u, window)
        keep = window if x.window is None else (max(window[0], x.window[0]),
                                                min(window[1], x.window[1]))
        assert got.window == keep
        want = _componentwise(ring, lambda xc, uc: _ref_div(xc, uc, window),
                              x.truncate(window).coeffs, u.coeffs, keep)
        assert got.coeffs == want, size
    # (1 + z^5) / (1 + z/2) (over Q^2, 1 + z in the second leaf) read on [1, 4],
    # where x is 0: the quotient is 0 there, on the ring-element path too
    slow = Q_ELEMENTS if ring is Q else wl.product_ring(Q_ELEMENTS, 2)
    for r in (ring, slow):
        x = LaurentSeries(r, {0: r.one, 5: r.one})
        u = LaurentSeries(r, {0: r.one, 1: _lift(Fraction(1, 2), ring)})
        got = wl.div_unit(x, u, (1, 4))
        assert got.window == (1, 4) and not got.coeffs, r.name


# a copy of Q whose zero is not a Fraction takes the ring-element path
# (dict loops, Gauss-Jordan Bezout solve, div_unit loop) on Fractions:
# the reference for the integer kernels
Q_ELEMENTS = dataclasses.replace(Q, zero=0)


def _q2_factors(rng, facs):
    out = []
    for f in facs:
        other = rng.choice([Fraction(0), random_rational_parameter(rng)])
        if isinstance(f, wl.Antiholo):
            out.append(wl.Antiholo((f.alpha, other)))
        elif isinstance(f, wl.Holo):
            out.append(wl.Holo((f.beta, other)))
        else:
            out.append(wl.Mono(f.p, (f.u, rng.choice([Fraction(-1), Fraction(3, 2)]))))
    return out


@pytest.mark.parametrize("arity", [1, 2])
def test_inverse_pair_matches_ring_element_path(arity):
    rng = random.Random(31 + arity)
    fast = Q if arity == 1 else Q2
    slow = Q_ELEMENTS if arity == 1 else wl.product_ring(Q_ELEMENTS, 2)
    for max_factors, count, half in ((2, 15, 54), (3, 15, 16), (11, 10, 40)):
        for _ in range(count):
            facs = random_rational_factors(rng, max_factors=max_factors)
            if arity == 2:
                facs = _q2_factors(rng, facs)
            got = wl.invert_from_factors(fast, facs, (-half, half))
            want = wl.invert_from_factors(slow, facs, (-half, half))
            assert got.a.coeffs == want.a.coeffs and got.a.window is None, facs
            assert got.b.coeffs == want.b.coeffs and got.b.window == want.b.window, facs
            assert got.residual == want.residual == 0.0, facs


def test_reciprocal_root_collision_rejected_per_component():
    # only the first component has alpha * beta = 1
    facs = [wl.Antiholo((Fraction(1, 2), Fraction(1, 3))), wl.Holo((Fraction(2), Fraction(1, 5))),
            wl.Mono(1, Q2.one)]
    with pytest.raises(RingError, match="no two-sided inverse"):
        wl.invert_from_factors(Q2, facs, (-8, 8))
    with pytest.raises(RingError, match="no two-sided inverse"):
        wl.invert_from_factors(Q, [wl.Antiholo(Fraction(-2, 3)), wl.Holo(Fraction(-3, 2))], (-8, 8))


@pytest.mark.parametrize("arity", [1, 2])
def test_q_series_kernels_make_no_ring_multiplication(arity):
    # a copy of Q whose mul counts its calls: the inverse, its residual,
    # products, long division and the outer projections all run on integers
    calls = []

    def mul(x, y):
        calls.append(None)
        return x * y

    def counting(zero):
        leaf = dataclasses.replace(Q, mul=mul, zero=zero)
        return leaf if arity == 1 else wl.product_ring(leaf, arity)

    ring = counting(Fraction(0))

    def elem(x):
        return x if arity == 1 else (x, 1 - x / 5)

    facs = [wl.Antiholo(elem(Fraction(1, 2))), wl.Holo(elem(Fraction(-2, 3))),
            wl.Antiholo(elem(Fraction(2, 5))), wl.Mono(-1, elem(Fraction(3))),
            wl.Holo(elem(Fraction(1, 7)))]
    pair = wl.invert_from_factors(ring, facs, (-30, 30))
    prod = pair.a.mul(pair.b)
    u = LaurentSeries(ring, {0: ring.one, 1: elem(Fraction(-1, 4)), 2: elem(Fraction(2, 9))})
    q = wl.div_unit(pair.a, u, (-10, 10))
    wl.pi_plus(pair), wl.pi_minus(pair)
    assert not calls
    assert pair.residual == 0.0 and prod.truncate((-20, 20)).equals(LaurentSeries.one(ring))
    assert q.mul(u).equals(pair.a.truncate((-8, 8)))
    # the same inverse on the ring-element path does count
    slow = wl.invert_from_factors(counting(0), facs, (-30, 30))
    assert calls and slow.b.coeffs == pair.b.coeffs


# a copy of C whose zero is not a complex takes the ring-element path on
# complex numbers: the reference for the array kernels
C = wl.complex_ring()
C_ELEMENTS = dataclasses.replace(C, zero=0)


def _c2_factors(rng, facs):
    out = []
    for f in facs:
        other = rng.choice([0j, random_complex_parameter(rng, (0.1, 0.9))])
        if isinstance(f, wl.Antiholo):
            out.append(wl.Antiholo((f.alpha, other)))
        elif isinstance(f, wl.Holo):
            out.append(wl.Holo((f.beta, other)))
        else:
            out.append(wl.Mono(f.p, (f.u, rng.choice([1 + 0j, complex(-2.0, 0.5)]))))
    return out


def _c_half_window(facs):
    """The smallest symmetric inverse window the outer projections accept,
    at least 16."""
    p = sum(f.p for f in facs if isinstance(f, wl.Mono))
    lo = p - sum(isinstance(f, wl.Antiholo) for f in facs)
    hi = p + sum(isinstance(f, wl.Holo) for f in facs)
    return max(16, 3 * max(abs(lo), abs(hi)) + 1)


def _part(f, i):
    """Component ``i`` of a factor over ``C^2``."""
    if isinstance(f, wl.Antiholo):
        return wl.Antiholo(f.alpha[i])
    return wl.Holo(f.beta[i]) if isinstance(f, wl.Holo) else wl.Mono(f.p, f.u[i])


def _close(got, wants):
    """Each component of ``got`` has the exponents of its reference in
    ``wants`` and agrees with it within 1e-12 of the reference's sup norm,
    on ``got``'s window: a product's window narrows by the support of its
    exact factor, which over ``C^2`` spans every component's."""
    for i, want in enumerate(wants):
        comp = got if len(wants) == 1 else LaurentSeries(
            C, {n: c[i] for n, c in got.coeffs.items() if c[i]}, got.window)
        want = want.truncate(comp.window)
        assert set(comp.coeffs) == set(want.coeffs) and comp.window == want.window
        assert comp.sup_diff(want) <= 1e-12 * want.sup_seminorm()


@pytest.mark.parametrize("arity", [1, 2])
def test_complex_kernels_match_ring_element_path(arity):
    # the reference runs on ring elements, per component over C^2: the
    # kernels cut each component within the tolerance of zero, where a
    # product of C_ELEMENTS would keep it while another component is larger
    rng = random.Random(41 + arity)
    fast = C if arity == 1 else wl.product_ring(C, 2)

    def symbols():
        for k in range(-3, 4):
            for _ in range(4):
                facs = random_complex_factors(rng, rng.randint(1, 12), (0.1, 0.9))
                yield facs + [wl.Mono(0, complex(10.0 ** k))]
        # its bracket blocks hold entries under the tolerance: both paths
        # must keep them
        yield sixteen_factor_symbol()
        # the z^2 coefficient of its factor product, 9e-10, is cut
        yield [wl.Holo(3e-5 + 0j), wl.Holo(3e-5 + 0j), wl.Antiholo(0.5 + 0j)]

    for facs in symbols():
        parts = [facs]
        if arity == 2:
            facs = _c2_factors(rng, facs)
            parts = [[_part(f, i) for f in facs] for i in range(2)]
        half = _c_half_window(facs)
        got = wl.invert_from_factors(fast, facs, (-half, half))
        wants = [wl.invert_from_factors(C_ELEMENTS, p, (-half, half)) for p in parts]
        _close(got.a, [w.a for w in wants])
        _close(got.b, [w.b for w in wants])
        prod = got.a.mul(got.b)
        _close(prod, [w.a.mul(w.b) for w in wants])
        one = LaurentSeries.one(C, prod.window)
        residual = max(w.a.mul(w.b).truncate(prod.window).sup_diff(one) for w in wants)
        assert abs(got.residual - residual) <= 1e-12, facs
        # built on the declared window, as by InvertiblePair.make on the same b
        assert got.residual == wl.InvertiblePair.make(got.a, got.b).residual, facs
        _close(got.b.mul(got.b), [w.b.mul(w.b) for w in wants])
        for kind in (wl.Holo, wl.Antiholo):
            u = wl.factors_to_series(fast, [f for f in facs if isinstance(f, kind)])
            us = [wl.factors_to_series(C_ELEMENTS, [f for f in p if isinstance(f, kind)])
                  for p in parts]
            for x, xs in ((got.a, [w.a for w in wants]), (got.b, [w.b for w in wants])):
                _close(wl.div_unit(x, u, (-half, half)),
                       [wl.div_unit(xw, uw, (-half, half)) for xw, uw in zip(xs, us)])
        _close(wl.pi_plus(got), [wl.pi_plus(w) for w in wants])
        _close(wl.pi_minus(got), [wl.pi_minus(w) for w in wants])


@pytest.mark.parametrize("arity", [1, 2])
def test_complex_series_kernels_make_no_ring_multiplication(arity):
    # a copy of C whose mul counts its calls: the inverse, its residual,
    # products, long division and the outer projections all run on arrays
    calls = []

    def mul(x, y):
        calls.append(None)
        return complex(x) * complex(y)

    def counting(zero):
        leaf = dataclasses.replace(C, mul=mul, zero=zero)
        return leaf if arity == 1 else wl.product_ring(leaf, arity)

    ring = counting(0j)

    def elem(x):
        return x if arity == 1 else (x, x / 3)

    facs = [wl.Antiholo(elem(0.5j)), wl.Holo(elem(complex(-0.4, 0.3))),
            wl.Antiholo(elem(0.25 + 0j)), wl.Mono(-1, elem(complex(3.0, -1.0))),
            wl.Holo(elem(0.125 + 0j))]
    pair = wl.invert_from_factors(ring, facs, (-30, 30))
    prod = pair.a.mul(pair.b)
    u = LaurentSeries(ring, {0: ring.one, 1: elem(-0.25 + 0j), 2: elem(0.2j)})
    q = wl.div_unit(pair.a, u, (-10, 10))
    wl.pi_plus(pair), wl.pi_minus(pair)
    assert not calls
    assert pair.residual <= residual_bound(ring)
    assert prod.truncate((-20, 20)).equals(LaurentSeries.one(ring))
    assert q.mul(u).equals(pair.a.truncate((-8, 8)))
    # the same inverse on the ring-element path does count
    slow = wl.invert_from_factors(counting(0), facs, (-30, 30))
    assert calls and slow.b.sup_diff(pair.b) <= 1e-12


# -- the integer form over Q, Q^2 and (Q^2)^2 -------------------------

Q22 = wl.product_ring(Q2, 2)


def _element_path(ring):
    """The same ring on the ring-element path (its leaf's zero is no
    Fraction): dict loops on Fractions, the reference for the integer form."""
    if ring.components is None:
        return Q_ELEMENTS
    return wl.product_ring(_element_path(ring.components[0]), len(ring.components))


def _nested_elem(ring, rng):
    if ring.components is None:
        return _rand_elem(ring, rng)
    return tuple(_nested_elem(comp, rng) for comp in ring.components)


def _assert_canonical(s, want):
    """``s`` holds trimmed integer forms in lowest terms, one per leaf, and
    its map of Fractions is ``want``."""
    assert s._coeffs is None  # the kernels return the integer form alone
    for lo, nums, den in s.ints:
        assert den > 0 and math.gcd(den, *nums) == 1
        assert (lo, den) == (0, 1) if not nums else nums[0] and nums[-1]
    assert s.coeffs == want


def _literal(x):
    return str(x) if not isinstance(x, tuple) else "(%s)" % "|".join(map(_literal, x))


@pytest.mark.parametrize("ring", [Q, Q2, Q22], ids=["Q", "Q^2", "(Q^2)^2"])
def test_integer_form_is_trimmed_and_reduced(ring):
    rng = random.Random("form" + ring.name)
    slow = _element_path(ring)
    for i in range(12):
        lo = rng.randint(-20, 5)
        cs = {lo + k: _nested_elem(ring, rng) for k in range(rng.randint(0, 30))}
        window = (lo + rng.randint(-2, 8), lo + rng.randint(8, 30)) if i % 2 else None
        x, xs = LaurentSeries(ring, cs, window), LaurentSeries(slow, cs, window)
        y = {rng.randint(-6, 6): _nested_elem(ring, rng) for _ in range(rng.randint(1, 5))}
        _assert_canonical(x.mul(LaurentSeries(ring, y)), xs.mul(LaurentSeries(slow, y)).coeffs)
        sgn = 1 if i % 3 else -1
        u = {0: ring.one, **{sgn * k: _nested_elem(ring, rng) for k in range(1, 4)}}
        div_window = (lo - 3, lo + 25)
        _assert_canonical(wl.div_unit(x, LaurentSeries(ring, u), div_window),
                          wl.div_unit(xs, LaurentSeries(slow, u), div_window).coeffs)
        data = [{"n": n, "c": _literal(c)} for n, c in cs.items()]
        _assert_canonical(serialize.series_from_json(ring, data, window), x.coeffs)
    for facs in ([wl.Antiholo(Fraction(1, 2)), wl.Mono(2, Fraction(-3, 4)),
                  wl.Holo(Fraction(2, 7)), wl.Holo(Fraction(-1, 3))],
                 [wl.Mono(-1, Fraction(5))], [wl.Antiholo(Fraction(2, 3))] * 3):
        facs = [wl.Antiholo(_lift(f.alpha, ring)) if isinstance(f, wl.Antiholo) else
                wl.Holo(_lift(f.beta, ring)) if isinstance(f, wl.Holo) else
                wl.Mono(f.p, _lift(f.u, ring)) for f in facs]
        got = wl.invert_from_factors(ring, facs, (-20, 12))
        want = wl.invert_from_factors(slow, facs, (-20, 12))
        _assert_canonical(got.a, want.a.coeffs)
        _assert_canonical(got.b, want.b.coeffs)


REFLECT_RINGS = {"Q^2": (Q2, lambda k: (Fraction(k, 3), Fraction(-k))),
                 "C": (C, lambda k: complex(k, -k / 3)),
                 "Q[e]": (dual_ring(Q), lambda k: (Fraction(k, 3), Fraction(-k)))}


@pytest.mark.parametrize("name", sorted(REFLECT_RINGS))
def test_reflect_mirrors_exponents_and_window(name):
    # Q^2 reads its integer forms backwards and builds no Fraction; C and the
    # dual numbers mirror their maps
    ring, elem = REFLECT_RINGS[name]
    cases = [(LaurentSeries.zero(ring), {}, None),
             (LaurentSeries(ring, {}, (-2, 5)), {}, (-5, 2)),
             (LaurentSeries(ring, {-3: elem(1), 0: elem(2), 4: elem(-5)}, (-3, 6)),
              {3: elem(1), 0: elem(2), -4: elem(-5)}, (-6, 3))]
    for x, coeffs, window in cases:
        if ring is Q2:
            x = LaurentSeries._from_ints(ring, x.ints, x.window)
            _assert_canonical(x.reflect(), coeffs)
        got = x.reflect()
        assert (got.coeffs, got.window) == (coeffs, window)


def _lift(x, ring, ks=None):
    """``x`` in every leaf of ``ring``, times 1, 2, 3, ... in leaf order."""
    ks = itertools.count(1) if ks is None else ks
    if ring.components is None:
        return x * next(ks)
    return tuple(_lift(x, comp, ks) for comp in ring.components)


def test_factorize_job_never_builds_the_inverse_map(monkeypatch):
    # over Q^2 the inverse b goes from the integer inverse to the residual,
    # the outer projections and the long divisions without a Fraction map,
    # and the output is written from the integer forms too, so the job
    # builds no Fraction map at all
    pairs, built = [], []
    invert, coeffs = cli.invert_from_factors, LaurentSeries.coeffs

    def spy_invert(*args):
        pairs.append(invert(*args))
        return pairs[-1]

    def spy_coeffs(self):
        if self._coeffs is None:
            built.append(self)
        return coeffs.fget(self)

    monkeypatch.setattr(cli, "invert_from_factors", spy_invert)
    monkeypatch.setattr(LaurentSeries, "coeffs", property(spy_coeffs))
    job = {"ring": {"kind": "product", "arity": 2}, "window": 24,
           "factors": [{"type": "antiholo", "alpha": "(1/2|-2/5)"},
                       {"type": "holo", "beta": "(1/3|3/4)"},
                       {"type": "holo", "beta": "(-2/7|1/6)"},
                       {"type": "mono", "p": 1, "u": "(3|-1/2)"}]}
    code, payload = cli.run_job(job)
    assert code == 0 and payload["winding"] == 1 and payload["residual"] == 0.0
    (pair,) = pairs
    assert built == [] and pair.b._coeffs is None and len(pair.b.support()) > 40
    pair.b.coeffs  # the spy sees a map being built
    assert built == [pair.b]


# -- a factor pair builds its inverse where it is read -------------------

def _geometric_inverse(al, be, p, u, window):
    """The nonzero coefficients on ``window`` of 1/(u z^p (1 - al/z)(1 - be z)):
    at exponent n - p, be^n for n >= 0 and al^-n for n < 0, over u (1 - al be)."""
    scale = 1 / (u * (1 - al * be))
    out = {}
    for m in range(window[0], window[1] + 1):
        c = be ** (m + p) if m + p >= 0 else al ** -(m + p)
        if c:
            out[m] = scale * c
    return out


@pytest.mark.parametrize("ring", [Q, Q2], ids=["Q", "Q^2"])
def test_exact_factor_pair_builds_b_on_the_read_window(monkeypatch, ring):
    # a = u z^2 (1 - al/z)(1 - be z) has support [1, 3]: re-centred by e = 1
    # its blocks read b on [1 - 2*3, 1 - 2*1] = [-5, -1] (over Q^2 the leaf
    # with al = 0 spans [2, 3] and reads [-4, -2]).  Declared on
    # [-4096, 4096], factorize builds b once, on that window widened by a's
    # span 2 on both sides, [-7, 1], and no long division runs longer than
    # it; the result is that of the least window factorize accepts, and a
    # smaller one is refused as before.  Reading pair.b then builds b on the
    # declared window, the closed form of 1/a
    windows, terms = [], []
    checked = wl.InvertiblePair._checked
    monkeypatch.setattr(wl.InvertiblePair, "_checked",
                        lambda self, w: windows.append(w) or checked(self, w))
    monkeypatch.setattr("whlaurent.series.int_div",
                        lambda x, u, count: terms.append(count) or int_div(x, u, count))
    params = [(Fraction(1, 2), Fraction(-1, 3), Fraction(3, 5)),
              (Fraction(0), Fraction(2, 7), Fraction(-4))][:len(ring.components or [ring])]
    al, be, u = (col[0] if ring is Q else col for col in zip(*params))
    facs = [wl.Antiholo(al), wl.Holo(be), wl.Mono(2, u)]
    pair = wl.invert_from_factors(ring, facs, (-4096, 4096))
    res = wl.factorize(pair)
    assert windows == [(-7, 1)] and 0 < max(terms) <= 9
    errors = []
    for least in itertools.count(1):
        try:
            want = wl.factorize(wl.invert_from_factors(ring, facs, (-least, least)))
            break
        except WindowError as exc:
            errors.append(str(exc))
    assert least == 5 and errors[-1] == "inverse window [-4,4] too small; need at least [-5,-1]"
    for got, ref in ((res.pi_minus, want.pi_minus), (res.pi_tilde, want.pi_tilde),
                     (res.pi_plus, want.pi_plus)):
        assert got.coeffs == ref.coeffs
    assert (res.residual, res.winding) == (want.residual, want.winding) == (0.0, 2)
    windows.clear()
    b = pair.b
    assert windows == [(-4096, 4096)] and b.window == (-4096, 4096) and pair.b is b
    assert pair.residual == 0.0
    # a residual read before any build is that of b built on the declared window
    windows.clear()
    assert wl.invert_from_factors(ring, facs, (-64, 64)).residual == 0.0
    assert windows == [(-64, 64)]
    # per leaf, on the integer form: the Fraction map of 8193 terms is slow
    for (lo, nums, den), (x, y, v) in zip(b.ints, params):
        want = _geometric_inverse(x, y, 2, v, (-4096, 4096))
        assert {lo + i for i, c in enumerate(nums) if c} == want.keys()
        assert all(nums[n - lo] * c.denominator == c.numerator * den for n, c in want.items())


# -- the checks at the end of factorize read the integer forms ----------

def _check_outcome(check, *args):
    """The message of the error ``check`` raises, or None."""
    try:
        check(*args)
    except (FactorizationError, RingError) as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("ring", [Q, Q2], ids=["Q", "Q^2"])
def test_factorize_checks_read_integer_forms(ring):
    slow = _element_path(ring)
    rng = random.Random("checks" + ring.name)
    # factorize returns pi_-, pi~ and pi_+ as integer forms: none of its
    # checks builds their Fraction maps, and they equal the element path's
    for _ in range(8):
        facs = random_rational_factors(rng, max_factors=4)
        facs = _q2_factors(rng, facs) if ring is Q2 else facs
        res = wl.factorize(wl.invert_from_factors(ring, facs, (-40, 40)))
        want = wl.factorize(wl.invert_from_factors(slow, facs, (-40, 40)))
        parts = (res.pi_minus, res.pi_tilde, res.pi_plus)
        assert all(s._coeffs is None for s in parts), facs
        assert [s.coeffs for s in parts] == \
            [want.pi_minus.coeffs, want.pi_tilde.coeffs, want.pi_plus.coeffs]
        assert res.winding == want.winding
    # on random series the integer-form orthogonality, unit test and projection
    # checks agree with the Fraction-map checks of the element path
    one, two, zero = ring.one, _lift(Fraction(2), ring), ring.zero
    cases = [{0: one, 2: two}, {-3: two, 0: one}, {0: two, 1: two}, {0: one}, {},
             {0: two}, {4: two}, {-1: one, 0: one, 1: two}, {3: zero}]
    if ring is Q2:
        e1, e2 = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(3))
        cases += [{0: e1, 5: e2},  # orthogonal, not a unit
                  {0: e1, 1: (Fraction(1), Fraction(3))},  # not orthogonal
                  {0: (Fraction(1), Fraction(1)), -2: e2}]  # stray in one leaf
    for _ in range(60):
        lo = rng.randint(-4, 2)
        cs = {lo + k: _rand_elem(ring, rng, 0.5) for k in range(rng.randint(0, 5))}
        cs[0] = rng.choice([one, two, zero, _rand_elem(ring, rng, 0.5)])
        cases.append(cs)
    for cs in cases:
        fast = LaurentSeries._from_ints(ring, LaurentSeries(ring, cs).ints)
        ref = LaurentSeries(slow, cs)
        assert wl.is_orthogonal(fast) == wl.is_orthogonal(ref), cs
        assert fast.has_unit_constant() == ref.has_unit_constant(), cs
        for kind in ("plus", "minus"):
            assert _check_outcome(_check_projection, fast, kind) == \
                _check_outcome(_check_projection, ref, kind), (cs, kind)
        assert _check_outcome(wl.div_unit, fast, fast, (-3, 3)) == \
            _check_outcome(wl.div_unit, ref, ref, (-3, 3)), cs
        assert fast._coeffs is None, cs
