"""Determinant engine: division-free core, fast dense paths, reductions of
identity-plus-perturbation operators, and nested-window truncations."""

import dataclasses
import operator
import random
import types
from fractions import Fraction

import numpy as np
import pytest

import whlaurent as wl
from whlaurent import determinants
from whlaurent import matrices as mx
from whlaurent.determinants import (berkowitz, det_berkowitz, det_block, det_truncated,
                                    ring_array, _det_rows)
from whlaurent.exact import clear, dot
from whlaurent.factorization import _k_rows
from whlaurent.matrices import (Lattice, antiholomorphic_det_matrix, det_identity_plus,
                                det_tilde_column_reduced, holomorphic_det_matrix, _own_map)
from whlaurent.rings import RingError
from whlaurent.series import LaurentSeries, WindowError, laurent_ring

from conftest import det_cofactor, dual_ring

Q = wl.rational_ring()
Q2 = wl.product_ring(Q, 2)
WIN = (-14, 14)


def rand_q(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def rand_rows(ring, rng, n, elem):
    return [[elem(rng) for _ in range(n)] for _ in range(n)]


def test_berkowitz_matches_cofactor_expansion_rational():
    rng = random.Random(2)
    for n in range(1, 6):
        for _ in range(4):
            rows = rand_rows(Q, rng, n, rand_q)
            assert det_berkowitz(Q, rows) == det_cofactor(Q, rows)


def test_berkowitz_matches_cofactor_expansion_product_ring():
    R = wl.product_ring(Q, 2)
    rng = random.Random(3)
    for n in range(1, 5):
        rows = rand_rows(R, rng, n, lambda r: (rand_q(r), rand_q(r)))
        assert det_block(R, rows) == det_cofactor(R, rows)


def test_determinant_is_multiplicative():
    rng = random.Random(4)
    n = 4
    a = rand_rows(Q, rng, n, rand_q)
    b = rand_rows(Q, rng, n, rand_q)
    ab = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    assert det_berkowitz(Q, ab) == det_berkowitz(Q, a) * det_berkowitz(Q, b)


CHARPOLY_DRAWS = {
    "mixed": lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
    "integer": lambda rng: Fraction(rng.randint(-20, 20)),
    "negative": lambda rng: Fraction(-rng.randint(1, 9), rng.randint(1, 9)),
    # pairwise coprime denominators: their lcm has about 124 bits
    "coprime": lambda rng: Fraction(rng.randint(-5, 5), rng.choice([2**61 - 1, 2**31 - 1, 3**20])),
}


def _element(ring, draw, rng):
    """A random element, with every leaf component drawn by ``draw``."""
    if ring.components is None:
        return draw(rng)
    return tuple(_element(comp, draw, rng) for comp in ring.components)


def _int_charpoly(ring, a):
    """:func:`determinants.berkowitz` on the integer inner product
    :func:`exact.dot`, of ``a`` cleared to integers over one common
    denominator, per component of a product ring."""
    if ring.components is not None:
        parts = [_int_charpoly(comp, [[x[i] for x in row] for row in a])
                 for i, comp in enumerate(ring.components)]
        return [tuple(c) for c in zip(*parts)]
    n = len(a)
    m, d = clear([x for row in a for x in row])
    # det(x I - M / d) has the coefficients m_i / d^i
    return [Fraction(c, d ** i)
            for i, c in enumerate(berkowitz([m[i * n:(i + 1) * n] for i in range(n)],
                                            dot, operator.neg, 1, n))]


@pytest.mark.parametrize("ring", [Q, Q2, wl.product_ring(Q2, 2)], ids=["Q", "Q^2", "(Q^2)^2"])
def test_charpoly_on_integers_matches_berkowitz(ring):
    rng = random.Random(ring.name)
    kinds = sorted(CHARPOLY_DRAWS)
    for n in range(13):
        draw = CHARPOLY_DRAWS[kinds[n % len(kinds)]]
        a = [[_element(ring, draw, rng) for _ in range(n)] for _ in range(n)]
        if n % 3 == 1:
            a[n // 2] = [ring.zero] * n
        got = _int_charpoly(ring, a)
        # the same rationals, so the same reduced Fractions
        assert repr(got) == repr(berkowitz(a, ring.dot, ring.neg, ring.one, n)), n
        assert (got[-1] == ring.zero) == (n % 3 == 1), n


def _plain_berkowitz(a, dot, neg, one):
    """The textbook Berkowitz loop with no degree bound: every Toeplitz
    column entry and every coefficient of every step."""
    coeffs = [one]
    for r in range(1, len(a) + 1):
        row, cur = a[r - 1][:r - 1], [a[i][r - 1] for i in range(r - 1)]
        tvec = [one, neg(a[r - 1][r - 1])]
        for t in range(r - 1):
            if t:
                cur = [dot(a[i][:r - 1], cur) for i in range(r - 1)]
            tvec.append(neg(dot(row, cur)))
        coeffs = [dot(tvec[i::-1], coeffs) for i in range(r + 1)]
    return coeffs


def _low_rank_rows(ring, draw, rng, n, k):
    """An ``n x n`` matrix ``X Y`` of rank at most ``k`` over ``ring``, for
    ``n x k`` and ``k x n`` factors with entries from ``draw``."""
    x = [[draw(rng) for _ in range(k)] for _ in range(n)]
    y = [[draw(rng) for _ in range(n)] for _ in range(k)]
    return [[ring.dot(xi, [yt[j] for yt in y]) for j in range(n)] for xi in x]


# the integer blocks' arithmetic, with exact.dot as the inner product
_INTS = types.SimpleNamespace(dot=dot, neg=operator.neg, one=1, is_zero=operator.not_)


@pytest.mark.parametrize("name", ["int", "Q^2", "Q[e]"])
def test_berkowitz_bound_keeps_the_leading_coefficients(name):
    # rank <= k: every principal minor of order > k is 0, so c_i = 0 for
    # i > k, and the run bounded at k returns c_0..c_k of the full run
    ring, draw = {
        "int": (_INTS, lambda r: r.randint(-9, 9)),
        "Q^2": (Q2, lambda r: (rand_q(r), rand_q(r))),
        "Q[e]": (dual_ring(Q), lambda r: (rand_q(r), rand_q(r))),
    }[name]
    rng = random.Random("bound:" + name)
    for n in range(13):
        for k in sorted({0, 1, n // 2, max(n - 1, 0), n}):
            a = _low_rank_rows(ring, draw, rng, n, k)
            full = berkowitz(a, ring.dot, ring.neg, ring.one, n)
            if k == n // 2:
                assert repr(full) == repr(_plain_berkowitz(a, ring.dot, ring.neg, ring.one)), n
            assert all(ring.is_zero(c) for c in full[k + 1:]), (n, k)
            assert repr(berkowitz(a, ring.dot, ring.neg, ring.one, k)) == repr(full[:k + 1]), (n, k)


@pytest.mark.parametrize("arity", [1, 2])
def test_charpoly_over_q_makes_no_ring_multiplication(arity):
    # a copy of Q whose mul counts its calls: the outer projections must
    # not fall back to the bracket block and Berkowitz on Fractions, alone
    # or per product component
    calls = []

    def mul(x, y):
        calls.append(None)
        return x * y

    Qc = dataclasses.replace(Q, mul=mul)
    ring = Qc if arity == 1 else wl.product_ring(Qc, arity)
    rng = random.Random(19)
    facs = [f(_element(ring, lambda r: rand_q(r) / 7, rng))
            for f in (wl.Antiholo, wl.Holo, wl.Antiholo, wl.Holo)]
    pair = wl.invert_from_factors(ring, facs + [wl.Mono(1, ring.one)], (-40, 40))
    calls.clear()
    got = {"plus": wl.pi_plus(pair), "minus": wl.pi_minus(pair)}
    assert not calls
    # the ring-element reference: the block on a's own support (not
    # re-centred) and Berkowitz on Fractions, for pi_- on the reflected
    # pair and reflected back
    mirror = wl.InvertiblePair.make(pair.a.reflect(), pair.b.reflect())
    for kind, p in (("plus", pair), ("minus", mirror)):
        lo, hi, m, (b_lo, b_hi), b = _own_map(p)
        rows = _k_rows(m, m.blocks[0], [p.a.coeff(d) for d in range(lo, hi + 1)],
                       [b.coeff(k) for k in range(b_lo, b_hi + 1)],
                       ring.dot, ring.neg, ring.add, ring.one)
        ref = berkowitz(rows, ring.dot, ring.neg, ring.one, len(rows))
        ref = LaurentSeries(ring, dict(enumerate(ref)))
        assert got[kind].equals(ref if kind == "plus" else ref.reflect())
    assert calls


def _dual_elem(base, rng):
    if base.is_exact:
        return (rand_q(rng), rand_q(rng))
    return tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2))


DUAL_BASES = {"Q": Q, "C": wl.complex_ring()}


@pytest.mark.parametrize("base_name", sorted(DUAL_BASES))
def test_det_block_on_dual_numbers_runs_berkowitz(base_name):
    # Laurent polynomials over a dual ring have no coefficient array, so
    # det_block takes division-free Berkowitz on the ring's elements
    base = DUAL_BASES[base_name]
    dual = dual_ring(base)
    dw = laurent_ring(dual, "w")
    rng = random.Random(23)
    rows = [[LaurentSeries(dual, {k: _dual_elem(base, rng) for k in (-1, 0, 1)})
             for _ in range(3)] for _ in range(3)]
    got = det_block(dw, rows)
    assert got.coeffs and got.coeffs == det_berkowitz(dw, rows).coeffs


@pytest.mark.parametrize("base_name", sorted(DUAL_BASES))
def test_det_truncated_rejects_dual_numbers(base_name):
    dual = dual_ring(DUAL_BASES[base_name])
    p0 = [[dual.one if i == j else dual.zero for j in range(4)] for i in range(4)]
    with pytest.raises(RingError, match="coefficient-array"):
        det_truncated(dual, p0, p0, [0] * 4, [1, 2])


def test_interpolation_path_matches_division_free():
    Qw = laurent_ring(Q, "w")
    rng = random.Random(5)
    n = 7
    rows = [[LaurentSeries(Q, {k: rand_q(rng) for k in range(-1, 2)
                               if rng.random() < 0.8})
             for _ in range(n)] for _ in range(n)]
    fast = det_block(Qw, rows)
    slow = det_berkowitz(Qw, rows)
    assert fast.coeffs == slow.coeffs


def test_circle_sampling_path_matches_division_free():
    C = wl.complex_ring()
    rng = random.Random(6)
    # (n, exponent support, share of zero entries, product-ring arity)
    cases = [
        (4, (-1, 1), 0.0, 1),
        (3, (0, 3), 0.0, 1),
        (3, (-3, 0), 0.0, 1),
        (5, (-1, 2), 0.0, 1),
        (6, (-1, 1), 0.4, 1),
        (8, (-1, 1), 0.3, 1),
        (3, (-1, 1), 0.2, 2),  # C^2, sampled per component
    ]
    for n, (lo, hi), p_zero, arity in cases:
        R = C if arity == 1 else wl.product_ring(C, arity)
        Rw = laurent_ring(R, "w")

        def coeff():
            cs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(arity)]
            return cs[0] if arity == 1 else tuple(cs)

        def entry():
            if p_zero and rng.random() < p_zero:
                return LaurentSeries.zero(R)
            return LaurentSeries(R, {k: coeff() for k in range(lo, hi + 1)})

        rows = [[entry() for _ in range(n)] for _ in range(n)]
        fast = det_block(Rw, rows)
        slow = det_berkowitz(Rw, rows)
        assert fast.sup_diff(slow) < 1e-10, (n, lo, hi, arity)


def _unequal_span_rows(ring, coeff, n, zero_row):
    """Row 0 holds only negative exponents, row 1 only constants (or
    nothing), row 2 spans [-2, 4] and the rest [0, 1]."""
    spans = [(-3, -2), (0, 0), (-2, 4)] + [(0, 1)] * (n - 3)
    return [[LaurentSeries.zero(ring) if i == 1 and zero_row else
             LaurentSeries(ring, {k: coeff() for k in range(lo, hi + 1)})
             for _ in range(n)] for i, (lo, hi) in enumerate(spans)]


@pytest.mark.parametrize("zero_row", [False, True])
def test_row_bounds_exact_on_unequal_row_spans(zero_row, monkeypatch):
    # the determinant is w^-5 times a polynomial of degree n + 4 = 11,
    # where one bound for all entries gave n * (4 + 3) = 49; a zero row
    # gives 0 without sampling
    n = 7
    rng = random.Random(15)
    degrees = []
    poly_det = determinants._poly_det

    def spy(ring, coef, windows):
        degrees.extend(deg for _size, deg in windows)
        return poly_det(ring, coef, windows)

    monkeypatch.setattr(determinants, "_poly_det", spy)

    def check_degrees():
        assert set(degrees) == (set() if zero_row else {n + 4})
        degrees.clear()

    Qw = laurent_ring(Q, "w")
    rows = _unequal_span_rows(Q, lambda: rand_q(rng), n, zero_row)
    want = det_berkowitz(Qw, rows)
    assert det_block(Qw, rows).coeffs == want.coeffs
    assert zero_row == want.is_zero()
    check_degrees()

    C = wl.complex_ring()
    Cw = laurent_ring(C, "w")

    def cplx():
        # coefficients below 1 in modulus keep the determinant's coefficients
        # near 1, so that 1e-12 is a relative bound
        return complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))

    rows = _unequal_span_rows(C, cplx, n, zero_row)
    assert det_block(Cw, rows).sup_diff(det_berkowitz(Cw, rows)) < 1e-12
    check_degrees()

    C2 = wl.product_ring(C, 2)
    C2w = laurent_ring(C2, "w")
    rows = _unequal_span_rows(C2, lambda: (cplx(), cplx()), n, zero_row)
    assert det_block(C2w, rows).sup_diff(det_berkowitz(C2w, rows)) < 1e-12
    check_degrees()


def test_product_ring_series_determinant_recurses():
    R = wl.product_ring(Q, 2)
    Rw = laurent_ring(R, "w")
    rng = random.Random(7)
    n = 3
    rows = [[LaurentSeries(R, {k: (rand_q(rng), rand_q(rng)) for k in (0, 1)})
             for _ in range(n)] for _ in range(n)]
    got = det_block(Rw, rows)
    want = det_cofactor(Rw, rows)
    assert got.equals(want)
    # 7 rows, and row 2 is zero in the first component only: that
    # component's determinant is 0 while the second one's is not
    n = 7
    rows = [[LaurentSeries(R, {k: (Fraction(0) if i == 2 else rand_q(rng), rand_q(rng))
                               for k in (-1, 0, 1)}) for _ in range(n)] for i in range(n)]
    got = det_block(Rw, rows)
    assert got.coeffs == det_berkowitz(Rw, rows).coeffs
    assert all(c[0] == 0 for c in got.coeffs.values()) and got.coeffs
    # (Q^2)^2[w]: two component axes, each leaf its own determinant
    R = wl.product_ring(R, 2)
    Rw = laurent_ring(R, "w")

    def coeff():
        return ((rand_q(rng), rand_q(rng)), (rand_q(rng), rand_q(rng)))

    rows = [[LaurentSeries(R, {k: coeff() for k in (-1, 0, 1) if rng.random() < 0.7})
             for _ in range(n)] for _ in range(n)]
    assert det_block(Rw, rows).coeffs == det_berkowitz(Rw, rows).coeffs


def test_oversized_block_rejected():
    rows = [[Q.one] * 70 for _ in range(70)]
    with pytest.raises(RingError):
        det_block(Q, rows)


def test_empty_block_has_determinant_one():
    assert det_block(Q, []) == Q.one


def test_non_square_block_rejected():
    with pytest.raises(ValueError, match="not square"):
        det_block(Q, [[Q.one, Q.zero], [Q.one]])
    with pytest.raises(ValueError, match="not square"):
        det_block(Q, [[Q.one, Q.zero]])


def test_identity_plus_row_reduction_matches_dense():
    rng = random.Random(8)
    for _ in range(10):
        ents = {(r, c): rand_q(rng)
                for r in range(-2, 3) for c in range(-2, 3)
                if rng.random() < 0.6}
        a = mx.WindowedMatrix(Q, Lattice.INTEGER, WIN, ents, 4, WIN)
        # the row reduction agrees with the dense support-union block
        idx = sorted({r for r, _ in ents} | {c for _, c in ents})
        dense = [[Q.add(Q.one if r == c else Q.zero, a.get(r, c))
                  for c in idx] for r in idx]
        assert det_identity_plus(a) == det_cofactor(Q, dense)


def test_identity_plus_boundary_guard():
    ents = {(WIN[0], 0): Fraction(1)}
    a = mx.WindowedMatrix(Q, Lattice.INTEGER, WIN, ents, 14, WIN)
    with pytest.raises(WindowError):
        det_identity_plus(a)


@pytest.mark.parametrize("variant, reliable, col, err, msg", [
    ("x", WIN, 0, ValueError, "variant"),
    ("+", WIN, WIN[0], WindowError, "columns touch the reliable boundary"),
    ("+", (-10, -3), -5, WindowError, "reduced column set exits"),
], ids=["variant", "boundary", "wedge"])
def test_column_reduced_determinant_guards(variant, reliable, col, err, msg):
    # a column on the boundary, or a wedge [col, 0] that reaches past the
    # reliable window, is refused before any block is built
    a = mx.WindowedMatrix(Q, Lattice.INTEGER, WIN, {(col, col): Fraction(1)}, 1, reliable)
    with pytest.raises(err, match=msg):
        det_tilde_column_reduced(variant, a, Fraction(1, 2))


def _dense_reflection_det(variant, A, Qw, w, size=9):
    """Independent check value: determinant of (reflection factor + A)
    restricted to the finite block [-size, size]."""
    winv = Qw.inverse(w)
    idx = list(range(-size, size + 1))

    def f_entry(r, c):
        e = Qw.one if r == c else Qw.zero
        if variant == "+" and r <= -1 and c == r + 1:
            e = Qw.add(e, Qw.neg(w))
        if variant == "-" and r >= 1 and c == r - 1:
            e = Qw.add(e, Qw.neg(winv))
        return e

    block = [[Qw.add(f_entry(r, c), A.get(r, c)) for c in idx] for r in idx]
    return det_block(Qw, block)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_column_reduced_determinant_matches_dense_truncation(seed):
    from whlaurent.corpus import random_rational_factors

    rng = random.Random(seed)
    Qw = laurent_ring(Q, "w")
    for _ in range(5):
        facs = random_rational_factors(rng, max_factors=2)
        pair = wl.invert_from_factors(Q, facs, (-54, 54))
        # w itself and the non-monic unit 2w
        for w in (LaurentSeries.monomial(Q, 1), LaurentSeries.monomial(Q, 1, Fraction(2))):
            for variant, builder in (("+", holomorphic_det_matrix),
                                     ("-", antiholomorphic_det_matrix)):
                A = builder(pair, Qw, w)
                reduced = det_tilde_column_reduced(variant, A, w)
                dense = _dense_reflection_det(variant, A, Qw, w)
                assert reduced.coeffs == dense.coeffs, (facs, variant, w)


def test_negative_winding_wedge_orientation():
    # the antiholomorphic reduction must expand in w^-1; a pure shift
    # symbol with negative exponent exposes the orientation
    al = Fraction(1, 2)
    for p in (-1, -2):
        pair = wl.invert_from_factors(
            Q, [wl.Antiholo(al), wl.Mono(p, Fraction(1))], (-40, 40))
        pm = wl.pi_minus(pair)
        assert pm.coeffs == {0: Fraction(1), -1: -al}


def _pencil_rows(ring, p0, p1, shifts):
    """The w-series block (P0 + w P1) diag(w^shifts), entry by entry."""
    return [[LaurentSeries(ring, {s: x0, s + 1: x1}) for x0, x1, s in zip(r0, r1, shifts)]
            for r0, r1 in zip(p0, p1)]


def _mixed_row_pencil(zero, coeff, n):
    """Rows 0-1 have no P0 part, rows 2-3 no P1 part, the rest both."""
    p0 = [[zero if i < 2 else coeff() for _ in range(n)] for i in range(n)]
    p1 = [[zero if 2 <= i < 4 else coeff() for _ in range(n)] for i in range(n)]
    return p0, p1


@pytest.mark.parametrize("ring_name", ["Q", "C", "C^2"])
def test_pencil_row_shifts_exact(ring_name):
    # linear in each row: w^(2 + sum shifts) times a polynomial of degree
    # n - 4 (the mixed rows), where each column alone allows degree n
    n = 8
    shifts = [-2, 0, 1, -1, 0, 0, 3, -1]
    rng = random.Random(17)
    if ring_name == "Q":
        ring, coeff = Q, lambda: rand_q(rng)
    else:
        C = wl.complex_ring()

        def cplx():
            return complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))

        ring, coeff = (C, cplx) if ring_name == "C" else (wl.product_ring(C, 2),
                                                          lambda: (cplx(), cplx()))
    p0, p1 = _mixed_row_pencil(ring.zero, coeff, n)
    pencil = np.stack([ring_array(ring, p0), ring_array(ring, p1)])
    got = _det_rows(ring, pencil, [n])[0].shift(sum(shifts))
    want = det_berkowitz(laurent_ring(ring, "w"), _pencil_rows(ring, p0, p1, shifts))
    assert want.support()[0] == 2 + sum(shifts) and want.support()[-1] == n - 2 + sum(shifts)
    if ring.is_exact:
        assert got.coeffs == want.coeffs
    else:
        assert got.sup_diff(want) < 1e-12


def test_product_ring_row_bound_per_component(monkeypatch):
    # row i is pure P0 in one component and pure P1 in the other, so it is
    # mixed over Q^2 as a whole but of degree 0 in each component: w^2 in
    # the first component and w^4 in the second
    n = 6
    rng = random.Random(23)
    degrees = []
    poly_det = determinants._poly_det

    def spy(ring, coef, windows):
        degrees.extend((ring.name, deg) for _size, deg in windows)
        return poly_det(ring, coef, windows)

    monkeypatch.setattr(determinants, "_poly_det", spy)
    p0 = [[(rand_q(rng), Fraction(0)) if i % 3 else (Fraction(0), rand_q(rng))
           for _ in range(n)] for i in range(n)]
    p1 = [[(Fraction(0), rand_q(rng)) if i % 3 else (rand_q(rng), Fraction(0))
           for _ in range(n)] for i in range(n)]
    shifts = [0, 1, -1, 0, 2, 0]
    pencil = np.stack([ring_array(Q2, p0), ring_array(Q2, p1)])
    got = _det_rows(Q2, pencil, [n])[0].shift(sum(shifts))
    assert degrees == [("Q", 0), ("Q", 0)]
    want = det_berkowitz(laurent_ring(Q2, "w"), _pencil_rows(Q2, p0, p1, shifts))
    assert got.coeffs == want.coeffs
    assert got.support() == [2 + sum(shifts), 4 + sum(shifts)]


def _decay_pencil(top):
    """Diagonal 1 + 2^-|n| on [-top, top), no w part."""
    idx = range(-top, top)
    p0 = ring_array(Q, [[1 + Fraction(1, 2) ** min(abs(n), 20) if n == m else Fraction(0)
                         for m in idx] for n in idx])
    return p0, np.zeros_like(p0), [0] * (2 * top)


def test_truncated_determinant_converges():
    # diagonal 1 + 2^-|n| decay: the nested values stabilize
    _value, tail = det_truncated(Q, *_decay_pencil(8), [4, 6, 8])
    assert tail is not None
    _value2, tail2 = det_truncated(Q, *_decay_pencil(10), [6, 8, 10])
    # deeper windows only multiply in factors closer to 1
    assert tail2 <= tail


def test_truncated_determinant_rejects_growing_tail():
    rng = random.Random(9)
    p0 = ring_array(Q, [[Fraction(rng.randint(-3, 3), 2) for _ in range(10)]
                        for _ in range(10)])
    with pytest.raises(WindowError):
        det_truncated(Q, p0, np.zeros_like(p0), [0] * 10, [2, 3, 4, 5])


def test_truncated_determinant_needs_two_windows():
    with pytest.raises(ValueError, match="two nested windows"):
        det_truncated(Q, *_decay_pencil(4), [4])


@pytest.mark.parametrize("cut", ["p0", "p1", "shifts"])
def test_truncated_determinant_rejects_a_non_square_pencil(cut):
    p0, p1, shifts = _decay_pencil(4)
    p0, p1, shifts = {"p0": (p0[:, :-1], p1, shifts), "p1": (p0, p1[:-1], shifts),
                      "shifts": (p0, p1, shifts[:-1])}[cut]
    with pytest.raises(ValueError, match="pencil must be square"):
        det_truncated(Q, p0, p1, shifts, [2, 4])


def _decaying_pencil(top):
    """A pencil near diag(w 1_{n<0} + 1_{n>=0}) whose other entries decay
    like 2^-(|n| + |m|), columns m < 0 shifted by -1: near the identity,
    as in the half-lattice determinants."""
    idx = range(-top, top)

    def small(n, m, k):
        return Fraction((3 * n + 5 * m + k) % 7 - 3, 2 ** (abs(n) + abs(m) + 2))

    p0 = [[(n == m >= 0) + small(n, m, 0) for m in idx] for n in idx]
    p1 = [[(n == m < 0) + small(n, m, 1) for m in idx] for n in idx]
    return p0, p1, [-1 if m < 0 else 0 for m in idx]


def test_truncated_determinant_windows_are_centred_sub_blocks():
    # each window's value is the determinant of its own pencil computed
    # alone: the last value directly, the one before it through the tail
    windows = [2, 4, 6]
    alone = [det_block(laurent_ring(Q, "w"), _pencil_rows(Q, *_decaying_pencil(w)))
             for w in windows]
    for k in range(1, len(windows)):
        value, tail = det_truncated(Q, *_decaying_pencil(windows[k]), windows[:k + 1])
        assert value.coeffs == alone[k].coeffs
        assert tail == alone[k].sub(alone[k - 1]).sup_seminorm()


@pytest.mark.parametrize("windows", [[6, 4], [4, 4, 6], [4, 8, 6]])
def test_truncated_determinant_rejects_unordered_windows(windows):
    with pytest.raises(ValueError, match="strictly increasing"):
        det_truncated(Q, *_decay_pencil(windows[-1]), windows)


def test_truncated_determinant_samples_at_row_degree(monkeypatch):
    # P0 and P1 of the half-lattice matrix share only the rows
    # min d <= n < max d over a's support, so only those 3 rows carry w:
    # every other row is eliminated once, each window's block (45 and 16
    # rows) in one matrix, and only the 3 x 3 remainders are sampled, at the
    # next power of two >= max d - min d + 1 roots of unity (4 here); no
    # sample is a window-size matrix
    C = wl.complex_ring()
    factors = [wl.Antiholo(0.3 + 0.2j), wl.Antiholo(-0.2 + 0.1j), wl.Holo(-0.4 + 0.1j)]
    pair = wl.invert_from_factors(C, factors, (-48, 48))
    lo, hi = pair.a._supp_bounds()
    bound = 1 << (hi - lo).bit_length()  # 2^ceil(log2(max d - min d + 1))
    assert bound == 4
    wl.pi_plus(pair)  # the outer projections' determinants, kept on the pair
    shapes = []
    det = np.linalg.det

    def spy(mats):
        shapes.append(np.shape(mats))
        return det(mats)

    monkeypatch.setattr(np.linalg, "det", spy)
    wl.pi_tilde_direct(pair, windows=(24, 32))
    assert not any(shape[-1] in (48, 64) for shape in shapes)
    assert sorted(shape for shape in shapes if len(shape) == 2) == [(16, 16), (45, 45)]
    samples = [shape for shape in shapes if len(shape) > 2]
    assert samples and all(shape[0] <= bound and shape[-2:] == (3, 3) for shape in samples)


@pytest.mark.parametrize("windows", [("8", "16"), (24.0, 32.0), [2.0, 4.0], ["2", "4"]])
def test_truncated_determinant_rejects_non_integer_windows(windows):
    pair = wl.invert_from_factors(Q, [wl.Antiholo(Fraction(1, 3)), wl.Holo(Fraction(1, 4))],
                                  (-32, 32))
    with pytest.raises(ValueError, match="windows must be integers"):
        wl.pi_tilde_direct(pair, windows=windows)
    with pytest.raises(ValueError, match="windows must be integers"):
        det_truncated(Q, *_decay_pencil(4), windows)


def test_truncated_determinant_takes_numpy_integer_windows():
    pair = wl.invert_from_factors(Q, [wl.Antiholo(Fraction(1, 3)), wl.Holo(Fraction(1, 4))],
                                  (-32, 32))
    for call, windows in [(lambda w: wl.pi_tilde_direct(pair, windows=w), [4, 8]),
                          (lambda w: det_truncated(Q, *_decay_pencil(4), w), [2, 4])]:
        value, tail = call([np.int64(windows[0]), np.int32(windows[1])])
        want, want_tail = call(windows)
        assert (value.coeffs, tail) == (want.coeffs, want_tail)


@pytest.mark.parametrize("windows", [[-1, 4], [0, 4]])
def test_truncated_determinant_rejects_windows_below_one(windows):
    # an empty window's block would read as determinant 1
    with pytest.raises(ValueError, match="at least 1"):
        det_truncated(Q, *_decay_pencil(windows[-1]), windows)


def test_pi_tilde_direct_rejects_windows_below_one():
    pair = wl.invert_from_factors(Q, [wl.Antiholo(Fraction(1, 3)), wl.Holo(Fraction(1, 4))],
                                  (-32, 32))
    for windows in [(0, 4, 8), (-4, 8)]:
        with pytest.raises(ValueError, match="at least 1"):
            wl.pi_tilde_direct(pair, windows=windows)


# rows of an 8-square pencil whose inner window is rows and columns 2..5:
# "p0" and "p1" rows have only that part, "both" rows both, "zero" rows
# neither, an "edge" row both but only outside the inner columns, and a
# "split" row P1 on every column but P0 only outside the inner ones, so
# that it is mixed on the largest window and pure P1 on the inner one
NESTED_ROWS = {
    "edge": ["both", "p1", "edge", "p0", "both", "p1", "p0", "both"],
    "outer_zero": ["zero", "p0", "p1", "both", "both", "p0", "p1", "both"],
    "mixed": ["p1", "p0", "both", "split", "p0", "both", "p1", "p0"],
}


def _nested_component(zero, coeff, kinds):
    inner = range(2, 6)

    def part(kind, which, col):
        if kind == "edge" or (kind, which) == ("split", "p0"):
            return zero if col in inner else coeff()
        return coeff() if kind in (which, "both", "split") else zero

    p0 = [[part(kind, "p0", col) for col in range(8)] for kind in kinds]
    p1 = [[part(kind, "p1", col) for col in range(8)] for kind in kinds]
    return p0, p1


def _nested_pencil(ring_name, case, rng):
    """``(ring, p0, p1)``: an 8-square pencil with the rows of
    ``NESTED_ROWS[case]``; over a product ring the second component trades
    the kinds ``p0`` -> ``p1`` -> ``both`` -> ``p0`` row by row, so that
    each component has its own row bounds."""
    C = wl.complex_ring()

    def cplx():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    base, coeff = (Q, lambda: rand_q(rng)) if ring_name.startswith("Q") else (C, cplx)
    kinds = NESTED_ROWS[case]
    if "^" not in ring_name:
        return (base,) + _nested_component(base.zero, coeff, kinds)
    traded = [{"p0": "p1", "p1": "both", "both": "p0"}.get(k, k) for k in kinds]
    parts = [_nested_component(base.zero, coeff, k) for k in (kinds, traded)]
    p0, p1 = ([[tuple(xs) for xs in zip(*rows)] for rows in zip(*(p[i] for p in parts))]
              for i in (0, 1))
    return wl.product_ring(base, 2), p0, p1


@pytest.mark.parametrize("case", sorted(NESTED_ROWS))
@pytest.mark.parametrize("ring_name", ["Q", "Q^2", "C", "C^2"])
def test_nested_windows_equal_each_window_alone(ring_name, case):
    # every window's value, read from the one shift and sampling of the
    # largest window, is the determinant of its own pencil computed alone
    rng = random.Random("nested:%s:%s" % (ring_name, case))
    ring, p0, p1 = _nested_pencil(ring_name, case, rng)
    shifts = [-1] * 4 + [0] * 4
    Rw = laurent_ring(ring, "w")
    alone = []
    for lo, hi in [(2, 6), (0, 8)]:
        rows = _pencil_rows(ring, [r[lo:hi] for r in p0[lo:hi]], [r[lo:hi] for r in p1[lo:hi]],
                            shifts[lo:hi])
        alone.append(det_berkowitz(Rw, rows))
    pencil = np.stack([ring_array(ring, p0), ring_array(ring, p1)])
    nested = [v.shift(sum(shifts[(8 - size) // 2:(8 + size) // 2]))
              for v, size in zip(_det_rows(ring, pencil, [4, 8]), [4, 8])]
    value, tail = det_truncated(ring, p0, p1, shifts, [2, 4])
    assert [v.is_zero() for v in alone] == {"edge": [True, False], "outer_zero": [False, True],
                                            "mixed": [False, False]}[case]
    if ring.is_exact:
        assert [v.coeffs for v in nested] == [v.coeffs for v in alone]
        assert value.coeffs == alone[1].coeffs
        assert tail == alone[1].sub(alone[0]).sup_seminorm()
    else:
        assert all(v.sup_diff(w) < 1e-12 for v, w in zip(nested, alone))
        assert value.sup_diff(alone[1]) < 1e-12
        assert abs(tail - alone[1].sub(alone[0]).sup_seminorm()) < 1e-12


def test_truncated_determinant_samples_once(monkeypatch):
    # the pencil is sampled once, on the largest window: each smaller
    # window's sample matrices are exactly the centred sub-blocks of the
    # largest window's, one batched determinant per window; the split row
    # is shifted by the largest window's bound, not by its own on the inner
    rng = random.Random(31)
    _ring, p0, p1 = _nested_pencil("C", "mixed", rng)
    seen = []
    det = np.linalg.det

    def spy(mats):
        seen.append(np.array(mats))
        return det(mats)

    monkeypatch.setattr(np.linalg, "det", spy)
    det_truncated(wl.complex_ring(), p0, p1, [-1] * 4 + [0] * 4, [2, 4])
    assert [m.shape for m in seen] == [(4, 4, 4), (4, 8, 8)]  # 3 mixed rows: 4 points
    assert np.array_equal(seen[0], seen[1][:, 2:6, 2:6])


# w-rows of a 12-square pencil on [-6, 6) with windows 2, 4, 6: all inside the
# inner window, one only in the outer border, one in each border, or all
# inside with a zero row in the middle border (the two outer windows read 0)
ELIMINATED_ROWS = {"inner": ([-1, 0], None), "outer": ([4], None),
                   "each": ([0, -3, 5], None), "zero_border": ([-1, 0], -4)}


def _near_identity_component(wrows, zero_row, rng):
    """A complex pencil near diag(w 1_{n<0} + 1_{n>=0}) on [-6, 6): a w-free
    row n has only its P0 part (n >= 0) or only its P1 part (n < 0), a row
    in ``wrows`` has both (each half the diagonal) and ``zero_row`` neither.
    Every other entry is at most 0.04 sqrt(2) in modulus, so the w-free rows
    are strictly diagonally dominant; with entries that decay like
    :func:`_decaying_pencil`'s, Berkowitz over ``C[w]``, the reference, is
    itself off by up to 1.6e-7 on the largest window."""
    idx = range(-6, 6)

    def small(n, m):
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 0.04

    p0 = [[(n == m) * (0.5 if n in wrows else n >= 0) + small(n, m) for m in idx] for n in idx]
    p1 = [[(n == m) * (0.5 if n in wrows else n < 0) + small(n, m) for m in idx] for n in idx]
    for i, n in enumerate(idx):
        if n == zero_row or (n not in wrows and n >= 0):
            p1[i] = [0j] * 12
        if n == zero_row or (n not in wrows and n < 0):
            p0[i] = [0j] * 12
    return p0, p1


def _near_identity_pencil(ring_name, case, rng):
    """``(ring, p0, p1)`` of :func:`_near_identity_component`; over ``C^2``
    the second component mirrors the w-rows and the zero row, n -> -1 - n,
    so that each component has its own order."""
    wrows, zero_row = ELIMINATED_ROWS[case]
    C = wl.complex_ring()
    first = _near_identity_component(wrows, zero_row, rng)
    if ring_name == "C":
        return (C,) + first
    mirror = _near_identity_component([-1 - n for n in wrows],
                                      None if zero_row is None else -1 - zero_row, rng)
    p0, p1 = ([[tuple(xs) for xs in zip(r, s)] for r, s in zip(first[i], mirror[i])]
              for i in (0, 1))
    return wl.product_ring(C, 2), p0, p1


def _spy_eliminated(monkeypatch):
    """Record whether each :func:`determinants._eliminated` call eliminated
    (True) or left the call to whole-window sampling (False)."""
    taken = []
    eliminated = determinants._eliminated

    def spy(*args):
        vals = eliminated(*args)
        taken.append(vals is not None)
        return vals

    monkeypatch.setattr(determinants, "_eliminated", spy)
    return taken


def _assert_windows_alone(ring, p0, p1, windows=(2, 4, 6)):
    """Every window's value, from one :func:`_det_rows` call, and
    :func:`det_truncated`'s value and tail equal each window's pencil computed
    alone by Berkowitz, within 1e-12, and so does ``det_block`` of the
    largest window (one window); ``det_truncated`` reads the last two
    windows, since these pencils do not decay and their tails need not
    decrease."""
    shifts = [-1] * 6 + [0] * 6
    Rw = laurent_ring(ring, "w")
    alone = []
    for wsize in windows:
        cut = slice(6 - wsize, 6 + wsize)
        alone.append(det_berkowitz(Rw, _pencil_rows(ring, [r[cut] for r in p0[cut]],
                                                    [r[cut] for r in p1[cut]], shifts[cut])))
    pencil = np.stack([ring_array(ring, p0), ring_array(ring, p1)])
    nested = _det_rows(ring, pencil, [2 * wsize for wsize in windows])
    for v, want, wsize in zip(nested, alone, windows):
        assert v.shift(-wsize).sup_diff(want) < 1e-12
    # det_block reads no column shifts, which would give every row two exponents
    block = det_block(Rw, _pencil_rows(ring, p0, p1, [0] * 12)).shift(sum(shifts))
    assert block.sup_diff(alone[-1]) < 1e-12
    value, tail = det_truncated(ring, p0, p1, shifts, list(windows[-2:]))
    assert value.sup_diff(alone[-1]) < 1e-12
    assert abs(tail - alone[-1].sub(alone[-2]).sup_seminorm()) < 1e-12
    return alone


@pytest.mark.parametrize("case", sorted(ELIMINATED_ROWS))
@pytest.mark.parametrize("ring_name", ["C", "C^2"])
def test_eliminated_windows_equal_each_window_alone(ring_name, case, monkeypatch):
    # the w-free rows are eliminated once for all windows and only the
    # remainders on the w-rows are sampled; each window's value is still
    # the determinant of its own pencil
    rng = random.Random("eliminated:%s:%s" % (ring_name, case))
    ring, p0, p1 = _near_identity_pencil(ring_name, case, rng)
    taken = _spy_eliminated(monkeypatch)
    alone = _assert_windows_alone(ring, p0, p1)
    assert taken and all(taken)
    assert [v.is_zero() for v in alone] == [False] + [case == "zero_border"] * 2


@pytest.mark.parametrize("ring_name", ["C", "C^2"])
def test_a_non_dominant_row_samples_whole_windows(ring_name, monkeypatch):
    # one w-free row whose off-diagonal entries outweigh its diagonal: the
    # call falls back to sampling every window whole, with the same values
    rng = random.Random("dominance:%s" % ring_name)
    ring, p0, p1 = _near_identity_pencil(ring_name, "inner", rng)
    row = 8  # n = 2: w-free, P0 only, in the middle border
    p0[row][3] = (1.5 * p0[row][row] if ring_name == "C"
                  else tuple(1.5 * x for x in p0[row][row]))
    taken = _spy_eliminated(monkeypatch)
    sampled = []
    poly_det = determinants._poly_det

    def spy(ring, coef, windows):
        sampled.extend(size for size, _deg in windows)
        return poly_det(ring, coef, windows)

    monkeypatch.setattr(determinants, "_poly_det", spy)
    _assert_windows_alone(ring, p0, p1)
    assert taken and not any(taken)
    assert set(sampled) == {4, 8, 12}


def test_random_pencils_sample_whole_windows(monkeypatch):
    # the random pencils of the tests above have w-free rows that are not
    # diagonally dominant, so those tests still cover whole-window sampling
    taken = _spy_eliminated(monkeypatch)
    for ring_name in ["C", "C^2"]:
        test_pencil_row_shifts_exact(ring_name)
        for case in sorted(NESTED_ROWS):
            test_nested_windows_equal_each_window_alone(ring_name, case)
    test_truncated_determinant_samples_once(monkeypatch)
    assert taken and not any(taken)
