"""Determinant engine: division-free core, fast dense paths, reductions of
identity-plus-perturbation operators, and nested-window truncations."""

import random
from fractions import Fraction

import pytest

import whlaurent as wl
from whlaurent import matrices as mx
from whlaurent.determinants import (DetValue, det_berkowitz, det_block,
                                    det_identity_plus,
                                    det_tilde_column_reduced, det_truncated,
                                    _column_bounds, _det_series_rational,
                                    _det_series_complex)
from whlaurent.factorization import (antiholomorphic_det_matrix,
                                     holomorphic_det_matrix)
from whlaurent.matrices import Lattice
from whlaurent.rings import RingError
from whlaurent.series import LaurentSeries, WindowError, laurent_ring

from conftest import det_cofactor, worked_pair

Q = wl.rational_ring()
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


def test_interpolation_path_matches_division_free():
    Qw = laurent_ring(Q, "w")
    rng = random.Random(5)
    n = 7
    rows = [[LaurentSeries(Q, {k: rand_q(rng) for k in range(-1, 2)
                               if rng.random() < 0.8})
             for _ in range(n)] for _ in range(n)]
    fast = _det_series_rational(Qw, rows)
    slow = det_berkowitz(Qw, rows)
    assert fast.coeffs == slow.coeffs
    # det_block dispatches the same way for blocks above the direct cutoff
    assert det_block(Qw, rows).coeffs == slow.coeffs


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
        (3, (-1, 1), 0.2, 2),  # C^2, through det_block's componentwise split
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
        fast = _det_series_complex(Rw, rows) if arity == 1 else det_block(Rw, rows)
        slow = det_berkowitz(Rw, rows)
        assert fast.sup_diff(slow) < 1e-10, (n, lo, hi, arity)


def _unequal_span_rows(ring, coeff, n, zero_column):
    """Column 0 holds only negative exponents, column 1 only constants (or
    nothing), column 2 spans [-2, 4] and the rest [0, 1]."""
    spans = [(-3, -2), (0, 0), (-2, 4)] + [(0, 1)] * (n - 3)
    return [[LaurentSeries.zero(ring) if j == 1 and zero_column else
             LaurentSeries(ring, {k: coeff() for k in range(lo, hi + 1)})
             for j, (lo, hi) in enumerate(spans)] for _ in range(n)]


@pytest.mark.parametrize("zero_column", [False, True])
def test_column_bounds_exact_on_unequal_column_spans(zero_column):
    # the determinant is w^-5 times a polynomial of degree n + 4 = 11,
    # where one bound for all entries gave n * (4 + 3) = 49
    n = 7
    rng = random.Random(15)
    Qw = laurent_ring(Q, "w")
    rows = _unequal_span_rows(Q, lambda: rand_q(rng), n, zero_column)
    assert _column_bounds(rows) == ([-3, 0, -2] + [0] * (n - 3), n + 4)
    want = det_berkowitz(Qw, rows)
    assert _det_series_rational(Qw, rows).coeffs == want.coeffs
    assert zero_column == want.is_zero()

    C = wl.complex_ring()
    Cw = laurent_ring(C, "w")

    def cplx():
        # coefficients below 1 in modulus keep the determinant's coefficients
        # near 1, so that 1e-12 is a relative bound
        return complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))

    rows = _unequal_span_rows(C, cplx, n, zero_column)
    assert _det_series_complex(Cw, rows).sup_diff(det_berkowitz(Cw, rows)) < 1e-12

    C2 = wl.product_ring(C, 2)
    C2w = laurent_ring(C2, "w")
    rows = _unequal_span_rows(C2, lambda: (cplx(), cplx()), n, zero_column)
    assert det_block(C2w, rows).sup_diff(det_berkowitz(C2w, rows)) < 1e-12


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


def test_oversized_block_rejected():
    rows = [[Q.one] * 70 for _ in range(70)]
    with pytest.raises(RingError):
        det_block(Q, rows)


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
        # all reduction axes agree with the dense support-union block
        idx = sorted({r for r, _ in ents} | {c for _, c in ents})
        dense = [[Q.add(Q.one if r == c else Q.zero, a.get(r, c))
                  for c in idx] for r in idx]
        want = det_cofactor(Q, dense)
        for axis in ("rows", "cols", "auto"):
            assert det_identity_plus(a, axis=axis).value == want


def test_identity_plus_boundary_guard():
    ents = {(WIN[0], 0): Fraction(1)}
    a = mx.WindowedMatrix(Q, Lattice.INTEGER, WIN, ents, 14, WIN)
    with pytest.raises(WindowError):
        det_identity_plus(a, axis="rows")


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
                reduced = det_tilde_column_reduced(variant, A, w).value
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


def test_truncated_determinant_converges():
    # diagonal 1 + 2^-|n| decay: the nested values stabilize
    def entry(n, m):
        if n != m:
            return LaurentSeries.zero(Q)
        return LaurentSeries(Q, {0: 1 + Fraction(1, 2) ** min(abs(n), 20)})

    Qz = laurent_ring(Q, "z")
    det = det_truncated(entry, Qz, [4, 6, 8])
    assert det.tail is not None and det.window_used == 8
    det2 = det_truncated(entry, Qz, [6, 8, 10])
    # deeper windows only multiply in factors closer to 1
    assert det2.tail <= det.tail


def test_truncated_determinant_rejects_growing_tail():
    rng = random.Random(9)

    def entry(n, m):
        return LaurentSeries(Q, {0: Fraction(rng.randint(-3, 3), 2)})

    Qz = laurent_ring(Q, "z")
    with pytest.raises(WindowError):
        det_truncated(entry, Qz, [2, 3, 4, 5])


def test_truncated_determinant_needs_two_windows():
    Qz = laurent_ring(Q, "z")
    with pytest.raises(ValueError):
        det_truncated(lambda n, m: Qz.one, Qz, [4])


def _diagonal_decay_entry(n, m):
    if n != m:
        return LaurentSeries.zero(Q)
    return LaurentSeries(Q, {0: 1 + Fraction(1, 2) ** min(abs(n), 20)})


def test_truncated_determinant_builds_largest_window_once():
    Qz = laurent_ring(Q, "z")
    windows = [4, 6, 8]
    calls = []

    def entry(n, m):
        calls.append((n, m))
        return _diagonal_decay_entry(n, m)

    det = det_truncated(entry, Qz, windows)
    assert len(calls) == (2 * max(windows)) ** 2
    # reference: every window built on its own
    vals = [det_block(Qz, [[_diagonal_decay_entry(n, m) for m in range(-w, w)]
                           for n in range(-w, w)]) for w in windows]
    assert det.value.coeffs == vals[-1].coeffs
    assert det.tail == Qz.seminorm(Qz.sub(vals[-1], vals[-2]))


@pytest.mark.parametrize("windows", [[6, 4], [4, 4, 6], [4, 8, 6]])
def test_truncated_determinant_rejects_unordered_windows(windows):
    Qz = laurent_ring(Q, "z")
    with pytest.raises(ValueError, match="strictly increasing"):
        det_truncated(lambda n, m: Qz.one, Qz, windows)
