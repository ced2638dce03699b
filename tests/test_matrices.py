"""Windowed matrices: multiplication representations, reflection factors,
and the closed-form conjugated shifts."""

import random
from fractions import Fraction

import pytest

import whlaurent as wl
from whlaurent import matrices as mx
from whlaurent.matrices import Lattice
from whlaurent.series import LaurentSeries, WindowError, laurent_ring

from conftest import reference_shift_entries, symbolic_tw

Q = wl.rational_ring()
WIN = (-10, 10)


def assert_equal_on(m1, m2, window):
    lo, hi = window
    for r in range(lo, hi + 1):
        for c in range(lo, hi + 1):
            assert m1.ring.equals(m1.get(r, c), m2.get(r, c)), (r, c)


def test_multiplication_matrix_is_multiplicative():
    rng = random.Random(1)
    for _ in range(10):
        a = LaurentSeries(Q, {n: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                              for n in range(-2, 3)})
        b = LaurentSeries(Q, {n: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                              for n in range(-2, 3)})
        ua, ub = mx.build_U(a, Lattice.INTEGER, WIN), mx.build_U(b, Lattice.INTEGER, WIN)
        prod = mx.mat_mul(ua, ub)
        uab = mx.build_U(a.mul(b), Lattice.INTEGER, WIN)
        assert_equal_on(prod, uab, prod.reliable)


def test_reflection_factor_splits():
    Qw = laurent_ring(Q, "w")
    w = LaurentSeries.monomial(Q, 1)
    t = Qw.const(Fraction(1, 2))
    full = mx.build_F("R", Qw, t, w, WIN)
    plus = mx.build_F("R+", Qw, t, w, WIN)
    minus = mx.build_F("R-", Qw, t, w, WIN)
    prod = mx.mat_mul(plus, minus)
    assert_equal_on(prod, full, prod.reliable)
    # the two halves commute
    assert_equal_on(mx.mat_mul(minus, plus), prod, prod.reliable)


def test_reflection_factor_entries():
    Qw = laurent_ring(Q, "w")
    w = LaurentSeries.monomial(Q, 1)
    f = mx.build_F("R", Qw, Qw.one, w, WIN)
    assert f.get(-3, -2).coeffs == {1: Fraction(-1)}   # -w above the diagonal
    assert f.get(3, 2).coeffs == {-1: Fraction(-1)}    # -w^-1 below it
    # the upper chain lives on rows <= -1, the lower on rows >= 1
    assert f.get(0, 1).coeffs == {}
    assert f.get(-1, 0).coeffs == {1: Fraction(-1)}
    assert f.get(1, 0).coeffs == {-1: Fraction(-1)}
    assert f.get(0, 0).coeffs == {0: Fraction(1)}


def test_doubled_matrix_coupling_entries():
    a = LaurentSeries(Q, {-2: Fraction(1, 3), 0: Fraction(1), 2: Fraction(-2)})
    Qw = laurent_ring(Q, "w")
    w = LaurentSeries.monomial(Q, 1)
    u = mx.build_Utilde(a, Qw, w, Qw.const, WIN)
    # interior blocks carry plain coefficients
    assert u.get(-3, -1).coeffs == {0: Fraction(1, 3)}
    assert u.get(3, 1).coeffs == {0: Fraction(-2)}
    # the (negative, positive) block carries -w, the mirror carries -w^-1
    assert u.get(-1, 1).coeffs == {1: Fraction(-1, 3)}
    assert u.get(1, -1).coeffs == {-1: Fraction(2)}
    # the center is an isolated 1
    assert u.get(0, 0).coeffs == {0: Fraction(1)}
    assert u.get(0, 2).coeffs == {} and u.get(2, 0).coeffs == {}


@pytest.mark.parametrize("variant", ["R", "+", "-"])
@pytest.mark.parametrize("n", [-3, -2, -1, 1, 2, 3])
def test_conjugated_shift_matches_reference_entries(variant, n):
    Qtw, t, w, _embed = symbolic_tw()
    got = mx.ur_monomial(variant, n, Qtw, t, w, WIN)
    want = reference_shift_entries(variant, n, Qtw, t, w, WIN)
    keys = set(got.entries) | set(want)
    for key in keys:
        assert Qtw.equals(got.entries.get(key, Qtw.zero),
                          want.get(key, Qtw.zero)), (variant, n, key)


@pytest.mark.parametrize("variant,fvariant", [("R", "R"), ("+", "R+"), ("-", "R-")])
@pytest.mark.parametrize("n", [-2, -1, 1, 2])
def test_conjugation_identity_symbolic(variant, fvariant, n):
    # U^X(z^n, t, w) F^X(t, w) = F^X(t, w) U(z^n), symbolically in t and w
    Qtw, t, w, embed = symbolic_tw()
    ux = mx.ur_monomial(variant, n, Qtw, t, w, WIN)
    f = mx.build_F(fvariant, Qtw, t, w, WIN)
    shift = mx.build_U(LaurentSeries.monomial(Q, n), Lattice.INTEGER, WIN,
                       entry_ring=Qtw, embed=embed)
    lhs = mx.mat_mul(ux, f)
    rhs = mx.mat_mul(f, shift)
    lo = max(lhs.reliable[0], rhs.reliable[0])
    hi = min(lhs.reliable[1], rhs.reliable[1])
    assert_equal_on(lhs, rhs, (lo, hi))


def test_conjugate_ur_is_linear_in_the_symbol():
    Qtw, t, w, embed = symbolic_tw()
    a = LaurentSeries(Q, {-1: Fraction(1, 2), 1: Fraction(-3), 2: Fraction(1, 5)})
    whole = mx.conjugate_UR(a, "R", Qtw, t, w, embed, WIN)
    parts = None
    for d, c in a.coeffs.items():
        piece = mx.scale(mx.ur_monomial("R", d, Qtw, t, w, WIN), embed(c))
        parts = piece if parts is None else mx.mat_add(parts, piece)
    assert_equal_on(whole, parts, whole.reliable)


def test_column_shift_moves_entries_right():
    m = mx.identity(Q, Lattice.INTEGER, WIN)
    s = mx.column_shift(m, 2)
    assert s.get(0, 2) == Fraction(1) and s.get(0, 0) == Fraction(0)
    assert s.reliable == (-8, 8)


def test_projections_split_the_identity():
    for lattice in (Lattice.INTEGER, Lattice.HALF):
        parts = [mx.project(Q, lattice, WIN, s) for s in "-0+"]
        total = mx.mat_add(mx.mat_add(parts[0], parts[1]), parts[2])
        assert_equal_on(total, mx.identity(Q, lattice, WIN), WIN)
    # the half lattice has no zero index
    assert not mx.project(Q, Lattice.HALF, WIN, "0").entries


def test_dump_separators():
    m = mx.identity(Q, Lattice.INTEGER, (-2, 2))
    text = m.dump()
    lines = text.splitlines()
    # two separator rows (after index -1 and after index 0)
    seps = [i for i, l in enumerate(lines) if set(l) == {"-"}]
    assert len(seps) == 2
    # each entry row carries two column separators
    assert all(l.count("|") == 2 for l in lines if "[" in l)
    half = mx.identity(Q, Lattice.HALF, (-2, 2)).dump()
    assert half.splitlines()[0].startswith("-3/2")
    assert sum(1 for l in half.splitlines() if set(l) == {"-"}) == 1


def test_matrix_window_mismatch_raises():
    a = mx.identity(Q, Lattice.INTEGER, WIN)
    b = mx.identity(Q, Lattice.INTEGER, (-5, 5))
    with pytest.raises(WindowError):
        mx.mat_mul(a, b)
    with pytest.raises(WindowError):
        mx.mat_add(a, b)


def test_product_reliable_window_uses_smaller_band():
    a = LaurentSeries(Q, {1: Fraction(1)})
    wide = LaurentSeries(Q, {n: Fraction(1, 2) ** abs(n) for n in range(-6, 7)})
    ua = mx.build_U(a, Lattice.INTEGER, WIN)
    uw = mx.build_U(wide, Lattice.INTEGER, WIN)
    prod = mx.mat_mul(ua, uw)
    # the band-1 factor pins the summation index: only one index lost per side
    assert prod.reliable == (-9, 9)
