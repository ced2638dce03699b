"""Acceptance suite: one test per headline guarantee, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
are produced.
"""

import random
import time
from fractions import Fraction

import whlaurent as wl
from whlaurent import matrices as mx
from whlaurent.corpus import (random_complex_factors, random_orthogonal_pair,
                              random_rational_factors, random_rational_parameter)
from whlaurent.matrices import (Lattice, WindowedMatrix, antiholomorphic_det_matrix,
                                det_identity_plus, det_tilde_column_reduced,
                                holomorphic_det_matrix)
from whlaurent.oracle import cepstral_factorize, compare, root_split_factorize
from whlaurent.series import LaurentSeries, laurent_ring

from conftest import reference_shift_entries, symbolic_tw
from test_determinants import _dense_reflection_det

Q = wl.rational_ring()
C = wl.complex_ring()


def report(num, label, ok):
    print("criterion %d (%s): %s" % (num, label, "PASS" if ok else "FAIL"),
          flush=True)
    assert ok, "criterion %d failed" % num


def test_criterion_1_exact_reconstruction():
    rng = random.Random(101)
    t0 = time.time()
    ok = True
    for _ in range(200):
        factors = random_rational_factors(rng, max_factors=3)
        pair = wl.invert_from_factors(Q, factors, (-48, 48))
        res = wl.factorize(pair)
        ok = ok and res.residual == 0.0
    elapsed = time.time() - t0
    report(1, "exact reconstruction of 200 rational symbols in %.1fs" % elapsed,
           ok and elapsed < 60.0)


def test_criterion_2_projection_homomorphism():
    rng = random.Random(102)
    ok = True
    for _ in range(100):
        f1 = random_rational_factors(rng, max_factors=2)
        f2 = random_rational_factors(rng, max_factors=2)
        r1 = wl.factorize(wl.invert_from_factors(Q, f1, (-48, 48)))
        r2 = wl.factorize(wl.invert_from_factors(Q, f2, (-48, 48)))
        r12 = wl.factorize(wl.invert_from_factors(Q, f1 + f2, (-48, 48)))
        ok = ok and r12.pi_plus.equals(r1.pi_plus.mul(r2.pi_plus))
        ok = ok and r12.pi_minus.equals(r1.pi_minus.mul(r2.pi_minus))
        ok = ok and r12.pi_tilde.equals(r1.pi_tilde.mul(r2.pi_tilde))
    for _ in range(100):
        f1 = random_complex_factors(rng, n_factors=2)
        f2 = random_complex_factors(rng, n_factors=2)
        r1 = wl.factorize(wl.invert_from_factors(C, f1, (-48, 48)))
        r2 = wl.factorize(wl.invert_from_factors(C, f2, (-48, 48)))
        r12 = wl.factorize(wl.invert_from_factors(C, f1 + f2, (-48, 48)))
        ok = ok and r12.pi_plus.sup_diff(r1.pi_plus.mul(r2.pi_plus)) <= 1e-9
        ok = ok and r12.pi_minus.sup_diff(r1.pi_minus.mul(r2.pi_minus)) <= 1e-9
        ok = ok and r12.pi_tilde.sup_diff(r1.pi_tilde.mul(r2.pi_tilde)) <= 1e-9
    report(2, "projections are homomorphisms, 100 rational + 100 complex pairs", ok)


def test_criterion_3_triviality():
    rng = random.Random(103)
    one = LaurentSeries.one(Q)
    ok = True
    for _ in range(50):
        factors = random_rational_factors(rng, max_factors=3, kinds=("holo",))
        res = wl.factorize(wl.invert_from_factors(Q, factors, (-48, 48)))
        ok = ok and res.pi_minus.equals(one) and res.pi_tilde.equals(one)
    for _ in range(50):
        factors = random_rational_factors(rng, max_factors=3, kinds=("antiholo",))
        res = wl.factorize(wl.invert_from_factors(Q, factors, (-48, 48)))
        ok = ok and res.pi_plus.equals(one) and res.pi_tilde.equals(one)
    for arity in (2, 3):
        for _ in range(25):
            pair = random_orthogonal_pair(arity, rng)
            res = wl.factorize(pair)
            r_one = LaurentSeries.one(pair.a.ring)
            ok = ok and res.pi_plus.equals(r_one) and res.pi_minus.equals(r_one)
            ok = ok and res.pi_tilde.equals(pair.a)
    report(3, "one-sided and orthogonal inputs leave the other factors at 1", ok)


def test_criterion_4_idempotent_laws():
    rng = random.Random(104)
    ok = True
    for arity in (2, 3):
        for _ in range(25):
            pair = random_orthogonal_pair(arity, rng)
            dec = wl.orthogonal_decompose(pair)
            ring = dec.ring
            total = ring.zero
            for n, p in dec.idempotents.items():
                ok = ok and ring.equals(ring.mul(p, p), p)
                total = ring.add(total, p)
                for m, q in dec.idempotents.items():
                    if m != n:
                        ok = ok and ring.is_zero(ring.mul(p, q))
            ok = ok and ring.equals(total, ring.one)
            a, b = pair.a, pair.b
            for n in a.support():
                for m, q in dec.idempotents.items():
                    want_a = a.coeffs[n] if n == m else ring.zero
                    want_b = b.coeff(-n) if n == m else ring.zero
                    ok = ok and ring.equals(ring.mul(a.coeffs[n], q), want_a)
                    ok = ok and ring.equals(ring.mul(b.coeff(-n), q), want_b)
    report(4, "idempotent partition and subordination on 50 orthogonal symbols", ok)


def test_criterion_5_oracle_agreement():
    rng = random.Random(105)
    ok = True
    worst = 0.0
    for _ in range(100):
        factors = random_complex_factors(rng, n_factors=3)
        pair = wl.invert_from_factors(C, factors, (-24, 24))
        engine = wl.factorize(pair)
        for orc in (cepstral_factorize(pair.a), root_split_factorize(pair.a)):
            rep = compare(engine, orc)
            worst = max(worst, rep.max_diff)
            ok = ok and rep.winding_equal
    ok = ok and worst <= 1e-8
    report(5, "100 complex symbols vs both classical oracles, max diff %.1e" % worst, ok)


def test_criterion_6_golden_shift_matrices():
    Qtw, t, w, _embed = symbolic_tw()
    win = (-8, 8)
    ok = True
    for variant in ("R", "+", "-"):
        for n in (-3, -2, -1, 1, 2, 3):
            got = mx.ur_monomial(variant, n, Qtw, t, w, win)
            want = reference_shift_entries(variant, n, Qtw, t, w, win)
            for key in set(got.entries) | set(want):
                ok = ok and Qtw.equals(got.entries.get(key, Qtw.zero),
                                       want.get(key, Qtw.zero))
    report(6, "conjugated shift matrices match the displayed closed forms", ok)


def _rand_block(rng, window, radius=1):
    ents = {}
    for r in range(-radius, radius + 1):
        for c in range(-radius, radius + 1):
            if rng.random() < 0.7:
                ents[(r, c)] = random_rational_parameter(rng)
    return WindowedMatrix(Q, Lattice.INTEGER, window, ents, 2 * radius, window)


def _lemma_a_instance(rng):
    # det(1 + A) = det(1 + T A T^-1) for invertible banded T = U(a)
    win = (-30, 30)
    facs = random_rational_factors(rng, max_factors=2)
    pair = wl.invert_from_factors(Q, facs, (-90, 90))
    ua = mx.build_U(pair.a, Lattice.INTEGER, win)
    ub = mx.build_U(pair.b, Lattice.INTEGER, win)
    a_block = _rand_block(rng, win)
    lhs = det_identity_plus(a_block)
    conj = mx.mat_mul(mx.mat_mul(ua, a_block), ub)
    rhs = det_identity_plus(conj)
    return lhs == rhs


def _lemma_b_instance(rng):
    # the commutator determinant of a product splits into the factors'
    # commutator determinants: here [F^R, U(a)] = [F^{R+}, U(a)] [F^{R-}, U(a)]
    win = (-14, 14)
    Qtw, t, w, embed = symbolic_tw()
    facs = random_rational_factors(rng, max_factors=2)
    pair = wl.invert_from_factors(Q, facs, (-54, 54))
    ua = mx.build_U(pair.a, Lattice.INTEGER, win, entry_ring=Qtw, embed=embed)
    ub = mx.build_U(pair.b, Lattice.INTEGER, win, entry_ring=Qtw, embed=embed)
    dets = {}
    for variant in ("R", "+", "-"):
        ux = mx.conjugate_UR(pair.a, variant, Qtw, t, w, embed, win)
        diff = mx.mat_sub(ux, ua)
        dmat = mx.mat_mul(diff, ub)
        dets[variant] = det_identity_plus(dmat)
    return dets["R"].equals(dets["+"].mul(dets["-"]))


def _lemma_c_instance(rng):
    # det((T1' T2')(T1 T2)^-1) = det(T1' T1^-1) det(T2' T2^-1) with
    # Ti' = Ti (1 + A_i): expand both sides into finite perturbations
    win = (-30, 30)
    facs = random_rational_factors(rng, max_factors=2)
    p1 = wl.invert_from_factors(Q, facs, (-90, 90))
    pshift = rng.randint(-2, 2)
    unit = Fraction(rng.choice([1, -1, 2]))
    s2 = LaurentSeries(Q, {pshift: unit})
    s2i = LaurentSeries(Q, {-pshift: 1 / unit})
    u = lambda s: mx.build_U(s, Lattice.INTEGER, win)
    a1, a2 = _rand_block(rng, win), _rand_block(rng, win)
    w1 = mx.mat_mul(mx.mat_mul(u(p1.a), a1), u(p1.b))
    w2 = mx.mat_mul(mx.mat_mul(u(s2), a2), u(s2i))
    rhs = Q.mul(det_identity_plus(w1), det_identity_plus(w2))
    e = mx.mat_add(mx.mat_add(a1, w2), mx.mat_mul(a1, w2))
    d = mx.mat_mul(mx.mat_mul(u(p1.a), e), u(p1.b))
    lhs = det_identity_plus(d)
    return lhs == rhs


def test_criterion_7_determinant_lemmas():
    rng = random.Random(107)
    ok = all(_lemma_a_instance(rng) for _ in range(40))
    ok = ok and all(_lemma_b_instance(rng) for _ in range(30))
    ok = ok and all(_lemma_c_instance(rng) for _ in range(30))
    # the column-reduced extended determinant equals its dense truncation
    Qw = laurent_ring(Q, "w")
    w = LaurentSeries.monomial(Q, 1)
    for _ in range(50):
        facs = random_rational_factors(rng, max_factors=2)
        pair = wl.invert_from_factors(Q, facs, (-54, 54))
        for variant, builder in (("+", holomorphic_det_matrix),
                                 ("-", antiholomorphic_det_matrix)):
            a_mat = builder(pair, Qw, w)
            reduced = det_tilde_column_reduced(variant, a_mat, w)
            dense = _dense_reflection_det(variant, a_mat, Qw, w)
            ok = ok and reduced.coeffs == dense.coeffs
    report(7, "conjugation/multiplicativity determinant laws, 100 + 100 instances", ok)


def test_criterion_8_middle_factor_cross_method():
    rng = random.Random(108)
    ok = True
    worst = 0.0
    for _ in range(50):
        factors = random_complex_factors(rng, n_factors=3)
        pair = wl.invert_from_factors(C, factors, (-48, 48))
        pp = wl.pi_plus(pair)
        pm = wl.pi_minus(pair)
        derived = wl.pi_tilde_derived(pair, pm, pp, (-12, 12))
        direct, tail = wl.pi_tilde_direct(pair, windows=(24, 32))
        diff = direct.sup_diff(derived)
        worst = max(worst, diff)
        ok = ok and diff <= max(tail, 1e-9) and diff <= 1e-6
    report(8, "direct and derived middle factors agree, max diff %.1e" % worst, ok)


def test_criterion_9_projection_round_trip():
    rng = random.Random(109)
    ok = True
    for _ in range(20):
        pair = random_orthogonal_pair(2, rng)
        dec = wl.orthogonal_decompose(pair)
        _unit, normal = wl.orthonormal_split(dec)
        p = wl.projection_matrix(dec, (-8, 8))
        out = wl.n_p_series(p)
        ok = ok and out.equals(normal) and out.sup_diff(normal) <= 1e-8
    report(9, "orthonormal series recovered from their half-lattice projections", ok)
