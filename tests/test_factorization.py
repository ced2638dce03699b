"""End-to-end factorization: projections, group laws, orthogonal series
machinery, and the two routes to the middle factor."""

import math
import random
from fractions import Fraction

import pytest

import whlaurent as wl
from whlaurent import factorization
from whlaurent.corpus import (random_complex_factors, random_rational_factors,
                              random_rational_parameter)
from whlaurent.factorization import FactorizationError
from whlaurent.rings import RingError, leaf_kind
from whlaurent.series import LaurentSeries, WindowError

from conftest import dual_ring, sixteen_factor_symbol, worked_pair

Q = wl.rational_ring()


def test_worked_example_exact():
    factors, pair = worked_pair()
    res = wl.factorize(pair)
    assert res.pi_minus.coeffs == {0: Fraction(1), -1: Fraction(-1, 2)}
    assert res.pi_tilde.coeffs == {1: Fraction(1)}
    assert res.pi_plus.coeffs == {0: Fraction(1), 1: Fraction(-1, 3)}
    assert res.residual == 0.0
    assert res.winding == 1


@pytest.mark.parametrize("p", [-2, -1, 0, 1, 2])
def test_shifted_worked_example_all_windings(p):
    factors = [wl.Antiholo(Fraction(1, 2)), wl.Mono(p, Fraction(2)),
               wl.Holo(Fraction(1, 3))]
    pair = wl.invert_from_factors(Q, factors, (-40, 40))
    res = wl.factorize(pair)
    assert res.residual == 0.0
    assert res.winding == p
    assert res.pi_minus.coeffs == {0: Fraction(1), -1: Fraction(-1, 2)}
    assert res.pi_plus.coeffs == {0: Fraction(1), 1: Fraction(-1, 3)}
    assert res.pi_tilde.coeffs == {p: Fraction(2)}


def test_projection_memberships():
    _, pair = worked_pair()
    res = wl.factorize(pair)
    factorization._check_projection(res.pi_plus, "plus")
    factorization._check_projection(res.pi_minus, "minus")
    assert wl.is_orthogonal(res.pi_tilde)
    # each outer part fails the other's strictness test
    with pytest.raises(FactorizationError, match="pi_minus has stray exponents"):
        factorization._check_projection(res.pi_plus, "minus")
    with pytest.raises(FactorizationError, match="pi_plus has stray exponents"):
        factorization._check_projection(res.pi_minus, "plus")
    assert not wl.is_orthogonal(res.pi_plus)


def test_symmetric_complex_symbol():
    # 3 - z - z^-1 factors through the quadratic root (3 - sqrt(5))/2
    C = wl.complex_ring()
    a = LaurentSeries(C, {-1: -1.0 + 0j, 0: 3.0 + 0j, 1: -1.0 + 0j})
    pair = wl.invert_numeric(a, 1024)
    res = wl.factorize(pair)
    root = (3.0 - math.sqrt(5.0)) / 2.0
    assert res.winding == 0
    assert abs(res.pi_plus.coeff(1) + root) < 1e-9
    assert abs(res.pi_minus.coeff(-1) + root) < 1e-9
    assert res.residual < 1e-9


def test_triviality_on_one_sided_inputs():
    one = LaurentSeries.one(Q)
    hol = wl.invert_from_factors(
        Q, [wl.Holo(Fraction(1, 2)), wl.Holo(Fraction(-1, 3))], (-24, 24))
    res = wl.factorize(hol)
    assert res.pi_minus.equals(one) and res.pi_tilde.equals(one)
    anti = wl.invert_from_factors(
        Q, [wl.Antiholo(Fraction(2, 5))], (-24, 24))
    res = wl.factorize(anti)
    assert res.pi_plus.equals(one) and res.pi_tilde.equals(one)


def test_triviality_on_orthogonal_input():
    from whlaurent.corpus import random_orthogonal_pair

    rng = random.Random(10)
    pair = random_orthogonal_pair(2, rng)
    res = wl.factorize(pair)
    one = LaurentSeries.one(pair.a.ring)
    assert res.pi_plus.equals(one) and res.pi_minus.equals(one)
    assert res.pi_tilde.equals(pair.a)


def test_projection_homomorphism_exact():
    from whlaurent.corpus import random_rational_factors

    rng = random.Random(11)
    for _ in range(5):
        f1 = random_rational_factors(rng, max_factors=2)
        f2 = random_rational_factors(rng, max_factors=2)
        p1 = wl.invert_from_factors(Q, f1, (-48, 48))
        p2 = wl.invert_from_factors(Q, f2, (-48, 48))
        p12 = wl.invert_from_factors(Q, f1 + f2, (-48, 48))
        r1 = wl.factorize(p1)
        r2 = wl.factorize(p2)
        r12 = wl.factorize(p12)
        assert r12.pi_plus.equals(r1.pi_plus.mul(r2.pi_plus))
        assert r12.pi_minus.equals(r1.pi_minus.mul(r2.pi_minus))
        assert r12.pi_tilde.equals(r1.pi_tilde.mul(r2.pi_tilde))


def test_winding_undefined_for_decomposable_middle():
    R = wl.product_ring(Q, 2)
    one, zero = Fraction(1), Fraction(0)
    a = LaurentSeries(R, {1: (one, zero), -1: (zero, one)})
    b = LaurentSeries(R, {-1: (one, zero), 1: (zero, one)})
    pair = wl.InvertiblePair.make(a, b)
    assert pair.residual == 0.0
    res = wl.factorize(pair)
    assert res.winding is None
    assert res.pi_tilde.equals(a)
    assert wl.winding_index(res.pi_tilde) is None
    assert wl.winding_index(LaurentSeries.monomial(R, 3)) == 3
    # a one-term middle part whose coefficient is no unit has no winding
    C2 = wl.product_ring(wl.complex_ring(), 2)
    assert wl.winding_index(LaurentSeries(C2, {1: (1 + 0j, 0j)})) is None


def test_product_ring_mixed_factorization():
    R = wl.product_ring(Q, 2)
    al = (Fraction(1, 2), Fraction(1, 3))
    pair = wl.invert_from_factors(
        R, [wl.Antiholo(al), wl.Mono(1, R.one)], (-24, 24))
    res = wl.factorize(pair)
    assert res.residual == 0.0
    assert res.pi_minus.coeff(-1) == (Fraction(-1, 2), Fraction(-1, 3))
    assert res.winding == 1


def test_orthogonal_decompose_laws():
    from whlaurent.corpus import random_orthogonal_pair

    rng = random.Random(12)
    for arity in (2, 3):
        for _ in range(5):
            pair = random_orthogonal_pair(arity, rng)
            dec = wl.orthogonal_decompose(pair)
            ring = dec.ring
            total = ring.zero
            for n, p in dec.idempotents.items():
                assert ring.equals(ring.mul(p, p), p)
                total = ring.add(total, p)
                for m, q in dec.idempotents.items():
                    if m != n:
                        assert ring.is_zero(ring.mul(p, q))
            assert ring.equals(total, ring.one)
            # subordination in both directions
            a, b = pair.a, pair.b
            for n in a.support():
                for m, q in dec.idempotents.items():
                    want = a.coeffs[n] if n == m else ring.zero
                    assert ring.equals(ring.mul(a.coeffs[n], q), want)
                    wantb = b.coeff(-n) if n == m else ring.zero
                    assert ring.equals(ring.mul(b.coeff(-n), q), wantb)


def test_orthogonal_decompose_rejects_generic_series():
    # 2 + 3z with its true inverse: the pair passes, the orthogonality fails
    pair = wl.invert_from_factors(Q, [wl.Mono(0, Fraction(2)), wl.Holo(Fraction(-3, 2))],
                                  (-8, 8))
    assert pair.a.coeffs == {0: 2, 1: 3}
    with pytest.raises(FactorizationError, match="not orthogonal"):
        wl.orthogonal_decompose(pair)


def test_orthonormal_split_and_product():
    from whlaurent.corpus import random_orthogonal_pair
    from whlaurent.factorization import product_of_orthogonals

    rng = random.Random(13)
    p1 = random_orthogonal_pair(2, rng)
    p2 = random_orthogonal_pair(2, rng)
    d1 = wl.orthogonal_decompose(p1)
    d2 = wl.orthogonal_decompose(p2)
    unit, normal = wl.orthonormal_split(d1)
    ring = d1.ring
    # the orthonormal part takes value 1 at z = 1 and scales back by the unit
    assert ring.equals(normal.evaluate(ring.one), ring.one)
    d12 = product_of_orthogonals(d1, d2)
    prod_pair = wl.InvertiblePair.make(p1.a.mul(p2.a), p1.b.mul(p2.b))
    d_direct = wl.orthogonal_decompose(prod_pair)
    assert d12.idempotents == d_direct.idempotents
    assert ring.equals(d12.unit, d_direct.unit)


Q2_ONE, Q2_E1 = (Fraction(1), Fraction(1)), (Fraction(1), Fraction(0))


@pytest.mark.parametrize("family, msg", [
    ({0: (Fraction(2), Fraction(1))}, "Pi_0 is not idempotent"),
    ({0: Q2_E1, 1: Q2_ONE}, r"Pi_0 Pi_1 != 0"),
    ({0: Q2_E1}, "do not sum to 1"),
], ids=["not-idempotent", "not-orthogonal", "not-one"])
def test_product_of_orthogonals_checks_the_family(family, msg):
    # the product of a family with the trivial one {0: 1} is the family
    # itself, and each defect of an idempotent family is named
    from whlaurent.factorization import OrthogonalDecomposition, product_of_orthogonals

    R = wl.product_ring(Q, 2)
    one = OrthogonalDecomposition(R, {0: Q2_ONE}, Q2_ONE)
    with pytest.raises(FactorizationError, match=msg):
        product_of_orthogonals(OrthogonalDecomposition(R, family, Q2_ONE), one)


def test_projection_round_trip_monomial():
    pair = wl.InvertiblePair.make(LaurentSeries.monomial(Q, 1),
                                  LaurentSeries.monomial(Q, -1))
    dec = wl.orthogonal_decompose(pair)
    p = wl.projection_matrix(dec, (-8, 8))
    out = wl.n_p_series(p)
    assert out.coeffs == {1: Fraction(1)}


def test_projection_round_trip_product_ring():
    from whlaurent.corpus import random_orthogonal_pair

    rng = random.Random(14)
    pair = random_orthogonal_pair(2, rng)
    dec = wl.orthogonal_decompose(pair)
    _unit, normal = wl.orthonormal_split(dec)
    p = wl.projection_matrix(dec, (-8, 8))
    out = wl.n_p_series(p)
    assert out.equals(normal)


def test_n_p_series_rejects_non_idempotent():
    from whlaurent.matrices import Lattice, WindowedMatrix

    ents = {(k, k): Fraction(1, 2) for k in range(-8, 8)}
    p = WindowedMatrix(Q, Lattice.HALF, (-8, 8), ents, 0, (-8, 8))
    with pytest.raises(FactorizationError):
        wl.n_p_series(p)


def test_n_p_series_needs_the_half_lattice():
    from whlaurent.matrices import Lattice, identity

    with pytest.raises(RingError, match="half-integer lattice"):
        wl.n_p_series(identity(Q, Lattice.INTEGER, (-8, 8)))


def test_middle_routes_agree_exact():
    _, pair = worked_pair()
    pp = wl.pi_plus(pair)
    pm = wl.pi_minus(pair)
    derived = wl.pi_tilde_derived(pair, pm, pp, (-10, 10))
    direct, tail = wl.pi_tilde_direct(pair, windows=(10, 14, 18))
    assert derived.coeffs == {1: Fraction(1)}
    assert direct.sup_diff(derived) <= tail
    assert direct.equals(derived)


def test_middle_routes_agree_complex():
    C = wl.complex_ring()
    factors = [wl.Antiholo(0.3 + 0.2j), wl.Mono(-1, 1.0 + 0j), wl.Holo(-0.4 + 0.1j)]
    pair = wl.invert_from_factors(C, factors, (-40, 40))
    pp = wl.pi_plus(pair)
    pm = wl.pi_minus(pair)
    derived = wl.pi_tilde_derived(pair, pm, pp, (-12, 12))
    direct, tail = wl.pi_tilde_direct(pair, windows=(16, 24))
    assert direct.sup_diff(derived) <= max(tail, 1e-9)


def test_middle_routes_agree_product_ring():
    # product-ring coefficients become a trailing axis of the pencil
    R = wl.product_ring(Q, 2)
    factors = [wl.Antiholo((Fraction(1, 2), Fraction(1, 3))),
               wl.Mono(1, (Fraction(1), Fraction(2))),
               wl.Holo((Fraction(-1, 3), Fraction(1, 4)))]
    pair = wl.invert_from_factors(R, factors, (-60, 60))
    derived = wl.pi_tilde_derived(pair, wl.pi_minus(pair), wl.pi_plus(pair), (-12, 12))
    direct, tail = wl.pi_tilde_direct(pair, windows=(10, 14, 18))
    assert derived.coeffs == {1: (Fraction(1), Fraction(2))}
    assert tail == 0.0 and direct.equals(derived)


def test_small_inverse_window_rejected():
    a = LaurentSeries(Q, {0: Fraction(1), 1: Fraction(-1, 3)})
    b = LaurentSeries(Q, {n: Fraction(1, 3) ** n for n in range(3)}, (0, 2))
    with pytest.raises(WindowError):
        wl.pi_plus(wl.InvertiblePair.make(a, b))


def test_inconsistent_pair_detected():
    a = LaurentSeries(Q, {0: Fraction(1), 1: Fraction(-1, 3)})
    wrong_b = LaurentSeries(Q, {n: Fraction(1, 2) ** n for n in range(40)}, (-40, 40))
    with pytest.raises((FactorizationError, WindowError)):
        wl.factorize(wl.InvertiblePair.make(a, wrong_b))


@pytest.mark.parametrize("arity", [1, 2])
def test_perturbed_inverse_coefficient_fails_residual_check(arity):
    # one b coefficient off by 1/1000, in one component only over Q^2: the
    # residual a*b - 1 is nonzero on the window and factorize refuses it
    R = Q if arity == 1 else wl.product_ring(Q, 2)
    one = Fraction(1)
    elem = (lambda x: x) if arity == 1 else (lambda x: (x, one - x))
    facs = [wl.Antiholo(elem(Fraction(1, 2))), wl.Holo(elem(Fraction(-1, 3))),
            wl.Mono(1, elem(Fraction(2, 3)))]
    pair = wl.invert_from_factors(R, facs, (-24, 24))
    assert pair.residual == 0.0
    wl.factorize(pair)
    for n in (-5, 0, 3):
        eps = elem(Fraction(1, 1000)) if arity == 1 else (Fraction(0), Fraction(1, 1000))
        coeffs = dict(pair.b.coeffs)
        coeffs[n] = R.add(pair.b.coeff(n), eps)
        bad = wl.InvertiblePair.make(pair.a, LaurentSeries(R, coeffs, pair.b.window))
        assert bad.residual > 0.0, n
        with pytest.raises(FactorizationError, match="pair residual"):
            wl.factorize(bad)


@pytest.mark.parametrize("sign", ["-", "+"])
def test_bracket_block_matches_full_window_reference(sign):
    # the direct builders against U(b) (1_S U(a) - U(a) 1_S) U(z^-s) formed
    # with the windowed-matrix arithmetic on a window far wider than J'
    from whlaurent import matrices as mx
    from whlaurent.corpus import random_rational_factors
    from whlaurent.matrices import (Lattice, antiholomorphic_det_matrix,
                                    holomorphic_det_matrix, reduced_columns)
    from whlaurent.series import laurent_ring

    Qw = laurent_ring(Q, "w")
    w = LaurentSeries.monomial(Q, 1)
    if sign == "-":
        builder, variant, shift, coef = holomorphic_det_matrix, "+", 1, Qw.neg(w)
    else:
        builder, variant, shift, coef = (antiholomorphic_det_matrix, "-", -1,
                                         Qw.neg(Qw.inverse(w)))
    win = (-30, 30)
    rng = random.Random(23)
    for _ in range(20):
        facs = random_rational_factors(rng, max_factors=3)
        pair = wl.invert_from_factors(Q, facs, (-60, 60))
        u_a = mx.build_U(pair.a, Lattice.INTEGER, win)
        one_s = mx.project(Q, Lattice.INTEGER, win, sign)
        comm = mx.mat_sub(mx.mat_mul(one_s, u_a), mx.mat_mul(u_a, one_s))
        u_b = mx.build_U(pair.b, Lattice.INTEGER, win)
        ref = mx.column_shift(mx.mat_mul(u_b, comm), shift)
        cols = sorted({c for _r, c in ref.entries})
        # the '-' wedge is the mirror image of the '+' one under k -> -k
        jp = (set(reduced_columns(cols)) if variant == "+"
              else {-c for c in reduced_columns([-c for c in cols])})
        block = builder(pair, Qw, w)
        assert {r for r, _c in block.entries} <= jp, facs
        for (r, c), v in block.entries.items():
            assert Qw.equals(v, Qw.mul(coef, Qw.const(ref.get(r, c)))), (facs, r, c)
        for (r, c) in ref.entries:
            if r in jp:
                assert (r, c) in block.entries, (facs, r, c)


def _q2_factors(rng, facs):
    # a second, independent component per factor; a zero parameter makes
    # the bracket entries zero divisors of Q^2
    params = [Fraction(0), Fraction(1, 2), Fraction(-2, 3), Fraction(1, 5)]
    out = []
    for f in facs:
        if isinstance(f, wl.Antiholo):
            out.append(wl.Antiholo((f.alpha, rng.choice(params))))
        elif isinstance(f, wl.Holo):
            out.append(wl.Holo((f.beta, rng.choice(params))))
        else:
            out.append(wl.Mono(f.p, (f.u, rng.choice([Fraction(-1), Fraction(3)]))))
    return out


def _column_reduced_projections(pair):
    from whlaurent.matrices import (antiholomorphic_det_matrix, det_tilde_column_reduced,
                                    holomorphic_det_matrix)
    from whlaurent.series import laurent_ring

    ring = pair.a.ring
    ring_w = laurent_ring(ring, "w")
    w = LaurentSeries.monomial(ring, 1)
    plus = det_tilde_column_reduced("+", holomorphic_det_matrix(pair, ring_w, w), w)
    minus = det_tilde_column_reduced("-", antiholomorphic_det_matrix(pair, ring_w, w), w)
    return plus, minus


@pytest.mark.parametrize("ring_name", ["Q", "Q^2"])
def test_charpoly_projections_match_column_reduction_exact(ring_name):
    # criterion 7's symbols (up to 2 factors) and lists of up to 8 factors
    from whlaurent.corpus import random_rational_factors

    rng = random.Random(61)
    R = Q if ring_name == "Q" else wl.product_ring(Q, 2)
    for max_factors, count in ((2, 15), (8, 10)):
        for _ in range(count):
            facs = random_rational_factors(rng, max_factors=max_factors)
            if ring_name == "Q^2":
                facs = _q2_factors(rng, facs)
            pair = wl.invert_from_factors(R, facs, (-54, 54))
            plus, minus = _column_reduced_projections(pair)
            assert wl.pi_plus(pair).coeffs == plus.coeffs, facs
            assert wl.pi_minus(pair).coeffs == minus.coeffs, facs


def test_charpoly_projections_match_column_reduction_complex():
    from whlaurent.corpus import random_complex_factors

    C = wl.complex_ring()
    rng = random.Random(62)
    for n_factors in (1, 2, 4, 8):
        for _ in range(6):
            facs = random_complex_factors(rng, n_factors=n_factors)
            pair = wl.invert_from_factors(C, facs, (-54, 54))
            plus, minus = _column_reduced_projections(pair)
            assert wl.pi_plus(pair).sup_diff(plus) <= 1e-12, facs
            assert wl.pi_minus(pair).sup_diff(minus) <= 1e-12, facs


@pytest.mark.parametrize("ring_name", ["Q", "Q^2"])
def test_outer_projections_scale_covariant_exact(ring_name):
    # a constant unit multiplies a and divides b, so K_+ and K_- and with
    # them both outer projections do not move
    from whlaurent.corpus import random_rational_factors

    rng = random.Random(63)
    R = Q if ring_name == "Q" else wl.product_ring(Q, 2)
    for _ in range(8):
        facs = random_rational_factors(rng, max_factors=6)
        if ring_name == "Q^2":
            facs = _q2_factors(rng, facs)
        pair = wl.invert_from_factors(R, facs, (-60, 60))
        want = (wl.pi_plus(pair).coeffs, wl.pi_minus(pair).coeffs)
        for c in (Fraction(1000), Fraction(1, 1000), Fraction(-7, 3)):
            unit = c if ring_name == "Q" else (c, 1 / c)
            scaled = wl.invert_from_factors(R, facs + [wl.Mono(0, unit)], (-60, 60))
            got = (wl.pi_plus(scaled).coeffs, wl.pi_minus(scaled).coeffs)
            assert got == want, (facs, c)


@pytest.mark.parametrize("arity", [1, 2])
def test_outer_projections_complex_match_closed_form(arity):
    # twelve factors make K_+- strongly non-normal (entries near 10,
    # eigenvalues below 0.6); the projections must still match the
    # closed forms prod (1 - beta w) and prod (1 - alpha w^-1) closely,
    # over C and over C^2 (second component: conjugate parameters)
    from whlaurent.corpus import random_complex_factors

    C = wl.complex_ring()
    R = C if arity == 1 else wl.product_ring(C, 2)

    def lift(x):
        return x if arity == 1 else (x, x.conjugate())

    rng = random.Random(1)
    for _ in range(17):
        facs = random_complex_factors(rng, n_factors=12, modulus=(0.3, 0.6))
        lifted, plus, minus = [], LaurentSeries.one(R), LaurentSeries.one(R)
        for f in facs:
            if isinstance(f, wl.Holo):
                lifted.append(wl.Holo(lift(f.beta)))
                plus = plus.mul(LaurentSeries(R, {0: R.one, 1: R.neg(lift(f.beta))}))
            elif isinstance(f, wl.Antiholo):
                lifted.append(wl.Antiholo(lift(f.alpha)))
                minus = minus.mul(LaurentSeries(R, {0: R.one, -1: R.neg(lift(f.alpha))}))
            else:
                lifted.append(wl.Mono(f.p, lift(f.u)))
        pair = wl.invert_from_factors(R, lifted, (-60, 60))
        assert wl.pi_plus(pair).sup_diff(plus) <= 1e-12, facs
        assert wl.pi_minus(pair).sup_diff(minus) <= 1e-12, facs


def _nest(leaves):
    """The (B^2)^2 element ((x0, x1), (x2, x3)) of four leaf values."""
    return ((leaves[0], leaves[1]), (leaves[2], leaves[3]))


@pytest.mark.parametrize("base_name", ["Q", "C"])
def test_nested_product_ring_matches_its_leaves(base_name):
    # (B^2)^2 adds two component axes; each of the four leaves must keep
    # its own factors through factorize and pi_tilde_direct.  Leaf (0, 1)
    # alone has winding 2, so a split along the wrong axis, which swaps
    # leaves (0, 1) and (1, 0), shows in every projection
    if base_name == "Q":
        base = Q
        alphas = [Fraction(1, 2), Fraction(-1, 3), Fraction(0), Fraction(2, 5)]
        betas = [Fraction(1, 3), Fraction(0), Fraction(-1, 4), Fraction(1, 5)]
        units = [Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 2)]
    else:
        base = wl.complex_ring()
        alphas = [0.3 + 0.2j, -0.2 + 0.1j, 0j, 0.4 - 0.3j]
        betas = [-0.4 + 0.1j, 0j, 0.25j, 0.2 + 0.2j]
        units = [1 + 0j, 2 + 0j, -0.5 + 1j, 0.5 + 0j]
    extra = [0, 1, 0, 0]  # the idempotent e of the orthogonal factor (1 - e) + e z
    R = wl.product_ring(wl.product_ring(base, 2), 2)
    e = _nest([base.one if x else base.zero for x in extra])

    def factors(al, u, be):
        return [wl.Antiholo(al), wl.Mono(1, u), wl.Holo(be)]

    pair = wl.invert_from_factors(R, factors(_nest(alphas), _nest(units), _nest(betas)),
                                  (-60, 60))
    ortho_a = LaurentSeries(R, {0: R.sub(R.one, e), 1: e})
    ortho_b = LaurentSeries(R, {0: R.sub(R.one, e), -1: e})
    pair = wl.InvertiblePair.make(pair.a.mul(ortho_a), pair.b.mul(ortho_b))
    res = wl.factorize(pair)
    direct, tail = wl.pi_tilde_direct(pair, windows=(10, 14, 18))
    for k, (al, u, be) in enumerate(zip(alphas, units, betas)):
        i, j = divmod(k, 2)
        leaf = factors(al, u, be) + [wl.Mono(extra[k], base.one)]
        want = wl.factorize(wl.invert_from_factors(base, leaf, (-60, 60)))
        for got, ref in ((res.pi_minus, want.pi_minus), (res.pi_tilde, want.pi_tilde),
                         (res.pi_plus, want.pi_plus), (direct, want.pi_tilde)):
            got = LaurentSeries(base, {n: c[i][j] for n, c in got.coeffs.items()})
            if base.is_exact:
                assert got.coeffs == ref.coeffs, (k, ref)
            else:
                assert got.sup_diff(ref) < 1e-9, (k, ref)
    if base.is_exact:
        assert res.residual == 0.0 and tail == 0.0


DUAL_PARAMS = {  # (alpha, u, beta) as (x, x') strings per base ring
    "Q": (("1/2", "1"), ("2", "1/3"), ("1/3", "-1")),
    "C": (("0.5,0.1", "1,0"), ("2,0", "0.3,-0.2"), ("0.25,-0.2", "-1,0.5")),
}


def _dual_pair(base_name):
    base = wl.rational_ring() if base_name == "Q" else wl.complex_ring()
    ring = dual_ring(base)
    alpha, u, beta = [tuple(base.parse(x) for x in p) for p in DUAL_PARAMS[base_name]]
    facs = [wl.Antiholo(alpha), wl.Mono(1, u), wl.Holo(beta)]
    return ring, (alpha, u, beta), wl.invert_from_factors(ring, facs, (-24, 24))


@pytest.mark.parametrize("base_name", sorted(DUAL_PARAMS))
def test_factorize_on_dual_numbers_matches_closed_form(base_name):
    # a ring with nilpotents runs every kernel on its own elements
    ring, (alpha, u, beta), pair = _dual_pair(base_name)
    res = wl.factorize(pair)
    assert res.pi_minus.equals(LaurentSeries(ring, {0: ring.one, -1: ring.neg(alpha)}))
    assert res.pi_tilde.equals(LaurentSeries(ring, {1: u}))
    assert res.pi_plus.equals(LaurentSeries(ring, {0: ring.one, 1: ring.neg(beta)}))
    assert res.winding == 1
    assert res.residual == 0.0 if ring.is_exact else res.residual < 1e-9


@pytest.mark.parametrize("base_name", sorted(DUAL_PARAMS))
def test_array_paths_reject_dual_numbers(base_name):
    # the sampled and array routes know only Q, C and their products
    from whlaurent.oracle import OracleError, cepstral_factorize, root_split_factorize

    ring, _params, pair = _dual_pair(base_name)
    with pytest.raises(RingError):
        wl.pi_tilde_direct(pair)
    proj = wl.projection_matrix(wl.OrthogonalDecomposition(ring, {0: ring.one}, ring.one),
                                (-10, 10))
    with pytest.raises(RingError, match="coefficient-array"):
        wl.n_p_series(proj)
    with pytest.raises(RingError):
        wl.invert_numeric(pair.a, 64)
    for oracle in (cepstral_factorize, root_split_factorize):
        with pytest.raises(OracleError):
            oracle(pair.a)


KINDS = {wl.Antiholo: "antiholo", wl.Holo: "holo", wl.Mono: "mono"}


def _param(f):
    return f.alpha if isinstance(f, wl.Antiholo) else f.beta if isinstance(f, wl.Holo) else f.u


def _with_param(f, x):
    """The factor of ``f``'s kind (and exponent) with parameter ``x``."""
    return (wl.Antiholo(x) if isinstance(f, wl.Antiholo) else
            wl.Holo(x) if isinstance(f, wl.Holo) else wl.Mono(f.p, x))


def _paired_factors(rng):
    """1-6 factors as ``corpus.random_rational_factors`` draws them, each
    parameter paired with a second draw of the same kind."""
    fs = random_rational_factors(rng, max_factors=6)
    gs = [random_rational_factors(rng, 1, (KINDS[type(f)],))[0] for f in fs]
    return [_with_param(f, (_param(f), _param(g))) for f, g in zip(fs, gs)]


def _factorize_factors(ring, factors):
    # the symbol's support lies within sum |p| + len(factors) of 0
    half = 3 * sum(abs(getattr(f, "p", 0)) + 1 for f in factors) + 1
    return wl.factorize(wl.invert_from_factors(ring, factors, (-half, half)))


Q2 = wl.product_ring(Q, 2)
RING_MAP_SYMBOLS = 100  # per map
RING_MAPS = {  # name: (source ring, its factors, target ring, the maps)
    "Q->Q^2": (Q, lambda rng: random_rational_factors(rng, max_factors=6), Q2,
               [lambda x: (x, x)]),
    "Q^2->Q": (Q2, _paired_factors, Q, [lambda x: x[0], lambda x: x[1]]),
    "Q[e]->Q": (dual_ring(Q), _paired_factors, Q, [lambda x: x[0]]),
}


@pytest.mark.parametrize("name", sorted(RING_MAPS))
def test_factorization_commutes_with_exact_ring_maps(name):
    # a ring map phi takes the factorization of a to that of phi(a): the
    # diagonal Q -> Q^2, each projection Q^2 -> Q, and e -> 0 on Q[e]
    source, draw, target, maps = RING_MAPS[name]
    rng = random.Random(name)
    for _ in range(RING_MAP_SYMBOLS):
        factors = draw(rng)
        res = _factorize_factors(source, factors)
        for phi in maps:
            want = _factorize_factors(target, [_with_param(f, phi(_param(f))) for f in factors])
            for got, ref in zip((res.pi_minus, res.pi_tilde, res.pi_plus),
                                (want.pi_minus, want.pi_tilde, want.pi_plus)):
                image = {n: phi(c) for n, c in got.coeffs.items()}
                assert {n: c for n, c in image.items() if not target.is_zero(c)} == ref.coeffs


def test_numeric_paths_reject_a_product_of_c():
    from whlaurent.oracle import OracleError, cepstral_factorize

    C2 = wl.product_ring(wl.complex_ring(), 2)
    a = LaurentSeries(C2, {0: (1 + 0j, 1 + 0j), 1: (0.5 + 0j, -0.5 + 0j)})
    with pytest.raises(RingError):
        wl.invert_numeric(a, 64)
    with pytest.raises(OracleError):
        cepstral_factorize(a)


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(math.inf, 0.0)])
def test_non_finite_coefficient_fails_factorize(bad):
    # a NaN residual must fail the tolerance test, not pass it
    C = wl.complex_ring()
    a = LaurentSeries(C, {0: 1 + 0j, 1: bad})
    b = LaurentSeries(C, {0: 1 + 0j}, (-8, 8))
    pair = wl.InvertiblePair.make(a, b)
    assert math.isnan(pair.residual) or math.isinf(pair.residual)
    with pytest.raises(FactorizationError, match="pair residual"):
        wl.factorize(pair)
    mono = wl.invert_from_factors(C, [wl.Mono(0, bad)], (-8, 8))
    with pytest.raises(FactorizationError):
        wl.factorize(mono)


ZERO_LEAF_PAIRS = {  # a over Q, or over Q^2 with a zero second leaf, and a b that is no inverse
    "Q": (Q, {}, {0: Fraction(1)}),
    "Q^2": (wl.product_ring(Q, 2), {0: (Fraction(2), Fraction(0)), 1: (Fraction(1), Fraction(0))},
            {0: (Fraction(1, 2), Fraction(0))}),
}


@pytest.mark.parametrize("ring_name", sorted(ZERO_LEAF_PAIRS))
def test_a_zero_leaf_fails_the_pair_check(ring_name):
    # a leaf of a that is 0 spans [0, 0], as over C: its blocks are empty,
    # and the pair check, not the block builder, rejects the pair
    ring, a, b = ZERO_LEAF_PAIRS[ring_name]
    pair = wl.InvertiblePair.make(LaurentSeries(ring, a), LaurentSeries(ring, b, (-8, 8)))
    with pytest.raises(FactorizationError, match="pair residual 1:"):
        wl.factorize(pair)


@pytest.mark.parametrize("arity", [1, 2])
def test_bumped_pi_plus_division_runs_to_the_window(arity):
    # pi_+ with one coefficient off by 1/7 (in one component over Q^2) no
    # longer divides a, so the long division cannot stop at a support: pi~
    # fills the window, and pm * pt * pp differs from a on a window 4 wider
    # than a's support, where the true factors give a exactly
    R = Q if arity == 1 else wl.product_ring(Q, 2)
    one = Fraction(1)
    elem = (lambda x: x) if arity == 1 else (lambda x: (x, one - x))
    facs = [wl.Antiholo(elem(Fraction(1, 2))), wl.Holo(elem(Fraction(-1, 3))),
            wl.Holo(elem(Fraction(2, 5))), wl.Mono(1, elem(Fraction(2, 3)))]
    pair = wl.invert_from_factors(R, facs, (-24, 24))
    res = wl.factorize(pair)
    s = pair.a._supp_bounds()
    r = max(abs(s[0]), abs(s[1]), 1) + 4
    window, a = (-r, r), pair.a.truncate((-r, r)).coeffs

    def full_product(pm, pt, pp):
        return pm.mul(LaurentSeries(R, pt.coeffs)).mul(pp).truncate(window).coeffs

    assert full_product(res.pi_minus, res.pi_tilde, res.pi_plus) == a
    bump = Fraction(1, 7) if arity == 1 else (Fraction(0), Fraction(1, 7))
    pp = res.pi_plus.add(LaurentSeries.monomial(R, 1, bump))
    pt = wl.pi_tilde_derived(pair, res.pi_minus, pp, window)
    assert pt.support()[0] == window[0] and pt.support()[-1] == window[1]
    assert full_product(res.pi_minus, pt, pp) != a


def _split_monomial(R, exps):
    """The pair of the orthogonal series ``z^e0`` in the first component and
    ``z^e1`` in the second, over a product of two rings, and its inverse."""
    zero, one = R.components[0].zero, R.components[0].one

    def series(sign):
        return LaurentSeries.monomial(R, sign * exps[0], (one, zero)).add(
            LaurentSeries.monomial(R, sign * exps[1], (zero, one)))

    return series(1), series(-1)


def _c2_paired(facs):
    """Each C factor with a second component: the conjugate parameter, and
    twice the unit of a monomial."""
    return [_with_param(f, (_param(f), 2 * f.u if isinstance(f, wl.Mono) else
                            _param(f).conjugate())) for f in facs]


SHIFT_SYMBOLS = {  # ring name: (ring, one draw of factors)
    "Q": (Q, lambda rng: random_rational_factors(rng, max_factors=5)),
    "Q^2": (Q2, _paired_factors),
    "Q[e]": (dual_ring(Q), _paired_factors),
    "C": (wl.complex_ring(), lambda rng: random_complex_factors(rng, rng.randint(1, 6),
                                                                (0.1, 0.9))),
    "C^2": (wl.product_ring(wl.complex_ring(), 2),
            lambda rng: _c2_paired(random_complex_factors(rng, rng.randint(1, 6), (0.1, 0.9)))),
}


@pytest.mark.parametrize("name", sorted(SHIFT_SYMBOLS))
def test_outer_projections_ignore_a_unit_monomial(name):
    # z^k a = pi_- (z^k pi~) pi_+, so neither outer projection moves; each
    # leaf's block is re-centred on 0 whatever its support.  Over a product
    # the two components also move apart, z^k in one and z^-k in the other.
    # Exact rings compare by ==, C and C^2 within 1e-12 of the norm
    R, draw = SHIFT_SYMBOLS[name]
    rng = random.Random("shift:" + name)
    for _ in range(4):
        facs = draw(rng)
        base = wl.invert_from_factors(R, facs, (-70, 70))
        want = (wl.pi_plus(base), wl.pi_minus(base))
        for k in range(-6, 7):
            pairs = [wl.invert_from_factors(R, facs + [wl.Mono(k, R.one)], (-70, 70))]
            if R.components is not None:
                o_a, o_b = _split_monomial(R, (k, -k))
                pairs.append(wl.InvertiblePair.make(base.a.mul(o_a), base.b.mul(o_b)))
            for pair in pairs:
                for got, ref in zip((wl.pi_plus(pair), wl.pi_minus(pair)), want):
                    if R.is_exact:
                        assert got.coeffs == ref.coeffs, (facs, k)
                    else:
                        assert got.sup_diff(ref) <= 1e-12 * ref.sup_seminorm(), (facs, k)


# component exponents of the orthogonal multipliers of exact_low's Q^2 jobs
ORTHOGONAL_EXPS = [(0, 3), (1, -1), (3, 1), (-3, -2), (-1, 2),
                   (0, -2), (2, -3), (3, 0), (-2, 1), (-1, -3)]


def _block_symbols(R, param):
    """``(pair, span)`` for exact_low's Q^2 x orthogonal shapes, 1-5 factors
    rotating antiholo, holo and mono times ``z^e0`` (+) ``z^e1``, and for the
    3-factor symbol times ``z^8`` (+) ``z^-8``.  ``param()`` draws a nonzero
    parameter, so each component spans one exponent per antiholo or holo
    factor."""
    one = R.components[0].one
    shapes = [([("A", "H", "M")[(rot + j) % 3] for j in range(count)],
                ORTHOGONAL_EXPS[2 * count - 2 + rot])
              for count in range(1, 6) for rot in (0, 1)] + [(["A", "H", "H"], (8, -8))]
    for shape, exps in shapes:
        facs = [wl.Antiholo((param(), param())) if kind == "A" else
                wl.Holo((param(), param())) if kind == "H" else wl.Mono(j % 5 - 2, (one, one))
                for j, kind in enumerate(shape)]
        base = wl.invert_from_factors(R, facs, (-60, 60))
        o_a, o_b = _split_monomial(R, exps)
        yield (wl.InvertiblePair.make(base.a.mul(o_a), base.b.mul(o_b)),
               sum(kind != "M" for kind in shape))


@pytest.mark.parametrize("ring_name", ["Q^2", "C^2", "Q[e]"])
def test_outer_projection_blocks_span_their_leaves(monkeypatch, ring_name):
    # each leaf's block has as many rows as its own support spans, however
    # far the leaves' supports lie from 0 and from each other: Berkowitz
    # over Q and on ring elements, one block per call, and over C the
    # stack of a leaf's two pencils, each counted from its last axis
    from whlaurent.corpus import random_complex_parameter, random_rational_parameter
    from whlaurent.determinants import _poly_det, berkowitz

    sizes = []
    monkeypatch.setattr(factorization, "berkowitz",
                        lambda a, *rest: sizes.append(len(a)) or berkowitz(a, *rest))
    monkeypatch.setattr(factorization, "_poly_det",
                        lambda ring, coef, deg: sizes.extend([coef.shape[-1]] * len(coef[0]))
                        or _poly_det(ring, coef, deg))
    rng = random.Random("blocks:" + ring_name)
    if ring_name == "Q[e]":
        D = dual_ring(Q)
        draws = [_paired_factors(rng) + [wl.Mono(k, D.one)] for k in range(-8, 9)]
        symbols = [(wl.invert_from_factors(D, facs, (-80, 80)),
                    sum(not isinstance(f, wl.Mono) for f in facs)) for facs in draws]
    elif ring_name == "Q^2":
        symbols = _block_symbols(Q2, lambda: random_rational_parameter(rng))
    else:
        symbols = _block_symbols(wl.product_ring(wl.complex_ring(), 2),
                                 lambda: random_complex_parameter(rng, (0.1, 0.9)))
    leaves = 1 if ring_name == "Q[e]" else 2
    for pair, span in symbols:
        sizes.clear()
        wl.factorize(pair)
        assert sizes == [span] * (2 * leaves), (pair.a, sizes)


def _winding_symbols(R, seed):
    """Seeded exact pairs over ``Q`` or ``Q^2``: 1-12 factors of random
    kinds, the one-sided shapes (all antiholo, all holo) with and without
    a monomial, and several monomials per symbol; over ``Q^2`` times
    ``z^e0`` (+) ``z^e1`` from ``ORTHOGONAL_EXPS``, so the two leaves wind
    differently."""
    rng = random.Random("winding:%s:%d" % (R.name, seed))
    units = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(3)]
    draw = (lambda f: f(rng)) if R is Q else (lambda f: (f(rng), f(rng)))
    shapes = [[rng.choice("AHM") for _ in range(count)] for count in range(1, 13)]
    shapes += [["A"] * 4, ["H"] * 5, ["A"] * 3 + ["M"], ["H"] * 2 + ["M", "M"],
               ["M", "A", "M", "H", "M"]]
    for i, shape in enumerate(shapes):
        facs = [wl.Antiholo(draw(random_rational_parameter)) if kind == "A" else
                wl.Holo(draw(random_rational_parameter)) if kind == "H" else
                wl.Mono(rng.randint(-3, 3), draw(lambda r: r.choice(units)))
                for kind in shape]
        half = 3 * sum(abs(getattr(f, "p", 0)) + 1 for f in facs) + 10
        pair = wl.invert_from_factors(R, facs, (-half, half))
        if R is not Q:
            o_a, o_b = _split_monomial(R, ORTHOGONAL_EXPS[i % len(ORTHOGONAL_EXPS)])
            pair = wl.InvertiblePair.make(pair.a.mul(o_a), pair.b.mul(o_b))
        yield pair


def _projection_runs(monkeypatch, pair, full):
    """``(pi_+, pi_-, bounds)`` of ``pair`` by :func:`_outer_projections`,
    with ``bounds`` the ``(rows, deg)`` of each Berkowitz call, in leaf
    order, pi_+'s block before its mirror's; ``full`` runs every call in
    full, as if no degree were known."""
    from whlaurent.determinants import berkowitz

    bounds = []

    def run(a, dot, neg, one, deg):
        bounds.append((len(a), deg))
        return berkowitz(a, dot, neg, one, len(a) if full else deg)

    with monkeypatch.context() as mp:
        mp.setattr(factorization, "berkowitz", run)
        pp, pm = factorization._outer_projections(pair)
    return pp, pm, bounds


def _winding_sum(a, b, leaf=lambda x: x):
    """``sum n a_n b_-n`` of one leaf over ``Q``: the constant term of
    ``z a'(z) b(z)``."""
    return sum(n * leaf(c) * leaf(b.coeff(-n)) for n, c in a.coeffs.items())


@pytest.mark.parametrize("ring_name", ["Q", "Q^2"])
def test_int_projections_stop_at_the_winding_degree(monkeypatch, ring_name):
    # each leaf's pi_+ block runs to hi - p and its mirror block to p - lo,
    # p = sum n a_n b_-n its winding, and both equal the full runs' forms
    R = Q if ring_name == "Q" else Q2
    for seed in range(3):
        for pair in _winding_symbols(R, seed):
            pp, pm, bounds = _projection_runs(monkeypatch, pair, False)
            fpp, fpm, _ = _projection_runs(monkeypatch, pair, True)
            assert pp.ints == fpp.ints and pm.ints == fpm.ints, pair.a
            for (n, d_plus), (_n, d_minus), plus, minus in zip(
                    bounds[::2], bounds[1::2], pp.ints, pm.ints):
                # the bounds are the projections' degrees and sum to n
                assert d_plus + d_minus == n, (pair.a, bounds)
                assert (d_plus, d_minus) == (plus[0] + len(plus[1]) - 1, -minus[0]), pair.a
            if R is Q:
                assert _winding_sum(pair.a, pair.b) == wl.factorize(pair).winding, pair.a


@pytest.mark.parametrize("ring_name", ["Q", "Q^2"])
def test_int_projections_run_in_full_off_an_integer_winding(monkeypatch, ring_name):
    # b_-hi off by 1/1000 in one leaf: the winding sum is no integer there,
    # so that leaf's blocks run in full, and factorize refuses the pair
    R = Q if ring_name == "Q" else Q2
    eps = Fraction(1, 1000) if R is Q else (Fraction(0), Fraction(1, 1000))
    leaf = (lambda x: x) if R is Q else (lambda x: x[1])  # the perturbed leaf
    checked = 0
    for pair in _winding_symbols(R, 0):
        a1 = {n: leaf(c) for n, c in pair.a.coeffs.items() if leaf(c)}
        hi = max(a1)
        if hi == min(a1) or not hi:
            continue  # no block, or a perturbation the winding sum does not read
        coeffs = dict(pair.b.coeffs)
        coeffs[-hi] = R.add(pair.b.coeff(-hi), eps)
        b = LaurentSeries(R, coeffs, pair.b.window)
        bad = wl.InvertiblePair.make(pair.a, b)
        assert _winding_sum(pair.a, b, leaf).denominator != 1, pair.a
        checked += 1
        pp, pm, bounds = _projection_runs(monkeypatch, bad, False)
        fpp, fpm, _ = _projection_runs(monkeypatch, bad, True)
        assert bounds[-2] == (hi - min(a1), hi - min(a1)), bounds
        assert pp.ints == fpp.ints and pm.ints == fpm.ints, pair.a
        assert wl.pi_plus(bad).equals(fpp)
        with pytest.raises(FactorizationError, match="pair residual"):
            wl.factorize(bad)
    assert checked > 10


def _leaf_spans(a):
    """The hull ``(lo, hi)`` of each leaf's support: per component of a
    product of ``Q`` or ``C``, of the whole series over any other ring."""
    R = a.ring
    if R.components is None or leaf_kind(R) is None:
        supp = a.support()
        return [(supp[0], supp[-1])]
    exps = [[n for n, c in a.coeffs.items() if c[i]] for i in range(len(R.components))]
    return [(min(ns), max(ns)) for ns in exps]


def _least_inverse_window(a):
    """The hull over the leaves of ``[e - 2 hi, e - 2 lo]``, ``e`` the
    exponent that re-centres a leaf on 0: what pi_+ and pi_- read of ``b``
    together.  None when every leaf is a monomial and nothing is read."""
    reads = [(e - 2 * hi, e - 2 * lo) for lo, hi in _leaf_spans(a) if lo < hi
             for e in [lo if lo > 0 else hi if hi < 0 else 0]]
    return (min(r[0] for r in reads), max(r[1] for r in reads)) if reads else None


def _windowed(pair, lo, hi):
    """``pair`` with its inverse cut to ``[lo, hi]``."""
    return wl.InvertiblePair.make(pair.a, LaurentSeries(pair.b.ring, pair.b.coeffs, (lo, hi)))


@pytest.mark.parametrize("name", ["Q", "Q^2", "C", "Q[e]"])
def test_inverse_window_is_what_the_blocks_read(name):
    # b cut to exactly what the blocks of pi_+ and pi_- read gives the
    # output of a wide window, and one coefficient fewer at either end is a
    # WindowError: for factorize the hull of [e - 2 hi, e - 2 lo] over the
    # leaves, for the closed forms' blocks (built on the support [lo, hi] of
    # a, not re-centred) [-2 max(hi, 0), -2 min(lo, 0)].  A monomial moves
    # the support off 0, over Q^2 by z^k in one component and z^-k in the
    # other
    from whlaurent.matrices import holomorphic_det_matrix
    from whlaurent.series import laurent_ring

    R, draw = SHIFT_SYMBOLS[name]
    Rw, w = laurent_ring(R, "w"), LaurentSeries.monomial(R, 1)
    rng = random.Random("window:" + name)
    checked = 0
    for _ in range(8):
        facs, k = draw(rng), rng.randint(-8, 8)
        if R.components is None:
            wide = wl.invert_from_factors(R, facs + [wl.Mono(k, R.one)], (-80, 80))
        else:
            base = wl.invert_from_factors(R, facs, (-80, 80))
            o_a, o_b = _split_monomial(R, (k, -k))
            wide = wl.InvertiblePair.make(base.a.mul(o_a), base.b.mul(o_b))
        need = _least_inverse_window(wide.a)
        if need is None:
            continue
        checked += 1
        want = wl.factorize(wide)
        got = wl.factorize(_windowed(wide, *need))
        for g, r in zip((got.pi_minus, got.pi_tilde, got.pi_plus),
                        (want.pi_minus, want.pi_tilde, want.pi_plus)):
            if R.is_exact:
                assert g.coeffs == r.coeffs, (facs, k)
            else:
                assert g.sup_diff(r) <= 1e-12 * r.sup_seminorm(), (facs, k)
        assert got.winding == want.winding
        lo, hi = wide.a._supp_bounds()
        block_need = (-2 * max(hi, 0), -2 * min(lo, 0))
        want_block = holomorphic_det_matrix(wide, Rw, w)
        got_block = holomorphic_det_matrix(_windowed(wide, *block_need), Rw, w)
        assert got_block.entries.keys() == want_block.entries.keys()
        assert all(Rw.equals(v, want_block.entries[rc]) for rc, v in got_block.entries.items())
        for (x, y), build in ((need, wl.factorize),
                              (block_need, lambda p: holomorphic_det_matrix(p, Rw, w))):
            for narrow in ((x + 1, y), (x, y - 1)):
                with pytest.raises(WindowError, match="need at least"):
                    build(_windowed(wide, *narrow))
    assert checked >= 4


def test_b_need_is_the_window_rule():
    # the window rule, on every support with both ends in [-6, 6]: the
    # blocks re-centred on 0 read b on [e - 2 hi, e - 2 lo], the block on
    # the symbol's own hull widened to hold 0 (the closed forms') on
    # [-2 max(hi, 0), -2 min(lo, 0)], a block with no columns reads
    # nothing, and the reflected support reads the mirrored window.  What
    # the map reads is taken from the map itself: the entries of b that G
    # meets against a nonzero entry of W, in both blocks, on the
    # ring-element path (g and the runs) and over C (take)
    from whlaurent.factorization import _leaf_map

    def reads(m, window):
        # the exponents of b that the map reads: both blocks, the mirror's
        # on the reversed b; by g and the runs, and by take, alike
        if not m.n:
            return None
        n, size = m.n, 4 * (m.n + 1)
        got, taken = set(), set()
        for t, (runs, _ones) in enumerate(m.blocks):
            got |= {2 * n - i if t else i
                    for row in m.g for _s, j0, j1, _a0 in runs for i in row[j0:j1]}
            used = (m.take[t, 1] != t * size + 2 * n + 1).any(axis=1)  # rows of W
            taken |= {2 * n - i if t else i for i in (m.take[t, 0][:, used] - t * size).ravel()}
        assert got == taken, m
        assert window[1] - window[0] == 2 * n
        return window[0] + min(got), window[0] + max(got)

    def needs(lo, hi):
        return [reads(*_leaf_map(x, y)) for x, y in ((lo, hi), (min(lo, 0), max(hi, 0)))]

    exps = range(-6, 7)
    for mask in range(1, 1 << len(exps)):
        support = [n for i, n in enumerate(exps) if mask >> i & 1]
        lo, hi = support[0], support[-1]
        e = lo if lo > 0 else hi if hi < 0 else 0
        centred, own = needs(lo, hi)
        assert centred == ((e - 2 * hi, e - 2 * lo) if lo < hi else None), support
        assert own == ((-2 * max(hi, 0), -2 * min(lo, 0)) if support != [0] else None), support
        assert needs(-hi, -lo) == [n and (-n[1], -n[0]) for n in (centred, own)], support


def test_cached_maps_are_bounded_and_read_only():
    # one block map and one table of sample points serve every later call
    # with their key, so no caller may write into them, and each cache
    # holds a bounded number of them
    from whlaurent.determinants import _circle
    from whlaurent.factorization import _block_map

    m = _block_map(-2, 3)
    for arr in (m.take, m.shift, _circle(8, 2)):
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1
    assert _block_map(-2, 3) is m
    assert _block_map.cache_info().maxsize and _circle.cache_info().maxsize


@pytest.mark.parametrize("exact_ring", [True, False], ids=["Q", "C"])
def test_outer_projections_computed_once_per_pair(monkeypatch, exact_ring):
    # pi_plus and pi_minus keep their result on the pair, so the middle
    # factor routes and factorize read it instead of computing it again
    # together, from one call that returns both
    calls = []
    outer = factorization._outer_projections
    monkeypatch.setattr(factorization, "_outer_projections",
                        lambda pair, **kw: calls.append(pair) or outer(pair, **kw))
    _, pair = worked_pair(Q if exact_ring else wl.complex_ring())
    pp, pm = wl.pi_plus(pair), wl.pi_minus(pair)
    wl.pi_tilde_direct(pair, windows=(10, 14))
    res = wl.factorize(pair)
    assert len(calls) == 1
    assert res.pi_plus is pp and res.pi_minus is pm
    # the kept projections are no part of the pair's value: a pair of the
    # same parts starts with none, and the pair's repr shows none
    fresh = wl.InvertiblePair.make(pair.a, pair.b)
    assert fresh.projections is None and "projections" not in repr(pair)


def _reflect_factor(f):
    # a(z) -> a(1/z): (1 - alpha z^-1) <-> (1 - alpha z), u z^p -> u z^-p
    if isinstance(f, wl.Antiholo):
        return wl.Holo(f.alpha)
    if isinstance(f, wl.Holo):
        return wl.Antiholo(f.beta)
    return wl.Mono(-f.p, f.u)


def _reflect(s):
    w = None if s.window is None else (-s.window[1], -s.window[0])
    return LaurentSeries(s.ring, {-n: c for n, c in s.coeffs.items()}, w)


def _reflection_symbols(ring_name):
    from whlaurent.corpus import random_rational_factors

    rng = random.Random("reflect:" + ring_name)
    for i in range(40):
        if ring_name == "C":
            yield random_complex_factors(rng, n_factors=1 + i % 10, modulus=(0.1, 0.9))
            continue
        facs = random_rational_factors(rng, max_factors=1 + i % 8)
        yield facs if ring_name == "Q" else _q2_factors(rng, facs)


def _closed_forms(R, facs):
    """pi_-, pi~ and pi_+ of a product of elementary factors, read off the
    factor list: prod(1 - alpha z^-1), u z^p and prod(1 - beta z)."""
    return [wl.factors_to_series(R, [f for f in facs if isinstance(f, kind)])
            for kind in (wl.Antiholo, wl.Mono, wl.Holo)]


@pytest.mark.parametrize("ring_name", ["Q", "Q^2", "C"])
def test_reflection_swaps_the_outer_projections(ring_name):
    # a(1/z) = pi_-(1/z) pi~(1/z) pi_+(1/z) is again a factorization, so by
    # uniqueness the reflected symbol's pi_+ is the reflected pi_-, and the
    # other way round.  pi_- is itself computed as the reflected pi_+ of
    # a(1/z), so each factor is also checked against its closed form from
    # the factor list: by == over Q and Q^2, and over C within 1e-10, far
    # under the ring tolerance 1e-9.  Cutting the bracket entries to that
    # tolerance would move pi_+ 2.3e-10 off its closed form on one of these
    # symbols, and a / pi_+ / pi_- would pass the error into pi~ (4.1e-10);
    # with every entry kept, the worst errors are 2.8e-12 for pi_-, 3.0e-15
    # for pi~ and 3.8e-15 for pi_+
    R = {"Q": Q, "Q^2": wl.product_ring(Q, 2), "C": wl.complex_ring()}[ring_name]
    for facs in _reflection_symbols(ring_name):
        res = wl.factorize(wl.invert_from_factors(R, facs, (-60, 60)))
        ref = wl.factorize(wl.invert_from_factors(R, [_reflect_factor(f) for f in facs],
                                                  (-60, 60)))
        pairs = ((ref.pi_plus, res.pi_minus), (ref.pi_minus, res.pi_plus),
                 (ref.pi_tilde, res.pi_tilde))
        for got, orig in pairs:
            if R.is_exact:
                assert got.coeffs == _reflect(orig).coeffs, facs
            else:
                assert got.sup_diff(_reflect(orig)) <= 1e-10, facs
        parts = (res.pi_minus, res.pi_tilde, res.pi_plus)
        for got, want in zip(parts, _closed_forms(R, facs)):
            if R.is_exact:
                assert got.coeffs == want.coeffs, facs
            else:
                assert got.sup_diff(want) <= 1e-10, facs
        assert ref.winding == (None if res.winding is None else -res.winding), facs


@pytest.mark.parametrize("half", [49, 113, 200, 369])
def test_sixteen_factor_symbol_factorizes(half):
    # a bracket entry under the ring's tolerance is part of K: cut to 0,
    # such entries would move pi_+ 2.5e-10 and pi_- 1.2e-9 off their closed
    # forms, and the middle factor would fail the orthogonality check at
    # every one of these windows
    from whlaurent.oracle import cepstral_factorize, compare, root_split_factorize

    R = wl.complex_ring()
    facs = sixteen_factor_symbol()
    pair = wl.invert_from_factors(R, facs, (-half, half))
    res = wl.factorize(pair)
    assert res.winding == 1
    for got, want in zip((res.pi_minus, res.pi_tilde, res.pi_plus), _closed_forms(R, facs)):
        assert got.sup_diff(want) <= 1e-12
    for orc in (cepstral_factorize(pair.a), root_split_factorize(pair.a)):
        rep = compare(res, orc)
        assert rep.max_diff <= 1e-12 and rep.winding_equal


@pytest.mark.parametrize("ring_name", ["Q", "Q^2", "C"])
def test_factorize_rejects_a_wrong_pi_plus(ring_name):
    # the reconstruction residual is 0 for any unit pi_+, since each long
    # division holds on its window; the orthogonality of the middle factor
    # is the check that rejects a wrong outer projection
    R = {"Q": Q, "Q^2": wl.product_ring(Q, 2), "C": wl.complex_ring()}[ring_name]
    elem = {"Q": Fraction, "Q^2": lambda x: (x, x / 2), "C": complex}[ring_name]
    facs = [wl.Antiholo(elem(Fraction(1, 2))), wl.Mono(1, elem(Fraction(2, 3))),
            wl.Holo(elem(Fraction(-1, 3)))]
    pair = wl.invert_from_factors(R, facs, (-32, 32))
    bump = LaurentSeries.monomial(R, 1, elem(Fraction(1, 7)))
    pair.projections = (wl.pi_plus(pair).add(bump), wl.pi_minus(pair))
    with pytest.raises(FactorizationError, match="middle projection is not orthogonal"):
        wl.factorize(pair)


@pytest.mark.parametrize("ring_name", ["Q", "C"])
def test_factorize_compares_the_product_on_all_of_a(ring_name):
    # pi~ is computed on [s0 - deg pi_+, s1 + deg pi_-], so the product
    # pm * pt * pp that certify compares with a spans a's support [-5, 5],
    # and its residual is the one certify gives on the parts without
    # windows, as verify reads them; a pi_+ off by 1e-6 in its top
    # coefficient still leaves a middle factor that is not orthogonal
    R, elem = (Q, Fraction) if ring_name == "Q" else (wl.complex_ring(), complex)
    facs = [wl.Antiholo(elem(Fraction(k, 7))) for k in range(1, 6)] + \
           [wl.Holo(elem(Fraction(-k, 8))) for k in range(1, 6)]
    pair = wl.invert_from_factors(R, facs, (-32, 32))
    assert pair.a._supp_bounds() == (-5, 5)
    res = wl.factorize(pair)
    lo, hi = res.reconstruct().window
    assert lo <= -5 and hi >= 5
    bare = [LaurentSeries(R, p.coeffs) for p in (res.pi_minus, res.pi_tilde, res.pi_plus)]
    assert res.residual == factorization.certify(pair, *bare)
    top = res.pi_plus._supp_bounds()[1]
    bumped = res.pi_plus.add(LaurentSeries.monomial(R, top, elem(Fraction(1, 10 ** 6))))
    pair.projections = (bumped, pair.projections[1])
    with pytest.raises(FactorizationError, match="middle projection is not orthogonal"):
        wl.factorize(pair)


def test_window_errors_name_the_inverse_as_given():
    # pi_- and the antiholomorphic closed-form block read the mirror block,
    # b's coefficients reversed, yet a too-small window is named on b as
    # given, as pi_+ names it
    from whlaurent.matrices import antiholomorphic_det_matrix
    from whlaurent.series import laurent_ring

    pair = _windowed(wl.invert_from_factors(Q, [wl.Mono(-1, Fraction(-2)),
                                                wl.Holo(Fraction(1, 2))], (-16, 16)), 1, 10)
    Rw, w = laurent_ring(Q, "w"), LaurentSeries.monomial(Q, 1)
    for build in (wl.pi_plus, wl.pi_minus, lambda p: antiholomorphic_det_matrix(p, Rw, w)):
        with pytest.raises(WindowError) as info:
            build(pair)
        assert str(info.value) == "inverse window [1,10] too small; need at least [0,2]"


def test_narrow_window_fails_before_b_is_built():
    # a = (z - 1/2)(1 - z/3) spans [0, 2]: pi_+ and the closed forms' block
    # read b on [-4, 0], the idempotents on [-2, 0].  Declared on [-1, 1],
    # each reader fails in InvertiblePair.read with one message, naming its
    # own window, and the builder of b never runs
    from whlaurent.matrices import holomorphic_det_matrix
    from whlaurent.series import laurent_ring

    Rw, w = laurent_ring(Q, "w"), LaurentSeries.monomial(Q, 1)
    readers = ((wl.pi_plus, (-4, 0)), (lambda p: holomorphic_det_matrix(p, Rw, w), (-4, 0)),
               (wl.orthogonal_decompose, (-2, 0)))
    for read, need in readers:
        _, pair = worked_pair(Q, (-1, 1))
        built, build = [], pair._build
        pair._build = lambda window: built.append(window) or build(window)
        with pytest.raises(WindowError) as info:
            read(pair)
        assert str(info.value) == ("inverse window [-1,1] too small; need at least [%d,%d]"
                                   % need)
        assert built == []


def test_orthogonal_decompose_reads_b_on_the_mirrored_support():
    # 2 z^5 reads b_-5 alone: b declared on [-2, 2] holds none of it, which
    # used to read as 0 and fail as "idempotents do not sum to 1"
    a = LaurentSeries(Q, {5: Fraction(2)})
    b = LaurentSeries(Q, {-5: Fraction(1, 2)}, (-2, 2))
    for pair in (wl.InvertiblePair.make(a, b),
                 wl.invert_from_factors(Q, [wl.Mono(5, Fraction(2))], (-2, 2))):
        with pytest.raises(WindowError, match=r"^inverse window \[-2,2\] too small; "
                                              r"need at least \[-5,-5\]$"):
            wl.orthogonal_decompose(pair)
    dec = wl.orthogonal_decompose(wl.invert_from_factors(Q, [wl.Mono(5, Fraction(2))], (-5, 5)))
    assert dec.idempotents == {5: 1} and dec.unit == 2
