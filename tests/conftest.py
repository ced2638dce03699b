"""Shared fixtures and independent oracles for the test suite."""

import random
from fractions import Fraction

import pytest

import whlaurent as wl


@pytest.fixture
def Q():
    return wl.rational_ring()


@pytest.fixture
def C():
    return wl.complex_ring()


@pytest.fixture
def QQ():
    return wl.product_ring(wl.rational_ring(), 2)


@pytest.fixture
def QQQ():
    return wl.product_ring(wl.rational_ring(), 3)


def dual_ring(base):
    """Dual numbers ``base[e]/(e^2)`` as pairs ``(x, x')``: a ring with
    nilpotents, neither ``Q``, ``C`` nor a product of them."""
    def mul(x, y):
        return (base.mul(x[0], y[0]), base.add(base.mul(x[0], y[1]), base.mul(x[1], y[0])))

    def inv(x):
        i = base.inverse(x[0])
        return (i, base.neg(base.mul(x[1], base.mul(i, i))))

    return wl.Ring(name="%s[e]" % base.name, zero=(base.zero, base.zero),
                   one=(base.one, base.zero),
                   add=lambda x, y: (base.add(x[0], y[0]), base.add(x[1], y[1])), mul=mul,
                   neg=lambda x: (base.neg(x[0]), base.neg(x[1])),
                   seminorm=lambda x: base.seminorm(x[0]),
                   equals=lambda x, y: base.equals(x[0], y[0]) and base.equals(x[1], y[1]),
                   tolerance=base.tolerance, invert=inv)


def det_cofactor(ring, rows):
    """Independent dense determinant by cofactor expansion (any ring)."""
    n = len(rows)
    if n == 0:
        return ring.one
    if n == 1:
        return rows[0][0]
    out = ring.zero
    for j in range(n):
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = ring.mul(rows[0][j], det_cofactor(ring, minor))
        out = ring.add(out, term if j % 2 == 0 else ring.neg(term))
    return out


def random_block(ring, rng, rand_elem, window, radius=1, density=0.7):
    """Random finite-support perturbation on the given matrix window."""
    from whlaurent.matrices import Lattice, WindowedMatrix

    ents = {}
    for r in range(-radius, radius + 1):
        for c in range(-radius, radius + 1):
            if rng.random() < density:
                ents[(r, c)] = rand_elem(rng)
    return WindowedMatrix(ring, Lattice.INTEGER, window, ents, 2 * radius, window)


def reference_shift_entries(variant, n, ring, t, w, window):
    """Entry map of the conjugated shift matrices, written directly from
    the displayed closed forms (independent of the library's builder).

    variant 'R': conjugation by the full reflection factor; '+'/'-' by the
    holomorphic / antiholomorphic halves.  ``n`` is the shift exponent.
    """
    lo, hi = window

    def pw(x, k):
        out = ring.one
        for _ in range(k):
            out = ring.mul(out, x)
        return out

    tw = ring.mul(t, w)
    tw_inv = ring.mul(t, ring.inverse(w))
    one_minus_t2 = ring.sub(ring.one, ring.mul(t, t))
    ents = {}

    def put(r, c, v):
        if lo <= r <= hi and lo <= c <= hi and not ring.is_zero(v):
            ents[(r, c)] = v

    assert n != 0
    m = abs(n)
    if variant == "R" and n > 0:
        for r in range(lo, hi + 1):          # shifted identity off the block
            if not (0 <= r <= n):
                put(r, r - n, ring.one)
        for c in range(-n, 1):               # top row of the block
            put(0, c, pw(tw, c + n))
        for r in range(1, n + 1):            # block rows
            put(r, r - n - 1, ring.neg(tw_inv))
            for j in range(0, n - r + 1):
                put(r, r - n + j, ring.mul(pw(tw, j), one_minus_t2))
    elif variant == "R" and n < 0:
        for r in range(lo, hi + 1):
            if not (-m <= r <= 0):
                put(r, r + m, ring.one)
        for c in range(0, m + 1):
            put(0, c, pw(tw_inv, m - c))
        for r in range(-m, 0):
            put(r, r + m + 1, ring.neg(tw))
            for j in range(0, r + m + 1):
                put(r, r + m - j, ring.mul(pw(tw_inv, j), one_minus_t2))
    elif variant == "+" and n > 0:
        for r in range(lo, hi + 1):
            if not (0 <= r <= n):
                put(r, r - n, ring.one)
        for r in range(0, n + 1):
            for j in range(0, n - r + 1):
                put(r, r - n + j, pw(tw, j))
    elif variant == "+" and n < 0:
        for r in range(lo, hi + 1):
            put(r, r + m, ring.one)
        for r in range(-m, 0):
            put(r, r + m + 1, ring.neg(tw))
    elif variant == "-" and n > 0:
        for r in range(lo, hi + 1):
            put(r, r - n, ring.one)
        for r in range(1, n + 1):
            put(r, r - n - 1, ring.neg(tw_inv))
    elif variant == "-" and n < 0:
        for r in range(lo, hi + 1):
            if not (-m < r <= 0):
                put(r, r + m, ring.one)
        for r in range(-m + 1, 1):
            for j in range(0, r + m + 1):
                put(r, r + m - j, pw(tw_inv, j))
    else:
        raise ValueError(variant)
    return ents


def symbolic_tw():
    """Nested coefficient ring Q[t,t^-1][w,w^-1] with its generators."""
    from whlaurent.series import LaurentSeries, laurent_ring

    Qbase = wl.rational_ring()
    Qt = laurent_ring(Qbase, "t")
    Qtw = laurent_ring(Qt, "w")
    t = LaurentSeries.const(Qt, LaurentSeries.monomial(Qbase, 1))
    w = LaurentSeries.monomial(Qt, 1)

    def embed(c):
        return LaurentSeries.const(Qt, LaurentSeries.const(Qbase, c))

    return Qtw, t, w, embed


def worked_pair(ring=None, window=(-32, 32)):
    """The standard worked example (1 - z^-1/2) * z * (1 - z/3)."""
    ring = ring or wl.rational_ring()
    half = Fraction(1, 2) if ring.is_exact else complex(0.5)
    third = Fraction(1, 3) if ring.is_exact else complex(1.0 / 3.0)
    one = Fraction(1) if ring.is_exact else complex(1.0)
    factors = [wl.Antiholo(half), wl.Mono(1, one), wl.Holo(third)]
    return factors, wl.invert_from_factors(ring, factors, window)


def sixteen_factor_symbol():
    """The ``C`` factor list that ``corpus.random_complex_factors`` draws
    with 16 factors from ``Random(16)`` after 16 pairs of ``randint(0, 1)``:
    9 ``Antiholo`` (|alpha| 0.25-0.58), 2 ``Holo`` (|beta| 0.12 and 0.19)
    and 5 ``Mono`` whose exponents sum to 1.  Both of its bracket blocks
    hold entries under the ring's tolerance 1e-9 that are not zero."""
    from whlaurent.corpus import random_complex_factors

    rng = random.Random(16)
    for _ in range(16):
        rng.randint(0, 1)
        rng.randint(0, 1)
    return random_complex_factors(rng, 16)
