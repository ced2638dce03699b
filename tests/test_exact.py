"""Integer kernels over Q: long division, fraction-free elimination and
the integer series form and its conversions (products are checked through
LaurentSeries.mul in test_series)."""

import itertools
import random
from fractions import Fraction

import whlaurent as wl
from whlaurent import exact, series
from whlaurent.determinants import det_berkowitz

Q = wl.rational_ring()


def _fraction_div(x, u, count):
    """The power series ``x / u`` term by term on Fractions."""
    q = []
    for t in range(count):
        acc = Fraction(x[t] if t < len(x) else 0)
        acc -= sum(u[m] * q[t - m] for m in range(1, min(t, len(u) - 1) + 1))
        q.append(acc / u[0])
    return q


def test_int_div_matches_fraction_recurrence():
    rng = random.Random(4)
    for _ in range(60):
        u = [rng.choice([1, 2, 3, -6, 35])] + [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))]
        x = [rng.randint(-20, 20) for _ in range(rng.randint(0, 8))]
        count = rng.randint(0, 40)
        got = exact.int_div(x, u, count)
        assert [Fraction(g, u[0] ** (t + 1)) for t, g in enumerate(got)] == \
            _fraction_div(x, u, count)


# pairwise coprime denominators, so that products of a few factors reach
# 100 bits and more
BIG = [2**61 - 1, 2**31 - 1, 3**20]


def _sylvester_systems(rng):
    """Sylvester systems of the Bezout identity as ``series._q_pair``
    builds them, from products of linear factors ``q - m v`` (for a
    parameter ``m / q``) with parameters over large coprime denominators;
    each also with its rows reversed, whose leading entries are 0, so the
    elimination swaps rows.
    The last pair has a root of one polynomial at the reciprocal of a root
    of the other, so it is singular."""
    params = [([Fraction(rng.choice([-7, -2, 3, 5]), rng.choice(BIG)) for _ in range(r)],
               [Fraction(rng.choice([-5, -1, 4, 9]), rng.choice(BIG)) for _ in range(s)])
              for r, s in [(1, 1), (2, 3), (4, 1), (1, 5), (3, 4), (6, 6)]]
    params.append(([Fraction(3, BIG[0]), Fraction(-1, BIG[1])], [Fraction(BIG[0], 3)]))
    out = []
    for alphas, betas in params:
        anti, holo = [1], [1]
        for c in alphas:
            anti = exact.int_mul(anti, [c.denominator, -c.numerator])
        for c in betas:
            holo = exact.int_mul(holo, [c.denominator, -c.numerator])
        m = [row[:-1] for row in series._sylvester(anti, holo, 0, 1)]
        out += [m, m[::-1]]
    return out


def test_bareiss_determinant_and_solve():
    rng = random.Random(9)
    mats = []
    for trial in range(150):
        n = rng.randint(0, 9)
        density = (0.15, 0.5, 1.0)[trial % 3]  # nearly diagonal, sparse, dense
        mats.append([[rng.randint(-9, 9) if i == j or rng.random() < density else 0
                      for j in range(n)] for i in range(n)])
    sylvester = _sylvester_systems(random.Random(19))
    assert max(abs(v).bit_length() for m in sylvester for row in m for v in row) >= 100
    assert any(not m[0][0] for m in sylvester)
    for m in mats + sylvester:
        n = len(m)
        want = det_berkowitz(Q, [[Fraction(v) for v in row] for row in m])
        assert exact.bareiss([list(row) for row in m]) == want, m
        b = [rng.randint(-5, 5) for _ in range(n)]
        z, det = exact.bareiss_solve([row + [bi] for row, bi in zip(m, b)])
        if want:
            assert det == want
            assert all(sum(map(lambda p, q: p * q, row, z)) == det * bi for row, bi in zip(m, b))
        else:
            assert (z, det) == ([], 0)
    assert not det_berkowitz(Q, [[Fraction(v) for v in row] for row in sylvester[-1]])


def test_common_denominator_round_trip():
    coeffs = {-3: Fraction(1, 6), 0: Fraction(-5, 4), 2: Fraction(7), 9: Fraction(1, 10)}
    form = exact.from_terms([(n, c.numerator, c.denominator) for n, c in coeffs.items()])
    assert form == (-3, [10, 0, 0, -75, 0, 420] + [0] * 6 + [6], 60)
    assert exact.to_fractions(form) == coeffs
    # a slice has the numerators and the lcm that clearing its Fractions gives
    assert exact.slice_ints(form, -3, 2) == ([2, 0, 0, -15, 0, 84], 12)
    assert exact.slice_ints(form, -1, 5) == ([0, -5, 0, 28, 0, 0, 0], 4)
    assert exact.slice_ints(form, 10, 11) == ([0, 0], 1)
    assert exact.reduced(-3, [2, 0, 0, -15, 0, 84], 12, (-1, 5)) == (0, [-5, 0, 28], 4)
    assert exact.reduced(1, [0, 2, -4], -6) == (2, [-1, 2], 3)
    assert exact.from_terms([]) == exact.reduced(0, [0, 0], 5) == (0, [], 1)


def test_int_div_early_exit_is_exact(monkeypatch):
    # x = q * u is an exact division: the recurrence stops once x is used up
    # and len(u) - 1 terms are 0.  x = q * u + r with r != 0 of lower degree
    # than u is not, so it never stops.  Both agree with the Fraction
    # recurrence on every term, well past the support.
    products = []
    monkeypatch.setattr(exact, "mul", lambda p, q: products.append(1) or p * q)
    rng = random.Random(18)
    nonzero = [v for v in range(-9, 10) if v]
    for trial in range(120):
        deg = rng.randint(0, 6) if trial % 2 == 0 else rng.randint(1, 6)
        u = [rng.choice([1, 2, -3, 6, 35])] + [rng.randint(-9, 9) for _ in range(deg - 1)]
        u += [rng.choice(nonzero)] if deg else []
        q = [rng.randint(-20, 20) for _ in range(rng.randint(0, 8))]
        x = exact.int_mul(q, u) or [0]
        if trial % 2:
            r = [rng.randint(-5, 5) for _ in range(deg - 1)] + [rng.choice(nonzero)]
            x = [a + b for a, b in itertools.zip_longest(x, r, fillvalue=0)]
        count = len(x) + len(u) + 40
        del products[:]
        got = exact.int_div(x, u, count)
        assert len(got) == count
        assert [Fraction(g, u[0] ** (t + 1)) for t, g in enumerate(got)] == \
            _fraction_div(x, u, count), (x, u)
        if trial % 2 == 0:
            assert got[len(q):] == [0] * (count - len(q))
            # no term past len(x) + len(u) - 1 is computed
            assert len(products) <= (len(x) + len(u)) * len(u)
        else:
            # len(u) - 1 zero terms in a row past x would end the series
            assert any(got[-deg:]) and len(products) >= (count - deg) * deg
