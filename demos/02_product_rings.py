"""Factorization over product rings: orthogonal series and idempotents.

Over Q x Q the middle factor need not be a monomial: its coefficients
are weighted idempotents, one per exponent, and the winding index is
undefined.  The idempotent family Pi_n = a_n b_{-n} partitions 1.
"""

from fractions import Fraction

import whlaurent as wl
from whlaurent.series import LaurentSeries

R = wl.product_ring(wl.rational_ring(), 2)
one, zero = Fraction(1), Fraction(0)

# winds once forward in the first component, once backward in the second
a = LaurentSeries(R, {1: (one, zero), -1: (zero, one)})
b = LaurentSeries(R, {-1: (one, zero), 1: (zero, one)})
pair = wl.InvertiblePair.make(a, b)
print("symbol a =", a)

res = wl.factorize(pair)
print("pi_tilde =", res.pi_tilde)
print("winding  =", res.winding, "(undefined: the ring decomposes)")

dec = wl.orthogonal_decompose(pair)
print()
print("idempotents:")
for n, p in sorted(dec.idempotents.items()):
    print("  Pi_%+d =" % n, R.fmt(p))
print("unit (value at z=1):", R.fmt(dec.unit))

# the half-lattice projection P determines the orthonormal series: build
# P from the idempotents and recover the series from a determinant
p = wl.projection_matrix(dec, (-8, 8))
recovered = wl.n_p_series(p)
print()
print("recovered from the projection:", recovered)
print("matches the orthonormal part: ", recovered.equals(a))

# a mixed example: a genuine two-sided symbol whose parameters differ
# per component, factored exactly
al = (Fraction(1, 2), Fraction(1, 3))
pair = wl.invert_from_factors(R, [wl.Antiholo(al), wl.Mono(1, R.one)], (-24, 24))
res = wl.factorize(pair)
print()
print("mixed symbol:", pair.a)
print("  pi_minus =", res.pi_minus)
print("  pi_tilde =", res.pi_tilde)
print("  residual =", res.residual)
