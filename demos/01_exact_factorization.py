"""Exact Wiener-Hopf factorization over the rationals.

Builds a(z) = (1 - z^-1/2) * z * (1 - z/3) from elementary factors and
splits it into the strictly antiholomorphic, monomial, and strictly
holomorphic parts.  Every coefficient is an exact Fraction and the
reconstruction residual is exactly zero.
"""

from fractions import Fraction

import whlaurent as wl

Q = wl.rational_ring()

factors = [wl.Antiholo(Fraction(1, 2)), wl.Mono(1, Fraction(1)),
           wl.Holo(Fraction(1, 3))]
pair = wl.invert_from_factors(Q, factors, (-32, 32))
print("symbol      a =", pair.a)
print("inverse     b =", pair.b.truncate((-3, 3)), "(shown on [-3, 3])")
print("pair residual =", pair.residual)

res = wl.factorize(pair)
print()
print("pi_minus =", res.pi_minus)
print("pi_tilde =", res.pi_tilde)
print("pi_plus  =", res.pi_plus)
print("winding  =", res.winding)
print("residual =", res.residual)
print()
print("reconstruction:", res.reconstruct())

# negative winding works the same way; the middle factor absorbs the
# monomial unit
factors = [wl.Antiholo(Fraction(2, 5)), wl.Mono(-2, Fraction(3))]
pair = wl.invert_from_factors(Q, factors, (-32, 32))
res = wl.factorize(pair)
print()
print("second symbol:", pair.a)
print("  ->", res.pi_minus, "*", res.pi_tilde, "*", res.pi_plus,
      "| winding", res.winding)
