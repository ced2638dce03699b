"""The determinant engine against two classical complex-analysis routes.

For complex coefficients the factorization can be computed classically:
by splitting the Fourier coefficients of log a (cepstral method) or by
splitting polynomial roots at the unit circle.  Both agree with the
determinant engine to near machine precision.
"""

import random

import whlaurent as wl
from whlaurent.corpus import random_complex_factors
from whlaurent.oracle import cepstral_factorize, compare, root_split_factorize
from whlaurent.series import LaurentSeries

C = wl.complex_ring()

# the symmetric symbol 3 - z - z^-1: roots of the quadratic at
# (3 +- sqrt 5)/2, one inside and one outside the circle
a = LaurentSeries(C, {-1: -1.0 + 0j, 0: 3.0 + 0j, 1: -1.0 + 0j})
pair = wl.invert_numeric(a, 1024)
engine = wl.factorize(pair)
print("symbol:", a)
print("engine pi_plus coefficient at w:", engine.pi_plus.coeff(1))
print("expected -(3 - sqrt 5)/2       :", -(3 - 5 ** 0.5) / 2)
print("winding:", engine.winding)

for name, orc in [("cepstral  ", cepstral_factorize(a)),
                  ("root-split", root_split_factorize(a))]:
    rep = compare(engine, orc)
    print("engine vs %s: max coefficient diff %.2e, windings agree: %s"
          % (name, rep.max_diff, rep.winding_equal))

print()
print("random three-factor symbols:")
rng = random.Random(42)
worst = 0.0
for _ in range(10):
    factors = random_complex_factors(rng)
    pair = wl.invert_from_factors(C, factors, (-24, 24))
    engine = wl.factorize(pair)
    for orc in (cepstral_factorize(pair.a), root_split_factorize(pair.a)):
        worst = max(worst, compare(engine, orc).max_diff)
print("worst difference over 10 symbols x 2 oracles: %.2e" % worst)

# the middle factor has an independent route through a truncated
# half-lattice determinant; the two must agree within the tail estimate
factors = random_complex_factors(rng)
pair = wl.invert_from_factors(C, factors, (-48, 48))
pp, pm = wl.pi_plus(pair), wl.pi_minus(pair)
derived = wl.pi_tilde_derived(pair, pm, pp, (-12, 12))
direct, tail = wl.pi_tilde_direct(pair, windows=(16, 24))
print()
print("middle factor, derived route:", derived.truncate((-2, 2)))
print("middle factor, direct route :", direct.truncate((-2, 2)))
print("difference %.2e (reported tail estimate %.2e)"
      % (direct.sup_diff(derived), tail))
