"""Seeded random symbol corpora for tests and the oracle-compare mode."""

from __future__ import annotations

import cmath
import random
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .rings import Ring, rational_ring, complex_ring, product_ring
from .series import (Antiholo, Holo, InvertiblePair, LaurentSeries, Mono,
                     invert_from_factors)


def random_rational_parameter(rng: random.Random) -> Fraction:
    """Nonzero rational with |numerator| <= 3, denominator <= 5, |value| < 1."""
    while True:
        num = rng.choice([-3, -2, -1, 1, 2, 3])
        den = rng.randint(2, 5)
        f = Fraction(num, den)
        if abs(f) < 1:
            return f


def random_rational_factors(rng: random.Random, max_factors: int = 3,
                            kinds: Sequence[str] = ("antiholo", "mono", "holo")) -> list:
    count = rng.randint(1, max_factors)
    out = []
    for _ in range(count):
        kind = rng.choice(list(kinds))
        if kind == "antiholo":
            out.append(Antiholo(random_rational_parameter(rng)))
        elif kind == "holo":
            out.append(Holo(random_rational_parameter(rng)))
        else:
            out.append(Mono(rng.randint(-2, 2), rng.choice(
                [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(3)])))
    return out


def random_rational_pair(rng: random.Random, window: Tuple[int, int] = (-16, 16),
                         max_factors: int = 3,
                         kinds: Sequence[str] = ("antiholo", "mono", "holo"),
                         ) -> Tuple[list, InvertiblePair]:
    factors = random_rational_factors(rng, max_factors, kinds)
    return factors, invert_from_factors(rational_ring(), factors, window)


def random_complex_parameter(rng: random.Random,
                             modulus: Tuple[float, float] = (0.1, 0.6)) -> complex:
    r = rng.uniform(*modulus)
    phi = rng.uniform(0.0, 2.0 * 3.141592653589793)
    return r * cmath.exp(1j * phi)


def random_complex_factors(rng: random.Random, n_factors: int = 3,
                           modulus: Tuple[float, float] = (0.1, 0.6)) -> list:
    out = []
    for _ in range(n_factors):
        kind = rng.choice(["antiholo", "mono", "holo"])
        if kind == "antiholo":
            out.append(Antiholo(random_complex_parameter(rng, modulus)))
        elif kind == "holo":
            out.append(Holo(random_complex_parameter(rng, modulus)))
        else:
            out.append(Mono(rng.randint(-1, 1), complex(1.0)))
    return out


def random_complex_pair(rng: random.Random, window: Tuple[int, int] = (-24, 24),
                        n_factors: int = 3, ring: Optional[Ring] = None,
                        modulus: Tuple[float, float] = (0.1, 0.6),
                        ) -> Tuple[list, InvertiblePair]:
    factors = random_complex_factors(rng, n_factors, modulus)
    return factors, invert_from_factors(ring or complex_ring(), factors, window)


def random_orthogonal_pair(base_arity: int, rng: random.Random,
                           exponent_range: Tuple[int, int] = (-3, 3),
                           ) -> InvertiblePair:
    """Random orthogonal invertible series over Q^arity.

    Each component is assigned an exponent and an invertible rational
    unit; the coefficient at n is the indicator-weighted tuple, which
    makes distinct coefficients multiply to zero componentwise.
    """
    ring = product_ring(rational_ring(), base_arity)
    exps = [rng.randint(*exponent_range) for _ in range(base_arity)]
    units = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
             for _ in range(base_arity)]
    a_coeffs = {}
    b_coeffs = {}
    for n in set(exps):
        a_coeffs[n] = tuple(units[i] if exps[i] == n else Fraction(0)
                            for i in range(base_arity))
        b_coeffs[-n] = tuple(1 / units[i] if exps[i] == n else Fraction(0)
                             for i in range(base_arity))
    a = LaurentSeries(ring, a_coeffs)
    b = LaurentSeries(ring, b_coeffs)
    return InvertiblePair.make(a, b)
