"""Exact arithmetic over ``Q`` on Python integers.

A ``Q`` series is held as one list of integer numerators over one common
denominator, ``(lo, nums, den)`` in lowest terms (:data:`Ints`), as
FLINT's ``fmpq_poly`` holds a rational polynomial (Hart, "FLINT: Fast
Library for Number Theory", 2010).  The kernels read and write this form
directly, so no operation between them builds a ``Fraction``; one is
built per coefficient only when a caller reads the coefficients
(:func:`to_fractions`).  Lowest terms make a slice of the form
(:func:`slice_ints`) the numerators and the least common denominator
that clearing its ``Fraction`` values would give.  Products are integer
convolutions, division by a unit is a fraction-free recurrence, linear
systems (the Bezout system of an inverse, the Vandermonde system of an
interpolation) and determinants use fraction-free Bareiss elimination,
and characteristic polynomials division-free Berkowitz
(:func:`determinants.berkowitz`) with the integer inner product
:func:`dot`.  A caller takes these kernels when :func:`rings.leaf_kind`
reads ``Fraction``; over a (nested) product of ``Q`` a series holds one
form per leaf.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple


Ints = Tuple[int, List[int], int]
"""A ``Q`` series ``(lo, nums, den)``: ``nums[i] / den`` at exponent
``lo + i``, zero ends trimmed, ``den > 0`` and ``gcd(den, *nums) == 1``;
``(0, [], 1)`` is zero."""


def clear(values: Sequence[Fraction]) -> Tuple[List[int], int]:
    """Numerators ``nums`` and the least common denominator ``d`` with
    ``values[i] = nums[i] / d``."""
    d = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


def reduced(lo: int, nums: Sequence[int], den: int,
            window: Optional[Tuple[int, int]] = None) -> Ints:
    """The values ``nums[i] / den`` at exponent ``lo + i`` (inside
    ``window`` when one is given) as an :data:`Ints` in lowest terms: one
    multi-argument ``gcd``, no ``Fraction``."""
    start, stop = 0, len(nums)
    if window is not None:
        start, stop = max(start, window[0] - lo), min(stop, window[1] - lo + 1)
    while start < stop and not nums[start]:
        start += 1
    while stop > start and not nums[stop - 1]:
        stop -= 1
    if start >= stop:
        return (0, [], 1)
    part = list(nums[start:stop])
    g = math.gcd(den, *part)
    if den < 0:
        g = -g
    if g != 1:
        part, den = [x // g for x in part], den // g
    return (lo + start, part, den)


def restrict(form: Ints, window: Optional[Tuple[int, int]]) -> Ints:
    """``form`` on ``window`` (all of it for ``None``), in lowest terms."""
    lo, nums, den = form
    if window is None or (window[0] <= lo and lo + len(nums) <= window[1] + 1):
        return form
    return reduced(lo, nums, den, window)


def from_terms(terms: Sequence[Tuple[int, int, int]]) -> Ints:
    """The :data:`Ints` of the values ``num / den`` at exponent ``n``, for
    ``(n, num, den)`` triples with distinct ``n`` and ``den > 0``, over the
    least common multiple of the ``den``."""
    if not terms:
        return (0, [], 1)
    d = math.lcm(*(den for _n, _num, den in terms))
    lo = min(n for n, _num, _den in terms)
    nums = [0] * (max(n for n, _num, _den in terms) - lo + 1)
    for n, num, den in terms:
        nums[n - lo] = num * (d // den)
    return reduced(lo, nums, d)


def slice_ints(form: Ints, lo: int, hi: int) -> Tuple[List[int], int]:
    """The values of ``form`` on ``[lo, hi]`` (0 outside it) as numerators
    over their least common denominator.  In lowest terms that is
    ``den / gcd(den, *slice)``: the lcm of the reduced denominators, which
    clearing the ``Fraction`` values would give too."""
    f_lo, nums, den = form
    a, b = max(lo, f_lo), min(hi, f_lo + len(nums) - 1)
    if a > b:
        return [0] * (hi - lo + 1), 1
    part = nums[a - f_lo:b - f_lo + 1]
    g = math.gcd(den, *part)
    if g != 1:
        part, den = [x // g for x in part], den // g
    return [0] * (a - lo) + part + [0] * (hi - b), den


def to_fractions(form: Ints) -> Dict[int, Fraction]:
    """The nonzero coefficients of ``form``, one ``Fraction`` each."""
    lo, nums, d = form
    return {lo + i: Fraction(x, d) for i, x in enumerate(nums) if x}


def dot(x: Sequence[int], y: Sequence[int]) -> int:
    """``sum x_i y_i`` over the shorter of ``x`` and ``y``: the inner
    product that :func:`determinants.berkowitz` takes on integers."""
    return sum(map(mul, x, y))


def int_mul(x: Sequence[int], y: Sequence[int]) -> List[int]:
    """Product of two integer polynomials (coefficient lists, lowest
    power first): the schoolbook convolution, skipping zero terms of the
    shorter one."""
    if not x or not y:
        return []
    if len(x) > len(y):
        x, y = y, x
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y, i):
                out[j] += a * b
    return out


def int_div(x: Sequence[int], u: Sequence[int], count: int) -> List[int]:
    """The first ``count`` terms of the power series ``x / u`` for integer
    coefficient lists (lowest power first, ``x`` zero past its end) with
    ``c = u[0] != 0``, as ``Q`` with ``x / u = sum_t Q[t] / c^(t+1) v^t``.

    From ``q_t = (x_t - sum_m u_m q_(t-m)) / c`` and ``q_t = Q_t / c^(t+1)``:
    ``Q_t = c^t x_t - sum_m (u_m c^(m-1)) Q_(t-m)``, with one running power
    of ``c`` and no division.

    The recurrence stops early once ``x`` is used up and the last
    ``len(u) - 1`` terms (all terms, while there are fewer) are 0: every
    later term reads only zero inputs, so it is exactly 0, and the rest of
    the ``count`` terms are filled with 0.  This is no truncation.  It
    fires when the quotient is a polynomial (an exact division, such as
    ``a / pi_+``); a division that is not exact never meets the condition
    and runs all ``count`` terms."""
    c = u[0]
    tail = [um * c ** m for m, um in enumerate(u[1:])]
    out: List[int] = []
    cp = 1
    n, k = len(x), len(tail)
    zeros = 0  # trailing zero terms of out
    for t in range(count):
        if t >= n and (zeros >= k or zeros == t):
            return out + [0] * (count - t)
        # map() stops at the shorter input: tail[m-1] meets out[t-m]
        out.append((cp * x[t] if t < n else 0) - sum(map(mul, tail, reversed(out))))
        zeros = 0 if out[-1] else zeros + 1
        cp *= c
    return out


def bareiss(rows: List[List[int]]) -> int:
    """Fraction-free Gaussian elimination (Bareiss, "Sylvester's identity
    and multistep integer-preserving Gaussian elimination", 1968) of the
    leading square block of integer ``rows``, in place, with any extra
    columns carried along.  Returns the block's determinant, 0 if it is
    singular.  After a nonsingular run the block is upper triangular from
    the diagonal on.

    Step ``k`` maps every row ``i > k`` to ``(p_k row_i - row_i[k] row_k)
    / p_(k-1)`` past column ``k``, ``p_k`` the ``k``-th pivot and
    ``p_(-1) = 1``; by Sylvester's identity every entry is then a minor of
    the input, so every division is exact."""
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        top = rows[k]
        p = top[k]
        for row in rows[k + 1:]:
            f = row[k]
            row[k + 1:] = [(p * x - f * y) // prev for x, y in zip(row[k + 1:], top[k + 1:])]
        prev = p
    return sign * prev


def bareiss_solve(rows: List[List[int]]) -> Tuple[List[int], int]:
    """``(z, det)`` with ``M z = det * b`` for augmented integer rows
    ``[M | b]`` and ``det = det M``; ``([], 0)`` if ``M`` is singular.  By
    Cramer's rule ``z`` is integral, so back substitution divides exactly."""
    det = bareiss(rows)
    if not det:
        return [], 0
    n = len(rows)
    z = [0] * n
    for k in range(n - 1, -1, -1):
        row = rows[k]
        z[k] = (det * row[n] - dot(row[k + 1:n], z[k + 1:])) // row[k]
    return z, det
