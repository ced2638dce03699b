"""Determinants of finite blocks over commutative coefficient rings.

The generic path is the Berkowitz division-free algorithm, valid over any
commutative coefficient ring (product rings have zero divisors, so
elimination is not).  :func:`rings.leaf_kind` picks the path: every
determinant in ``w`` over ``Q``, ``C`` or a product of them is instead one
``(width, n, n)`` coefficient array over the base ring, split into its
components (:func:`rings.per_component`, the one place that splits a
product ring), shifted row by row to its true degree (:func:`_det_rows`)
and then evaluated at integer points with fraction-free elimination and
interpolated by a fraction-free Vandermonde solve over ``Q``, or sampled
on the unit circle over ``C`` (:func:`_poly_det`).  ``det_block`` builds
that array from Laurent polynomial entries, and runs Berkowitz over any
other ring; ``det_truncated`` builds it from a pencil ``P0 + w P1`` and
has no path for other rings (:func:`ring_array` raises ``RingError``).
The outer projections call their kernel here directly
(``factorization._outer_projections``): over ``C`` :func:`_poly_det` of
the stack of a leaf's two pencils ``I - w K``, pi_+'s and its mirror
image's, sampled at one cached set of points (:func:`_circle`) in one
batched determinant and one FFT; and :func:`berkowitz` over ``Q`` (on the
integer blocks, stopped at the degree the leaf's winding fixes) and over
every other ring (on ring elements, in full).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from .exact import bareiss, bareiss_solve, clear
from .rings import Ring, RingError, leaf_kind, per_component
from .series import LaurentSeries, WindowError

MAX_BERKOWITZ = 64


# -- Berkowitz --------------------------------------------------------

def berkowitz(a: Sequence[Sequence[Any]], dot: Callable[[Sequence[Any], Sequence[Any]], Any],
              neg: Callable[[Any], Any], one: Any, deg: int) -> List[Any]:
    """Coefficients ``c_0..c_D`` of ``det(x I - A) = sum c_i x^(n-i)``,
    ``D = min(deg, n)``, by division-free Berkowitz (Berkowitz, "On
    computing the determinant in small parallel time using a small number
    of processors", 1984), with ``dot`` the inner product of two sequences
    that stops at the shorter one: :func:`exact.dot` on integers,
    :meth:`rings.Ring.dot` on ring elements.  ``deg = len(a)`` gives them
    all; ``berkowitz([], ..., 0)`` is ``[one]``.

    Step ``r`` multiplies the coefficients by a lower triangular Toeplitz
    matrix, so its coefficient ``i`` reads only the Toeplitz column's
    entries ``0..i`` and the previous coefficients ``0..i``: keeping
    coefficients ``0..deg`` at every step, and forming ``A^t col`` only
    for ``t <= deg - 2``, gives the first ``deg + 1`` coefficients exactly.
    A caller that knows ``c_i = 0`` for ``i > deg`` (the characteristic
    polynomial ``det(I - w A)`` of degree ``deg``) so loses none."""
    coeffs = [one]
    for r in range(1, len(a) + 1):
        # principal r x r block, partitioned around its last row/column
        row = a[r - 1][:r - 1]
        cur = [a[i][r - 1] for i in range(r - 1)]
        # Toeplitz column: [1, -top, -row*col, -row*A*col, ...] up to entry
        # min(r, deg); entry t + 2 needs A^t*col, so A*cur is formed t times
        tvec = [one, neg(a[r - 1][r - 1])][:deg + 1]
        for t in range(min(r, deg) - 1):
            if t:  # dot stops at the shorter input, so a[i] is read on the leading block
                cur = [dot(a[i], cur) for i in range(r - 1)]
            tvec.append(neg(dot(row, cur)))
        coeffs = [dot(tvec[i::-1], coeffs) for i in range(min(r, deg) + 1)]
    return coeffs


def det_berkowitz(ring: Ring, a: List[List[Any]]) -> Any:
    d = berkowitz(a, ring.dot, ring.neg, ring.one, len(a))[-1]
    return ring.neg(d) if len(a) % 2 else d  # det(x*I - A) at x=0 is (-1)^n det A


# -- determinants in w: one coefficient array over the base ring ------

def ring_array(ring: Ring, values: Any) -> Any:
    """``values`` (an element or nested rows of them) as a numpy array:
    complex over ``C``, Python objects (``Fraction``) over ``Q``.
    Product-ring elements are tuples, so they add trailing component axes.
    Any other ring has no array form: :class:`RingError`."""
    kind = leaf_kind(ring)
    if kind is None:
        raise RingError("ring %r has no coefficient-array form" % ring.name)
    return np.asarray(values, dtype=object if kind is Fraction else complex)


def _split_pencil(ring: Ring, coef: Any) -> List[Any]:
    """Split for :func:`rings.per_component`: component ``i`` of a
    ``(width, n, n, ...)`` array over a product ring is its index ``i`` on
    the first component axis."""
    return [coef[:, :, :, i] for i in range(len(ring.components))]


def _poly_det(ring: Ring, coef: Any, deg: int) -> List[Any]:
    """Coefficients ``c_0..c_deg`` of ``det(sum_k coef[k] w^k)``, a polynomial
    of degree at most ``deg`` with ``coef`` a ``(width, n, n)`` array over
    ``Q`` or ``C``.  Over ``C`` ``coef`` may also be a stack of pencils,
    ``(width, ..., n, n)``; each is sampled at the same points, and the
    coefficients come as nested lists in the stack's shape, ``c_0..c_deg``
    last.

    Over ``C`` it is sampled at the ``nsamp >= deg + 1`` roots of unity
    (the next power of two, their powers cached per sample count and
    width, :func:`_circle`), sixteen sample points to one batched
    determinant (a bounded stack), and one FFT along the sample axis gives
    the coefficients without aliasing.  Over ``Q`` the array is cleared to
    integers over one common denominator ``d``; each of the ``deg + 1``
    points 1, -1, 2, -2, ... gives an integer matrix, whose determinant
    comes from fraction-free elimination (:func:`exact.bareiss`).  The
    integer Vandermonde system of the points and those determinants is
    solved by the same elimination (:func:`exact.bareiss_solve`), and its
    solution is divided by its determinant and by ``d^n``.
    """
    if leaf_kind(ring) is Fraction:
        nums, d = clear(coef.ravel().tolist())
        ints = np.array(nums, dtype=object).reshape(coef.shape)
        rows = []
        for k in range(deg + 1):
            p = (k // 2 + 1) * (-1) ** k
            mat = ints[-1]
            for c in ints[-2::-1]:  # Horner in p, on integers
                mat = mat * p + c
            rows.append([p ** j for j in range(deg + 1)] + [bareiss(mat.tolist())])
        z, det = bareiss_solve(rows)
        scale = det * d ** coef.shape[1]  # det(d M) = d^n det(M)
        return [Fraction(c, scale) for c in z]
    nsamp = 1 << deg.bit_length()
    powers = _circle(nsamp, len(coef))
    dets = np.concatenate([
        np.linalg.det(np.tensordot(powers[s:s + 16], coef, axes=1))
        for s in range(0, nsamp, 16)])
    return np.moveaxis(np.fft.fft(dets, axis=0)[:deg + 1] / nsamp, 0, -1).tolist()


@functools.lru_cache(maxsize=64)
def _circle(nsamp: int, width: int) -> Any:
    """The powers ``w^0 .. w^(width - 1)`` of the ``nsamp``-th roots of unity
    ``w = exp(2 pi i s / nsamp)``, one row per ``s``: the sample points of
    :func:`_poly_det`, read-only, since one table serves every call."""
    ws = np.exp(2j * np.pi * np.arange(nsamp) / nsamp)
    out = ws[:, None] ** np.arange(width)
    out.flags.writeable = False
    return out


def _row_det(ring: Ring, coef: Any) -> Dict[int, Any]:
    """:func:`_det_rows` over ``Q`` or ``C``, as a map from exponent to
    coefficient."""
    width, n = coef.shape[:2]
    nz = coef.any(axis=2).astype(bool)  # any() over an object array may return its elements
    if not nz.any(axis=0).all():
        return {}
    lo = nz.argmax(axis=0)
    span = width - 1 - nz[::-1].argmax(axis=0) - lo
    # exponent lo_i + j of row i; one past the top wraps to one below lo_i, a zero
    k = (np.arange(1 + span.max(initial=0))[:, None] + lo) % width
    coeffs = _poly_det(ring, coef[k, np.arange(n)], int(span.sum()))
    off = int(lo.sum())
    return {i + off: c for i, c in enumerate(coeffs)}


def _det_rows(ring: Ring, coef: Any) -> LaurentSeries:
    """``det(sum_k coef[k] w^k)`` for a ``(width, n, n)`` array over ``ring``.

    A product ring is split first (:func:`rings.per_component`), so each
    component gets its own row bound.  The determinant is linear in each
    row: row ``i``, nonzero only at ``w^lo_i..w^hi_i``, gives the factor
    ``w^lo_i`` and degree ``hi_i - lo_i``, and a zero row gives 0.  Each row
    is shifted down by its ``lo_i`` and the rest goes to :func:`_poly_det`
    at the summed degree.
    """
    return LaurentSeries(ring, per_component(ring, _row_det, _split_pencil, coef))


def det_block(ring: Ring, rows: List[List[Any]]) -> Any:
    """Determinant of a dense square block over any commutative ring.

    Laurent polynomials over ``Q``, ``C`` or a product of them
    (:func:`rings.leaf_kind`) become one coefficient array, read from the
    lowest exponent of the block, for :func:`_det_rows`; every other ring,
    nested series rings and rings with nilpotents included, runs
    division-free Berkowitz."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    if n == 0:
        return ring.one
    base = ring.base
    if base is not None and leaf_kind(base):
        exps = [e for row in rows for x in row for e in x.coeffs] or [0]
        lo = min(exps)
        coef = ring_array(base, [[[x.coeff(lo + k) for x in row] for row in rows]
                                 for k in range(1 + max(exps) - lo)])
        return _det_rows(base, coef).shift(n * lo)
    if n > MAX_BERKOWITZ:
        raise RingError("matrix size %d exceeds the determinant bound" % n)
    return det_berkowitz(ring, rows)


# -- truncated determinants on nested windows -------------------------

def det_truncated(ring: Ring, p0: Any, p1: Any, shifts: Sequence[int],
                  windows: Sequence[int]) -> Tuple[LaurentSeries, float]:
    """Determinant of an identity-plus-decay pencil on nested windows.

    On the largest window ``top = windows[-1]`` the matrix is
    ``(P0 + w P1) diag(w^shifts)``: ``p0`` and ``p1`` are ``2 top``-square
    arrays over the base ``ring`` (:func:`ring_array`) indexed by
    ``[-top, top)``, and column ``j`` carries the exponent offset
    ``shifts[j]``.  ``windows`` must be strictly increasing; window
    ``wsize`` is the centred sub-block on ``[-wsize, wsize)``.  Each value
    is a Laurent polynomial in ``w`` over ``ring`` (:func:`_det_rows`).
    Returns ``(value, tail)``: the largest window's value, and the seminorm
    of the difference between the last two window values as the tail
    estimate, which must not increase along the sequence.
    """
    if len(windows) < 2:
        raise ValueError("need at least two nested windows")
    if any(b <= a for a, b in zip(windows, windows[1:])):
        raise ValueError("windows must be strictly increasing")
    top = windows[-1]
    p0, p1 = ring_array(ring, p0), ring_array(ring, p1)
    if p0.shape[:2] != (2 * top, 2 * top) or p1.shape != p0.shape or len(shifts) != 2 * top:
        raise ValueError("pencil must be square on the largest window")
    vals = []
    for wsize in windows:
        cut = slice(top - wsize, top + wsize)
        pencil = np.stack([p0[cut, cut], p1[cut, cut]])
        vals.append(_det_rows(ring, pencil).shift(sum(shifts[cut])))
    tails = [vals[i + 1].sub(vals[i]).sup_seminorm() for i in range(len(vals) - 1)]
    slack = 1e-12 if not ring.is_exact else 0.0
    for i in range(1, len(tails)):
        if tails[i] > tails[i - 1] + slack and tails[i] > ring.tolerance:
            raise WindowError("tail estimate is not decreasing; window too small")
    return vals[-1], tails[-1]
