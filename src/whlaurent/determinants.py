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
other ring; ``det_truncated`` builds it from a pencil ``P0 + w P1`` on
its largest window (the half-lattice column factor ``D_w^-1`` is the
factor ``w^-s`` of window ``[-s, s)``) and has no path for other rings
(:func:`ring_array` raises ``RingError``).  Its nested windows are
centred sub-blocks of that array, and one call reads them all: the row
bounds and the row shift are taken once, on the whole array, and the
shifted array is sampled (or evaluated) once, each window reading the
centred sub-block of every sample.  A sub-block's row reads some of the columns of the whole row, so
the whole row's bounds hold on it, and its degree is at most the whole
array's, so the shared sample count serves it.  Over ``C``, where every
w-free row (degree 0 after the shift) is strictly diagonally dominant,
those rows are first eliminated by block LU once for all windows, and
only each window's Schur complement on its w-rows is sampled
(:func:`_eliminated`); otherwise every window is sampled whole.
``det_block`` and the outer projections take the same path with one
window.  The outer projections call their kernel here directly
(``factorization._outer_projections``): over ``C`` :func:`_poly_det` of
the stack of a leaf's two pencils ``I - w K``, pi_+'s and its mirror
image's, sampled at one cached set of points (:func:`_circle`) in one
batched determinant and one FFT; and :func:`berkowitz` over ``Q`` (on the
integer blocks, stopped at the degree the leaf's winding fixes) and over
every other ring (on ring elements, in full).
"""

from __future__ import annotations

import bisect
import functools
import operator
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


def _centred(n: int, size: int) -> slice:
    """The rows (and columns) of the centred ``size``-square sub-block of an
    ``n``-square block, ``n - size`` even."""
    return slice((n - size) // 2, (n + size) // 2)


def _poly_det(ring: Ring, coef: Any, windows: Sequence[Tuple[int, int]]) -> List[Any]:
    """Coefficients ``c_0..c_deg`` of ``det(sum_k coef[k] w^k)`` on each
    window ``(size, deg)``, one list per window: the centred ``size``-square
    sub-block (:func:`_centred`) of a ``(width, n, n)`` array over ``Q`` or
    ``C``, whose determinant is a polynomial of degree at most ``deg``.
    Over ``C`` ``coef`` may also be a stack of pencils, ``(width, ..., n,
    n)``; each is sampled at the same points, and a window's coefficients
    come as nested lists in the stack's shape, ``c_0..c_deg`` last.

    The array is evaluated once, at the points the largest degree needs,
    and each window reads the centred sub-block of every evaluation.  Over
    ``C`` those are the ``nsamp >= deg + 1`` roots of unity (the next power
    of two, their powers cached per sample count and width,
    :func:`_circle`), sixteen sample points to one matrix product (a
    bounded stack) and, per window, one batched determinant of its
    sub-blocks; an FFT of each window's samples, all in one call, gives its
    coefficients without aliasing, its degree being at most the largest.
    Over ``Q`` the array is cleared to integers over one common denominator
    ``d``; each of the points 1, -1, 2, -2, ... gives an integer matrix by
    Horner.  A window of degree ``deg`` takes the determinants of its
    sub-block at the first ``deg + 1`` points by fraction-free elimination
    (:func:`exact.bareiss`), solves the integer Vandermonde system of those
    points and determinants by the same elimination
    (:func:`exact.bareiss_solve`), and divides the solution by its
    determinant and by ``d^size``.
    """
    n = coef.shape[-1]
    cuts = [_centred(n, size) for size, _deg in windows]
    top = max(deg for _size, deg in windows)
    if leaf_kind(ring) is Fraction:
        nums, d = clear(coef.ravel().tolist())
        ints = np.array(nums, dtype=object).reshape(coef.shape)
        points = []
        for k in range(top + 1):
            p = (k // 2 + 1) * (-1) ** k
            mat = ints[-1]
            for c in ints[-2::-1]:  # Horner in p, on integers
                mat = mat * p + c
            points.append((p, mat))
        out = []
        for cut, (size, deg) in zip(cuts, windows):
            z, det = bareiss_solve([[p ** j for j in range(deg + 1)]
                                    + [bareiss(mat[cut, cut].tolist())]
                                    for p, mat in points[:deg + 1]])
            scale = det * d ** size  # det(d M) = d^size det(M)
            out.append([Fraction(c, scale) for c in z])
        return out
    nsamp = 1 << top.bit_length()
    powers = _circle(nsamp, len(coef))
    flat = coef.reshape(len(coef), -1)
    dets = []  # per chunk of samples, one batched determinant per window
    for s in range(0, nsamp, 16):
        chunk = powers[s:s + 16]
        mats = (chunk @ flat).reshape(chunk.shape[:1] + coef.shape[1:])
        dets.append([np.linalg.det(mats[..., cut, cut]) for cut in cuts])
    # (window, sample, ...): one FFT call transforms each window's samples
    coeffs = np.fft.fft(np.concatenate(dets, axis=1), axis=1) / nsamp
    coeffs = coeffs.transpose(0, *range(2, coeffs.ndim), 1)  # the samples' axis last
    return [c[..., :deg + 1].tolist() for c, (_size, deg) in zip(coeffs, windows)]


@functools.lru_cache(maxsize=64)
def _circle(nsamp: int, width: int) -> Any:
    """The powers ``w^0 .. w^(width - 1)`` of the ``nsamp``-th roots of unity
    ``w = exp(2 pi i s / nsamp)``, one row per ``s``: the sample points of
    :func:`_poly_det`, read-only, since one table serves every call."""
    ws = np.exp(2j * np.pi * np.arange(nsamp) / nsamp)
    out = ws[:, None] ** np.arange(width)
    out.flags.writeable = False
    return out


def _row_det(ring: Ring, coef: Any, sizes: Sequence[int]) -> Tuple[Dict[int, Any], ...]:
    """:func:`_det_rows` over ``Q`` or ``C``, one map from exponent to
    coefficient per size.  The bounds, the zero rows and the row shift come
    first; then over ``C`` the w-free rows are eliminated once for all
    windows where each is strictly diagonally dominant
    (:func:`_eliminated`), and otherwise, and over ``Q``, every window is
    sampled (or evaluated) whole by :func:`_poly_det`."""
    width, n = coef.shape[:2]
    nz = coef.any(axis=2).astype(bool)  # any() over an object array may return its elements
    live = nz.any(axis=0)
    lo = nz.argmax(axis=0)
    span = np.where(live, width - 1 - nz[::-1].argmax(axis=0) - lo, 0)
    cuts = [_centred(n, size) for size in sizes]
    spans, lows, lives = span.tolist(), lo.tolist(), live.tolist()
    # a window that holds a zero row is 0; the windows nest, so the rest come first
    keep = sum(all(lives[cut]) for cut in cuts)
    if not keep:
        return ({},) * len(sizes)
    # exponent lo_i + j of row i; past the top (j <= max span < width) it wraps
    # below lo_i, to zeros
    k = (np.arange(1 + max(spans))[:, None] + lo) % width
    degs = [sum(spans[cut]) for cut in cuts[:keep]]
    vals = None
    if leaf_kind(ring) is complex:
        vals = _eliminated(ring, coef, k, spans, sizes[:keep], degs)
    if vals is None:
        vals = _poly_det(ring, coef[k, np.arange(n)], list(zip(sizes, degs)))
    return tuple([{i + sum(lows[cut]): c for i, c in enumerate(v)}
                  for v, cut in zip(vals, cuts)] + [{}] * (len(sizes) - keep))


def _eliminated(ring: Ring, coef: Any, k: Any, spans: List[int], sizes: Sequence[int],
                degs: Sequence[int]) -> Any:
    """Each window's coefficients, as :func:`_poly_det` gives them, with the
    w-free rows eliminated by block LU once for all windows; ``None`` where
    no row is w-free or one is not strictly diagonally dominant.

    ``k`` gathers the row-shifted array as in :func:`_row_det`, ``spans``
    lists each row's degree, and every row of the largest window
    ``sizes[-1]`` is nonzero.  One permutation of its rows and columns
    (:func:`_block_order`), which leaves every determinant unchanged, puts
    first the innermost window's w-free rows, then each outer border's,
    then every w-row (``span > 0``), the innermost window's first.  The
    w-free rows are read at power 0 only and each w-row once per power of
    ``w``, as the rows of one 2-D array, so that one row operation acts on
    every power.  The w-free rows are constant, so window ``j``'s
    determinant is the product ``d_1 ... d_j`` of the determinants of the
    blocks eliminated in turn (the Schur determinant identity
    ``det M = det A det(M/A)``), times that of the Schur complement on its
    w-rows: one ``det`` and one solve per block, then one
    :func:`_poly_det` call per remainder size, at the window's own degree,
    which the w-free rows do not add to.  A window with no w-row is the
    product alone.  A Schur complement read on a window is that of the
    window's own block, since every row eliminated for it lies inside it.

    Each w-free row must satisfy ``|m_ii| > sum_{j != i} |m_ij|`` over the
    largest window's columns (a NaN fails): it then stays so on every
    window, which only drops columns, and through the elimination, so the
    blocks are invertible and eliminating across them without pivoting is
    stable, with growth at most 2 (Higham, "Accuracy and Stability of
    Numerical Algorithms", 2nd ed., section 9.5).
    """
    n, top, nwin = coef.shape[1], sizes[-1], len(sizes)
    wpos = tuple(i for i, s in enumerate(spans[(n - top) // 2:(n + top) // 2]) if s)
    g = len(wpos)
    if g == top:
        return None
    power, row, col, counts = _block_order(n, tuple(sizes), wpos, len(k))
    rest = coef[k[power, row], row].take(col, axis=1)
    free = np.abs(rest[:top - g])
    if not (free.sum(axis=1) < 2 * free.diagonal()).all():  # the row sums hold |m_ii| too
        return None
    scale, scales, groups = 1.0, [], {}
    for j, b in enumerate(counts[:nwin]):
        if b:
            a = rest[:b, :b]
            scale *= np.linalg.det(a)
            rest = rest[b:, b:] - rest[b:, :b] @ np.linalg.solve(a, rest[:b, b:])
        scales.append(complex(scale))
        gj, off = sum(counts[nwin:nwin + j + 1]), rest.shape[1] - g
        # the w-rows, one (g, g) block per power of w, restricted to window j
        rem = rest[off:].reshape(len(k), g, g + off)[:, :gj, off:off + gj]
        groups.setdefault(gj, []).append((j, rem))
    vals: List[Any] = [None] * nwin
    for gj, members in groups.items():
        if gj:  # the remainders, one stack axis after the powers of w
            [rows] = _poly_det(ring, np.array([rem for _j, rem in members]).swapaxes(0, 1),
                               [(gj, max(degs[j] for j, _rem in members))])
        for i, (j, _rem) in enumerate(members):
            vals[j] = [scales[j] * c for c in rows[i][:degs[j] + 1]] if gj else [scales[j]]
    return vals


@functools.lru_cache(maxsize=64)
def _block_order(n: int, sizes: Tuple[int, ...], wpos: Tuple[int, ...],
                 width: int) -> Tuple[Any, Any, Any, Tuple[int, ...]]:
    """The gather of :func:`_eliminated` on the centred window ``sizes[-1]``
    of a ``(width, n, n)`` row-shifted array whose w-rows lie at ``wpos``
    (from the window's first row): ``(power, row, col, counts)``.

    The columns ``col`` and the rows take one order: the w-free rows of the
    innermost window and of each outer border, then the w-rows of the
    same, each in ascending order; ``counts`` has the size of each of these
    blocks.  A w-free row is read at power 0 only, the other powers being
    0; the w-rows are then read at each power in turn, ``power`` and
    ``row`` giving the power and the row of each.  Read-only, since one
    gather serves every call with the same windows and w-rows."""
    top, nwin, wset = sizes[-1], len(sizes), set(wpos)
    blocks: List[List[int]] = [[] for _ in range(2 * nwin)]
    for i in range(top):
        # the border of row i: how many windows leave it out (window s holds
        # it iff |2 i - top + 1| < s)
        border = bisect.bisect_right(sizes, abs(2 * i - top + 1))
        blocks[nwin * (i in wset) + border].append(i + (n - top) // 2)
    col = [i for block in blocks for i in block]
    nfree = top - len(wpos)
    out = (np.array([0] * nfree + [j for j in range(width) for _i in col[nfree:]]),
           np.array(col[:nfree] + col[nfree:] * width), np.array(col))
    for arr in out:
        arr.flags.writeable = False
    return out + (tuple(len(block) for block in blocks),)


def _det_rows(ring: Ring, coef: Any, sizes: Sequence[int]) -> List[LaurentSeries]:
    """``det(sum_k coef[k] w^k)`` for a ``(width, n, n)`` array over
    ``ring``, on the centred sub-block of each of the increasing ``sizes``
    (the last may be ``n``), one series per size.

    A product ring is split first (:func:`rings.per_component`), so each
    component gets its own row bounds.  The determinant is linear in each
    row: row ``i``, nonzero only at ``w^lo_i..w^hi_i``, gives the factor
    ``w^lo_i`` and degree ``span_i = hi_i - lo_i``, and a zero row gives 0.
    The bounds are read once, on the whole array, and each row is shifted
    down by its ``lo_i`` once; every sub-block then goes to
    :func:`_poly_det`, which evaluates the shifted array once, at the
    degree ``sum span_i`` over its own rows, and takes ``w^(sum lo_i)``
    over them.  The whole array's bounds hold on every sub-block: its row
    ``i`` reads a subset of the columns of the whole row ``i``, so its
    nonzero exponents lie in ``[lo_i, hi_i]`` too (it may be zero there, or
    have a lower degree, which only leaves the top coefficients 0), and its
    degree bound is at most the whole array's, so the shared evaluation
    points serve it.  A sub-block that holds a zero row of the whole array
    is 0 without evaluation; a row that is zero on a sub-block's columns
    only stays zero through elimination, which gives 0 too.  Over ``C``
    the rows of degree 0 are first eliminated once for all sub-blocks, by
    block LU, when each is strictly diagonally dominant, and only the
    Schur complements on the other rows are sampled, at the same degree
    (:func:`_eliminated`); else the sub-blocks are sampled whole.
    """
    maps = per_component(ring, functools.partial(_row_det, sizes=sizes), _split_pencil, coef)
    return [LaurentSeries(ring, m) for m in maps]


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
        return _det_rows(base, coef, [n])[0].shift(n * lo)
    if n > MAX_BERKOWITZ:
        raise RingError("matrix size %d exceeds the determinant bound" % n)
    return det_berkowitz(ring, rows)


# -- truncated determinants on nested windows -------------------------

def _check_windows(windows: Sequence[int]) -> List[int]:
    """``windows`` as a list of ints (``operator.index``, so numpy
    integers pass and floats and strings do not); refuse nested windows
    that :func:`det_truncated` cannot read: not integers, fewer than two,
    not strictly increasing, or below 1 (an empty block, whose determinant
    1 would stand in for a value)."""
    windows = list(windows)
    try:
        windows = [operator.index(wsize) for wsize in windows]
    except TypeError:
        raise ValueError("windows must be integers") from None
    if len(windows) < 2:
        raise ValueError("need at least two nested windows")
    if any(b <= a for a, b in zip(windows, windows[1:])):
        raise ValueError("windows must be strictly increasing")
    if windows[0] < 1:
        raise ValueError("windows must be at least 1")
    return windows


def det_truncated(ring: Ring, p0: Any, p1: Any,
                  windows: Sequence[int]) -> Tuple[LaurentSeries, float]:
    """The half-lattice truncated determinant of a pencil on nested windows.

    On the centred window ``[-s, s)`` the matrix is ``(P0 + w P1) D_w^-1``
    with the half-lattice column factor ``D_w = w 1_{S^-} + 1_{S^+}``, so
    that the value is ``w^-s det(P0 + w P1)`` on that window.  ``p0`` and
    ``p1`` are ``2 top``-square arrays over the base ``ring``
    (:func:`ring_array`) indexed by ``[-top, top)``, ``top = windows[-1]``,
    and ``windows`` must be strictly increasing integers, at least 1
    (:func:`_check_windows`).  Each value is a Laurent polynomial in ``w``
    over ``ring``, and all of them come from one :func:`_det_rows` call: the
    row bounds and the row shift are taken once, on the largest window, and
    the shifted pencil is sampled (over ``C``) or evaluated (over ``Q``)
    once, every window reading its centred sub-block, since a sub-block's
    row reads a subset of the largest window's row and so keeps its bounds.
    Over ``C`` the w-free rows, when each is strictly diagonally dominant,
    are eliminated once for all windows and only the Schur complements on
    the w-rows are sampled (:func:`_eliminated`); otherwise the whole
    windows are.  Returns ``(value, tail)``: the largest window's value, and
    the seminorm of the difference between the last two window values as the
    tail estimate, which must not increase along the sequence.
    """
    windows = _check_windows(windows)
    top = windows[-1]
    p0, p1 = ring_array(ring, p0), ring_array(ring, p1)
    if p0.shape[:2] != (2 * top, 2 * top) or p1.shape != p0.shape:
        raise ValueError("pencil must be square on the largest window")
    dets = _det_rows(ring, np.stack([p0, p1]), [2 * wsize for wsize in windows])
    vals = [v.shift(-wsize) for v, wsize in zip(dets, windows)]
    tails = [vals[i + 1].sub(vals[i]).sup_seminorm() for i in range(len(vals) - 1)]
    slack = 1e-12 if not ring.is_exact else 0.0
    for i in range(1, len(tails)):
        if tails[i] > tails[i - 1] + slack and tails[i] > ring.tolerance:
            raise WindowError("tail estimate is not decreasing; window too small")
    return vals[-1], tails[-1]
