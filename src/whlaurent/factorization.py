"""Wiener-Hopf (Birkhoff) factorization over commutative coefficient rings.

The three projections are computed from Toeplitz-determinant formulas.
The holomorphic part is pi_+(w) = det(I - w K), where K = E + G W is a
constant matrix over the base ring on a finite index interval: the shift
part E of the reflection factor plus the bracket block
U(b)[1_{Z^-}, U(a)]U(z^-1), the product of G, a Toeplitz slice of b, and
W, the signed coefficients of a on two quadrants.  The antiholomorphic
part is the mirror image: pi_- of a is pi_+ of a(1/z), read at 1/w.

Each leaf (a component of a product of Q or C, the whole series over any
other ring) re-centres its support [lo, hi] on 0 by a unit monomial,
which moves neither projection, so its blocks have as many rows as the
support spans.  One index map per re-centred hull (``_BlockMap``, cached
and read-only) describes both of the leaf's blocks, pi_+'s and its mirror
image, which is the same map read on the reversed coefficients: rows and
columns P = [1 - hi, -lo], G on [2 - 2 hi, -2 lo], W by column, and E's
ones.  Every path reads that map, and one call returns both projections
of every leaf and the one window [e - 2 hi, e - 2 lo] of b that they
read.  Over Q the blocks are integer, the numerators of a and b over the
common denominator d = da db, built by slices and ``exact.dot``, and d K
goes straight to division-free Berkowitz on Python integers, which stops
at the degree the winding fixes: a leaf a = pi_- u z^p pi_+ over a field
spans [p - deg pi_-, p + deg pi_+], so pi_+ has degree hi - p and pi_-
degree p - lo, and the winding p is the constant term of z a'(z) b(z),
sum n a_n b_-n over [lo, hi], read on b's slice [-hi, -lo] inside the
window.  Over C
both blocks come from one gather and one batched matmul, and their two
pencils I - w K go to the circle sampler as one stack, one batched
determinant and one FFT, where Berkowitz loses accuracy on these
non-normal blocks.  Other rings build the blocks from ring elements with
``Ring.dot`` and run Berkowitz on them.

The orthogonal middle part comes either by exact division (default) or
through the half-lattice truncated determinant (cross-check route); over
Q and C the long division runs on integers or complex arrays too
(``series.div_unit``).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exact import Ints, dot, reduced, slice_ints
from .rings import (Ring, RingError, check_same, leaf_kind, per_component, split_leaves,
                    split_map)
from .series import InvertiblePair, LaurentSeries, div_unit, is_orthogonal
from .determinants import _check_windows, _poly_det, berkowitz, det_truncated, ring_array


class FactorizationError(ValueError):
    """Raised when a factorization does not satisfy its contracts."""


class NotOrthogonalError(FactorizationError):
    """Raised by :func:`orthogonal_decompose` for a symbol that is not
    orthogonal: a fault of the input, not of the computation."""


@dataclass
class FactorizationResult:
    pi_minus: LaurentSeries
    pi_tilde: LaurentSeries
    pi_plus: LaurentSeries
    residual: float
    winding: Optional[int]

    def reconstruct(self) -> LaurentSeries:
        return self.pi_minus.mul(self.pi_tilde).mul(self.pi_plus)


@dataclass
class OrthogonalDecomposition:
    """The idempotent family Pi_n = a_n b_{-n} of an orthogonal series."""

    ring: Ring
    idempotents: Dict[int, Any]
    unit: Any


# -- bracket perturbation blocks -------------------------------------

Run = Tuple[int, int, int, int]
Block = Tuple[Tuple[Run, ...], Tuple[Tuple[int, int], ...]]


def _runs(lo: int, hi: int) -> Tuple[Run, ...]:
    """W of the block of a hull ``[lo, hi]`` with ``lo <= 0 <= hi``, by
    column: ``(s, j0, j1, a0)`` for column ``k`` (index ``k - 1 + hi`` on
    P = [1 - hi, -lo]) puts ``s * a_(j-k+1)`` at the rows ``j`` with
    indices ``j0 <= i < j1`` on ``[lo, hi - 1]``, where ``a_(j-k+1)`` is
    entry ``a0 + i - j0`` of ``a`` on ``[lo, hi]``.

    These are the nonzero entries (chi(j) - chi(k - 1)) a_(j-k+1) of the
    commutator [1_{Z^-}, U(a)] U(z^-1), chi the indicator of Z^- = {k < 0}:
    -a_(j-k+1) where k <= 0 <= j, +a_(j-k+1) where j < 0 < k, each column
    one run of rows on which j - k + 1 stays inside the hull."""
    n = hi - lo
    return tuple((-1, -lo, k - lo + 1, n - k) if k < hi else (1, k - hi, -lo, 0)
                 for k in range(n))


@dataclass(frozen=True)
class _BlockMap:
    """The index map of the bracket blocks of a leaf whose support,
    re-centred on 0, spans ``[lo, hi]`` (``lo <= 0 <= hi``): the block of
    the pair, and its mirror image, the block of the hull ``[-hi, -lo]``
    read on the reversed coefficients.  Each reads ``a`` on ``[lo, hi]``
    and ``b`` on ``[-2 hi, -2 lo]`` (the mirror both reversed), and has
    ``n = hi - lo`` rows and columns, P = [1 - hi, -lo]; K = G W + E.

    ``g[r][j]`` is the index of b_(r-j) in ``b``, so G is the Toeplitz
    slice of ``b`` on [2 - 2 hi, -2 lo], for rows r in P and j in
    [lo, hi - 1].  ``blocks`` holds, per block, W by column
    (:func:`_runs`) and the positions of E's ones, ``(i, i + 1)`` where
    k + 1 <= 0.  ``take`` and ``shift`` are the same map as arrays, for
    ``C``: ``take[m]`` indexes G and W of block ``m`` in the vector
    ``[b, 0, a, -a]`` followed by the same four reversed, and ``shift[m]``
    is E.  One map serves every leaf of its hull, so its arrays are
    read-only and the cache is bounded."""

    n: int
    g: Tuple[Tuple[int, ...], ...]
    blocks: Tuple[Block, Block]
    take: Any
    shift: Any


@functools.lru_cache(maxsize=128)
def _block_map(lo: int, hi: int) -> _BlockMap:
    n = hi - lo
    idx = np.arange(n)
    g = idx[:, None] - idx + n + 1
    blocks = tuple((_runs(x, y), tuple((i, i + 1) for i in range(y - 1)))
                   for x, y in ((lo, hi), (-hi, -lo)))
    size = 4 * (n + 1)  # [b (2n + 1), 0, a (n + 1), -a (n + 1)]
    take = np.empty((2, 2, n, n), np.intp)
    shift = np.zeros((2, n, n))
    for m, (runs, ones) in enumerate(blocks):
        base = m * size
        take[m, 0] = base + g
        take[m, 1] = base + 2 * n + 1
        for k, (s, j0, j1, a0) in enumerate(runs):
            seg = 2 if s > 0 else 3  # a or -a
            take[m, 1, j0:j1, k] = base + seg * (n + 1) + np.arange(a0, a0 + j1 - j0)
        for r, c in ones:
            shift[m, r, c] = 1
    take.flags.writeable = shift.flags.writeable = False
    return _BlockMap(n, tuple(map(tuple, g.tolist())), blocks, take, shift)


def _leaf_map(lo: int, hi: int) -> Tuple[_BlockMap, Tuple[int, int]]:
    """The map of a leaf whose support spans ``[lo, hi]``, re-centred on 0
    by ``e`` (``lo`` if ``lo > 0``, ``hi`` if ``hi < 0``, else 0), and the
    window ``[e - 2 hi, e - 2 lo]`` of ``b`` that both of its blocks read.

    The blocks are built for the pair ``(z^-e a, z^e b)``: ``z^-e a = pi_-
    (z^-e pi~) pi_+`` with ``z^-e pi~`` still orthogonal, so by uniqueness
    pi_+ and pi_- do not move, over every commutative ring, and each block
    has as many rows as the support spans (on a support that does not
    straddle 0 it would have ``max(hi, -lo)``)."""
    e = lo if lo > 0 else hi if hi < 0 else 0
    return _block_map(lo - e, hi - e), (e - 2 * hi, e - 2 * lo)


def _bracket(g: Sequence[Sequence[int]], runs: Sequence[Run], a: Sequence[Any],
             b: Sequence[Any], dot: Callable[[Sequence[Any], Sequence[Any]], Any],
             neg: Callable[[Any], Any]) -> List[List[Any]]:
    """B = G W of one block as dense rows, from ``a`` on the hull and ``b``
    on the window of a :class:`_BlockMap` (reversed for the mirror image),
    each entry one ``dot`` of a slice of a row of G with a run of W.

    Over ``Q`` the entries are integers (the numerators of ``a`` and ``b``,
    with :func:`exact.dot`), over any other ring ring elements
    (:meth:`rings.Ring.dot`), each kept as computed: the block is a matrix,
    not a series, so nothing is cut to the ring's tolerance here."""
    signed = (a, [neg(x) for x in a])
    cols = [(j0, j1, signed[s < 0][a0:a0 + j1 - j0]) for s, j0, j1, a0 in runs]
    return [[dot(row[j0:j1], w) for j0, j1, w in cols] for row in ([b[i] for i in r] for r in g)]


def _k_rows(m: _BlockMap, block: Block, a: Sequence[Any], b: Sequence[Any],
            dot: Callable[[Sequence[Any], Sequence[Any]], Any], neg: Callable[[Any], Any],
            add: Callable[[Any, Any], Any], one: Any) -> List[List[Any]]:
    """K = G W + E of one block of ``m`` as dense rows (:func:`_bracket`),
    with ``one`` the value of E's entries."""
    runs, ones = block
    rows = _bracket(m.g, runs, a, b, dot, neg)
    for r, c in ones:
        rows[r][c] = add(rows[r][c], one)
    return rows


# -- the projections --------------------------------------------------

def _outer_projections(pair: InvertiblePair) -> Tuple[LaurentSeries, LaurentSeries]:
    """``(pi_+, pi_-)``: pi_+ = det(I - w K) for the constant matrix
    K = E + B on P = [1 - hi, -lo], from the characteristic polynomial
    det(x I - K) = sum c_i x^(n-i): det(I - w K) = sum c_i w^i; and pi_-
    the same of the mirror block, read at 1/w.

    B is the bracket block without its -w factor, so that F + A = I - w K
    with F = I - w E the reflection factor, E with ones at (k, k+1) for
    k + 1 <= 0.  F is unit triangular on the interval P and A vanishes off
    P's columns, so widetilde-det(F + A) = det(1 + A F^-1)[J', J'] = det(F + A)[P, P].
    By the uniqueness of a(1/z) = pi_+(1/z) pi~(1/z) pi_-(1/z), pi_- is
    pi_+ of the reflected pair read at 1/w: the mirror block of the map,
    the same map read on the reversed coefficients, so no reflected pair
    is built.

    Each leaf (each component of a product of ``Q`` or ``C``, the whole
    series over any other ring) builds both blocks from its own support,
    re-centred on 0, by one :class:`_BlockMap`.  ``b`` is read once
    (:meth:`series.InvertiblePair.read`), before any block is built, on the
    hull over the leaves of ``[e - 2 hi, e - 2 lo]``, which follows from
    ``a`` alone.

    This is the one place that picks the blocks' form and their
    determinant kernel.  Over ``Q`` (and per leaf of a product of ``Q``)
    the integer blocks ``d K`` (:func:`_int_projections`, on the integer
    forms of ``a`` and ``b``) go straight to Berkowitz on integers
    (:func:`determinants.berkowitz` with :func:`exact.dot`), each run
    stopped at its projection's degree, which the leaf's winding fixes:
    the ``c_i`` past it are 0, and the bounded run's ``c_i`` up to it are
    the full run's.  Each projection is one integer form over a power of
    ``d``, with no ``Fraction`` in between.  Over ``C`` (and per component of a product of ``C``) both
    blocks are one gather and one batched matmul on complex arrays, and
    the two pencils ``I - w K`` are sampled on the unit circle as one
    stack (:func:`determinants._poly_det` at degree ``n``), since
    Berkowitz's Krylov sums lose up to 1e-8 on these strongly non-normal
    blocks.  Every other ring builds both blocks from ring elements and
    runs the same Berkowitz on them, with the ring's inner product
    (:meth:`rings.Ring.dot`).
    """
    a = pair.a
    ring = a.ring
    kind = leaf_kind(ring)
    if kind is Fraction:
        hulls = [(lo, lo + len(nums) - 1) if nums else (0, 0) for lo, nums, _d in a.ints]
    elif kind is complex:
        xs = per_component(ring, lambda _c, x: [x], split_map, a.coeffs)
        exps = [[n for n, c in x.items() if c] or [0] for x in xs]
        hulls = [(min(e), max(e)) for e in exps]
    else:
        hulls = [a._supp_bounds()]
    maps = [_leaf_map(*h) for h in hulls]
    # a monomial leaf's blocks are empty and read nothing
    reads = [read for m, read in maps if m.n]
    b = pair.read((min(r[0] for r in reads), max(r[1] for r in reads)) if reads else None)
    if kind is Fraction:
        plus, minus = zip(*(_int_projections(x, h, *mr, y)
                            for x, h, mr, y in zip(a.ints, hulls, maps, b.ints)))
        return (LaurentSeries._from_ints(ring, list(plus)),
                LaurentSeries._from_ints(ring, list(minus)))
    if kind is complex:
        ys = per_component(ring, lambda _c, y: [y], split_map, b.coeffs)
        plus, minus = per_component(ring, _c_projections, split_leaves, xs, hulls, maps, ys)
        return LaurentSeries._trusted(ring, plus), LaurentSeries._trusted(ring, minus)
    [(lo, hi)], [(m, (b_lo, b_hi))] = hulls, maps
    xs = [a.coeff(d) for d in range(lo, hi + 1)]
    ys = [b.coeff(k) for k in range(b_lo, b_hi + 1)]
    pp, pm = [berkowitz(_k_rows(m, block, x, y, ring.dot, ring.neg, ring.add, ring.one),
                        ring.dot, ring.neg, ring.one, m.n)
              for block, x, y in zip(m.blocks, (xs, xs[::-1]), (ys, ys[::-1]))]
    return (LaurentSeries(ring, dict(enumerate(pp))),
            LaurentSeries(ring, {-i: c for i, c in enumerate(pm)}))


def _int_projections(a: Ints, hull: Tuple[int, int], m: _BlockMap, read: Tuple[int, int],
                     b: Ints) -> Tuple[Ints, Ints]:
    """pi_+ and pi_- of one leaf over ``Q`` as integer forms, from the leaf
    forms ``a`` and ``b``, ``a``'s ``hull`` (``[0, 0]`` for a zero leaf)
    and the leaf's map ``m`` and ``read``, the window of ``b`` it reads
    (:func:`_leaf_map`): for
    ``M = d K`` with ``det(x I - M) = sum m_i x^(n-i)``, the coefficient of
    ``w^i`` (``w^-i`` for pi_-) is ``m_i / d^i = m_i d^(D-i) / d^D``, for
    ``i <= D``, the projection's degree.

    ``d = da db``, with ``db`` the denominator of the slice of ``b`` that
    the block reads: pi_+'s block never reads the two lowest exponents of
    the window and the mirror block never the two highest, so each takes
    its own slice, the least denominator, with two zeros in their place.

    The degrees come from the winding ``p = sum n a_n b_-n`` over the
    leaf's support ``[lo, hi]``, the constant term of ``z a'(z) b(z)``:
    over a field ``z a'/a`` has the constant term ``p`` of ``z^p`` and
    none from ``pi_+`` or ``pi_-``, and ``a = pi_- u z^p pi_+`` spans
    ``[p - deg pi_-, p + deg pi_+]``, so ``det(I - w K) = pi_+`` has
    degree ``D = hi - p`` and its mirror ``p - lo``.  The sum reads ``b``
    on ``[-hi, -lo]``, inside ``read``.  Berkowitz bounded at ``D``
    (:func:`determinants.berkowitz`) returns ``m_0..m_D`` as the full run
    does, and the ``m_i`` past ``D`` are 0, so nothing is lost.  A sum
    that is no integer in ``[lo, hi]`` (a ``b`` that does not invert
    ``a``) runs both blocks in full, as if no degree were known."""
    (lo, hi), (_lo, nums, da) = hull, a
    b_lo, b_hi = read
    (bp, dp), (bm, dm) = slice_ints(b, b_lo + 2, b_hi), slice_ints(b, b_lo, b_hi - 2)
    # the winding sum n a_n b_-n over [lo, hi], on b's slice [-hi, -lo]
    bw, dw = slice_ints(b, -hi, -lo)
    p, rem = divmod(dot([n * x for n, x in enumerate(nums, lo)], bw[::-1]), da * dw)
    degs = (hi - p, p - lo) if not rem and lo <= p <= hi else (m.n, m.n)
    forms = []
    for block, x, y, db, deg in zip(m.blocks, (nums, nums[::-1]),
                                    ([0, 0] + bp, [0, 0] + bm[::-1]), (dp, dm), degs):
        d = da * db
        ms = berkowitz(_k_rows(m, block, x, y, dot, operator.neg, operator.add, d),
                       dot, operator.neg, 1, deg)
        k = len(ms) - 1
        forms.append(([c * d ** (k - i) for i, c in enumerate(ms)], d ** k))
    (pp, p_den), (pm, m_den) = forms
    return reduced(0, pp, p_den), reduced(1 - len(pm), pm[::-1], m_den)


# a non-finite symbol gives NaN blocks, with no numpy warning: its pair
# residual fails factorize
@np.errstate(invalid="ignore", over="ignore")
def _c_projections(comp: Ring, a: List[Dict[int, complex]], hull: List[Tuple[int, int]],
                   leaf: List[Tuple[_BlockMap, Tuple[int, int]]],
                   b: List[Dict[int, complex]]) -> Tuple[Dict[int, complex], Dict[int, complex]]:
    """pi_+ and pi_- of one leaf over ``C`` from its ``a``, hull, map
    (:func:`_leaf_map`) and ``b``, each listed alone: one gather of both
    blocks' G and W from ``[b, 0, a, -a]`` and the same reversed
    (``_BlockMap.take``), one batched matmul, and the two pencils
    ``I - w K`` sampled as one stack."""
    [a], [(lo, hi)], [(m, (b_lo, b_hi))], [b] = a, hull, leaf, b
    x = np.array([a.get(d, 0j) for d in range(lo, hi + 1)], complex)
    y = np.array([b.get(k, 0j) for k in range(b_lo, b_hi + 1)], complex)
    gw = np.concatenate([y, [0], x, -x, y[::-1], [0], x[::-1], -x[::-1]])[m.take]
    k = gw[:, 0] @ gw[:, 1] + m.shift
    [(pp, pm)] = _poly_det(comp, np.stack([np.broadcast_to(np.eye(m.n), k.shape), -k]),
                           [(m.n, m.n)])
    tol = comp.tolerance
    return ({i: c for i, c in enumerate(pp) if not abs(c) <= tol},
            {-i: c for i, c in enumerate(pm) if not abs(c) <= tol})


def _projections(pair: InvertiblePair) -> Tuple[LaurentSeries, LaurentSeries]:
    """``(pi_+, pi_-)`` of ``pair``, kept on it: computed by one
    :func:`_outer_projections` call on the first."""
    if pair.projections is None:
        pair.projections = _outer_projections(pair)
    return pair.projections


def pi_plus(pair: InvertiblePair) -> LaurentSeries:
    """Strictly holomorphic projection, as a series in w: det(I - w K_+)
    for a constant matrix K_+ over the base ring, from one
    characteristic polynomial.  Computed once per pair, together with
    :func:`pi_minus`, and kept on it."""
    return _projections(pair)[0]


def pi_minus(pair: InvertiblePair) -> LaurentSeries:
    """Strictly antiholomorphic projection, as a series in w^-1: by the
    uniqueness of a(1/z) = pi_+(1/z) pi~(1/z) pi_-(1/z), :func:`pi_plus` of
    the reflected pair, read at 1/w, from the mirror block of each leaf.
    Computed once per pair, together with :func:`pi_plus`, and kept on it."""
    return _projections(pair)[1]


def _check_projection(p: LaurentSeries, kind: str) -> None:
    """A projection has constant term 1 and no exponent of the wrong sign;
    over ``Q`` both are read on the integer forms
    (:meth:`LaurentSeries.has_unit_constant`, :meth:`LaurentSeries.support`)."""
    if not p.has_unit_constant():
        raise FactorizationError("pi_%s has a constant term other than 1" % kind)
    bad = [n for n in p.support() if (n < 0 if kind == "plus" else n > 0)]
    if bad:
        raise FactorizationError("pi_%s has stray exponents %r" % (kind, bad))


def pi_tilde_derived(pair: InvertiblePair, pi_m: LaurentSeries, pi_p: LaurentSeries,
                     window: Tuple[int, int]) -> LaurentSeries:
    """Orthogonal projection via a(w) * pi_minus(w)^-1 * pi_plus(w)^-1,
    computed by exact long division of a's coefficients read as a series in w."""
    return div_unit(div_unit(pair.a, pi_p, window), pi_m, window)


def pi_tilde_direct(pair: InvertiblePair,
                    windows: Sequence[int] = (16, 24, 32)) -> Tuple[LaurentSeries, float]:
    """Orthogonal projection via the half-lattice truncated determinant.

    Returns (series, tail estimate).  The w-independent normalization is
    fixed by the w = 1 specialization, where the product of the two outer
    projections equals a(1) divided by the middle one.  The matrix is
    ``(P0 + w P1) D_w^-1``, with ``P0 + w P1 = U_half(a) D_w U_half(b)``:
    :func:`determinants.det_truncated` applies ``D_w^-1``, and the pencil
    is built on the largest window from one vector of ``b``'s coefficients,
    read with one dict lookup per exponent: each coefficient ``a_d`` scales
    that vector once, and rows of ``P0`` and ``P1`` add a Toeplitz view of
    the product (a ``sliding_window_view`` with its columns reversed, the
    component axis of a product ring kept last), with no index gather.
    Each entry sums the same products in the same order as an entry by
    entry build would.  Only the rows ``min d <= n < max d`` over ``a``'s
    support carry both ``P0`` and ``P1``; over ``C``, where the other rows
    are strictly diagonally dominant, :func:`determinants.det_truncated`
    eliminates them once for all windows and samples only the Schur
    complements on those rows.  ``windows`` must be strictly increasing
    integers, at least 1.

    ``b`` is read on its declared window (``pair.b``), unchecked, over
    ``[1 - 2 top - max d, 2 top - min d)`` for ``a``'s support ``d``: a
    coefficient past the declared window reads as 0 and shows in the tail.
    The check waits because the benchmark's middle-factor pairs, declared
    on ``(-48, 48)``, read out to about ``(-66, 66)``.
    """
    windows = _check_windows(windows)
    a, b = pair.a, pair.b
    ring = a.ring
    pp = pi_plus(pair)
    pm = pi_minus(pair)
    norm_inv = ring.mul(pp.evaluate(ring.one), pm.evaluate(ring.one))
    norm = ring.mul(a.evaluate(ring.one), ring.inverse(norm_inv))  # = pi_tilde(a, 1)
    # (U_half(a) D_w U_half(b) D_w^-1)[n, m] = sum_d a_d b_{n-d-m} w^([n<d] - [m<0]),
    # D_w = w 1_{S^-} + 1_{S^+}: the pencil P0 + w P1 (rows n >= d, rows n < d),
    # one Toeplitz view of b per d; det_truncated applies D_w^-1
    top = windows[-1]
    d_lo, d_hi = a._supp_bounds()
    coeffs, zero = b.coeffs, ring.zero
    bvec = ring_array(ring, [coeffs.get(k, zero)
                             for k in range(1 - 2 * top - d_hi, 2 * top - d_lo)])
    # row t of scaled is a_d bvec for the t-th exponent d of a, and
    # toeplitz[t, s + i, j] = scaled[t, s + i + 2 top - 1 - j]: its rows
    # s = d_hi - d onward hold a_d b_{n-m-d} at n = i - top, m = j - top
    scaled = ring_array(ring, list(a.coeffs.values()))[:, None] * bvec
    toeplitz = np.moveaxis(sliding_window_view(scaled, 2 * top, axis=1), -1, 2)[:, :, ::-1]
    p0 = np.zeros((2 * top, 2 * top) + bvec.shape[1:], dtype=bvec.dtype)
    p1 = np.zeros_like(p0)
    for d, views in zip(a.coeffs, toeplitz):
        r = min(max(d + top, 0), 2 * top)  # first row with n >= d
        block = views[d_hi - d:d_hi - d + 2 * top]
        p1[:r] += block[:r]
        p0[r:] += block[r:]
    value, tail = det_truncated(ring, p0, p1, windows)
    return value.scale(norm), tail * ring.seminorm(norm)


def winding_index(pi_tilde: LaurentSeries) -> Optional[int]:
    """Exponent of a monomial orthogonal part; None for decomposable rings."""
    supp = pi_tilde.support()
    if len(supp) != 1:
        return None
    if leaf_kind(pi_tilde.ring) is Fraction:
        # one exponent: the coefficient is a unit iff no leaf is zero
        return supp[0] if all(nums for _lo, nums, _d in pi_tilde.ints) else None
    try:
        pi_tilde.ring.inverse(pi_tilde.coeffs[supp[0]])
    except RingError:
        return None
    return supp[0]


def residual_bound(ring: Ring) -> float:
    """The largest residual accepted over ``ring``: 0 over an exact ring."""
    return ring.tolerance * 100


def _check_pair(pair: InvertiblePair) -> None:
    """``b`` inverts ``a`` within :func:`residual_bound`, so ``a`` is a unit."""
    if not pair.residual <= residual_bound(pair.a.ring):  # NaN fails too
        raise FactorizationError("pair residual %.3g: the supplied series does not invert "
                                 "the symbol" % pair.residual)


def certify(pair: InvertiblePair, pm: LaurentSeries, pt: LaurentSeries,
            pp: LaurentSeries) -> float:
    """Certify ``pair.a = pm * pt * pp`` as its unique factorization; return the residual.
    The checks, the first failure raising: the pair residual, :func:`_check_projection` on
    ``pm`` and ``pp``, the product equal to ``pair.a`` on the product's own window (all of
    it for parts that carry none), ``pt`` orthogonal."""
    _check_pair(pair)
    _check_projection(pm, "minus")
    _check_projection(pp, "plus")
    bound = residual_bound(pair.a.ring)
    residual = pm.mul(pt).mul(pp).sup_diff(pair.a)
    if not residual <= bound:
        raise FactorizationError("reconstruction residual %.3g exceeds its bound %.3g"
                                 % (residual, bound))
    if not is_orthogonal(pt):
        raise FactorizationError("middle projection is not orthogonal")
    return residual


def factorize(pair: InvertiblePair) -> FactorizationResult:
    """Assemble the full decomposition a = pi_minus * pi_tilde * pi_plus, with
    pi~ on ``[s0 - deg pi_+, s1 + deg pi_-]`` for ``a``'s support ``[s0, s1]``:
    the least window on which the product that :func:`certify` compares spans ``a``.
    The pair is checked (:func:`_check_pair`) once the outer projections have
    read ``b``, on what they built of it, before the middle factor."""
    pp = pi_plus(pair)
    pm = pi_minus(pair)
    _check_pair(pair)
    s0, s1 = pair.a._supp_bounds()
    pt = pi_tilde_derived(pair, pm, pp, (s0 - pp._supp_bounds()[1], s1 - pm._supp_bounds()[0]))
    return FactorizationResult(pm, pt, pp, certify(pair, pm, pt, pp),
                               winding_index(pt))


# -- orthogonal machinery ---------------------------------------------

def orthogonal_decompose(pair: InvertiblePair) -> OrthogonalDecomposition:
    """Idempotents Pi_n = a_n b_{-n} of an orthogonal invertible series,
    ``b`` read on ``[-s1, -s0]`` for ``a``'s support ``[s0, s1]``; a pair
    whose ``b`` does not invert ``a`` fails next (:func:`_check_pair`), and
    a series that is not orthogonal raises :class:`NotOrthogonalError`."""
    a = pair.a
    s0, s1 = a._supp_bounds()
    b = pair.read((-s1, -s0))
    _check_pair(pair)
    ring = a.ring
    if not is_orthogonal(a):
        raise NotOrthogonalError("series is not orthogonal")
    idem: Dict[int, Any] = {}
    for n in a.support():
        p = ring.mul(a.coeffs[n], b.coeff(-n))
        if not ring.is_zero(p):
            idem[n] = p
    _validate_decomposition(ring, idem, pair)
    return OrthogonalDecomposition(ring, idem, a.evaluate(ring.one))


def _validate_decomposition(ring: Ring, idem: Dict[int, Any],
                            pair: Optional[InvertiblePair]) -> None:
    total = ring.zero
    for n, p in idem.items():
        if not ring.equals(ring.mul(p, p), p):
            raise FactorizationError("Pi_%d is not idempotent" % n)
        total = ring.add(total, p)
        for m, q in idem.items():
            if m != n and not ring.is_zero(ring.mul(p, q)):
                raise FactorizationError("Pi_%d Pi_%d != 0" % (n, m))
    if not ring.equals(total, ring.one):
        raise FactorizationError("idempotents do not sum to 1")
    if pair is not None:
        a = pair.a
        for n in a.support():
            for m, q in idem.items():
                want = a.coeffs[n] if n == m else ring.zero
                if not ring.equals(ring.mul(a.coeffs[n], q), want):
                    raise FactorizationError("subordination fails at a_%d Pi_%d" % (n, m))


def orthonormal_split(d: OrthogonalDecomposition) -> Tuple[Any, LaurentSeries]:
    """Split an orthogonal series into its value at 1 and the orthonormal
    series of its idempotents."""
    normal = LaurentSeries(d.ring, dict(d.idempotents))
    return d.unit, normal


def product_of_orthogonals(d1: OrthogonalDecomposition,
                           d2: OrthogonalDecomposition) -> OrthogonalDecomposition:
    ring = d1.ring
    check_same(ring, d2.ring)
    idem: Dict[int, Any] = {}
    for n1, p1 in d1.idempotents.items():
        for n2, p2 in d2.idempotents.items():
            n = n1 + n2
            v = ring.mul(p1, p2)
            if not ring.is_zero(v):
                idem[n] = ring.add(idem.get(n, ring.zero), v)
    _validate_decomposition(ring, idem, None)
    return OrthogonalDecomposition(ring, idem, ring.mul(d1.unit, d2.unit))
