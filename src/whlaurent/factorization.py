"""Wiener-Hopf (Birkhoff) factorization over commutative coefficient rings.

The three projections are computed from Toeplitz-determinant formulas.
The holomorphic part is pi_+(w) = det(I - w K), where K = E + B is a
constant matrix over the base ring on a finite index interval: the shift
part of the reflection factor plus the bracket block
U(b)[1_{Z^-}, U(a)]U(z^-1).  It is read off one characteristic
polynomial of K, per component of a product ring, each on its own
support re-centred on 0 by a unit monomial: z^-e a has the same pi_+, and
the block has as many rows as the component's support spans.  The antiholomorphic
part is the mirror image: pi_- of a is pi_+ of a(1/z), read at 1/w.
Over Q the bracket block is an integer Toeplitz product of the numerators
of a and b over the common denominator d = da db, and d K goes straight
to division-free Berkowitz on Python integers.  Over C, K is one complex
array, the bracket block one gather of b's Toeplitz slices times a matrix
of signed coefficients of a, and its pencil is sampled on the unit
circle, where Berkowitz loses accuracy on these non-normal blocks.  Other
rings build the block from ring elements and run Berkowitz on them.  The
orthogonal middle part comes either by exact division (default) or
through the half-lattice truncated determinant (cross-check route); over
Q and C the long division runs on integers or complex arrays too
(``series.div_unit``).  The w-series blocks of the widetilde-determinant
closed form (``holomorphic_det_matrix``, ``antiholomorphic_det_matrix``)
stay for checking against it; they build the bracket block from ring
elements over every ring, Q and C included.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exact import Ints, dot, reduced, slice_ints
from .floating import to_array
from .rings import Ring, RingError, check_same, leaf_kind, per_component, split_map
from .series import InvertiblePair, LaurentSeries, WindowError, div_unit, is_orthogonal
from . import matrices as mx
from .matrices import Lattice, WindowedMatrix
from .determinants import _poly_det, berkowitz, det_truncated, reduced_columns, ring_array


class FactorizationError(ValueError):
    """Raised when a factorization does not satisfy its contracts."""


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

Columns = Dict[int, List[Tuple[int, int, int]]]
Block = Tuple[int, List[int], Columns]


def _bracket_cols(support: Sequence[int]) -> Tuple[List[int], Columns]:
    """J' and the commutator [1_{Z^-}, U(a)] U(z^-1) by shifted column, for
    ``a`` with exponents ``support``: each column lists ``(row j, exponent
    d, sign)`` for its entry ``sign * a_d``.

    The commutator has entries (chi(j) - chi(m)) a_{j-m}, chi the indicator
    of Z^- = {k < 0}, nonzero only where j = m + d and m straddle 0: for
    d > 0 that is -d <= m < 0, with j not in Z^- (sign -1), and for d < 0
    it is 0 <= m < -d, with j in Z^- (sign +1).  The antiholomorphic side
    is this block for the reflected pair (:meth:`InvertiblePair.reflect`).
    """
    cols: Columns = {}
    for d in support:
        for m in (range(-d, 0) if d > 0 else range(0, -d)):
            cols.setdefault(m + 1, []).append((m + d, d, -1 if d > 0 else 1))
    return reduced_columns(sorted(cols)), cols


def _centred_cols(support: Sequence[int]) -> Tuple[int, List[int], Columns]:
    """``(e, J', columns)`` of the block of a leaf with exponents
    ``support``, re-centred on 0: ``e`` is ``lo`` if ``lo > 0``, ``hi`` if
    ``hi < 0`` and 0 otherwise, for ``[lo, hi]`` the support's hull, and
    J' and the columns are :func:`_bracket_cols` of ``support - e``, whose
    block spans ``hi - lo`` rows.

    The outer projection builds its block for the pair ``(z^-e a, z^e b)``:
    ``z^-e a = pi_- (z^-e pi~) pi_+`` with ``z^-e pi~`` still orthogonal,
    so by uniqueness pi_+ does not move, over every commutative ring."""
    lo, hi = (min(support), max(support)) if support else (0, 0)
    e = lo if lo > 0 else hi if hi < 0 else 0
    return (e, *_bracket_cols([d - e for d in support]))


def _b_range(jp: List[int], cols: Columns) -> Optional[Tuple[int, int]]:
    """The exponents ``[lo, hi]`` of ``b`` that the bracket block on the rows
    ``jp`` reads, ``b_(r-j)`` for each row ``r`` and each row ``j`` of a
    column entry, and None for a block with no columns."""
    js = [j for col in cols.values() for j, _d, _s in col]
    return (jp[0] - max(js), jp[-1] - min(js)) if js else None


def _b_need(blocks: Sequence[Block]) -> Optional[Tuple[int, int]]:
    """The least window of ``b`` that holds what the blocks and their mirror
    images read, each block ``(e, J', columns)`` built for ``z^e b``
    (:func:`_centred_cols`), and None if no block has a column.  The mirror
    image, the block of the reflected pair, has rows ``1 - J'`` and column
    rows ``-1 - j`` on ``b(1/z)``, so it reads ``b`` two lower: pi_+ and
    pi_- ask for one window, the hull of ``[e - 2 hi, e - 2 lo]`` over the
    leaves with support ``[lo, hi]``, and the reflected pair's is its mirror."""
    reads = [(r[0] - 2 - e, r[1] - e) for e, jp, cols in blocks if (r := _b_range(jp, cols))]
    return (min(r[0] for r in reads), max(r[1] for r in reads)) if reads else None


def _check_b_window(b: LaurentSeries, need: Optional[Tuple[int, int]]) -> None:
    """``b``'s window holds ``need``; ``b`` reads as 0 beyond it, so this may follow the blocks."""
    if b.window and need and (b.window[0] > need[0] or b.window[1] < need[1]):
        raise WindowError("inverse window [%d,%d] too small; need at least [%d,%d]"
                          % (*b.window, *need))


def _int_bracket(jp: List[int], cols: Columns, a: Ints,
                 b: Ints) -> Tuple[Dict[Tuple[int, int], int], int]:
    """The nonzero bracket entries over ``Q`` as an integer Toeplitz
    product: numerators over the common denominator ``d = da db`` of ``a``
    and of the slice of ``b`` that the rows ``jp`` read."""
    if not cols:
        return {}, 1
    ds = [d for col in cols.values() for _j, d, _s in col]
    lo, hi = _b_range(jp, cols)
    bs, db = slice_ints(b, lo, hi)
    # all of a, so that da is its denominator, and every exponent read
    a_lo = min(a[0], *ds)
    an, da = slice_ints(a, a_lo, max(a[0] + len(a[1]) - 1, *ds))
    weights = [(k, [(j + lo, s * an[d - a_lo]) for j, d, s in col]) for k, col in cols.items()]
    ents: Dict[Tuple[int, int], int] = {}
    for r in jp:
        for k, col in weights:
            acc = sum(w * bs[r - j] for j, w in col)
            if acc:
                ents[(r, k)] = acc
    return ents, da * db


def _bracket_block(jp: List[int], cols: Columns, a: LaurentSeries,
                   b: LaurentSeries) -> Dict[Tuple[int, int], Any]:
    """U(b) [1_{Z^-}, U(a)] U(z^-1) over the base ring, on the rows J' that
    the column reduction reads.

    Rows outside J' never change det(1 + A F^-1) since F^-1 is triangular,
    so they are not built; the rows built read b only on :func:`_b_range`,
    inside [-2d, 2d] for d the largest |exponent| of a.  The entries are
    sums of ring products over every ring, each kept as computed: the
    block is a matrix, not a series, so nothing is cut to the ring's
    tolerance here.  Over ``Q`` and
    ``C`` the outer projection builds the block on integers or complex
    arrays itself (:func:`_outer_projection`).
    """
    ring = a.ring
    vals = {k: ([j for j, _d, _s in col],
                [a.coeffs[d] if s > 0 else ring.neg(a.coeffs[d]) for _j, d, s in col])
            for k, col in cols.items()}
    return {(r, k): ring.dot([b.coeff(r - j) for j in js], vs)
            for r in jp for k, (js, vs) in vals.items()}


def holomorphic_det_matrix(pair: InvertiblePair, ring_w: Ring, w: Any) -> WindowedMatrix:
    """The finite-column perturbation A = -w (U(b) 1_{Z^-} U(a) - 1_{Z^-}) U(z^-1),
    for which 1 - w U(b) 1_{Z^-} U(a) U(z^-1) = F^{R+}(1,w) + A, as a
    w-series WindowedMatrix: the bracket block of ``pair`` on ``a``'s own
    support, not re-centred, on the rows J' read by the column reduction."""
    jp, cols = _bracket_cols(pair.a.support())
    _check_b_window(pair.b, _b_need([(0, jp, cols)]))
    coef = ring_w.neg(w)
    scaled = {rk: ring_w.mul(coef, ring_w.const(v))
              for rk, v in _bracket_block(jp, cols, pair.a, pair.b).items()}
    window = (jp[0] - 1, jp[-1] + 1) if jp else (-1, 1)
    return WindowedMatrix(ring_w, Lattice.INTEGER, window, scaled,
                          window[1] - window[0], window)._prune()


def antiholomorphic_det_matrix(pair: InvertiblePair, ring_w: Ring, w: Any) -> WindowedMatrix:
    """Finite-column part  -w^-1 (U(b) 1_{Z^+} U(a) - 1_{Z^+}) U(z), on the
    rows J' only: the mirror image J A' J, J: k -> -k, of the holomorphic
    block A' of the reflected pair at w^-1.  ``b``'s window is checked as
    given; the reflected pair's need is the mirror image of this one."""
    _check_b_window(pair.b, _b_need([(0, *_bracket_cols(pair.a.support()))]))
    return mx._reflect(holomorphic_det_matrix(pair.reflect(), ring_w, ring_w.inverse(w)))


# -- the projections --------------------------------------------------

def _outer_projection(pair: InvertiblePair) -> Tuple[LaurentSeries, Optional[Tuple[int, int]]]:
    """``(pi_+, need)``: pi_+ = det(I - w K) for the constant matrix K = E + B
    on P = [min J', max J'], from the characteristic polynomial
    det(x I - K) = sum c_i x^(n-i): det(I - w K) = sum c_i w^i, and ``need``
    the window of ``b`` its blocks read (:func:`_b_need`), for the caller to
    check.  pi_- is this projection of the reflected pair, read at 1/w.

    B is the bracket block without its -w factor, so that F + A = I - w K
    with F = I - w E the reflection factor, E with ones at (k, k+1) for
    k + 1 <= 0.  F is unit triangular on the interval P and A vanishes off
    P's columns, so widetilde-det(F + A) = det(1 + A F^-1)[J', J'] = det(F + A)[P, P].

    Each leaf (each component of a product of ``Q`` or ``C``, the whole
    series over any other ring) builds its own block from its own support,
    re-centred on 0 (:func:`_centred_cols`): the pair ``(z^-e a, z^e b)``
    has the same pi_+, and its block has as many rows as the leaf's
    support ``[lo, hi]`` spans (on a support that does not straddle 0 it
    would have ``max(hi, -lo)``).  ``need`` is the hull of what each
    leaf's block and its mirror image read, ``[e - 2 hi, e - 2 lo]``.

    This is the one place that picks the block's form and its
    determinant kernel.  Over ``Q`` (and per leaf of a product of ``Q``)
    the integer bracket block ``d B`` (:func:`_int_bracket`, on the
    integer forms of ``a`` and ``b``) and ``d E`` go straight to
    Berkowitz on integers (:func:`determinants.berkowitz` with
    :func:`exact.dot`), and the projection is one integer form over
    ``d^n``, with no ``Fraction`` in between.  Over
    ``C`` (and per component of a product of ``C``) K is one complex array
    (:func:`_c_k_matrix`), and the pencil ``I - w K`` is sampled on the
    unit circle (:func:`determinants._poly_det` at degree ``n``), since
    Berkowitz's Krylov sums lose up to 1e-8 on these strongly non-normal
    blocks.  Every other ring builds ``B`` from ring elements
    (:func:`_bracket_block`) and runs the same Berkowitz on them, with
    the ring's inner product (:meth:`rings.Ring.dot`).
    """
    a, b = pair.a, pair.b
    ring = a.ring
    kind = leaf_kind(ring)
    if kind is None:
        e, jp, cols = block = _centred_cols(a.support())
        ents = _bracket_block(jp, cols, a.shift(-e), b.shift(e))
        coeffs = berkowitz(_k_matrix(jp, ents, ring.zero, ring.one, ring.add),
                           ring.dot, ring.neg, ring.one)
        return LaurentSeries(ring, dict(enumerate(coeffs))), _b_need([block])
    if kind is Fraction:
        blocks = [_centred_cols([lo + i for i, x in enumerate(nums) if x])
                  for lo, nums, _den in a.ints]
        ints = [_int_projection(block, x, y) for block, x, y in zip(blocks, a.ints, b.ints)]
        return LaurentSeries._from_ints(ring, ints), _b_need(blocks)

    def leaf(comp: Ring, ac: Dict[int, Any],
             bc: Dict[int, Any]) -> Tuple[Dict[int, Any], List[Block]]:
        e, jp, cols = block = _centred_cols(sorted(n for n, c in ac.items() if c))
        if e:
            ac, bc = {n - e: c for n, c in ac.items()}, {n + e: c for n, c in bc.items()}
        k = _c_k_matrix(jp, cols, ac, bc)
        coeffs = _poly_det(comp, np.stack([np.eye(len(k)), -k]), len(k))
        return {i: c for i, c in enumerate(coeffs) if not abs(c) <= comp.tolerance}, [block]

    coeffs, blocks = per_component(ring, leaf, split_map, a.coeffs, b.coeffs)
    return LaurentSeries._trusted(ring, coeffs), _b_need(blocks)


def _int_projection(block: Block, a: Ints, b: Ints) -> Ints:
    """det(I - w K) over ``Q`` as an integer form, for the leaf forms ``a``
    and ``b`` re-centred by the ``e`` of ``block`` (:func:`_centred_cols`):
    for ``M = d K`` with ``det(x I - M) = sum m_i x^(n-i)``, the
    coefficient of ``w^i`` is ``m_i / d^i = m_i d^(n-i) / d^n``."""
    (a_lo, a_nums, a_den), (b_lo, b_nums, b_den) = a, b
    e, jp, cols = block
    ents, d = _int_bracket(jp, cols, (a_lo - e, a_nums, a_den), (b_lo + e, b_nums, b_den))
    ms = berkowitz(_k_matrix(jp, ents, 0, d, operator.add), dot, operator.neg, 1)
    n = len(ms) - 1
    return reduced(0, [m * d ** (n - i) for i, m in enumerate(ms)], d ** n)


def _shift_entries(jp: List[int]) -> List[Tuple[int, int]]:
    """The unit entries of E as (row, column) positions on P = [min J', max J']."""
    if not jp:
        return []
    lo, n = jp[0], jp[-1] - jp[0] + 1
    return [(i, i + 1) for i in range(n - 1) if lo + i + 1 <= 0]


def _k_matrix(jp: List[int], ents: Dict[Tuple[int, int], Any], zero: Any,
              one: Any, add: Callable[[Any, Any], Any]) -> List[List[Any]]:
    """K = E + B as dense rows on P = [min J', max J'], with ``one`` the
    value of E's entries."""
    idx = list(range(jp[0], jp[-1] + 1)) if jp else []
    k_mat = [[ents.get((r, c), zero) for c in idx] for r in idx]
    for i, j in _shift_entries(jp):
        k_mat[i][j] = add(k_mat[i][j], one)
    return k_mat


def _c_k_matrix(jp: List[int], cols: Columns, a: Dict[int, complex],
                b: Dict[int, complex]) -> Any:
    """K = E + B over ``C`` as one complex array on P = [min J', max J'].

    B on the rows J' is one gather of b's Toeplitz slices, G[r, j] =
    b_(r-j), times the weights W[j, k] = sign * a_d of the column entries
    (j, d, sign) of :func:`_bracket_cols`, so B = G W; each column holds
    each j at most once.  Like :func:`_bracket_block`, it keeps every entry
    as computed: K is a matrix, not a series.
    """
    n = jp[-1] - jp[0] + 1 if jp else 0
    k_mat = np.zeros((n, n), complex)
    if cols:
        ks = sorted(cols)
        js = sorted({j for col in cols.values() for j, _d, _s in col})
        at = {j: i for i, j in enumerate(js)}
        w = np.zeros((len(js), len(ks)), complex)
        for c, k in enumerate(ks):
            for j, d, s in cols[k]:
                w[at[j], c] = a.get(d, 0j) if s > 0 else -a.get(d, 0j)
        rows = np.array(jp)
        lo, hi = _b_range(jp, cols)
        gather = to_array(b, lo, hi)[rows[:, None] - np.array(js) - lo]
        k_mat[np.ix_(rows - jp[0], np.array(ks) - jp[0])] = gather @ w
    for i, j in _shift_entries(jp):
        k_mat[i, j] += 1
    return k_mat


def pi_plus(pair: InvertiblePair) -> LaurentSeries:
    """Strictly holomorphic projection, as a series in w: det(I - w K_+)
    for a constant matrix K_+ over the base ring, from one
    characteristic polynomial.  Computed once per pair and kept on it."""
    if "plus" not in pair.projections:
        pp, need = _outer_projection(pair)
        _check_b_window(pair.b, need)
        pair.projections["plus"] = pp
    return pair.projections["plus"]


def pi_minus(pair: InvertiblePair) -> LaurentSeries:
    """Strictly antiholomorphic projection, as a series in w^-1: by the
    uniqueness of a(1/z) = pi_+(1/z) pi~(1/z) pi_-(1/z), :func:`pi_plus` of
    the reflected pair (:meth:`InvertiblePair.reflect`), read at 1/w, with
    ``b`` checked as given.  Computed once per pair and kept on it."""
    if "minus" not in pair.projections:
        pm, need = _outer_projection(pair.reflect())
        _check_b_window(pair.b, need and (-need[1], -need[0]))
        pair.projections["minus"] = pm.reflect()
    return pair.projections["minus"]


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
    projections equals a(1) divided by the middle one.
    """
    a, b = pair.a, pair.b
    ring = a.ring
    pp = pi_plus(pair)
    pm = pi_minus(pair)
    norm_inv = ring.mul(pp.evaluate(ring.one), pm.evaluate(ring.one))
    norm = ring.mul(a.evaluate(ring.one), ring.inverse(norm_inv))  # = pi_tilde(a, 1)
    # (U_half(a) D_w U_half(b) D_w^-1)[n, m] = sum_d a_d b_{n-d-m} w^([n<d] - [m<0]),
    # D_w = w 1_{S^-} + 1_{S^+}: the pencil P0 + w P1 (rows n >= d, rows n < d)
    # with column m shifted by -[m<0], one Toeplitz slice of b per d
    top = max(windows, default=0)
    d_lo, d_hi = a._supp_bounds()
    kmin = 1 - 2 * top - d_hi
    bvec = ring_array(ring, [b.coeff(k) for k in range(kmin, 2 * top - d_lo)])
    idx = np.arange(-top, top)
    diff = idx[:, None] - idx[None, :] - kmin  # n - m as an index into bvec
    p0 = np.zeros(diff.shape + bvec.shape[1:], dtype=bvec.dtype)
    p1 = np.zeros_like(p0)
    for d, c in a.coeffs.items():
        r = min(max(d + top, 0), 2 * top)  # first row with n >= d
        c = ring_array(ring, c)
        p1[:r] += c * bvec[diff[:r] - d]
        p0[r:] += c * bvec[diff[r:] - d]
    value, tail = det_truncated(ring, p0, p1, [-1 if m < 0 else 0 for m in idx],
                                list(windows))
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
    the least window on which the product that :func:`certify` compares spans ``a``."""
    _check_pair(pair)
    pp = pi_plus(pair)
    pm = pi_minus(pair)
    s0, s1 = pair.a._supp_bounds()
    pt = pi_tilde_derived(pair, pm, pp, (s0 - pp._supp_bounds()[1], s1 - pm._supp_bounds()[0]))
    return FactorizationResult(pm, pt, pp, certify(pair, pm, pt, pp),
                               winding_index(pt))


# -- orthogonal machinery ---------------------------------------------

def orthogonal_decompose(pair: InvertiblePair) -> OrthogonalDecomposition:
    """Idempotents Pi_n = a_n b_{-n} of an orthogonal invertible series;
    a pair whose ``b`` does not invert ``a`` fails first (:func:`_check_pair`)."""
    _check_pair(pair)
    a, b = pair.a, pair.b
    ring = a.ring
    if not is_orthogonal(a):
        raise FactorizationError("series is not orthogonal")
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
        a, b = pair.a, pair.b
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


def projection_matrix(d: OrthogonalDecomposition,
                      window: Tuple[int, int]) -> WindowedMatrix:
    """The half-lattice idempotent P = sum_n Pi_n 1_{S^- + n}: diagonal
    with entry sum_{n >= k+1} Pi_n at half-index k + 1/2."""
    ring = d.ring
    ents = {}
    exps = sorted(d.idempotents)
    for k in range(window[0], window[1] + 1):
        acc = ring.zero
        for n in exps:
            if n >= k + 1:
                acc = ring.add(acc, d.idempotents[n])
        if not ring.is_zero(acc):
            ents[(k, k)] = acc
    return WindowedMatrix(ring, Lattice.HALF, window, ents, 0, window)


def n_p_series(p: WindowedMatrix) -> LaurentSeries:
    """Orthonormal series of a half-lattice idempotent close to 1_{S^-}:
    det((1 - P + z P)(1_{S^+} + z 1_{S^-})^-1) on the nested windows
    8, 12 and 16."""
    windows = [8, 12, 16]
    ring = p.ring
    if p.lattice is not Lattice.HALF:
        raise RingError("P must live on the half-integer lattice")
    # idempotency check on the window
    lo, hi = p.reliable
    p2 = mx.mat_mul(p, p)
    for (r, c), v in p.entries.items():
        if p2.reliable[0] <= r <= p2.reliable[1] and p2.reliable[0] <= c <= p2.reliable[1]:
            if not ring.equals(p2.get(r, c), v):
                raise FactorizationError("P is not idempotent on the window")
    top = windows[-1]
    idx = range(-top, top)

    def entry(n: int, m: int) -> Any:
        if n == m and not (p.window[0] <= n <= p.window[1]):
            # beyond its window P agrees with 1_{S^-}
            return ring.one if n < p.window[0] else ring.zero
        return p.get(n, m)

    # the pencil (1 - P) + z P, column m shifted by -[m<0]
    p1 = ring_array(ring, [[entry(n, m) for m in idx] for n in idx])
    p0 = -p1
    diag = np.arange(2 * top)
    p0[diag, diag] += ring_array(ring, ring.one)
    out, _tail = det_truncated(ring, p0, p1, [-1 if m < 0 else 0 for m in idx], windows)
    if not is_orthogonal(out) or not ring.equals(out.evaluate(ring.one), ring.one):
        raise FactorizationError("determinant did not yield an orthonormal series")
    return out
