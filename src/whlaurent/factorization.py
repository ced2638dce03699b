"""Wiener-Hopf (Birkhoff) factorization over commutative coefficient rings.

The three projections are computed from Toeplitz-determinant formulas:
the holomorphic and antiholomorphic parts as widetilde-determinants of
identity-minus-w-bracket matrices reduced to finite blocks, and the
orthogonal middle part either by exact division (default) or through the
half-lattice truncated determinant (cross-check route).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .rings import Ring, RingError
from .series import (InvertiblePair, LaurentSeries, SeriesClass, WindowError,
                     classify, div_unit, laurent_ring)
from . import matrices as mx
from .matrices import Lattice, WindowedMatrix
from .determinants import det_tilde_column_reduced, det_truncated, reduced_columns


class FactorizationError(ValueError):
    """Raised when a factorization does not satisfy its contracts."""


@dataclass
class FactorizationResult:
    pi_minus: LaurentSeries
    pi_tilde: LaurentSeries
    pi_plus: LaurentSeries
    residual: float
    winding: Optional[int]

    def factors(self) -> Tuple[LaurentSeries, LaurentSeries, LaurentSeries]:
        return (self.pi_minus, self.pi_tilde, self.pi_plus)

    def reconstruct(self) -> LaurentSeries:
        return self.pi_minus.mul(self.pi_tilde).mul(self.pi_plus)


@dataclass
class OrthogonalDecomposition:
    """The idempotent family Pi_n = a_n b_{-n} of an orthogonal series."""

    ring: Ring
    idempotents: Dict[int, Any]
    unit: Any


# -- bracket perturbation blocks -------------------------------------

def _check_b_window(pair: InvertiblePair) -> None:
    b = pair.b
    if b.window is None:
        return
    d = max((abs(k) for k in pair.a.coeffs), default=0)
    need = (-3 * d - 1, 3 * d + 1)
    if b.window[0] > need[0] or b.window[1] < need[1]:
        raise WindowError(
            "inverse window [%d,%d] too small; need at least [%d,%d]"
            % (b.window[0], b.window[1], need[0], need[1]))


def _bracket_block(pair: InvertiblePair, sign: str, ring_w: Ring,
                   coef: Any) -> WindowedMatrix:
    """coef * U(b) [1_S, U(a)] U(z^-s) on the rows J' that the column
    reduction reads: S = Z^- with s = 1 (sign '-', reduced as variant '+')
    or S = Z^+ with s = -1 (sign '+', variant '-').

    The commutator has entries (chi_S(j) - chi_S(m)) a_{j-m}, nonzero only
    where j and m straddle S, so |m| <= max |d| over the support of a.
    Rows outside J' never change det(1 + A F^-1) since F^-1 is triangular,
    so they are not built; the rows built read b only on [-2d, 2d].
    """
    _check_b_window(pair)
    a, b = pair.a, pair.b
    ring = a.ring
    shift, variant = (1, "+") if sign == "-" else (-1, "-")

    def in_s(k: int) -> bool:
        return k < 0 if sign == "-" else k > 0

    # shifted column -> [(row j, commutator entry)]
    cols: Dict[int, List[Tuple[int, Any]]] = {}
    for d, c in a.coeffs.items():
        for m in range(-abs(d), abs(d) + 1):
            j = m + d
            if in_s(j) != in_s(m):
                cols.setdefault(m + shift, []).append((j, c if in_s(j) else ring.neg(c)))
    jp = reduced_columns(variant, sorted(cols))
    ents: Dict[Tuple[int, int], Any] = {}
    for r in jp:
        for k, col in cols.items():
            acc = ring.zero
            for j, v in col:
                acc = ring.add(acc, ring.mul(b.coeff(r - j), v))
            if not ring.is_zero(acc):
                ents[(r, k)] = ring_w.mul(coef, ring_w.const(acc))
    lo, hi = (jp[0], jp[-1]) if jp else (0, 0)
    window = (lo - 1, hi + 1)
    return WindowedMatrix(ring_w, Lattice.INTEGER, window, ents,
                          window[1] - window[0], window)._prune()


def holomorphic_det_matrix(pair: InvertiblePair, ring_w: Ring, w: Any) -> WindowedMatrix:
    """The finite-column perturbation A = -w (U(b) 1_{Z^-} U(a) - 1_{Z^-}) U(z^-1),
    for which 1 - w U(b) 1_{Z^-} U(a) U(z^-1) = F^{R+}(1,w) + A; only the
    rows J' read by the column reduction are built."""
    return _bracket_block(pair, "-", ring_w, ring_w.neg(w))


def antiholomorphic_det_matrix(pair: InvertiblePair, ring_w: Ring, w: Any) -> WindowedMatrix:
    """Finite-column part  -w^-1 (U(b) 1_{Z^+} U(a) - 1_{Z^+}) U(z), on the
    rows J' only."""
    return _bracket_block(pair, "+", ring_w, ring_w.neg(ring_w.inverse(w)))


# -- the projections --------------------------------------------------

def pi_plus(pair: InvertiblePair) -> LaurentSeries:
    """Strictly holomorphic projection, as a series in w."""
    ring = pair.a.ring
    ring_w = laurent_ring(ring, "w")
    w = LaurentSeries.monomial(ring, 1)
    a_mat = holomorphic_det_matrix(pair, ring_w, w)
    out: LaurentSeries = det_tilde_column_reduced("+", a_mat, w).value
    _check_projection(out, "plus", ring)
    return out


def pi_minus(pair: InvertiblePair) -> LaurentSeries:
    """Strictly antiholomorphic projection, as a series in w^-1."""
    ring = pair.a.ring
    ring_w = laurent_ring(ring, "w")
    w = LaurentSeries.monomial(ring, 1)
    a_mat = antiholomorphic_det_matrix(pair, ring_w, w)
    out: LaurentSeries = det_tilde_column_reduced("-", a_mat, w).value
    _check_projection(out, "minus", ring)
    return out


def _check_projection(p: LaurentSeries, kind: str, ring: Ring) -> None:
    if not ring.equals(p.coeff(0), ring.one):
        raise FactorizationError(
            "projection %s has non-unit constant term (inconsistent pair?)" % kind)
    bad = [n for n in p.support() if (n < 0 if kind == "plus" else n > 0)]
    if bad:
        raise FactorizationError("projection %s has stray exponents %r" % (kind, bad))


def pi_tilde_derived(pair: InvertiblePair, pi_m: LaurentSeries, pi_p: LaurentSeries,
                     window: Tuple[int, int]) -> LaurentSeries:
    """Orthogonal projection via a(w) * pi_minus(w)^-1 * pi_plus(w)^-1,
    computed by exact long division."""
    a_w = pair.a  # same coefficients read as a series in w
    q = div_unit(a_w, pi_p, window)
    q = div_unit(q, pi_m, window)
    return q


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
    ring_w = laurent_ring(ring, "w")

    def entry(n: int, m: int) -> LaurentSeries:
        # (U_half(a) D_w U_half(b) D_w^-1)[n, m]; D_w = w 1_{S^-} + 1_{S^+}
        acc: Dict[int, Any] = {}
        e_m = 1 if m < 0 else 0
        for d, c in a.coeffs.items():
            k = n - d
            bc = b.coeff(k - m)
            if ring.is_zero(bc):
                continue
            e = (1 if k < 0 else 0) - e_m
            v = ring.mul(c, bc)
            acc[e] = ring.add(acc.get(e, ring.zero), v)
        return LaurentSeries(ring, acc)

    det = det_truncated(entry, ring_w, list(windows))
    series: LaurentSeries = det.value.scale(norm)
    return series, det.tail * ring.seminorm(norm)


def winding_index(pi_tilde: LaurentSeries) -> Optional[int]:
    """Exponent of a monomial orthogonal part; None for decomposable rings."""
    supp = pi_tilde.support()
    if len(supp) != 1:
        return None
    try:
        pi_tilde.ring.inverse(pi_tilde.coeffs[supp[0]])
    except RingError:
        return None
    return supp[0]


def factorize(pair: InvertiblePair,
              window: Optional[Tuple[int, int]] = None) -> FactorizationResult:
    """Assemble the full decomposition a = pi_minus * pi_tilde * pi_plus."""
    ring = pair.a.ring
    tol = 0.0 if ring.is_exact else ring.tolerance * 100
    if pair.residual > tol:
        raise FactorizationError(
            "pair residual %.3g: the supplied series does not invert the symbol"
            % pair.residual)
    pp = pi_plus(pair)
    pm = pi_minus(pair)
    if window is None:
        s = pair.a._supp_bounds()
        r = max(abs(s[0]), abs(s[1]), 1) + 4
        window = (-r, r)
    pt = pi_tilde_derived(pair, pm, pp, window)
    recon = pm.mul(pt).mul(pp)
    residual = recon.sup_diff(pair.a.truncate(window))
    if residual > tol:
        raise FactorizationError(
            "reconstruction residual %.3g exceeds tolerance (window insufficient?)"
            % residual)
    if SeriesClass.ORTHOGONAL not in classify(pt):
        raise FactorizationError("middle projection is not orthogonal")
    return FactorizationResult(pm, pt, pp, residual, winding_index(pt))


# -- orthogonal machinery ---------------------------------------------

def orthogonal_decompose(pair: InvertiblePair) -> OrthogonalDecomposition:
    """Idempotents Pi_n = a_n b_{-n} of an orthogonal invertible series."""
    a, b = pair.a, pair.b
    ring = a.ring
    if SeriesClass.ORTHOGONAL not in classify(a):
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
    if ring.name != d2.ring.name:
        raise RingError("ring mismatch")
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


def n_p_series(p: WindowedMatrix, windows: Sequence[int] = (8, 12, 16)) -> LaurentSeries:
    """Orthonormal series of a half-lattice idempotent close to 1_{S^-}:
    det((1 - P + z P)(1_{S^+} + z 1_{S^-})^-1) on nested windows."""
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
    ring_z = laurent_ring(ring, "z")
    z = LaurentSeries.monomial(ring, 1)
    z_inv = LaurentSeries.monomial(ring, -1)

    def entry(n: int, m: int) -> LaurentSeries:
        if n == m and not (p.window[0] <= n <= p.window[1]):
            # beyond its window P agrees with 1_{S^-}
            base = ring.one if n < p.window[0] else ring.zero
        else:
            base = p.get(n, m)
        coeffs: Dict[int, Any] = {}
        shift = -1 if m < 0 else 0
        # (1 - P)[n,m] + z P[n,m], then column scaled by z^shift
        if n == m:
            coeffs[shift] = ring.sub(ring.one, base)
        elif not ring.is_zero(base):
            coeffs[shift] = ring.neg(base)
        if not ring.is_zero(base):
            coeffs[1 + shift] = ring.add(coeffs.get(1 + shift, ring.zero), base)
        return LaurentSeries(ring, coeffs)

    det = det_truncated(entry, ring_z, list(windows))
    out: LaurentSeries = det.value
    if SeriesClass.ORTHOGONAL not in classify(out) or \
            not ring.equals(out.evaluate(ring.one), ring.one):
        raise FactorizationError("determinant did not yield an orthonormal series")
    return out
