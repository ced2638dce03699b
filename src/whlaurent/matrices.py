"""Finite windows of the infinite structured matrices.

Indices live on the integer lattice or the half-integer lattice; a
half-integer index ``k + 1/2`` is stored as the integer ``k``.  A
:class:`WindowedMatrix` keeps a sparse entry map on a square window, a
band bound (entries vanish beyond it off the diagonal, on and off the
window), and a reliable sub-window on which entries agree with the
infinite object they model.

Every function that takes or returns one lives here: the paper's closed
forms, kept to check the engine (criteria 6-9, ``matrix-dump``).  They
read the engine, which reads nothing of this module; the w-series blocks
of the widetilde-determinant read its index map on the hull of a's support
widened to hold 0, not re-centred, from ring elements over every ring.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .determinants import det_block, det_truncated, ring_array
from .factorization import (FactorizationError, OrthogonalDecomposition, _BlockMap, _bracket,
                            _leaf_map)
from .rings import Ring, RingError, check_same
from .series import InvertiblePair, LaurentSeries, WindowError, is_orthogonal


class Lattice(enum.Enum):
    INTEGER = "integer"
    HALF = "half"


def is_positive(lattice: Lattice, k: int) -> bool:
    return k > 0 if lattice is Lattice.INTEGER else k >= 0


def is_negative(lattice: Lattice, k: int) -> bool:
    return k < 0


def index_label(lattice: Lattice, k: int) -> str:
    return str(k) if lattice is Lattice.INTEGER else ("%d/2" % (2 * k + 1))


@dataclass
class WindowedMatrix:
    ring: Ring
    lattice: Lattice
    window: Tuple[int, int]
    entries: Dict[Tuple[int, int], Any]
    band: int
    reliable: Tuple[int, int]

    def get(self, r: int, c: int) -> Any:
        return self.entries.get((r, c), self.ring.zero)

    def _prune(self) -> "WindowedMatrix":
        self.entries = {k: v for k, v in self.entries.items() if not self.ring.is_zero(v)}
        return self

    def check_compatible(self, other: "WindowedMatrix") -> None:
        if self.lattice is not other.lattice:
            raise RingError("lattice mismatch")
        check_same(self.ring, other.ring)

    def dump(self) -> str:
        """Row-major text with separator lines around the 0th row/column
        (integer lattice) or between the -1/2 and 1/2 rows/columns."""
        lo, hi = self.window
        idxs = list(range(lo, hi + 1))
        cells = [[self.ring.fmt(self.get(r, c)) for c in idxs] for r in idxs]
        labels = [index_label(self.lattice, k) for k in idxs]
        widths = [max(len(cells[r][j]) for r in range(len(idxs))) for j in range(len(idxs))]
        widths = [max(w, 1) for w in widths]
        lab_w = max(len(s) for s in labels)

        def colsep_after(j: int) -> bool:
            k = idxs[j]
            if self.lattice is Lattice.INTEGER:
                return k == -1 or k == 0
            return k == -1

        lines = []
        for i in range(len(idxs)):
            parts = []
            for j in range(len(idxs)):
                parts.append(cells[i][j].rjust(widths[j]))
                if colsep_after(j):
                    parts.append("|")
            line = labels[i].rjust(lab_w) + " [ " + " ".join(parts) + " ]"
            lines.append(line)
            if colsep_after(i):  # every line has the first one's length
                lines.append("-" * len(line))
        return "\n".join(lines)


# -- constructors -----------------------------------------------------

def identity(ring: Ring, lattice: Lattice, window: Tuple[int, int]) -> WindowedMatrix:
    ents = {(k, k): ring.one for k in range(window[0], window[1] + 1)}
    return WindowedMatrix(ring, lattice, window, ents, 0, window)


def project(ring: Ring, lattice: Lattice, window: Tuple[int, int],
            sign: str) -> WindowedMatrix:
    """Diagonal indicator 1_S for sign sets '-' , '+' , '0'."""
    ents = {}
    for k in range(window[0], window[1] + 1):
        keep = ((sign == "-" and is_negative(lattice, k))
                or (sign == "+" and is_positive(lattice, k))
                or (sign == "0" and lattice is Lattice.INTEGER and k == 0))
        if keep:
            ents[(k, k)] = ring.one
    return WindowedMatrix(ring, lattice, window, ents, 0, window)


def build_U(a: LaurentSeries, lattice: Lattice, window: Tuple[int, int],
            entry_ring: Optional[Ring] = None,
            embed: Optional[Callable[[Any], Any]] = None) -> WindowedMatrix:
    """Multiplication representation matrix: entry (n, m) = a_{n-m}."""
    ring = entry_ring or a.ring
    embed = embed or (lambda c: c)
    lo, hi = window
    ents = {}
    band = 0
    for d, c in a.coeffs.items():
        band = max(band, abs(d))
        ec = embed(c)
        for m in range(lo, hi + 1):
            n = m + d
            if lo <= n <= hi:
                ents[(n, m)] = ec
    return WindowedMatrix(ring, lattice, window, ents, band, window)._prune()


def build_F(variant: str, ring_w: Ring, t: Any, w: Any,
            window: Tuple[int, int]) -> WindowedMatrix:
    """F-family matrices on the integer lattice.

    variant 'R+': 1 - t*w*1_{Z^-}U(z^-1); 'R-': 1 - t*w^-1*1_{Z^+}U(z);
    'R': their (commuting) product, which carries both bands.  The flip
    J: k -> -k gives J F^{R+}(t,w) J = F^{R-}(t,w^-1), so 'R-' (and the
    R- band of 'R') is the mirror image of 'R+' at w^-1.
    """
    if variant not in ("R", "R+", "R-"):
        raise ValueError("variant must be 'R', 'R+' or 'R-'")
    lo, hi = window
    if variant == "R-":
        return _reflect(build_F("R+", ring_w, t, ring_w.inverse(w), (-hi, -lo)))
    ents = {(k, k): ring_w.one for k in range(lo, hi + 1)}
    coef = ring_w.neg(ring_w.mul(t, w))
    for n in range(lo, min(hi, -1) + 1):
        if n + 1 <= hi:
            ents[(n, n + 1)] = coef
    if variant == "R":
        ents.update(build_F("R-", ring_w, t, w, window).entries)
    return WindowedMatrix(ring_w, Lattice.INTEGER, window, ents, 1, window)._prune()


def build_Utilde(a: LaurentSeries, ring_w: Ring, w: Any,
                 embed: Callable[[Any], Any],
                 window: Tuple[int, int]) -> WindowedMatrix:
    """The doubled multiplication matrix with -w / -w^-1 coupling blocks
    and an isolated 1 at the center."""
    lo, hi = window
    w_inv = ring_w.inverse(w)
    neg_w = ring_w.neg(w)
    neg_w_inv = ring_w.neg(w_inv)
    ents = {(0, 0): ring_w.one}
    band = 0
    for d, c in a.coeffs.items():
        band = max(band, abs(d))
        ec = embed(c)
        for m in range(lo, hi + 1):
            n = m + d
            if not (lo <= n <= hi) or n == 0 or m == 0:
                continue
            if n < 0 and m < 0 or n > 0 and m > 0:
                ents[(n, m)] = ec
            elif n < 0 and m > 0:
                ents[(n, m)] = ring_w.mul(neg_w, ec)
            else:
                ents[(n, m)] = ring_w.mul(neg_w_inv, ec)
    return WindowedMatrix(ring_w, Lattice.INTEGER, window, ents, band, window)._prune()


# -- conjugated shift matrices (closed forms) -------------------------

def _reflect(x: WindowedMatrix) -> WindowedMatrix:
    """J x J for the flip J: k -> -k, on the mirrored window."""
    (lo, hi), (r_lo, r_hi) = x.window, x.reliable
    ents = {(-r, -c): v for (r, c), v in x.entries.items()}
    return WindowedMatrix(x.ring, x.lattice, (-hi, -lo), ents, x.band, (-r_hi, -r_lo))


def ur_monomial(variant: str, n: int, ring_w: Ring, t: Any, w: Any,
                window: Tuple[int, int]) -> WindowedMatrix:
    """Closed form of the conjugation F^X(t,w) U(z^n) F^X(t,w)^-1.

    These are finite perturbations of the shift U(z^n); substituting t=1
    is legal here even though F^X(1,w) is not invertible.  The flip
    J: k -> -k gives J F^{R+}(t,w) J = F^{R-}(t,w^-1) and J U(z^n) J =
    U(z^-n), so '-' and 'R' with n < 0 are the mirror images of '+' and
    'R' with -n at w^-1.
    """
    if variant not in ("R", "+", "-"):
        raise ValueError("variant must be 'R', '+' or '-'")
    lo, hi = window
    ring = ring_w
    if variant == "-" or (variant == "R" and n < 0):
        return _reflect(ur_monomial("+" if variant == "-" else "R", -n, ring, t,
                                    ring.inverse(w), (-hi, -lo)))
    tw = ring.mul(t, w)
    ents: Dict[Tuple[int, int], Any] = {}

    def put(r: int, c: int, v: Any) -> None:
        if lo <= r <= hi and lo <= c <= hi and not ring.is_zero(v):
            ents[(r, c)] = v

    def shift_rows(skip) -> None:
        for i in range(lo, hi + 1):
            if not skip(i):
                put(i, i - n, ring.one)

    if n == 0:
        for i in range(lo, hi + 1):
            put(i, i, ring.one)
        return WindowedMatrix(ring, Lattice.INTEGER, window, ents, 1, window)

    m = abs(n)
    if variant == "+":
        shift_rows(lambda i: False)
        if n > 0:
            for i in range(0, n + 1):
                for j in range(i - n + 1, 1):
                    put(i, j, ring.pow(tw, j - i + n))
        else:
            for i in range(-m, 0):
                put(i, i + m + 1, ring.neg(tw))
    else:  # 'R', n > 0
        tw_inv = ring.mul(t, ring.inverse(w))
        one_minus_t2 = ring.sub(ring.one, ring.mul(t, t))
        shift_rows(lambda i: 1 <= i <= n)
        for j in range(-n + 1, 1):
            put(0, j, ring.pow(tw, j + n))
        for i in range(1, n + 1):
            put(i, i - n - 1, ring.neg(tw_inv))
            for j in range(i - n, 1):
                put(i, j, ring.mul(ring.pow(tw, j - i + n), one_minus_t2))
    return WindowedMatrix(ring, Lattice.INTEGER, window, ents, m + 1, window)._prune()


def conjugate_UR(a: LaurentSeries, variant: str, ring_w: Ring, t: Any, w: Any,
                 embed: Callable[[Any], Any],
                 window: Tuple[int, int]) -> WindowedMatrix:
    """U^X(a, t, w) built by linearity from the per-monomial closed forms."""
    if a.is_zero():
        return WindowedMatrix(ring_w, Lattice.INTEGER, window, {}, 0, window)
    supp = a.support()
    if max(abs(s) for s in supp) + 1 > window[1] - window[0]:
        raise WindowError("window too small for the band of the symbol")
    out: Optional[WindowedMatrix] = None
    for d in supp:
        part = ur_monomial(variant, d, ring_w, t, w, window)
        scaled = scale(part, embed(a.coeffs[d]))
        out = scaled if out is None else mat_add(out, scaled)
    return out


# -- arithmetic -------------------------------------------------------

def _shrink(w: Tuple[int, int], k: int) -> Tuple[int, int]:
    return (w[0] + k, w[1] - k)


def mat_add(x: WindowedMatrix, y: WindowedMatrix) -> WindowedMatrix:
    x.check_compatible(y)
    if x.window != y.window:
        raise WindowError("window mismatch in matrix addition")
    ents = dict(x.entries)
    for k, v in y.entries.items():
        ents[k] = x.ring.add(ents.get(k, x.ring.zero), v)
    rel = (max(x.reliable[0], y.reliable[0]), min(x.reliable[1], y.reliable[1]))
    return WindowedMatrix(x.ring, x.lattice, x.window, ents,
                          max(x.band, y.band), rel)._prune()


def mat_sub(x: WindowedMatrix, y: WindowedMatrix) -> WindowedMatrix:
    return mat_add(x, scale(y, y.ring.neg(y.ring.one)))


def scale(x: WindowedMatrix, c: Any) -> WindowedMatrix:
    ents = {k: x.ring.mul(c, v) for k, v in x.entries.items()}
    return WindowedMatrix(x.ring, x.lattice, x.window, ents, x.band, x.reliable)._prune()


def mat_mul(x: WindowedMatrix, y: WindowedMatrix) -> WindowedMatrix:
    x.check_compatible(y)
    if x.window != y.window:
        raise WindowError("window mismatch in matrix product")
    ring = x.ring
    rows_y: Dict[int, List[Tuple[int, Any]]] = {}
    for (k, c), v in y.entries.items():
        rows_y.setdefault(k, []).append((c, v))
    ents: Dict[Tuple[int, int], Any] = {}
    for (r, k), v in x.entries.items():
        for c, u in rows_y.get(k, ()):
            key = (r, c)
            prod = ring.mul(v, u)
            prev = ents.get(key)
            ents[key] = prod if prev is None else ring.add(prev, prod)
    # an out-of-window index k in the sum must satisfy both band bounds,
    # so the factor with the smaller true band pins k inside the window
    rel = _shrink((max(x.reliable[0], y.reliable[0]), min(x.reliable[1], y.reliable[1])),
                  min(x.band, y.band))
    return WindowedMatrix(ring, x.lattice, x.window, ents,
                          x.band + y.band, rel)._prune()


def column_shift(x: WindowedMatrix, s: int) -> WindowedMatrix:
    """Right multiplication by U(z^-s): entry (n, m) <- (n, m - s)."""
    ents = {}
    lo, hi = x.window
    for (r, c), v in x.entries.items():
        if lo <= c + s <= hi:
            ents[(r, c + s)] = v
    return WindowedMatrix(x.ring, x.lattice, x.window, ents, x.band + abs(s),
                          _shrink(x.reliable, abs(s)))


# -- identity + perturbation ------------------------------------------

def det_identity_plus(a: WindowedMatrix) -> Any:
    """det(1 + A) for a perturbation with finite row support.

    If the nonzero entries occupy finitely many rows, the infinite
    determinant equals the determinant of the principal block on those
    rows; the rest of the matrix is identity there.
    """
    idx = sorted({r for (r, _c) in a.entries})
    if not idx:
        return a.ring.one
    lo, hi = a.reliable
    if idx[0] <= lo or idx[-1] >= hi:
        raise WindowError("perturbation support touches the reliable boundary")
    ring = a.ring
    rows = [[ring.add(ring.one, a.get(r, c)) if r == c else a.get(r, c)
             for c in idx] for r in idx]
    return det_block(ring, rows)


# -- the widetilde-determinant: column reduction, closed-form blocks ---

def reduced_columns(cols: Sequence[int]) -> List[int]:
    """J': the columns of C = A F^-1 for a perturbation A with columns
    ``cols``.  Column k of A spreads over the wedge [k, 0] of
    F^{R+}(1,w)^-1; the result is sorted.  The '-' wedge [0, k] of
    F^{R-}(1,w)^-1 is its mirror image under k -> -k."""
    return sorted(set(cols) | set(range(min(cols, default=1), 1)))


def det_tilde_column_reduced(variant: str, a: WindowedMatrix, w: Any) -> Any:
    """widetilde-det(F^{RX}(1,w) + A) with A of finite column support.

    Forms C = A * F^-1 using the closed-form column action of the
    (globally illegal) t=1 inverse; C keeps finite column support J' and
    the determinant reduces to the finite block (1 + C)[J', J'].
    For '+', F^{R+}(1,w)^-1 has entry w^(m-k) on the wedge k <= m <= 0 and
    is the identity elsewhere, so along the nonpositive part of J' (which
    is contiguous), in ascending order,
        C[r, m] = A[r, m] + w C[r, m-1],
    starting from C[r, min J'] = A[r, min J'], and C[r, m] = A[r, m] off
    the wedge.  '-' is the mirror image: the flip J: k -> -k gives
    J F^{R+}(1,w^-1) J = F^{R-}(1,w), so it is '+' for J A J at w^-1.
    """
    if variant not in ("+", "-"):
        raise ValueError("variant must be '+' or '-'")
    ring = a.ring
    if variant == "-":
        return det_tilde_column_reduced("+", _reflect(a), ring.inverse(w))
    cols = sorted({c for (_r, c) in a.entries})
    if not cols:
        return ring.one
    lo, hi = a.reliable
    if cols[0] <= lo or cols[-1] >= hi:
        raise WindowError("perturbation columns touch the reliable boundary")
    jp = reduced_columns(cols)
    if jp[0] <= lo or jp[-1] >= hi:
        raise WindowError("reduced column set exits the reliable window")
    wedge = [m for m in jp if m <= 0]
    block = []
    for r in jp:
        row = {m: a.get(r, m) for m in jp}
        for prev, m in zip(wedge, wedge[1:]):
            row[m] = ring.add(row[m], ring.mul(w, row[prev]))
        row[r] = ring.add(ring.one, row[r])
        block.append([row[m] for m in jp])
    return det_block(ring, block)


def _own_map(pair: InvertiblePair) -> Tuple[int, int, _BlockMap, Tuple[int, int],
                                            LaurentSeries]:
    """``(lo, hi, map, window, b)`` of the closed forms' block: on the hull
    ``[lo, hi]`` of ``a``'s support widened to hold 0, not re-centred, so it
    reads ``b`` on ``window = [-2 max(hi, 0), -2 min(lo, 0)]``, and ``b``
    read there (:meth:`InvertiblePair.read`)."""
    lo, hi = pair.a._supp_bounds()
    lo, hi = min(lo, 0), max(hi, 0)
    m, window = _leaf_map(lo, hi)
    return lo, hi, m, window, pair.read(window if m.n else None)


def _w_block(ring_w: Ring, coef: Any, rows: List[List[Any]], lo: int,
             hi: int) -> WindowedMatrix:
    """``coef`` times the block ``rows`` of the hull ``[lo, hi]`` on J' = P = [1 - hi, -lo]."""
    ents = {(1 - hi + r, 1 - hi + k): ring_w.mul(coef, ring_w.const(v))
            for r, row in enumerate(rows) for k, v in enumerate(row)}
    window = (-hi, 1 - lo) if rows else (-1, 1)
    return WindowedMatrix(ring_w, Lattice.INTEGER, window, ents,
                          window[1] - window[0], window)._prune()


def holomorphic_det_matrix(pair: InvertiblePair, ring_w: Ring, w: Any) -> WindowedMatrix:
    """The finite-column perturbation A = -w (U(b) 1_{Z^-} U(a) - 1_{Z^-}) U(z^-1),
    for which 1 - w U(b) 1_{Z^-} U(a) U(z^-1) = F^{R+}(1,w) + A, as a
    w-series WindowedMatrix: the bracket block of ``pair`` on the hull of
    ``a``'s own support widened to hold 0 (:func:`_own_map`), not
    re-centred, on the rows J' = P read by the column reduction, from ring
    elements over every ring, ``Q`` and ``C`` included."""
    a = pair.a
    lo, hi, m, (b_lo, b_hi), b = _own_map(pair)
    rows = _bracket(m.g, m.blocks[0][0], [a.coeff(d) for d in range(lo, hi + 1)],
                    [b.coeff(k) for k in range(b_lo, b_hi + 1)], a.ring.dot, a.ring.neg)
    return _w_block(ring_w, ring_w.neg(w), rows, lo, hi)


def antiholomorphic_det_matrix(pair: InvertiblePair, ring_w: Ring, w: Any) -> WindowedMatrix:
    """Finite-column part  -w^-1 (U(b) 1_{Z^+} U(a) - 1_{Z^+}) U(z), on the
    rows J' only: the mirror image J A' J, J: k -> -k, of the holomorphic
    block A' of the reflected pair at w^-1: the mirror block of the same
    map on the reversed coefficients."""
    a = pair.a
    lo, hi, m, (b_lo, b_hi), b = _own_map(pair)
    rows = _bracket(m.g, m.blocks[1][0], [a.coeff(d) for d in range(hi, lo - 1, -1)],
                    [b.coeff(k) for k in range(b_hi, b_lo - 1, -1)], a.ring.dot, a.ring.neg)
    return _reflect(_w_block(ring_w, ring_w.neg(ring_w.inverse(w)), rows, -hi, -lo))


# -- half-lattice projections -----------------------------------------

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
    8, 12 and 16 (:func:`determinants.det_truncated`)."""
    windows = [8, 12, 16]
    ring = p.ring
    if p.lattice is not Lattice.HALF:
        raise RingError("P must live on the half-integer lattice")
    # idempotency check on the window
    p2 = mat_mul(p, p)
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

    # the pencil (1 - P) + z P; det_truncated applies D_z^-1
    p1 = ring_array(ring, [[entry(n, m) for m in idx] for n in idx])
    p0 = -p1
    diag = np.arange(2 * top)
    p0[diag, diag] += ring_array(ring, ring.one)
    out, _tail = det_truncated(ring, p0, p1, windows)
    if not is_orthogonal(out) or not ring.equals(out.evaluate(ring.one), ring.one):
        raise FactorizationError("determinant did not yield an orthonormal series")
    return out
