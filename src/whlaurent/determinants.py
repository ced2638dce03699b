"""Determinants of identity-plus-perturbation windowed matrices.

The generic path is the Berkowitz division-free algorithm, valid over any
commutative coefficient ring (product rings have zero divisors, so
elimination is not).  Large windows with Laurent-polynomial entries are
handled by evaluation/interpolation (exact fields) or unit-circle
sampling (complex floats) at the degree that per-column exponent shifts
give (:func:`_column_bounds`); product rings recurse componentwise.
``charpoly`` gives the characteristic polynomial of a constant block, the
outer projections' whole determinant: Berkowitz over exact rings, product
rings included, and unit-circle sampling over ``C``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, List, Optional, Sequence, Tuple

from .rings import Ring, RingError
from .series import LaurentSeries, WindowError
from .matrices import WindowedMatrix

MAX_BERKOWITZ = 64


@dataclass
class DetValue:
    value: Any
    tail: Optional[float] = None
    window_used: Optional[int] = None


# -- Berkowitz --------------------------------------------------------

def _berkowitz_charpoly(ring: Ring, a: List[List[Any]]) -> List[Any]:
    """Coefficients [c_0..c_n] of det(x*I - A) = sum c_i x^(n-i),
    computed without division."""
    n = len(a)
    coeffs = [ring.one]
    for r in range(1, n + 1):
        # principal r x r block, partitioned around its last row/column
        top = a[r - 1][r - 1]
        row = [a[r - 1][j] for j in range(r - 1)]
        col = [a[i][r - 1] for i in range(r - 1)]
        # Toeplitz column: [1, -top, -row*col, -row*A*col, ...]
        tvec = [ring.one, ring.neg(top)]
        if r >= 2:
            cur = col
            for _ in range(r - 1):
                s = ring.zero
                for x, y in zip(row, cur):
                    s = ring.add(s, ring.mul(x, y))
                tvec.append(ring.neg(s))
                nxt = []
                for i in range(r - 1):
                    acc = ring.zero
                    for j in range(r - 1):
                        acc = ring.add(acc, ring.mul(a[i][j], cur[j]))
                    nxt.append(acc)
                cur = nxt
        new = []
        for i in range(r + 1):
            acc = ring.zero
            for j in range(len(coeffs)):
                k = i - j
                if 0 <= k < len(tvec):
                    acc = ring.add(acc, ring.mul(tvec[k], coeffs[j]))
            new.append(acc)
        coeffs = new
    return coeffs


def _charpoly_complex(a: List[List[complex]]) -> List[complex]:
    """det(I - w A) = sum c_i w^i sampled at nsamp >= n + 1 roots of unity;
    the FFT of the samples gives c_0..c_n without aliasing."""
    import numpy as np

    n = len(a)
    nsamp = 1
    while nsamp < n + 1:
        nsamp *= 2
    ws = np.exp(2j * np.pi * np.arange(nsamp) / nsamp)
    mats = np.eye(n) - ws[:, None, None] * np.array(a, dtype=complex)
    fc = np.fft.fft(np.linalg.det(mats)) / nsamp
    return [complex(c) for c in fc[:n + 1]]


def charpoly(ring: Ring, a: List[List[Any]]) -> List[Any]:
    """Coefficients [c_0..c_n] of det(x*I - A) = sum c_i x^(n-i), which
    are also those of det(I - w*A) = sum c_i w^i.

    Exact rings, product rings with zero divisors included, run
    division-free Berkowitz.  Over ``C`` its Krylov sums lose up to 1e-8
    on strongly non-normal blocks (entries near 10, eigenvalues below 1),
    so det(I - w*A) is sampled on the unit circle with a backward-stable
    LU determinant per sample instead, one component at a time over
    products of ``C``.
    """
    if ring.is_exact or not a:
        return _berkowitz_charpoly(ring, a)
    if ring.split is None:
        return _charpoly_complex(a)
    split_rows = [[ring.split(x) for x in row] for row in a]
    parts = [charpoly(comp, [[x[i] for x in row] for row in split_rows])
             for i, comp in enumerate(ring.components)]
    return [ring.merge(cs) for cs in zip(*parts)]


def det_berkowitz(ring: Ring, a: List[List[Any]]) -> Any:
    n = len(a)
    if n == 0:
        return ring.one
    cp = _berkowitz_charpoly(ring, a)
    d = cp[-1]  # det(x*I - A) at x=0 is (-1)^n det A
    if n % 2 == 1:
        d = ring.neg(d)
    return d


# -- fast dense paths for Laurent-polynomial entries ------------------

def _column_bounds(rows: List[List[LaurentSeries]]) -> Tuple[List[int], int]:
    """Each column's lowest exponent ``lo_j`` and ``deg = sum_j (hi_j - lo_j)``.

    The determinant is linear in each column, so it is ``w^(sum lo_j)``
    times a polynomial of degree at most ``deg``.
    """
    cols = [[e for row in rows for e in row[j].coeffs] or [0] for j in range(len(rows))]
    return [min(c) for c in cols], sum(max(c) - min(c) for c in cols)


def _det_gauss_field(rows: List[List[Fraction]]) -> Fraction:
    """Gaussian elimination with division over Q (``Fraction`` entries)."""
    n = len(rows)
    m = [list(r) for r in rows]
    det = Fraction(1)
    sign = 1
    for i in range(n):
        piv = None
        for r in range(i, n):
            if m[r][i] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            sign = -sign
        p = m[i][i]
        det *= p
        for r in range(i + 1, n):
            if m[r][i] == 0:
                continue
            f = m[r][i] / p
            for c in range(i, n):
                m[r][c] = m[r][c] - f * m[i][c]
    if sign < 0:
        det = -det
    return det


def _det_series_rational(ring_w: Ring, rows: List[List[LaurentSeries]]) -> LaurentSeries:
    """Evaluation/interpolation determinant over Q[w, w^-1].

    With column ``j`` shifted by ``-lo_j`` (:func:`_column_bounds`), the
    determinant is evaluated at the ``deg + 1`` points 1, -1, 2, -2, ...
    by Gaussian elimination and interpolated.
    """
    los, deg = _column_bounds(rows)
    pts = [Fraction((k // 2 + 1) * (-1) ** k) for k in range(deg + 1)]
    vals = []
    for p in pts:
        num = [[sum((c * p ** (e - lo) for e, c in x.coeffs.items()), Fraction(0))
                for x, lo in zip(row, los)] for row in rows]
        vals.append(_det_gauss_field(num))
    coeffs = _lagrange_coeffs(pts, vals)
    return LaurentSeries(ring_w.base, {k + sum(los): c for k, c in enumerate(coeffs)})


def _lagrange_coeffs(pts: Sequence[Fraction], vals: Sequence[Fraction]) -> List[Fraction]:
    """Coefficients of the interpolating polynomial (Newton form)."""
    n = len(pts)
    divided = list(vals)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) / (pts[i] - pts[i - j])
    coeffs = [Fraction(0)] * n
    acc = [Fraction(0)] * n  # running product poly, starts as 1
    acc[0] = Fraction(1)
    deg = 0
    for j in range(n):
        for i in range(deg + 1):
            coeffs[i] += divided[j] * acc[i]
        # acc *= (x - pts[j])
        if j < n - 1:
            new = [Fraction(0)] * n
            for i in range(deg + 1):
                new[i + 1] += acc[i]
                new[i] -= pts[j] * acc[i]
            acc = new
            deg += 1
    return coeffs


def _det_series_complex(ring_w: Ring, rows: List[List[LaurentSeries]]) -> LaurentSeries:
    """Unit-circle sampling determinant over C[w, w^-1].

    One ``(width, n, n)`` array holds the coefficients, column ``j``
    shifted by ``-lo_j`` (:func:`_column_bounds`).  Contracted with the
    powers of ``w_s`` it gives the sample matrices at the ``nsamp >= deg + 1``
    roots of unity, sixteen to one batched determinant (a bounded stack);
    the FFT gives ``c_0..c_deg`` at offset ``sum lo_j`` without aliasing.
    """
    import numpy as np

    n = len(rows)
    los, deg = _column_bounds(rows)
    terms = [(e - lo, i, j, c) for i, row in enumerate(rows)
             for j, (x, lo) in enumerate(zip(row, los)) for e, c in x.coeffs.items()]
    coef = np.zeros((1 + max((t[0] for t in terms), default=0), n, n), dtype=complex)
    for k, i, j, c in terms:
        coef[k, i, j] = c
    nsamp = 1 << deg.bit_length()  # the next power of two >= deg + 1
    ws = np.exp(2j * np.pi * np.arange(nsamp) / nsamp)
    powers = ws[:, None] ** np.arange(len(coef))
    dets = np.concatenate([
        np.linalg.det(np.tensordot(powers[s:s + 16], coef, axes=1))
        for s in range(0, nsamp, 16)])
    fc = np.fft.fft(dets) / nsamp
    off = sum(los)
    return LaurentSeries(ring_w.base, {k + off: complex(fc[k]) for k in range(deg + 1)})


def det_block(ring: Ring, rows: List[List[Any]]) -> Any:
    """Determinant of a dense square block over any commutative ring,
    dispatching on the entry ring: product rings recurse per component,
    Laurent polynomials over Q (n > 6) interpolate, over C sample the
    unit circle, and everything else runs division-free Berkowitz."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    if n == 0:
        return ring.one
    if ring.split is not None:
        parts = []
        split_rows = [[ring.split(e) for e in row] for row in rows]
        ncomp = len(split_rows[0][0])
        for i in range(ncomp):
            comp = [[split_rows[r][c][i] for c in range(n)] for r in range(n)]
            cring = _component_entry_ring(ring, i)
            parts.append(det_block(cring, comp))
        return ring.merge(parts)
    if ring.base is not None and isinstance(rows[0][0], LaurentSeries):
        # the fast paths need scalar base elements; nested series rings
        # (base elements are themselves series) fall through to Berkowitz
        if isinstance(ring.base.zero, Fraction) and n > 6:
            return _det_series_rational(ring, rows)
        if isinstance(ring.base.zero, complex):
            return _det_series_complex(ring, rows)
    if n > MAX_BERKOWITZ:
        raise RingError("matrix size %d exceeds the determinant bound" % n)
    return det_berkowitz(ring, rows)


def _component_entry_ring(ring: Ring, i: int) -> Ring:
    from .series import laurent_ring

    if ring.base is not None:
        # series ring over a product base
        return laurent_ring(ring.components[i], ring.var or "w")
    return ring.components[i]


# -- identity + perturbation ------------------------------------------

def _support_block(a: WindowedMatrix, axis: str) -> List[int]:
    rows = sorted({r for (r, _c) in a.entries})
    cols = sorted({c for (_r, c) in a.entries})
    if axis == "rows":
        return rows
    if axis == "cols":
        return cols
    if axis == "auto":
        if not a.entries:
            return []
        return rows if len(rows) <= len(cols) else cols
    raise ValueError("axis must be 'rows', 'cols' or 'auto'")


def det_identity_plus(a: WindowedMatrix, axis: str = "auto") -> DetValue:
    """det(1 + A) for a perturbation with finite row or column support.

    If the nonzero entries occupy finitely many rows (resp. columns), the
    infinite determinant equals the determinant of the principal block on
    those rows (resp. columns); the rest of the matrix is identity there.
    """
    idx = _support_block(a, axis)
    if not idx:
        return DetValue(a.ring.one)
    lo, hi = a.reliable
    if idx[0] <= lo or idx[-1] >= hi:
        raise WindowError("perturbation support touches the reliable boundary")
    ring = a.ring
    rows = [[ring.add(ring.one, a.get(r, c)) if r == c else a.get(r, c)
             for c in idx] for r in idx]
    return DetValue(det_block(ring, rows))


# -- the widetilde-determinant via column reduction -------------------

def reduced_columns(variant: str, cols: Sequence[int]) -> List[int]:
    """J': the columns of C = A F^-1 for a perturbation A with columns
    ``cols``.  Column k of A spreads over the wedge of F^{R+-}(1,w)^-1,
    i.e. [k, 0] for '+' and [0, k] for '-'; the result is sorted."""
    jset = set(cols)
    if variant == "+":
        neg = [c for c in cols if c <= 0]
        if neg:
            jset |= set(range(min(neg), 1))
    else:
        pos = [c for c in cols if c >= 0]
        if pos:
            jset |= set(range(0, max(pos) + 1))
    return sorted(jset)


def det_tilde_column_reduced(variant: str, a: WindowedMatrix, w: Any) -> DetValue:
    """widetilde-det(F^{RX}(1,w) + A) with A of finite column support.

    Forms C = A * F^-1 using the closed-form column action of the
    (globally illegal) t=1 inverse; C keeps finite column support J' and
    the determinant reduces to the finite block (1 + C)[J', J'].
    For '+', F^{R+}(1,w)^-1 has entry w^(m-k) on the wedge k <= m <= 0 and
    is the identity elsewhere, so along the nonpositive part of J' (which
    is contiguous), in ascending order,
        C[r, m] = A[r, m] + w C[r, m-1],
    starting from C[r, min J'] = A[r, min J'], and C[r, m] = A[r, m] off
    the wedge.  For '-' the wedge is k >= m >= 0 with entry w^-(k-m), and
    C[r, m] = A[r, m] + w^-1 C[r, m+1] descends over [0, max J'].
    """
    if variant not in ("+", "-"):
        raise ValueError("variant must be '+' or '-'")
    ring = a.ring
    cols = sorted({c for (_r, c) in a.entries})
    if not cols:
        return DetValue(ring.one)
    lo, hi = a.reliable
    if cols[0] <= lo or cols[-1] >= hi:
        raise WindowError("perturbation columns touch the reliable boundary")
    jp = reduced_columns(variant, cols)
    if jp[0] <= lo or jp[-1] >= hi:
        raise WindowError("reduced column set exits the reliable window")
    if variant == "+":
        wedge = [m for m in jp if m <= 0]
        step = w
    else:
        wedge = [m for m in reversed(jp) if m >= 0]
        step = ring.inverse(w)
    block = []
    for r in jp:
        row = {m: a.get(r, m) for m in jp}
        for prev, m in zip(wedge, wedge[1:]):
            row[m] = ring.add(row[m], ring.mul(step, row[prev]))
        row[r] = ring.add(ring.one, row[r])
        block.append([row[m] for m in jp])
    return DetValue(det_block(ring, block))


# -- truncated determinants on nested windows -------------------------

def det_truncated(entry_fn: Callable[[int, int], Any], ring: Ring,
                  windows: Sequence[int]) -> DetValue:
    """Determinant of an identity-plus-decay matrix on nested windows.

    ``entry_fn(n, m)`` returns the (n, m) entry (half-integer indices are
    passed in integer representation); window ``wsize`` is the index range
    ``[-wsize, wsize)``.  ``windows`` must be strictly increasing: the
    entries of the largest window are built once, and each smaller window
    is its centred sub-block.  The tail estimate is the seminorm
    of the difference between the last two window values; it must not
    increase along the sequence.
    """
    if len(windows) < 2:
        raise ValueError("need at least two nested windows")
    if any(b <= a for a, b in zip(windows, windows[1:])):
        raise ValueError("windows must be strictly increasing")
    top = windows[-1]
    idx = range(-top, top)
    full = [[entry_fn(n, m) for m in idx] for n in idx]
    vals = []
    for wsize in windows:
        cut = slice(top - wsize, top + wsize)
        vals.append(det_block(ring, [row[cut] for row in full[cut]]))
    tails = [ring.seminorm(ring.sub(vals[i + 1], vals[i])) for i in range(len(vals) - 1)]
    slack = 1e-12 if not ring.is_exact else 0.0
    for i in range(1, len(tails)):
        if tails[i] > tails[i - 1] + slack and tails[i] > ring.tolerance:
            raise WindowError("tail estimate is not decreasing; window too small")
    return DetValue(vals[-1], tail=tails[-1], window_used=windows[-1])
