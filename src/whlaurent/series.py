"""Laurent series with finite support and declared truncation windows.

A :class:`LaurentSeries` stores a sparse coefficient map and an optional
window ``(lo, hi)``.  ``window=None`` means the series is exact: every
coefficient, stored or not, is the true one.  A finite window means the
coefficients are meaningful (and stored) only inside it; operations track
the sub-window on which their result still agrees with the untruncated
computation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .rings import Ring, RingError

Window = Optional[Tuple[int, int]]


class WindowError(ValueError):
    """A truncation window is too small for the requested computation."""


def _norm_coeffs(ring: Ring, coeffs: Dict[int, Any]) -> Dict[int, Any]:
    return {n: c for n, c in coeffs.items() if not ring.is_zero(c)}


def _win_meet(w1: Window, w2: Window) -> Window:
    if w1 is None:
        return w2
    if w2 is None:
        return w1
    return (max(w1[0], w2[0]), min(w1[1], w2[1]))


class LaurentSeries:
    """Finitely supported Laurent series over a coefficient ring."""

    __slots__ = ("ring", "coeffs", "window")

    def __init__(self, ring: Ring, coeffs: Dict[int, Any], window: Window = None):
        coeffs = _norm_coeffs(ring, coeffs)
        if window is not None:
            coeffs = {n: c for n, c in coeffs.items() if window[0] <= n <= window[1]}
        self.ring = ring
        self.coeffs = coeffs
        self.window = window

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(ring: Ring, c: Any, window: Window = None) -> "LaurentSeries":
        return LaurentSeries(ring, {0: c}, window)

    @staticmethod
    def one(ring: Ring, window: Window = None) -> "LaurentSeries":
        return LaurentSeries.const(ring, ring.one, window)

    @staticmethod
    def zero(ring: Ring, window: Window = None) -> "LaurentSeries":
        return LaurentSeries(ring, {}, window)

    @staticmethod
    def monomial(ring: Ring, n: int, c: Any = None, window: Window = None) -> "LaurentSeries":
        return LaurentSeries(ring, {n: ring.one if c is None else c}, window)

    # -- basic queries ------------------------------------------------

    def coeff(self, n: int) -> Any:
        return self.coeffs.get(n, self.ring.zero)

    def support(self) -> List[int]:
        return sorted(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _supp_bounds(self) -> Tuple[int, int]:
        if not self.coeffs:
            return (0, 0)
        s = self.support()
        return (s[0], s[-1])

    def sup_seminorm(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(self.ring.seminorm(c) for c in self.coeffs.values())

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "LaurentSeries") -> None:
        if self.ring is not other.ring and self.ring.name != other.ring.name:
            raise RingError("ring mismatch: %s vs %s" % (self.ring, other.ring))

    def add(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check(other)
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            out[n] = self.ring.add(out.get(n, self.ring.zero), c)
        return LaurentSeries(self.ring, out, _win_meet(self.window, other.window))

    def neg(self) -> "LaurentSeries":
        return LaurentSeries(self.ring, {n: self.ring.neg(c) for n, c in self.coeffs.items()},
                             self.window)

    def sub(self, other: "LaurentSeries") -> "LaurentSeries":
        return self.add(other.neg())

    def scale(self, c: Any) -> "LaurentSeries":
        return LaurentSeries(self.ring, {n: self.ring.mul(c, v) for n, v in self.coeffs.items()},
                             self.window)

    def shift(self, k: int) -> "LaurentSeries":
        w = None if self.window is None else (self.window[0] + k, self.window[1] + k)
        return LaurentSeries(self.ring, {n + k: c for n, c in self.coeffs.items()}, w)

    def mul(self, other: "LaurentSeries") -> "LaurentSeries":
        self._check(other)
        ring = self.ring
        out: Dict[int, Any] = {}
        for n, a in self.coeffs.items():
            for m, b in other.coeffs.items():
                k = n + m
                out[k] = ring.add(out.get(k, ring.zero), ring.mul(a, b))
        window = self._mul_window(other)
        return LaurentSeries(ring, out, window)

    def _mul_window(self, other: "LaurentSeries") -> Window:
        """Reliable window of a product.

        A windowed factor is unknown outside its window, so the product is
        reliable only where every contribution pairs a known coefficient
        of one factor with an in-window coefficient of the other; each
        windowed factor shrinks the partner's window by the partner's
        support extent.
        """
        if self.window is None and other.window is None:
            return None
        if self.window is not None and other.window is not None:
            # both truncated: the working window is their common region
            return _win_meet(self.window, other.window)
        exact, windowed = (self, other) if self.window is None else (other, self)
        if exact.is_zero():
            return windowed.window
        s_lo, s_hi = exact._supp_bounds()
        return (windowed.window[0] + s_hi, windowed.window[1] + s_lo)

    def evaluate(self, point: Any) -> Any:
        """Sum a_n * point**n; needs an invertible point for negative n."""
        ring = self.ring
        out = ring.zero
        inv = None
        for n, c in self.coeffs.items():
            if n >= 0:
                p = ring.pow(point, n)
            else:
                if inv is None:
                    inv = ring.inverse(point)
                p = ring.pow(inv, -n)
            out = ring.add(out, ring.mul(c, p))
        return out

    def equals(self, other: "LaurentSeries") -> bool:
        """Coefficientwise equality on the common reliable window."""
        self._check(other)
        w = _win_meet(self.window, other.window)
        for n in set(self.coeffs) | set(other.coeffs):
            if w is not None and not (w[0] <= n <= w[1]):
                continue
            if not self.ring.equals(self.coeff(n), other.coeff(n)):
                return False
        return True

    def sup_diff(self, other: "LaurentSeries") -> float:
        """Sup seminorm of the coefficient difference on the common window."""
        w = _win_meet(self.window, other.window)
        worst = 0.0
        for n in set(self.coeffs) | set(other.coeffs):
            if w is not None and not (w[0] <= n <= w[1]):
                continue
            worst = max(worst, self.ring.seminorm(self.ring.sub(self.coeff(n), other.coeff(n))))
        return worst

    def truncate(self, window: Window) -> "LaurentSeries":
        return LaurentSeries(self.ring, self.coeffs, _win_meet(self.window, window))

    def __repr__(self) -> str:
        if not self.coeffs:
            body = "0"
        else:
            terms = []
            for n in self.support():
                c = self.ring.fmt(self.coeffs[n])
                if n == 0:
                    terms.append(c)
                else:
                    terms.append("(%s)*z^%d" % (c, n))
            body = " + ".join(terms)
        wtxt = "" if self.window is None else " on [%d,%d]" % self.window
        return "<%s%s>" % (body, wtxt)


# -- classification ---------------------------------------------------

class SeriesClass(enum.Enum):
    STRICTLY_HOLOMORPHIC = "strictly_holomorphic"
    STRICTLY_ANTIHOLOMORPHIC = "strictly_antiholomorphic"
    ORTHOGONAL = "orthogonal"


def _scaled_zero(ring: Ring, x: Any, sa: float, sb: float) -> bool:
    if ring.is_exact:
        return ring.is_zero(x)
    return ring.seminorm(x) <= ring.tolerance * max(1.0, sa) * max(1.0, sb)


def classify(a) -> set:
    """Subgroup memberships of a series (all that apply, possibly none).

    Accepts a series or an :class:`InvertiblePair`.
    """
    if isinstance(a, InvertiblePair):
        a = a.a
    ring = a.ring
    out = set()
    supp = a.support()
    if ring.equals(a.coeff(0), ring.one) and all(n >= 0 for n in supp):
        out.add(SeriesClass.STRICTLY_HOLOMORPHIC)
    if ring.equals(a.coeff(0), ring.one) and all(n <= 0 for n in supp):
        out.add(SeriesClass.STRICTLY_ANTIHOLOMORPHIC)
    orth = True
    norms = {n: ring.seminorm(a.coeffs[n]) for n in supp}
    for i, n in enumerate(supp):
        for m in supp[i + 1:]:
            if not _scaled_zero(ring, ring.mul(a.coeffs[n], a.coeffs[m]), norms[n], norms[m]):
                orth = False
                break
        if not orth:
            break
    if orth and supp:
        out.add(SeriesClass.ORTHOGONAL)
    return out


# -- invertible pairs -------------------------------------------------

@dataclass
class InvertiblePair:
    """A series together with its (possibly truncated) inverse."""

    a: LaurentSeries
    b: LaurentSeries
    residual: float

    @staticmethod
    def make(a: LaurentSeries, b: LaurentSeries) -> "InvertiblePair":
        prod = a.mul(b)
        res = prod.sup_diff(LaurentSeries.one(a.ring, prod.window))
        return InvertiblePair(a, b, res)


# -- elementary factors -----------------------------------------------

@dataclass(frozen=True)
class Antiholo:
    """Factor (1 - alpha * z^-1)."""
    alpha: Any


@dataclass(frozen=True)
class Mono:
    """Factor u * z^p with invertible u."""
    p: int
    u: Any


@dataclass(frozen=True)
class Holo:
    """Factor (1 - beta * z)."""
    beta: Any


Factor = Any  # Antiholo | Mono | Holo


def factor_series(ring: Ring, f: Factor) -> LaurentSeries:
    if isinstance(f, Antiholo):
        return LaurentSeries(ring, {0: ring.one, -1: ring.neg(f.alpha)})
    if isinstance(f, Holo):
        return LaurentSeries(ring, {0: ring.one, 1: ring.neg(f.beta)})
    if isinstance(f, Mono):
        return LaurentSeries(ring, {f.p: f.u})
    raise TypeError("not an elementary factor: %r" % (f,))


def factors_to_series(ring: Ring, factors: Sequence[Factor]) -> LaurentSeries:
    out = LaurentSeries.one(ring)
    for f in factors:
        out = out.mul(factor_series(ring, f))
    return out


def invert_from_factors(ring: Ring, factors: Sequence[Factor],
                        window: Tuple[int, int]) -> InvertiblePair:
    """Build (a, a^-1) from elementary factors.

    ``a`` is exact (a Laurent polynomial); ``b`` carries the coefficients
    of the true two-sided inverse on ``window``.  With ``A`` the product of
    the antiholomorphic factors (degree ``r`` in ``z^-1``) and ``B`` that
    of the holomorphic ones, one Bezout identity ``V*B + U*A = 1`` gives
    ``1/(AB) = V/A + U/B``: ``V/A`` fills the exponents ``< r`` and
    ``U/B`` those ``>= r`` (before the monomial shift), each by exact long
    division.  Over exact rings the coefficients are exact, so the pair
    residual is zero.  For floating rings the geometric parameters must
    have seminorm < 1.
    """
    if not ring.is_exact:
        for f in factors:
            par = f.alpha if isinstance(f, Antiholo) else (
                f.beta if isinstance(f, Holo) else None)
            if par is not None and ring.seminorm(par) >= 1.0:
                raise RingError("geometric parameter with seminorm >= 1")
    a, b = _factors_pair(ring, list(factors), window)
    return InvertiblePair.make(a, b)


def _factors_pair(ring: Ring, factors: Sequence[Factor],
                  window: Tuple[int, int]) -> Tuple[LaurentSeries, LaurentSeries]:
    """A product of elementary factors and its true inverse on ``window``.

    For ``a = u z^p A(z^-1) B(z)`` with ``A = prod(1 - alpha z^-1)`` of
    degree ``r`` and ``B = prod(1 - beta z)``, ``a`` is built from the two
    products ``A`` and ``B``, and the Bezout identity ``V*B + U*A = 1``
    (:func:`_bezout`) splits ``1/(AB) = V/A + U/B``:
    ``V/A`` is a series in ``z^-1`` on the exponents ``< r`` and ``U/B`` a
    series in ``z`` on the exponents ``>= r``, each a long division.
    Product rings run per component.
    """
    if ring.components is not None and ring.split is not None:
        parts = []
        for ci, base in enumerate(ring.components):
            cf = []
            for f in factors:
                if isinstance(f, Antiholo):
                    cf.append(Antiholo(ring.split(f.alpha)[ci]))
                elif isinstance(f, Holo):
                    cf.append(Holo(ring.split(f.beta)[ci]))
                else:
                    cf.append(Mono(f.p, ring.split(f.u)[ci]))
            parts.append(_factors_pair(base, cf, window))

        def merge(xs: Sequence[LaurentSeries], win: Window) -> LaurentSeries:
            coeffs = {n: ring.merge([x.coeff(n) for x in xs])
                      for n in set().union(*(x.coeffs for x in xs))}
            return LaurentSeries(ring, coeffs, win)

        a_parts, b_parts = zip(*parts)
        return merge(a_parts, None), merge(b_parts, window)

    p_tot, u_tot = 0, ring.one
    for f in factors:
        if isinstance(f, Mono):
            p_tot += f.p
            u_tot = ring.mul(u_tot, f.u)
    anti = factors_to_series(ring, [f for f in factors if isinstance(f, Antiholo)])
    holo = factors_to_series(ring, [f for f in factors if isinstance(f, Holo)])
    a = anti.mul(holo).shift(p_tot).scale(u_tot)
    w0 = (window[0] + p_tot, window[1] + p_tot)
    if w0[0] > w0[1]:
        raise WindowError("window too small for the monomial shift")
    r, s = -anti._supp_bounds()[0], holo._supp_bounds()[1]
    if r + s == 0:
        b0 = LaurentSeries.one(ring, w0)
    else:
        v, u = _bezout(ring, anti, holo, r, s)
        coeffs = div_unit(v, anti, (w0[0], r - 1)).coeffs
        coeffs.update(div_unit(u, holo, (r, w0[1])).coeffs)
        b0 = LaurentSeries(ring, coeffs, w0)
    return a, b0.shift(-p_tot).scale(ring.inverse(u_tot))


def _bezout(ring: Ring, anti: LaurentSeries, holo: LaurentSeries,
            r: int, s: int) -> Tuple[LaurentSeries, LaurentSeries]:
    """``V`` on exponents ``[0, r)`` and ``U`` on ``[r, r+s)`` with
    ``V*holo + U*anti = 1``.

    The Sylvester system of the identity, one equation per exponent in
    ``[0, r+s)``, solved by Gauss-Jordan elimination with the pivot of
    largest seminorm.  It is singular exactly when some root ``alpha`` of
    ``anti`` equals ``1/beta`` for a root ``beta`` of ``holo``.
    """
    n = r + s
    partner = [holo] * r + [anti] * s
    rows = [[partner[k].coeff(e - k) for k in range(n)]
            + [ring.one if e == 0 else ring.zero] for e in range(n)]
    for k in range(n):
        piv = max(range(k, n), key=lambda i: ring.seminorm(rows[i][k]))
        if ring.is_zero(rows[piv][k]):
            raise RingError(
                "no two-sided inverse: an antiholomorphic root meets "
                "the reciprocal of a holomorphic one")
        rows[k], rows[piv] = rows[piv], rows[k]
        inv = ring.inverse(rows[k][k])
        rows[k] = [ring.mul(inv, x) for x in rows[k]]
        for i in range(n):
            f = rows[i][k]
            # skip exact zeros only: a float entry under the ring's
            # tolerance still has to be eliminated
            if i != k and f != ring.zero:
                rows[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(rows[i], rows[k])]
    v = LaurentSeries(ring, {k: rows[k][n] for k in range(r)})
    u = LaurentSeries(ring, {k: rows[k][n] for k in range(r, n)})
    return v, u


def invert_numeric(a: LaurentSeries, samples: int) -> InvertiblePair:
    """Inverse of a complex-coefficient symbol via unit-circle sampling."""
    import numpy as np

    ring = a.ring
    if ring.is_exact:
        raise RingError("invert_numeric requires a floating complex ring")
    if samples < 1 or samples & (samples - 1):
        raise ValueError("samples must be a power of two")
    n = np.array(a.support())
    c = np.array([complex(a.coeffs[k]) for k in a.support()])
    k = np.arange(samples)
    # values at exp(2*pi*i*k/N)
    vals = (c[None, :] * np.exp(2j * np.pi * np.outer(k, n) / samples)).sum(axis=1)
    if np.min(np.abs(vals)) < 1e-12:
        raise RingError("symbol (nearly) vanishes on the unit circle")
    recip = 1.0 / vals
    # b_m = (1/N) sum_k recip_k exp(-2*pi*i*m*k/N)
    bm = np.fft.fft(recip) / samples
    half = samples // 2
    coeffs = {}
    for m in range(samples):
        idx = m if m < half else m - samples
        v = complex(bm[m])
        coeffs[idx] = v
    b = LaurentSeries(ring, coeffs, (-half, half - 1))
    return InvertiblePair.make(a, b)


# -- formal division by units -----------------------------------------

def div_unit(x: LaurentSeries, u: LaurentSeries,
             window: Tuple[int, int]) -> LaurentSeries:
    """Quotient q with q*u = x on the window.

    ``u`` must be a unit power series in the variable (constant term 1,
    nonnegative exponents: ascending division) or its mirror in the
    inverse variable (nonpositive exponents, w^0 term 1: descending
    division).
    """
    ring = x.ring
    supp = u.support()
    if not supp or not ring.equals(u.coeff(0), ring.one):
        raise RingError("divisor has no unit pivot coefficient")
    lo, hi = window
    if all(n >= 0 for n in supp):
        order = range(lo, hi + 1)
    elif all(n <= 0 for n in supp):
        order = range(hi, lo - 1, -1)
    else:
        raise RingError("divisor is neither a power series in w nor in w^-1")
    q: Dict[int, Any] = {}
    for n in order:
        acc = x.coeff(n)
        for m, um in u.coeffs.items():
            if m == 0:
                continue
            prev = q.get(n - m)
            if prev is not None:
                acc = ring.sub(acc, ring.mul(prev, um))
        if not ring.is_zero(acc):
            q[n] = acc
    return LaurentSeries(ring, q, _win_meet(x.window, window))


# -- the series ring constructor --------------------------------------

def laurent_ring(base: Ring, var: str = "w") -> Ring:
    """Ring of exact Laurent polynomials in one variable over ``base``.

    Used for symbolic matrix entries (variable ``w``, and nested again
    for symbolic ``t``).  Elements are :class:`LaurentSeries` with
    ``window=None``.
    """
    zero = LaurentSeries.zero(base)
    one = LaurentSeries.one(base)

    def inv(x: LaurentSeries) -> LaurentSeries:
        supp = x.support()
        if len(supp) != 1:
            raise RingError("only monomials are invertible in %s[%s,%s^-1]"
                            % (base.name, var, var))
        n = supp[0]
        return LaurentSeries(base, {-n: base.inverse(x.coeffs[n])})

    split = None
    merge = None
    if base.split is not None:
        comps = base.components or ()

        def split(x: LaurentSeries):
            outs = [dict() for _ in comps]
            for k, c in x.coeffs.items():
                for i, ci in enumerate(base.split(c)):
                    outs[i][k] = ci
            return [LaurentSeries(comp, out, x.window) for comp, out in zip(comps, outs)]

        def merge(xs):
            keys = set()
            for x in xs:
                keys |= set(x.coeffs)
            out = {}
            for k in keys:
                out[k] = base.merge([x.coeff(k) for x in xs])
            return LaurentSeries(base, out)

    def fmt(x: LaurentSeries) -> str:
        if not x.coeffs:
            return "0"
        return " + ".join("(%s)*%s^%d" % (base.fmt(c), var, n) if n else "(%s)" % base.fmt(c)
                          for n, c in sorted(x.coeffs.items()))

    return Ring(
        name="%s[%s^-1,%s]" % (base.name, var, var),
        zero=zero,
        one=one,
        add=lambda x, y: x.add(y),
        mul=lambda x, y: x.mul(y),
        neg=lambda x: x.neg(),
        seminorm=lambda x: x.sup_seminorm(),
        equals=lambda x, y: x.equals(y),
        is_exact=base.is_exact,
        tolerance=base.tolerance,
        invert=inv,
        components=base.components,
        split=split,
        merge=merge,
        fmt=fmt,
        base=base,
        var=var,
        const=lambda c: LaurentSeries.const(base, c),
    )
