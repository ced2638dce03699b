"""Laurent series with finite support and declared truncation windows.

A :class:`LaurentSeries` stores a sparse coefficient map and an optional
window ``(lo, hi)``.  ``window=None`` means the series is exact: every
coefficient, stored or not, is the true one.  A finite window means the
coefficients are meaningful (and stored) only inside it; operations track
the sub-window on which their result still agrees with the untruncated
computation.

The coefficient map is the interchange form; the kernels choose their
own, by :func:`rings.leaf_kind`, per component of a product ring
(:func:`rings.per_component` splits it).  Over ``Q``, and per leaf of a
(nested) product of ``Q``, a series holds its coefficients as integer
numerators over one denominator in lowest terms, ``(lo, nums, den)``
(:attr:`LaurentSeries.ints`, :data:`exact.Ints`), and builds its map of
``Fraction`` objects only when something reads it.  ``mul``,
``div_unit``, the inverse of a product of elementary factors and the
pair and reconstruction residuals read and write that form
(:mod:`whlaurent.exact`): a product is one integer convolution, a long
division an integer recurrence, the Bezout system a fraction-free
elimination, and a residual a comparison of reduced forms.  Over ``C``
they run on one dense complex array (:mod:`whlaurent.floating`):
a product is one ``np.convolve``, the Bezout system one
``np.linalg.solve``, a long division a recurrence on Python complex
numbers, and a coefficient within the ring's tolerance of zero is cut
only where a series is stored, as the ring-element path drops it in the
:class:`LaurentSeries` constructor.  Every other ring
(rings with nilpotents, series rings) runs the same algorithms on its own
elements.

An :class:`InvertiblePair` holds a symbol and its inverse ``b`` on a
declared window.  A reader asks it for the window it reads
(:meth:`InvertiblePair.read`), which checks that the declared window holds
it before anything is built and, over an exact ring, builds ``b`` there
only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exact import (Ints, bareiss_solve, from_terms, int_div, int_mul, reduced, restrict,
                    slice_ints, to_fractions)
from .floating import circle_values, cut, from_array, from_fft, recur, times_linear, to_array
from .rings import (Ring, RingError, check_same, leaf_kind, per_component, split_leaves,
                    split_map, sup)

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
    """Finitely supported Laurent series over a coefficient ring.

    ``coeffs`` (read-only) maps exponents to nonzero coefficients.  Over
    ``Q`` and products of ``Q`` a series may instead hold only its integer
    forms (:attr:`ints`); ``coeffs`` is then built on first read.
    """

    __slots__ = ("ring", "_coeffs", "window", "_ints")

    def __init__(self, ring: Ring, coeffs: Dict[int, Any], window: Window = None):
        coeffs = _norm_coeffs(ring, coeffs)
        if window is not None:
            coeffs = {n: c for n, c in coeffs.items() if window[0] <= n <= window[1]}
        self.ring = ring
        self._coeffs = coeffs
        self.window = window
        self._ints: Optional[List[Ints]] = None

    @classmethod
    def _trusted(cls, ring: Ring, coeffs: Dict[int, Any], window: Window = None) -> "LaurentSeries":
        """A series from a map that holds only nonzero coefficients inside
        ``window``, as the kernels return it: no normalisation pass."""
        out = cls.__new__(cls)
        out.ring, out._coeffs, out.window, out._ints = ring, coeffs, window, None
        return out

    @classmethod
    def _from_ints(cls, ring: Ring, ints: List[Ints], window: Window = None) -> "LaurentSeries":
        """A series over ``Q`` or a product of ``Q`` from one integer form
        per leaf, each inside ``window``; its map is built when read."""
        out = cls.__new__(cls)
        out.ring, out._coeffs, out.window, out._ints = ring, None, window, ints
        return out

    @property
    def coeffs(self) -> Dict[int, Any]:
        if self._coeffs is None:
            self._coeffs = per_component(self.ring, lambda _q, forms: to_fractions(forms[0]),
                                         split_leaves, self._ints)
        return self._coeffs

    @property
    def ints(self) -> List[Ints]:
        """Over ``Q`` or a (nested) product of ``Q``: the coefficients of each
        leaf, in leaf order, as ``(lo, nums, den)`` in lowest terms
        (:data:`exact.Ints`), built from ``coeffs`` on first read."""
        if self._ints is None:
            self._ints = per_component(
                self.ring, lambda _q, m: [from_terms([(n, c.numerator, c.denominator)
                                                      for n, c in m.items() if c])],
                split_map, self.coeffs)
        return self._ints

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(ring: Ring, c: Any, window: Window = None) -> "LaurentSeries":
        return LaurentSeries(ring, {0: c}, window)

    @staticmethod
    def one(ring: Ring, window: Window = None) -> "LaurentSeries":
        return LaurentSeries.const(ring, ring.one, window)

    @staticmethod
    def zero(ring: Ring) -> "LaurentSeries":
        return LaurentSeries(ring, {})

    @staticmethod
    def monomial(ring: Ring, n: int, c: Any = None) -> "LaurentSeries":
        return LaurentSeries(ring, {n: ring.one if c is None else c})

    # -- basic queries ------------------------------------------------

    def coeff(self, n: int) -> Any:
        return self.coeffs.get(n, self.ring.zero)

    def support(self) -> List[int]:
        if self._ints is None:
            return sorted(self.coeffs)
        return sorted({lo + i for lo, nums, _d in self._ints for i, x in enumerate(nums) if x})

    def is_zero(self) -> bool:
        return not self.support()

    def has_unit_constant(self) -> bool:
        """Whether the coefficient of ``z^0`` is the ring's one; over ``Q``
        (and per leaf of a product of ``Q``) read on the integer form, where
        it is a numerator equal to the denominator."""
        if leaf_kind(self.ring) is Fraction:
            return all(lo <= 0 < lo + len(nums) and nums[-lo] == den
                       for lo, nums, den in self.ints)
        return self.ring.equals(self.coeff(0), self.ring.one)

    def _supp_bounds(self) -> Tuple[int, int]:
        s = self.support()
        return (s[0], s[-1]) if s else (0, 0)

    def sup_seminorm(self) -> float:
        return sup(self.ring.seminorm(c) for c in self.coeffs.values())

    # -- arithmetic ---------------------------------------------------

    def add(self, other: "LaurentSeries") -> "LaurentSeries":
        check_same(self.ring, other.ring)
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

    def reflect(self) -> "LaurentSeries":
        """``a(1/z)``: exponent ``n`` goes to ``-n``, on the mirrored window.
        Over ``Q`` (and per leaf of a product of ``Q``) each integer form is
        read backwards, with no ``Fraction``; other rings mirror the map."""
        w = None if self.window is None else (-self.window[1], -self.window[0])
        if leaf_kind(self.ring) is Fraction:
            return LaurentSeries._from_ints(self.ring, [
                (1 - lo - len(nums), nums[::-1], den) if nums else (0, [], 1)
                for lo, nums, den in self.ints], w)
        return LaurentSeries._trusted(self.ring, {-n: c for n, c in self.coeffs.items()}, w)

    def mul(self, other: "LaurentSeries") -> "LaurentSeries":
        """Product on its reliable window; over ``Q`` or ``C`` (and per
        component of a product of them) one convolution of the dense
        coefficients: integer numerators over ``Q``, a complex array over
        ``C``."""
        check_same(self.ring, other.ring)
        ring = self.ring
        window = self._mul_window(other)
        kind = leaf_kind(ring)
        if kind is Fraction:
            return LaurentSeries._from_ints(ring, [
                reduced(x[0] + y[0], int_mul(x[1], y[1]), x[2] * y[2], window)
                for x, y in zip(self.ints, other.ints)], window)
        if kind is complex:
            return LaurentSeries._trusted(ring, per_component(
                ring, lambda comp, x, y: _c_mul(comp, x, y, window), split_map,
                self.coeffs, other.coeffs), window)
        out: Dict[int, Any] = {}
        for n, a in self.coeffs.items():
            for m, b in other.coeffs.items():
                k = n + m
                out[k] = ring.add(out.get(k, ring.zero), ring.mul(a, b))
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
        check_same(self.ring, other.ring)
        w = _win_meet(self.window, other.window)
        for n in set(self.coeffs) | set(other.coeffs):
            if w is not None and not (w[0] <= n <= w[1]):
                continue
            if not self.ring.equals(self.coeff(n), other.coeff(n)):
                return False
        return True

    def sup_diff(self, other: "LaurentSeries") -> float:
        """Sup seminorm of the coefficient difference on the common window;
        over ``Q`` (and products of ``Q``) 0.0 as soon as the two reduced
        integer forms agree there."""
        w = _win_meet(self.window, other.window)
        if leaf_kind(self.ring) is Fraction and \
                [restrict(f, w) for f in self.ints] == [restrict(f, w) for f in other.ints]:
            return 0.0
        ring, x, y = self.ring, self.coeffs, other.coeffs
        return sup(ring.seminorm(ring.sub(x.get(n, ring.zero), y.get(n, ring.zero)))
                   for n in set(x) | set(y) if w is None or w[0] <= n <= w[1])

    def truncate(self, window: Window) -> "LaurentSeries":
        w = _win_meet(self.window, window)
        if self._ints is None:
            return LaurentSeries(self.ring, self.coeffs, w)
        return LaurentSeries._from_ints(self.ring, [restrict(f, w) for f in self._ints], w)

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


# -- orthogonality ----------------------------------------------------

def is_orthogonal(a: LaurentSeries) -> bool:
    """Whether ``a`` is orthogonal: nonzero, with every two distinct
    coefficients multiplying to zero; over an inexact ring, to within its
    tolerance scaled by the two seminorms (each taken as at least 1).

    Over ``Q`` (and per leaf of a product of ``Q``) it reads the integer
    forms, with no ``Fraction``: a product of two nonzero rationals is
    nonzero, so a series is orthogonal iff no leaf holds more than one
    nonzero numerator and some leaf holds one.
    """
    ring = a.ring
    if leaf_kind(ring) is Fraction:
        # the forms are trimmed: a zero leaf holds no numerator
        return max(len(nums) for _lo, nums, _d in a.ints) == 1
    cs = [a.coeffs[n] for n in a.support()]
    norms = [max(1.0, ring.seminorm(x)) for x in cs]

    def vanishes(i: int, j: int) -> bool:
        x = ring.mul(cs[i], cs[j])
        if ring.is_exact:
            return ring.is_zero(x)
        return ring.seminorm(x) <= ring.tolerance * norms[i] * norms[j]
    return bool(cs) and all(vanishes(i, j) for i in range(len(cs))
                            for j in range(i + 1, len(cs)))


# -- invertible pairs -------------------------------------------------

class InvertiblePair:
    """A series ``a`` together with its (possibly truncated) inverse ``b``,
    declared on ``window``.

    ``b`` is either given (:meth:`make`) or built by ``build(w)``: on what
    a reader asks for (:meth:`read`), and on the declared window when
    :attr:`b` is first read.  Each build checks ``a b - 1`` on the product
    coefficients that the built window determines, and :attr:`residual` is
    the largest residual over the builds; read before the first, it builds
    ``b`` on the declared window, so that no residual is reported unchecked.

    ``projections`` keeps the outer projections of the pair by kind
    (``"plus"``, ``"minus"``) once :func:`factorization.pi_plus` or
    :func:`factorization.pi_minus` has computed them, so that every later
    call reads them.
    """

    def __init__(self, a: LaurentSeries, window: Window,
                 build: Optional[Callable[[Tuple[int, int]], LaurentSeries]]):
        self.a, self.window, self._build = a, window, build
        self._b: Optional[LaurentSeries] = None
        self._residual: Optional[float] = None
        self.projections: Dict[str, LaurentSeries] = {}

    @staticmethod
    def make(a: LaurentSeries, b: LaurentSeries) -> "InvertiblePair":
        """The pair of ``a`` and a given ``b``, its residual taken now."""
        pair = InvertiblePair(a, b.window, None)
        pair._b, pair._residual = b, _residual(a, b)
        return pair

    @property
    def b(self) -> LaurentSeries:
        """``b`` on the declared window, built on first read if not given."""
        if self._b is None:
            self._b = self._checked(self.window)
        return self._b

    @property
    def residual(self) -> float:
        if self._residual is None:
            self._b = self._checked(self.window)
        return self._residual

    def read(self, need: Window) -> LaurentSeries:
        """``b`` for a reader of its coefficients on ``need`` alone (of none
        for None): a :class:`WindowError`, before anything is built, if the
        declared window does not hold ``need``; else ``b`` as given or built
        on the declared window; else ``b`` built on ``need`` widened by the
        span of ``a`` on both sides and clipped to the declared window, so
        that, inside it, the build checks every product coefficient that a
        coefficient on ``need`` enters."""
        w = self.window
        if need and w and (w[0] > need[0] or w[1] < need[1]):
            raise WindowError("inverse window [%d,%d] too small; need at least [%d,%d]"
                              % (*w, *need))
        if self._b is not None:
            return self._b
        if need is None:
            return LaurentSeries.zero(self.a.ring)
        s0, s1 = self.a._supp_bounds()
        return self._checked((max(w[0], need[0] - s1 + s0), min(w[1], need[1] + s1 - s0)))

    def _checked(self, window: Tuple[int, int]) -> LaurentSeries:
        b = self._build(window)
        r = _residual(self.a, b)
        self._residual = r if self._residual is None else max(self._residual, r)
        return b


def _residual(a: LaurentSeries, b: LaurentSeries) -> float:
    """``a b - 1`` on the reliable window of the product."""
    prod = a.mul(b)
    return prod.sup_diff(LaurentSeries.one(a.ring, prod.window))


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


def check_factors(ring: Ring, factors: Sequence[Factor]) -> None:
    """Refuse, by :class:`RingError`, a factor that :func:`invert_from_factors`
    cannot invert: a :class:`Mono` whose ``u`` is no unit (``ring.inverse``
    raises), and over a floating ring a geometric parameter of seminorm 1 or more."""
    for f in factors:
        if isinstance(f, Mono):
            ring.inverse(f.u)
        elif not ring.is_exact and not ring.seminorm(
                f.alpha if isinstance(f, Antiholo) else f.beta) < 1.0:  # NaN fails too
            raise RingError("geometric parameter with seminorm not below 1")


def invert_from_factors(ring: Ring, factors: Sequence[Factor],
                        window: Tuple[int, int]) -> InvertiblePair:
    """Build (a, a^-1) from elementary factors.

    ``a`` is exact (a Laurent polynomial); ``b`` carries the coefficients
    of the true two-sided inverse on ``window``.  For ``a = u z^p A(z^-1)
    B(z)`` with ``A = prod(1 - alpha z^-1)`` of degree ``r`` and ``B =
    prod(1 - beta z)``, ``a`` is built from the two products ``A`` and
    ``B``, and one Bezout identity ``V*B + U*A = 1`` gives ``1/(AB) = V/A +
    U/B``: ``V/A`` is a series in ``z^-1`` on the exponents ``< r`` and
    ``U/B`` a series in ``z`` on the exponents ``>= r`` (before the monomial
    shift), each by exact long division.  Product rings run per component
    (:func:`per_component`), ``Q`` on integer forms (:func:`_q_pair`), ``C``
    on complex arrays (:func:`_c_pair`) and every other ring on its own
    elements (:func:`_ring_pair`); each solves the Bezout identity once and
    returns a builder of ``b`` on a window, which runs the two long
    divisions.

    Over an exact ring the pair keeps the builder (:class:`InvertiblePair`):
    a factorization builds ``b`` on the window its blocks read
    (:meth:`InvertiblePair.read`), and ``pair.b`` or ``pair.residual`` on
    ``window`` when first read; the coefficients are exact, so every build's residual is zero.
    Over an inexact ring ``b`` and its residual are built on ``window``
    here, since there the residual depends on the window.  The factors must
    pass :func:`check_factors`.  An empty window (``lo > hi``) is a
    :class:`WindowError`.
    """
    check_factors(ring, factors)
    if window[0] > window[1]:
        raise WindowError("empty window [%d,%d]" % window)
    kind = leaf_kind(ring)
    pair = _q_pair if kind is Fraction else _c_pair if kind is complex else _ring_pair
    a, builders = per_component(ring, pair, _split_factors, list(factors))
    wrap = LaurentSeries._from_ints if kind is Fraction else LaurentSeries._trusted

    def build(w: Tuple[int, int]) -> LaurentSeries:
        return wrap(ring, per_component(ring, lambda _comp, leaf: leaf[0](w), split_leaves,
                                        builders), w)

    if ring.is_exact:
        return InvertiblePair(wrap(ring, a), window, build)
    return InvertiblePair.make(wrap(ring, a), build(window))


def _split_factors(ring: Ring, factors: Sequence[Factor]) -> List[List[Factor]]:
    """A factor list over a product ring as one list per component."""
    def part(f: Factor, i: int) -> Factor:
        if isinstance(f, Antiholo):
            return Antiholo(f.alpha[i])
        return Holo(f.beta[i]) if isinstance(f, Holo) else Mono(f.p, f.u[i])

    return [[part(f, i) for f in factors] for i in range(len(ring.components))]


_NO_INVERSE = ("no two-sided inverse: an antiholomorphic root meets "
               "the reciprocal of a holomorphic one")

Builder = Callable[[Tuple[int, int]], Any]


def _ring_pair(ring: Ring, factors: Sequence[Factor]) -> Tuple[Dict[int, Any], List[Builder]]:
    """The coefficients of ``a`` for :func:`invert_from_factors` on the
    ring's own elements, and the builder of those of ``b`` on a window, in
    a list."""
    p_tot, u_tot = 0, ring.one
    for f in factors:
        if isinstance(f, Mono):
            p_tot += f.p
            u_tot = ring.mul(u_tot, f.u)
    anti = factors_to_series(ring, [f for f in factors if isinstance(f, Antiholo)])
    holo = factors_to_series(ring, [f for f in factors if isinstance(f, Holo)])
    a = anti.mul(holo).shift(p_tot).scale(u_tot)
    r, s = -anti._supp_bounds()[0], holo._supp_bounds()[1]
    if r + s:
        v, u = _bezout(ring, anti, holo, r, s)
    inv = ring.inverse(u_tot)

    def build(window: Tuple[int, int]) -> Dict[int, Any]:
        w0 = (window[0] + p_tot, window[1] + p_tot)
        if r + s == 0:
            b0 = LaurentSeries.one(ring, w0)
        else:
            coeffs = div_unit(v, anti, (w0[0], r - 1)).coeffs
            coeffs.update(div_unit(u, holo, (r, w0[1])).coeffs)
            b0 = LaurentSeries(ring, coeffs, w0)
        return b0.shift(-p_tot).scale(inv).coeffs

    return a.coeffs, [build]


def _q_pair(ring: Ring, factors: Sequence[Factor]) -> Tuple[List[Ints], List[Builder]]:
    """The integer form of ``a`` for :func:`invert_from_factors` over ``Q``
    and the builder of that of ``b`` on a window, each in a list.

    ``A`` and ``B`` are integer polynomials over their denominators ``da``
    and ``db``, which are also their constant terms.  The Bezout identity is
    the integer one ``Vz*B + Uz*A = det`` of the integer Sylvester system,
    by fraction-free elimination (:func:`exact.bareiss_solve`), so that
    ``V = db Vz / det`` and ``U = da Uz / det``.  The two long divisions
    run on integers with one running power of ``da`` or ``db``
    (:func:`exact.int_div`), from the split exponent ``r`` to the window's
    ends: the ``t``-th term of ``V/A`` is ``db c_t / (det da^t)`` and that
    of ``U/B`` is ``da c_t / (det db^t)``.  ``b`` is one numerator array
    over ``det da^T1 db^T2`` (``T1``, ``T2`` the last terms), reduced once.
    """
    p, un, ud = 0, 1, 1
    anti, da, holo, db = [1], 1, [1], 1
    for f in factors:
        if isinstance(f, Mono):
            p, un, ud = p + f.p, un * f.u.numerator, ud * f.u.denominator
        elif isinstance(f, Antiholo) and f.alpha:  # times q - m v, the numerator of 1 - (m/q) v
            anti = int_mul(anti, [f.alpha.denominator, -f.alpha.numerator])
            da *= f.alpha.denominator
        elif isinstance(f, Holo) and f.beta:
            holo = int_mul(holo, [f.beta.denominator, -f.beta.numerator])
            db *= f.beta.denominator
    r, s = len(anti) - 1, len(holo) - 1
    a = reduced(p - r, [un * c for c in int_mul(anti[::-1], holo)], da * db * ud)
    if r + s:
        z, det = bareiss_solve(_sylvester(anti, holo, 0, 1))
        if not det:
            raise RingError(_NO_INVERSE)
    inv = ring.inverse(Fraction(un, ud))

    def build(window: Tuple[int, int]) -> List[Ints]:
        lo, hi = window[0] + p, window[1] + p
        # 1/(AB) as numerators over den, from exponent r - len(down) on
        nums, den, down = [1], 1, []
        if r + s:
            down = int_div(z[:r][::-1], anti, r - lo)  # V/A from r - 1 down to lo
            up = int_div(z[r:], holo, hi - r + 1)  # U/B from r up to hi
            pa, pb = da ** max(len(down) - 1, 0), db ** max(len(up) - 1, 0)
            nums = _scaled(down[::-1], da, db * pb) + _scaled(up[::-1], db, da * pa)[::-1]
            den = det * pa * pb
        return [reduced(r - len(down) - p, [x * inv.numerator for x in nums],
                        den * inv.denominator, window)]

    return [a], [build]


def _scaled(terms: List[int], base: int, scale: int) -> List[int]:
    """``scale * terms[i] * base^i``, by one running power of ``base``."""
    out = []
    for x in terms:
        out.append(x * scale)
        scale *= base
    return out


# a non-finite unit gives NaN coefficients, as ring arithmetic on Python
# complex numbers does, with no numpy warning
@np.errstate(invalid="ignore", over="ignore")
def _c_pair(ring: Ring, factors: Sequence[Factor]) -> Tuple[Dict[int, complex], List[Builder]]:
    """The coefficients of ``a`` for :func:`invert_from_factors` over ``C``,
    on complex arrays, and the builder of those of ``b`` on a window, in a
    list.

    ``A`` and ``B`` are products of linear factors (one ``np.convolve``
    each), the Sylvester system of the Bezout identity is one
    ``np.linalg.solve``, and the two long divisions are the recurrence of
    :func:`div_unit` (:func:`floating.recur`).  Every coefficient within the
    ring's tolerance of zero is cut where the ring-element path
    (:func:`_ring_pair`) stores a series: in each factor and product, in
    ``V`` and ``U``, in ``V/A`` and ``U/B`` before the scaling by the unit,
    and after it.
    """
    tol = ring.tolerance
    p, unit = 0, ring.one
    anti, holo = [1 + 0j], [1 + 0j]
    for f in factors:
        if isinstance(f, Mono):
            p, unit = p + f.p, unit * f.u
        elif isinstance(f, Antiholo):
            anti = times_linear(anti, f.alpha, tol)
        else:
            holo = times_linear(holo, f.beta, tol)
    r, s = len(anti) - 1, len(holo) - 1
    a = from_array(p - r, cut(np.convolve(anti[::-1], holo), tol) * unit, tol, None)
    inv = ring.inverse(unit)
    if r + s:
        rows = np.array(_sylvester(anti, holo, 0j, 1 + 0j))
        try:
            z = cut(np.linalg.solve(rows[:, :-1], rows[:, -1]), tol).tolist()
        except np.linalg.LinAlgError:
            raise RingError(_NO_INVERSE) from None

    @np.errstate(invalid="ignore", over="ignore")
    def build(window: Tuple[int, int]) -> Dict[int, complex]:
        if r + s == 0:
            return from_array(-p, np.array([inv]), tol, window)
        lo, hi = window[0] + p, window[1] + p
        # V/A descends from r - 1 to lo, U/B ascends from r to hi
        down = recur([z[r - 1 - t] if t < r else 0j for t in range(r - lo)], anti)
        up = recur([z[r + t] if t < s else 0j for t in range(hi - r + 1)], holo)
        b0 = cut(np.array(down[::-1] + up, complex), tol)
        return from_array(r - len(down) - p, b0 * inv, tol, window)

    return a, [build]


def _sylvester(anti: Sequence[Any], holo: Sequence[Any], zero: Any, one: Any) -> List[List[Any]]:
    """Augmented rows ``[M | e_0]`` of ``V*holo + U*anti = 1``, one equation
    per exponent ``e`` in ``[0, r+s)``: ``holo`` lists the coefficients of
    ``z^0..z^s`` and ``anti`` those of ``z^0..z^-r``; column ``k < r``
    (``V``) holds ``holo`` and column ``k >= r`` (``U``) holds ``anti``, each
    shifted by ``k``."""
    r, s = len(anti) - 1, len(holo) - 1
    return [[holo[e - k] if 0 <= e - k <= s else zero for k in range(r)]
            + [anti[k - e] if 0 <= k - e <= r else zero for k in range(r, r + s)]
            + [one if e == 0 else zero] for e in range(r + s)]


def _bezout(ring: Ring, anti: LaurentSeries, holo: LaurentSeries,
            r: int, s: int) -> Tuple[LaurentSeries, LaurentSeries]:
    """``V`` on exponents ``[0, r)`` and ``U`` on ``[r, r+s)`` with
    ``V*holo + U*anti = 1``, on the ring's own elements.

    The Sylvester system of the identity (:func:`_sylvester`), solved by
    Gauss-Jordan elimination with the pivot of largest seminorm.  It is
    singular exactly when some root ``alpha`` of ``anti`` equals
    ``1/beta`` for a root ``beta`` of ``holo``.
    """
    n = r + s
    rows = _sylvester([anti.coeff(-j) for j in range(r + 1)],
                      [holo.coeff(j) for j in range(s + 1)], ring.zero, ring.one)
    for k in range(n):
        piv = max(range(k, n), key=lambda i: ring.seminorm(rows[i][k]))
        if ring.is_zero(rows[piv][k]):
            raise RingError(_NO_INVERSE)
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
    ring = a.ring
    if leaf_kind(ring) is not complex or ring.components:
        raise RingError("invert_numeric requires the complex ring")
    if samples < 1 or samples & (samples - 1):
        raise ValueError("samples must be a power of two")
    vals = circle_values(a.coeffs, samples)
    if np.min(np.abs(vals)) < 1e-12:
        raise RingError("symbol (nearly) vanishes on the unit circle")
    # b_m = (1/N) sum_k exp(-2*pi*i*m*k/N) / a(exp(2*pi*i*k/N))
    b = LaurentSeries(ring, *from_fft(np.fft.fft(1.0 / vals) / samples))
    return InvertiblePair.make(a, b)


# -- formal division by units -----------------------------------------

def div_unit(x: LaurentSeries, u: LaurentSeries,
             window: Tuple[int, int]) -> LaurentSeries:
    """Quotient q with q*u = x on the window.

    ``u`` must be a unit power series in the variable (constant term 1,
    nonnegative exponents) or its mirror in the inverse variable
    (nonpositive exponents, w^0 term 1), whose quotient is the reflection
    (:meth:`LaurentSeries.reflect`) of ``x(1/w) / u(1/w)``: the kernels run
    ascending only.  Over ``Q`` or ``C`` (and per component of a product of
    them) the recurrence runs on integers (:func:`_q_div`) or on complex
    numbers (:func:`_c_div`).  Over ``Q`` the unit test reads the integer
    form, and the recurrence runs only from the dividend's first exponent
    in the window until the quotient has ended: once the dividend is used
    up and the last ``len(u) - 1`` terms are 0, every later term is
    exactly 0 (:func:`exact.int_div`).  An exact division (a Laurent
    polynomial quotient) so costs its support, and one that is not exact
    runs over the whole window, as before.
    """
    supp = u.support()
    if supp and supp[0] < 0:
        if supp[-1] > 0:
            raise RingError("divisor is neither a power series in w nor in w^-1")
        return div_unit(x.reflect(), u.reflect(), (-window[1], -window[0])).reflect()
    if not u.has_unit_constant():
        raise RingError("divisor has no unit pivot coefficient")
    ring = x.ring
    keep = _win_meet(x.window, window)
    kind = leaf_kind(ring)
    if kind is Fraction:
        return LaurentSeries._from_ints(ring, [_q_div(xf, uf, window, keep)
                                              for xf, uf in zip(x.ints, u.ints)], keep)
    if kind is complex:
        return LaurentSeries._trusted(ring, per_component(
            ring, lambda comp, xc, uc: _c_div(comp, xc, uc, window, keep), split_map,
            x.coeffs, u.coeffs), keep)
    q: Dict[int, Any] = {}
    for n in range(window[0], window[1] + 1):
        acc = x.coeff(n)
        for m, um in u.coeffs.items():
            if m == 0:
                continue
            prev = q.get(n - m)
            if prev is not None:
                acc = ring.sub(acc, ring.mul(prev, um))
        q[n] = acc
    return LaurentSeries(ring, q, keep)


def _q_div(x: Ints, u: Ints, window: Tuple[int, int], keep: Tuple[int, int]) -> Ints:
    """:func:`div_unit` over ``Q`` on integer forms, kept on ``keep``.

    The recurrence reads ``x`` on the window's meet with its support
    ``[s0, s1]`` and starts at ``s0``, term ``t`` at exponent ``s0 + t``:
    every term before it reads only zeros, so it is 0.
    It stops at the last kept exponent, or earlier once the quotient is a
    polynomial that has ended (:func:`exact.int_div`), so an exact division
    such as ``a / pi_+`` costs its support, not the window.  With
    ``x = X / dx`` there and ``u = U / du`` (so ``U_0 = du``), the ``t``-th
    quotient term is ``Q_t / (dx du^t)``; the kept terms go over the
    denominator of the last one."""
    lo, hi = window
    s0, s1 = max(lo, x[0]), min(hi, x[0] + len(x[1]) - 1)
    if s0 > s1:
        return (0, [], 1)
    xs, dx = slice_ints(x, s0, s1)
    first, last = max(keep[0] - s0, 0), keep[1] - s0
    q = int_div(xs, u[1], last + 1)
    while first <= last and not q[first]:
        first += 1
    while last >= first and not q[last]:
        last -= 1
    if first > last:
        return (0, [], 1)
    nums = _scaled([q[t] for t in range(last, first - 1, -1)], u[2], 1)
    return reduced(s0 + first, nums[::-1], dx * u[2] ** last)


# -- C kernels on complex arrays ---------------------------------------

def _c_mul(ring: Ring, x: Dict[int, complex], y: Dict[int, complex],
           window: Window) -> Dict[int, complex]:
    """:meth:`LaurentSeries.mul` over ``C``: one ``np.convolve`` of the dense
    coefficients."""
    if not x or not y:
        return {}
    xl, yl = min(x), min(y)
    prod = np.convolve(to_array(x, xl, max(x)), to_array(y, yl, max(y)))
    return from_array(xl + yl, prod, ring.tolerance, window)


def _c_div(ring: Ring, x: Dict[int, complex], u: Dict[int, complex], window: Tuple[int, int],
           keep: Tuple[int, int]) -> Dict[int, complex]:
    """:func:`div_unit` over ``C`` by :func:`floating.recur`, kept on ``keep``
    and cut to the ring's tolerance there."""
    exps = range(window[0], window[1] + 1)
    q = recur([x.get(n, 0j) for n in exps], [u.get(m, 0j) for m in range(max(u) + 1)])
    tol = ring.tolerance
    return {n: c for n, c in zip(exps, q) if not abs(c) <= tol and keep[0] <= n <= keep[1]}


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
        tolerance=base.tolerance,
        invert=inv,
        fmt=fmt,
        base=base,
        const=lambda c: LaurentSeries.const(base, c),
    )
