"""Commutative coefficient rings as first-class descriptor objects.

Every algebraic object in this library is generic over a :class:`Ring`,
which bundles the arithmetic callables, a seminorm, and an equality
predicate with an absolute tolerance (0 for the exact rings).
Elements themselves are plain Python values: ``Fraction`` for rationals,
``complex`` for the floating instance, tuples for product rings.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

DEFAULT_TOLERANCE = 1e-9


class RingError(ValueError):
    """Raised on ring-level failures (non-invertible element, mismatch)."""


@dataclass(frozen=True)
class Ring:
    """Descriptor of a commutative ring with seminorm.

    ``invert`` is partial: it raises :class:`RingError` on non-units.
    ``tolerance`` is the absolute tolerance of ``equals``, 0 for an exact
    ring (:attr:`is_exact`).  ``components`` is set for product rings
    only, whose elements are tuples; the exact kernels, the inverse and
    the sampled determinants run per component (:func:`per_component`).
    """

    name: str
    zero: Any
    one: Any
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    neg: Callable[[Any], Any]
    seminorm: Callable[[Any], float]
    equals: Callable[[Any, Any], bool]
    invert: Callable[[Any], Any]
    tolerance: float = 0.0
    components: Optional[Tuple["Ring", ...]] = None
    fmt: Callable[[Any], str] = str
    parse: Optional[Callable[[str], Any]] = None
    # set for series rings built by laurent_ring()
    base: Optional["Ring"] = None
    const: Optional[Callable[[Any], Any]] = None

    @property
    def is_exact(self) -> bool:
        return self.tolerance == 0

    def sub(self, x: Any, y: Any) -> Any:
        return self.add(x, self.neg(y))

    def dot(self, x: Iterable[Any], y: Iterable[Any]) -> Any:
        """``sum x_i y_i`` over the shorter of ``x`` and ``y``: ``mul``
        folded into ``add``, left to right, from ``zero``."""
        return reduce(self.add, map(self.mul, x, y), self.zero)

    def is_zero(self, x: Any) -> bool:
        return self.equals(x, self.zero)

    def pow(self, x: Any, k: int) -> Any:
        """``x**k`` for ``k >= 0`` by repeated multiplication."""
        if k < 0:
            raise ValueError("pow needs a nonnegative exponent")
        out = self.one
        for _ in range(k):
            out = self.mul(out, x)
        return out

    def inverse(self, x: Any) -> Any:
        return self.invert(x)

    def __repr__(self) -> str:  # keep dataclass noise out of test output
        return "Ring(%s)" % self.name


def check_same(x: Ring, y: Ring) -> None:
    """The one ring-compatibility test: :class:`RingError` unless ``x`` and
    ``y`` have the same name and the same tolerance.  A name alone would
    let ``complex_ring(1e-9)`` meet ``complex_ring(1e-2)``, and the result
    take the tolerance of whichever operand came first."""
    if x is not y and (x.name != y.name or x.tolerance != y.tolerance):
        raise RingError("ring mismatch: %s with tolerance %g vs %s with tolerance %g"
                        % (x, x.tolerance, y, y.tolerance))


def sup(norms: Iterable[float]) -> float:
    """The largest of ``norms``, 0 for none, and NaN if any is NaN: ``max``
    would drop a NaN, and a tolerance test must fail on it."""
    vals = list(norms)
    return math.nan if any(map(math.isnan, vals)) else max(vals, default=0.0)


def parse_rational(s: str) -> Tuple[int, int]:
    """``(numerator, denominator)`` of a rational literal, with a positive
    denominator, not always in lowest terms: the literals and values of
    ``Fraction(s)``.  Any other string, and a zero denominator, is a
    ``ValueError``.

    A plain ASCII ``[-+]digits[/digits]``, the form the serializer writes,
    is split at its bar and read by ``int``; every other literal (spaces,
    underscores, decimals, exponents, non-ASCII digits) is read by
    ``Fraction(s)`` itself."""
    num, bar, den = s.partition("/")
    digits = num[1:] if num[:1] in "-+" else num
    if s.isascii() and digits.isdigit() and (den.isdigit() or not bar):
        d = int(den) if bar else 1
        if not d:
            raise ValueError("zero denominator in %r" % s)
        return int(num), d
    try:
        x = Fraction(s)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % s) from None
    return x.numerator, x.denominator


def rational_ring() -> Ring:
    """Exact rational arithmetic; seminorm is the absolute value."""

    def inv(x: Fraction) -> Fraction:
        if x == 0:
            raise RingError("division by zero in rational ring")
        return Fraction(1, 1) / x

    return Ring(
        name="Q",
        zero=Fraction(0),
        one=Fraction(1),
        add=lambda x, y: x + y,
        mul=lambda x, y: x * y,
        neg=lambda x: -x,
        seminorm=lambda x: float(abs(x)),
        equals=lambda x, y: x == y,
        invert=inv,
        parse=lambda s: Fraction(*parse_rational(s)),
    )


def complex_ring(tolerance: float = DEFAULT_TOLERANCE) -> Ring:
    """Complex floating arithmetic with absolute-tolerance equality."""
    if not 0 < tolerance < math.inf:  # NaN fails too
        raise RingError("tolerance must be positive and finite")

    def inv(x: complex) -> complex:
        if abs(x) <= tolerance:
            raise RingError("inverting a (near-)zero complex element")
        return 1.0 / x

    def fmt(x: complex) -> str:
        return "%.17g,%.17g" % (x.real, x.imag)

    def parse(s: str) -> complex:
        re, im = s.split(",")
        x = complex(float(re), float(im))
        if not cmath.isfinite(x):
            raise RingError("non-finite complex element: %r" % s)
        return x

    return Ring(
        name="C",
        zero=complex(0.0),
        one=complex(1.0),
        add=lambda x, y: complex(x) + complex(y),
        mul=lambda x, y: complex(x) * complex(y),
        neg=lambda x: -complex(x),
        seminorm=abs,
        equals=lambda x, y: abs(complex(x) - complex(y)) <= tolerance,
        tolerance=tolerance,
        invert=inv,
        fmt=fmt,
        parse=parse,
    )


def product_ring(base: Ring, arity: int) -> Ring:
    """Componentwise product of ``arity`` copies of ``base``.

    Seminorm is the max over components; the (1,0,...)-style indicator
    tuples are exactly the idempotents when the base has no nontrivial
    ones.
    """
    if arity < 1:
        raise RingError("arity must be >= 1")

    zero = tuple(base.zero for _ in range(arity))
    one = tuple(base.one for _ in range(arity))

    def inv(x):
        return tuple(base.inverse(c) for c in x)

    def fmt(x) -> str:
        return product_literal(base.fmt(c) for c in x)

    def parse(s: str):
        return tuple(base.parse(p) for p in _product_parts(s, arity))

    return Ring(
        name="%s^%d" % (base.name, arity),
        zero=zero,
        one=one,
        add=lambda x, y: tuple(base.add(a, b) for a, b in zip(x, y)),
        mul=lambda x, y: tuple(base.mul(a, b) for a, b in zip(x, y)),
        neg=lambda x: tuple(base.neg(c) for c in x),
        seminorm=lambda x: sup(base.seminorm(c) for c in x),
        equals=lambda x, y: all(base.equals(a, b) for a, b in zip(x, y)),
        tolerance=base.tolerance,
        invert=inv,
        components=tuple(base for _ in range(arity)),
        fmt=fmt,
        parse=parse,
    )


def leaf_kind(ring: Ring) -> Optional[type]:
    """The one test that picks a kernel's path: ``Fraction`` for ``Q``,
    ``complex`` for ``C``, each also for a (nested) product of them, whose
    kernels run per component (:func:`per_component`), and ``None`` for
    every other ring (series rings, rings with nilpotents), which runs the
    algorithms on its own elements."""
    while ring.components is not None:
        ring = ring.components[0]
    kind = type(ring.zero)
    return kind if kind in (Fraction, complex) else None


def split_map(ring: Ring, values: Dict[Any, Any]) -> List[Dict[Any, Any]]:
    """A map to elements of a product ring as one map per component."""
    return [{key: x[i] for key, x in values.items()} for i in range(len(ring.components))]


def split_leaves(ring: Ring, leaves: Sequence[Any]) -> List[Sequence[Any]]:
    """A list with one value per leaf of a (nested) product ring, as one
    list per component.  The components are copies of one ring
    (:func:`product_ring`), so each takes an equal share, in order."""
    k = len(leaves) // len(ring.components)
    return [leaves[i * k:(i + 1) * k] for i in range(len(ring.components))]


def split_literals(ring: Ring, literals: Sequence[str]) -> List[List[str]]:
    """Element literals ``(c1|c2|...)`` of a product ring as one list of
    literals per component."""
    parts = [_product_parts(s, len(ring.components)) for s in literals]
    return [[p[i] for p in parts] for i in range(len(ring.components))]


def per_component(ring: Ring, leaf: Callable[..., Any],
                  split: Callable[[Ring, Any], Sequence[Any]], *args: Any) -> Any:
    """``leaf(ring, *args)`` taken per component of a product ring and
    merged: the one place that splits a product ring.

    ``split(ring, x)`` lists the components of an argument ``x``.  ``leaf``
    returns a map from keys to elements, a list of per-leaf values, or a
    tuple of such.  The components' maps are merged key by key, and a key
    that one component lacks takes that component's zero; their lists are
    joined, so that a nested product gives one flat list in leaf order.
    Nested products such as ``(Q^2)^2`` recurse in order.
    """
    if ring.components is None:
        return leaf(ring, *args)
    pieces = zip(*(split(ring, x) for x in args))
    parts = [per_component(comp, leaf, split, *p) for comp, p in zip(ring.components, pieces)]
    if isinstance(parts[0], tuple):
        return tuple(_merge(ring, maps) for maps in zip(*parts))
    return _merge(ring, parts)


def _merge(ring: Ring, parts: Sequence[Any]) -> Any:
    if isinstance(parts[0], list):
        return [x for part in parts for x in part]
    return {key: tuple(p.get(key, comp.zero) for p, comp in zip(parts, ring.components))
            for key in sorted(set().union(*parts))}


def product_literal(parts: Iterable[str]) -> str:
    """``(c1|c2|...)``: the literal of a product-ring element from the
    literals of its components, which :func:`_product_parts` splits."""
    return "(" + "|".join(parts) + ")"


def _product_parts(s: str, arity: int) -> List[str]:
    """The ``arity`` component literals of ``(c1|c2|...)``, split at the
    bars outside nested parentheses (at every bar when there are none)."""
    s = s.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise RingError("malformed product element: %r" % s)
    inner = s[1:-1]
    if "(" not in inner and ")" not in inner:
        parts = inner.split("|")
    else:
        parts = []
        depth = 0  # of the parentheses before the next bar
        for piece in inner.split("|"):
            if depth:
                parts[-1] += "|" + piece
            else:
                parts.append(piece)
            depth += piece.count("(") - piece.count(")")
    if len(parts) != arity:
        raise RingError("expected %d components, got %d" % (arity, len(parts)))
    return parts
