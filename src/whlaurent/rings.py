"""Commutative coefficient rings as first-class descriptor objects.

Every algebraic object in this library is generic over a :class:`Ring`,
which bundles the arithmetic callables, a seminorm, and an equality
predicate (exact for exact rings, absolute-tolerance for floating ones).
Elements themselves are plain Python values: ``Fraction`` for rationals,
``complex`` for the floating instance, tuples for product rings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence, Tuple

DEFAULT_TOLERANCE = 1e-9


class RingError(ValueError):
    """Raised on ring-level failures (non-invertible element, mismatch)."""


@dataclass(frozen=True)
class Ring:
    """Descriptor of a commutative ring with seminorm.

    ``invert`` is partial: it raises :class:`RingError` on non-units.
    ``split``/``merge`` are present when elements decompose componentwise
    (product rings, and series rings over them); they let determinant code
    recurse per component.
    """

    name: str
    zero: Any
    one: Any
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    neg: Callable[[Any], Any]
    seminorm: Callable[[Any], float]
    equals: Callable[[Any, Any], bool]
    is_exact: bool
    tolerance: float = 0.0
    invert: Optional[Callable[[Any], Any]] = None
    components: Optional[Tuple["Ring", ...]] = None
    split: Optional[Callable[[Any], Sequence[Any]]] = None
    merge: Optional[Callable[[Sequence[Any]], Any]] = None
    fmt: Callable[[Any], str] = str
    parse: Optional[Callable[[str], Any]] = None
    # set for series rings built by laurent_ring()
    base: Optional["Ring"] = None
    var: Optional[str] = None
    const: Optional[Callable[[Any], Any]] = None

    def sub(self, x: Any, y: Any) -> Any:
        return self.add(x, self.neg(y))

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
        if self.invert is None:
            raise RingError("ring %r has no inversion" % self.name)
        return self.invert(x)

    def __repr__(self) -> str:  # keep dataclass noise out of test output
        return "Ring(%s)" % self.name


def _parse_rational(s: str) -> Fraction:
    return Fraction(s.strip())


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
        is_exact=True,
        invert=inv,
        fmt=lambda x: str(Fraction(x)),
        parse=_parse_rational,
    )


def complex_ring(tolerance: float = DEFAULT_TOLERANCE) -> Ring:
    """Complex floating arithmetic with absolute-tolerance equality."""
    if tolerance <= 0:
        raise RingError("tolerance must be positive")

    def inv(x: complex) -> complex:
        if abs(x) <= tolerance:
            raise RingError("inverting a (near-)zero complex element")
        return 1.0 / x

    def fmt(x: complex) -> str:
        return "%.17g,%.17g" % (x.real, x.imag)

    def parse(s: str) -> complex:
        re, im = s.split(",")
        return complex(float(re), float(im))

    return Ring(
        name="C",
        zero=complex(0.0),
        one=complex(1.0),
        add=lambda x, y: complex(x) + complex(y),
        mul=lambda x, y: complex(x) * complex(y),
        neg=lambda x: -complex(x),
        seminorm=abs,
        equals=lambda x, y: abs(complex(x) - complex(y)) <= tolerance,
        is_exact=False,
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
        return "(" + "|".join(base.fmt(c) for c in x) + ")"

    def parse(s: str):
        s = s.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise RingError("malformed product element: %r" % s)
        parts = _split_product(s[1:-1])
        if len(parts) != arity:
            raise RingError("expected %d components, got %d" % (arity, len(parts)))
        return tuple(base.parse(p) for p in parts)

    return Ring(
        name="%s^%d" % (base.name, arity),
        zero=zero,
        one=one,
        add=lambda x, y: tuple(base.add(a, b) for a, b in zip(x, y)),
        mul=lambda x, y: tuple(base.mul(a, b) for a, b in zip(x, y)),
        neg=lambda x: tuple(base.neg(c) for c in x),
        seminorm=lambda x: max(base.seminorm(c) for c in x),
        equals=lambda x, y: all(base.equals(a, b) for a, b in zip(x, y)),
        is_exact=base.is_exact,
        tolerance=base.tolerance,
        invert=inv,
        components=tuple(base for _ in range(arity)),
        split=lambda x: list(x),
        merge=lambda xs: tuple(xs),
        fmt=fmt,
        parse=parse,
    )


def _split_product(body: str) -> list:
    """Split ``c1|c2|...`` respecting nested parentheses."""
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "|" and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts
