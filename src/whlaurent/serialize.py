"""JSON serialization of ring selections, series and factorizations.

Ring elements travel as strings: ``p/q`` for rationals, ``re,im`` for
complex, ``(c1|c2|...)`` for product rings.  Exact rings round-trip
bit-exactly.  A series over ``Q`` or a product of ``Q`` is parsed straight
into integer numerators, one form per leaf, and written back from them,
with no ``Fraction`` built either way.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Dict, Iterator, List, Sequence

from .exact import Ints, from_terms
from .rings import (Ring, RingError, complex_ring, leaf_kind, parse_rational, per_component,
                    product_literal, product_ring, rational_ring, split_literals)
from .series import LaurentSeries, Window
from .factorization import FactorizationResult


def json_int(value: Any) -> int:
    """An integer field of a JSON job: an ``int`` that is not a ``bool``, or
    a string that ``int()`` parses.  Anything else, a float included, is a
    ``ValueError`` rather than a silent truncation."""
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        return int(value)
    raise ValueError("not an integer: %r" % (value,))


def json_float(value: Any) -> float:
    """A real field of a JSON job: a finite number that is not a ``bool``,
    or a string that ``float()`` parses to one."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        x = float(value)
        if math.isfinite(x):
            return x
    raise ValueError("not a finite number: %r" % (value,))


def ring_from_json(spec: Dict[str, Any]) -> Ring:
    kind = spec.get("kind")
    if kind == "rational":
        return rational_ring()
    if kind == "complex":
        return (complex_ring(json_float(spec["tolerance"])) if "tolerance" in spec
                else complex_ring())
    if kind == "product":
        base = ring_from_json(spec.get("base", {"kind": "rational"}))
        return product_ring(base, json_int(spec.get("arity", 2)))
    raise RingError("unknown ring kind: %r" % kind)


def series_to_json(a: LaurentSeries) -> List[Dict[str, Any]]:
    """``[{"n": exponent, "c": literal}, ...]`` in ascending exponent, each
    literal the ring's ``fmt`` of the coefficient.  Over ``Q`` or a product
    of ``Q`` the literals are written from the integer forms
    (:func:`_int_literal`), with no ``Fraction`` built."""
    if leaf_kind(a.ring) is not Fraction:
        return [{"n": n, "c": a.ring.fmt(a.coeffs[n])} for n in a.support()]
    forms = a.ints
    return [{"n": n, "c": _int_literal(a.ring, n, iter(forms))} for n in a.support()]


def _int_literal(ring: Ring, n: int, forms: Iterator[Ints]) -> str:
    """The literal of the coefficient at ``n`` of a series over ``Q`` or a
    (nested) product of ``Q``, from the integer forms of its leaves in leaf
    order: per leaf ``p`` or ``p/q`` in lowest terms, as ``str`` of a
    ``Fraction`` writes it, and per product ``(c1|c2|...)``
    (:func:`rings.product_literal`)."""
    if ring.components is not None:
        return product_literal(_int_literal(comp, n, forms) for comp in ring.components)
    lo, nums, den = next(forms)
    x = nums[n - lo] if 0 <= n - lo < len(nums) else 0
    g = math.gcd(x, den)
    return str(x // g) if g == den else "%d/%d" % (x // g, den // g)


def series_from_json(ring: Ring, data: List[Dict[str, Any]],
                     window: Window = None) -> LaurentSeries:
    """A series from ``[{"n": exponent, "c": literal}, ...]``.  Over ``Q`` or
    a product of ``Q`` each leaf's literals are read as ``(numerator,
    denominator)`` pairs (:func:`rings.parse_rational`) and cleared to one
    integer form (:func:`exact.from_terms`), with no ``Fraction`` built."""
    if ring.parse is None:
        raise RingError("ring %r cannot parse elements" % ring.name)
    literals: Dict[int, str] = {}
    for item in data:
        n = json_int(item["n"])
        if n in literals:
            raise ValueError("repeated exponent %d" % n)
        literals[n] = str(item["c"])
    if leaf_kind(ring) is not Fraction:
        return LaurentSeries(ring, {n: ring.parse(s) for n, s in literals.items()}, window)

    def leaf(_q: Ring, parts: Sequence[str]) -> List[Ints]:
        terms = [(n, *parse_rational(s)) for n, s in zip(literals, parts)]
        return [from_terms([t for t in terms if window is None or window[0] <= t[0] <= window[1]])]

    return LaurentSeries._from_ints(
        ring, per_component(ring, leaf, split_literals, list(literals.values())), window)


def result_to_json(res: FactorizationResult) -> Dict[str, Any]:
    return {
        "pi_minus": series_to_json(res.pi_minus),
        "pi_tilde": series_to_json(res.pi_tilde),
        "pi_plus": series_to_json(res.pi_plus),
        "residual": res.residual,
        "winding": res.winding,
    }
