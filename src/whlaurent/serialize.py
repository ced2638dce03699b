"""JSON serialization of ring selections, series and factorizations.

Ring elements travel as strings: ``p/q`` for rationals, ``re,im`` for
complex, ``(c1|c2|...)`` for product rings.  Exact rings round-trip
bit-exactly.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

from .rings import Ring, RingError, complex_ring, product_ring, rational_ring
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
    return [{"n": n, "c": a.ring.fmt(a.coeffs[n])} for n in a.support()]


def series_from_json(ring: Ring, data: List[Dict[str, Any]],
                     window: Window = None) -> LaurentSeries:
    if ring.parse is None:
        raise RingError("ring %r cannot parse elements" % ring.name)
    coeffs = {}
    for item in data:
        n = json_int(item["n"])
        if n in coeffs:
            raise ValueError("repeated exponent %d" % n)
        coeffs[n] = ring.parse(str(item["c"]))
    return LaurentSeries(ring, coeffs, window)


def result_to_json(res: FactorizationResult) -> Dict[str, Any]:
    return {
        "pi_minus": series_to_json(res.pi_minus),
        "pi_tilde": series_to_json(res.pi_tilde),
        "pi_plus": series_to_json(res.pi_plus),
        "residual": res.residual,
        "winding": res.winding,
    }
