"""Complex floating-point kernels on numpy arrays.

A ``LaurentSeries`` over ``C`` holds its coefficients as a dict from
exponent to complex number; each kernel here converts at the call, the
map to one dense complex array from a given lowest exponent
(:func:`to_array`) and its result back to a map (:func:`from_array`).
No array is kept on the series, unlike the integer numerators over one
denominator of a ``Q`` series (:mod:`whlaurent.exact`), which the series
keeps once built (``LaurentSeries.ints``).  Products are ``np.convolve``;
the long division by a unit is a recurrence on Python complex numbers,
and a product of linear factors a short Python list.  Over ``C`` the
ring's absolute tolerance belongs to its equality: a coefficient within
it of zero (``Ring.is_zero``) is dropped where a series is stored, and
nowhere else.  The ring-element path drops it in the ``LaurentSeries``
constructor; these kernels cut it (:func:`cut`, :func:`from_array`)
where they build the series that path stores, so both paths keep the
same exponents, and never inside a recurrence.  A caller takes them when
:func:`rings.leaf_kind` reads ``complex``; over a product of ``C`` it
runs them per component (:func:`rings.per_component`), so each
component is cut on its own.
"""

from __future__ import annotations

import operator
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np


def cut(arr: Any, tol: float) -> Any:
    """``arr`` with every entry within ``tol`` of zero set to 0, in place:
    the ring's ``is_zero``, which keeps NaN."""
    arr[np.abs(arr) <= tol] = 0
    return arr


def to_array(coeffs: Dict[int, complex], lo: int, hi: int) -> Any:
    """A ``C`` coefficient map on ``[lo, hi]`` as one complex array (exponent
    ``lo + i`` at index ``i``), 0 where the map has no entry."""
    out = np.zeros(hi - lo + 1, complex)
    for n, c in coeffs.items():
        if lo <= n <= hi:
            out[n - lo] = c
    return out


def from_array(lo: int, arr: Any, tol: float,
               window: Optional[Tuple[int, int]]) -> Dict[int, complex]:
    """The entries of a dense complex array that are not within ``tol`` of
    zero, at exponent ``lo + i``, inside ``window`` when one is given."""
    start, stop = 0, len(arr)
    if window is not None:
        start, stop = max(start, window[0] - lo), min(stop, window[1] - lo + 1)
    idx = np.flatnonzero(~(np.abs(arr[start:max(start, stop)]) <= tol)) + start
    return dict(zip((idx + lo).tolist(), arr[idx].tolist()))


def circle_values(coeffs: Dict[int, complex], samples: int) -> Any:
    """The Laurent polynomial with the coefficient map ``coeffs`` at the
    ``samples``-th roots of unity ``exp(2 pi i k / samples)``, ``k = 0 ..
    samples - 1``, as one complex array."""
    n = sorted(coeffs)
    c = np.array([complex(coeffs[k]) for k in n])
    k = np.arange(samples)
    return (c[None, :] * np.exp(2j * np.pi * np.outer(k, n) / samples)).sum(axis=1)


def from_fft(bins: Any) -> Tuple[Dict[int, complex], Tuple[int, int]]:
    """``N`` FFT bins as a coefficient map and its window: bin ``m`` holds
    exponent ``m`` below ``N/2`` and ``m - N`` from there on, so the
    exponents are ``-N/2 .. N/2 - 1``."""
    n = len(bins)
    half = n // 2
    return {m if m < half else m - n: complex(bins[m]) for m in range(n)}, (-half, half - 1)


def recur(xs: Sequence[complex], us: Sequence[complex]) -> List[complex]:
    """``q_t = x_t - sum_m u_m q_(t-m)`` over ``m >= 1`` for each ``x_t`` of
    ``xs``: the power series ``x / u`` for ``u_0 = 1``, on Python complex
    numbers, every term kept as computed (the caller cuts what it stores).

    Unlike :func:`exact.int_div` it does not stop early when the quotient
    seems to have ended: with a non-finite coefficient in ``us``, a run of
    zero terms does not make the later ones 0, since ``0j * inf`` is NaN,
    so every term of ``xs`` is computed."""
    tail = us[1:]
    out: List[complex] = []
    for x in xs:
        # map() stops at the shorter input: tail[m-1] meets out[t-m]
        out.append(x - sum(map(operator.mul, tail, reversed(out))))
    return out


def times_linear(poly: List[complex], c: complex, tol: float) -> List[complex]:
    """``poly * (1 - c v)`` for a coefficient list ``poly`` (lowest power
    first), with ``c`` and every product coefficient within ``tol`` of zero
    cut and the trailing zeros trimmed, so the list ends at the support."""
    if abs(c) <= tol:
        return poly
    out = [x - c * y for x, y in zip(poly + [0j], [0j] + poly)]
    out = [0j if abs(x) <= tol else x for x in out]
    while not out[-1]:
        out.pop()
    return out
