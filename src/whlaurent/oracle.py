"""Classical complex-analysis factorizations, used as independent oracles.

Both routes live entirely in numpy and never touch the determinant
engine: the cepstral method splits the Fourier coefficients of log a on
the unit circle, and the root-split method factors a Laurent polynomial
by the location of its zeros relative to the circle.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .floating import circle_values, from_fft
from .rings import leaf_kind
from .series import LaurentSeries
from .factorization import FactorizationResult


class OracleError(ValueError):
    """Symbol outside the oracle's domain (circle zero, non-finite coefficient)."""


def _require_complex(a: LaurentSeries) -> None:
    if leaf_kind(a.ring) is not complex or a.ring.components:
        raise OracleError("classical oracles require the complex ring")
    if not all(cmath.isfinite(c) for c in a.coeffs.values()):
        raise OracleError("symbol has a non-finite coefficient")


def _result(a: LaurentSeries, pi_m: LaurentSeries, const: complex, p: int,
            pi_p: LaurentSeries) -> FactorizationResult:
    """The triple with middle factor ``const z^p``, and its reconstruction
    residual against ``a`` on the product's window."""
    pi_t = LaurentSeries(a.ring, {p: const})
    return FactorizationResult(pi_m, pi_t, pi_p, pi_m.mul(pi_t).mul(pi_p).sup_diff(a), p)


SAMPLES = 1024  # points on the unit circle; a power of two for the FFT


def cepstral_factorize(a: LaurentSeries) -> FactorizationResult:
    """Factorization via log on the unit circle and cepstrum splitting,
    on :data:`SAMPLES` points."""
    _require_complex(a)
    ring = a.ring
    vals = circle_values(a.coeffs, SAMPLES)
    if np.min(np.abs(vals)) < 1e-10:
        raise OracleError("symbol (nearly) vanishes on the unit circle")
    # winding number from the unwrapped argument around the circle
    closed = np.concatenate([vals, vals[:1]])
    total = np.sum(np.angle(closed[1:] / closed[:-1]))
    # the principal arguments around a closed loop sum to a multiple of 2 pi
    p = int(round(total / (2 * np.pi)))
    k = np.arange(SAMPLES)
    devals = vals * np.exp(-2j * np.pi * p * k / SAMPLES)
    logv = np.log(np.abs(devals)) + 1j * np.unwrap(np.angle(devals))
    # cepstrum: c_m = (1/N) sum_k logv_k exp(-2 pi i m k / N)
    cep = np.fft.fft(logv) / SAMPLES
    freq = np.fft.fftfreq(SAMPLES)  # the sign of each bin's exponent
    plus_spec = np.where(freq > 0, cep, 0.0)
    minus_spec = np.where(freq < 0, cep, 0.0)
    # evaluate exp(sum c_m w^m) on the circle, transform back
    plus_vals = np.exp(np.fft.ifft(plus_spec) * SAMPLES)
    minus_vals = np.exp(np.fft.ifft(minus_spec) * SAMPLES)
    plus, window = from_fft(np.fft.fft(plus_vals) / SAMPLES)
    minus = from_fft(np.fft.fft(minus_vals) / SAMPLES)[0]
    pi_p = LaurentSeries(ring, {i: c for i, c in plus.items() if i >= 0}, window)
    pi_m = LaurentSeries(ring, {i: c for i, c in minus.items() if i <= 0}, window)
    return _result(a, pi_m, complex(np.exp(cep[0])), p, pi_p)


def root_split_factorize(a: LaurentSeries) -> FactorizationResult:
    """Factorization by splitting polynomial roots at the unit circle: a
    root within 1e-6 of the circle is rejected, and the outer factors are
    kept on the window [-64, 64]."""
    _require_complex(a)
    if a.is_zero():
        raise OracleError("zero symbol")
    ring = a.ring
    supp = a.support()
    lo, hi = supp[0], supp[-1]
    deg = hi - lo
    coeffs = [complex(a.coeff(hi - j)) for j in range(deg + 1)]  # leading first
    roots = np.roots(coeffs) if deg > 0 else np.array([])
    if len(roots) and np.min(np.abs(np.abs(roots) - 1.0)) < 1e-6:
        raise OracleError("root within 1.0e-06 of the unit circle")
    inside = [r for r in roots if abs(r) < 1.0]
    outside = [r for r in roots if abs(r) > 1.0]
    window = (-64, 64)
    pi_m = LaurentSeries.one(ring, window)
    for r in inside:
        pi_m = pi_m.mul(LaurentSeries(ring, {0: ring.one, -1: -complex(r)}))
    pi_p = LaurentSeries.one(ring, window)
    for r in outside:
        pi_p = pi_p.mul(LaurentSeries(ring, {0: ring.one, 1: -1.0 / complex(r)}))
    const = complex(a.coeff(hi))
    for r in outside:
        const *= -complex(r)
    return _result(a, pi_m, const, lo + len(inside), pi_p)


@dataclass
class ComparisonReport:
    diff_minus: float
    diff_tilde: float
    diff_plus: float
    winding_equal: bool

    @property
    def max_diff(self) -> float:
        return max(self.diff_minus, self.diff_tilde, self.diff_plus)


def compare(lhs: FactorizationResult, rhs: FactorizationResult) -> ComparisonReport:
    """Per-factor sup differences on the common window; never raises on
    mismatch, only reports."""
    return ComparisonReport(
        diff_minus=lhs.pi_minus.sup_diff(rhs.pi_minus),
        diff_tilde=lhs.pi_tilde.sup_diff(rhs.pi_tilde),
        diff_plus=lhs.pi_plus.sup_diff(rhs.pi_plus),
        winding_equal=(lhs.winding == rhs.winding),
    )
