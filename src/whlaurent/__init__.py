"""Wiener-Hopf factorization of Laurent series over commutative rings.

Computes the decomposition a(z) = a^-(z) * a~(z) * a^+(z) into strictly
antiholomorphic, orthogonal, and strictly holomorphic parts through
explicit Toeplitz-determinant formulas, exactly where the coefficient
ring permits, with classical complex-analysis oracles for validation.
"""

from .rings import Ring, RingError, complex_ring, product_ring, rational_ring
from .series import (Antiholo, Holo, InvertiblePair, LaurentSeries, Mono,
                     WindowError, div_unit, factors_to_series, invert_from_factors,
                     invert_numeric, is_orthogonal, laurent_ring)
from .determinants import det_block, det_truncated
from .factorization import (FactorizationError, FactorizationResult,
                            OrthogonalDecomposition, factorize,
                            orthogonal_decompose, orthonormal_split,
                            pi_minus, pi_plus, pi_tilde_derived, pi_tilde_direct,
                            product_of_orthogonals, winding_index)
from .matrices import n_p_series, projection_matrix, ur_monomial
from .oracle import (ComparisonReport, OracleError, cepstral_factorize, compare,
                     root_split_factorize)

__version__ = "0.1.0"

__all__ = [
    "Ring", "RingError", "complex_ring", "product_ring", "rational_ring",
    "Antiholo", "Holo", "InvertiblePair", "LaurentSeries", "Mono",
    "WindowError", "div_unit", "factors_to_series", "invert_from_factors",
    "invert_numeric", "is_orthogonal", "laurent_ring",
    "det_block", "det_truncated",
    "FactorizationError", "FactorizationResult", "OrthogonalDecomposition",
    "factorize", "orthogonal_decompose", "orthonormal_split",
    "pi_minus", "pi_plus", "pi_tilde_derived", "pi_tilde_direct",
    "product_of_orthogonals", "winding_index",
    "n_p_series", "projection_matrix", "ur_monomial",
    "ComparisonReport", "OracleError", "cepstral_factorize", "compare",
    "root_split_factorize",
]
