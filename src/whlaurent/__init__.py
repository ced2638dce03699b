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
from .matrices import (Lattice, WindowedMatrix, build_F, build_U, build_Utilde,
                       conjugate_UR, identity, mat_add, mat_mul, mat_sub,
                       project, ur_monomial)
from .determinants import (det_block, det_identity_plus, det_tilde_column_reduced,
                           det_truncated)
from .factorization import (FactorizationError, FactorizationResult,
                            OrthogonalDecomposition, factorize,
                            n_p_series, orthogonal_decompose, orthonormal_split,
                            pi_minus, pi_plus, pi_tilde_derived, pi_tilde_direct,
                            product_of_orthogonals, projection_matrix,
                            winding_index)
from .oracle import (ComparisonReport, OracleError, cepstral_factorize, compare,
                     root_split_factorize)

__version__ = "0.1.0"

__all__ = [
    "Ring", "RingError", "complex_ring", "product_ring", "rational_ring",
    "Antiholo", "Holo", "InvertiblePair", "LaurentSeries", "Mono",
    "WindowError", "div_unit", "factors_to_series", "invert_from_factors",
    "invert_numeric", "is_orthogonal", "laurent_ring",
    "Lattice", "WindowedMatrix", "build_F", "build_U", "build_Utilde",
    "conjugate_UR", "identity", "mat_add", "mat_mul", "mat_sub",
    "project", "ur_monomial",
    "det_block", "det_identity_plus",
    "det_tilde_column_reduced", "det_truncated",
    "FactorizationError", "FactorizationResult", "OrthogonalDecomposition",
    "factorize", "n_p_series", "orthogonal_decompose", "orthonormal_split",
    "pi_minus", "pi_plus", "pi_tilde_derived", "pi_tilde_direct",
    "product_of_orthogonals", "projection_matrix", "winding_index",
    "ComparisonReport", "OracleError", "cepstral_factorize", "compare",
    "root_split_factorize",
]
