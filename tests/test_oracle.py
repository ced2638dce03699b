"""Classical complex-analysis factorization oracles."""

import math
import random

import pytest

import whlaurent as wl
from whlaurent.oracle import (OracleError, cepstral_factorize, compare,
                              root_split_factorize)
from whlaurent.series import LaurentSeries

C = wl.complex_ring()


def test_pure_shift():
    a = LaurentSeries(C, {1: 1.0 + 0j})
    for res in (cepstral_factorize(a), root_split_factorize(a)):
        assert res.winding == 1
        assert res.pi_minus.equals(LaurentSeries.one(C, res.pi_minus.window))
        assert res.pi_plus.equals(LaurentSeries.one(C, res.pi_plus.window))
        assert res.pi_tilde.support() == [1]
        assert abs(res.pi_tilde.coeff(1) - 1.0) < 1e-12
        assert res.residual < 1e-12


def test_three_factor_ground_truth():
    factors = [wl.Antiholo(0.5 + 0j), wl.Mono(1, 1.0 + 0j), wl.Holo(1.0 / 3.0 + 0j)]
    a = wl.factors_to_series(C, factors)
    for res in (cepstral_factorize(a), root_split_factorize(a)):
        assert res.winding == 1
        assert abs(res.pi_minus.coeff(-1) + 0.5) < 1e-9
        assert abs(res.pi_plus.coeff(1) + 1.0 / 3.0) < 1e-9
        assert abs(res.pi_tilde.coeff(1) - 1.0) < 1e-9
        assert res.residual < 1e-9


def test_symmetric_quadratic_symbol():
    a = LaurentSeries(C, {-1: -1.0 + 0j, 0: 3.0 + 0j, 1: -1.0 + 0j})
    root = (3.0 - math.sqrt(5.0)) / 2.0
    for res in (cepstral_factorize(a), root_split_factorize(a)):
        assert res.winding == 0
        assert abs(res.pi_plus.coeff(1) + root) < 1e-9
        assert res.residual < 1e-9


def test_both_roots_outside():
    a = LaurentSeries(C, {0: 1.0 + 0j, 2: -0.25 + 0j})
    res = root_split_factorize(a)
    assert res.winding == 0
    assert abs(res.pi_plus.coeff(2) + 0.25) < 1e-12
    assert res.pi_minus.equals(LaurentSeries.one(C, res.pi_minus.window))
    assert res.pi_tilde.support() == [0]
    assert abs(res.pi_tilde.coeff(0) - 1.0) < 1e-12


def test_oracles_reconstruct_random_symbols():
    from whlaurent.corpus import random_complex_factors

    rng = random.Random(21)
    for _ in range(10):
        a = wl.factors_to_series(C, random_complex_factors(rng))
        c = cepstral_factorize(a)
        r = root_split_factorize(a)
        assert c.residual < 1e-9 and r.residual < 1e-9
        rep = compare(c, r)
        assert rep.winding_equal and rep.max_diff < 1e-9


def test_circle_zero_rejected():
    a = LaurentSeries(C, {0: 1.0 + 0j, 1: -1.0 + 0j})
    with pytest.raises(OracleError):
        cepstral_factorize(a)
    with pytest.raises(OracleError):
        root_split_factorize(a)


def test_zero_symbol_rejected():
    with pytest.raises(OracleError, match="zero symbol"):
        root_split_factorize(LaurentSeries(C, {}))


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("oracle", [cepstral_factorize, root_split_factorize],
                         ids=["cepstral", "root_split"])
def test_non_finite_symbol_rejected(oracle, value):
    a = LaurentSeries(C, {0: 1.0 + 0j, 1: complex(value, 0.0)})
    with pytest.raises(OracleError, match="non-finite"):
        oracle(a)


def test_exact_ring_rejected():
    from fractions import Fraction

    Q = wl.rational_ring()
    a = LaurentSeries(Q, {0: Fraction(2)})
    with pytest.raises(OracleError):
        cepstral_factorize(a)
    with pytest.raises(OracleError):
        root_split_factorize(a)


def test_compare_reports_mismatch_without_raising():
    a = LaurentSeries(C, {-1: -0.5 + 0j, 0: 1.0 + 0j})
    lhs = cepstral_factorize(a)
    rhs = cepstral_factorize(a)
    same = compare(lhs, rhs)
    assert same.max_diff == 0.0 and same.winding_equal
    # perturb one coefficient: the difference is reported, not raised
    rhs.pi_minus = rhs.pi_minus.add(LaurentSeries(C, {-1: 1e-3 + 0j}))
    rep = compare(lhs, rhs)
    assert abs(rep.diff_minus - 1e-3) < 1e-12
    assert rep.diff_plus < 1e-12
