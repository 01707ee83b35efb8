"""Hecke traces, companion polynomials, and eta-product oracles."""

import pytest

from padichg import (
    BadWeightError,
    NonIntegralLeadingPowerError,
    eta_product_coeffs,
    newform_coefficients,
    pk_poly,
    trace_level4,
    trace_level8,
)
from padichg.hecke import euler_factor_coeffs, tilde_sweep
from padichg.hypergeo import family_sweep

from oracles import companion_closed_form, eta_product_naive, small_primes


class TestCompanionPolynomial:
    def test_pinned_values(self):
        assert pk_poly(4, 0, 7) == -7
        assert pk_poly(4, 3, 7) == 2
        assert pk_poly(6, 1, 2) == -1
        assert pk_poly(4, 0, 11) == -11

    def test_matches_closed_form(self):
        for k in (4, 6, 8, 10, 12):
            for s in range(-6, 7):
                for p in (2, 5, 7, 13):
                    assert pk_poly(k, s, p) == companion_closed_form(k, s, p)

    def test_even_in_s(self):
        # even weight k makes P_k even in s, so trace sums ignore sign
        for k in (4, 6, 8):
            for s in range(0, 9):
                assert pk_poly(k, s, 11) == pk_poly(k, -s, 11)

    def test_bad_weight(self):
        for k in (2, 3, 5, 0, -4):
            with pytest.raises(BadWeightError):
                pk_poly(k, 1, 5)


class TestEtaProducts:
    def test_euler_factor_pentagonal(self):
        want = [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]
        assert euler_factor_coeffs(1, 12) == want
        assert euler_factor_coeffs(2, 6) == [1, 0, -1, 0, -1, 0, 0]

    def test_pinned_expansions(self):
        assert eta_product_coeffs([(2, 4), (4, 4)], 11) == [
            0, 1, 0, -4, 0, -2, 0, 24, 0, -11, 0, -44,
        ]
        assert eta_product_coeffs([(2, 12)], 11) == [
            0, 1, 0, -12, 0, 54, 0, -88, 0, -99, 0, 540,
        ]

    def test_against_naive_multiplication(self):
        for spec in ([(2, 4), (4, 4)], [(2, 12)], [(1, 24)], [(3, 8)]):
            assert eta_product_coeffs(spec, 60) == eta_product_naive(spec, 60)

    def test_negative_exponent_quotient(self):
        # eta(4 tau)^8 / eta(2 tau)^4 = q(1 - 8q^4 + ...)(1 + 4q^2 + 14q^4 + ...)
        assert eta_product_coeffs([(4, 8), (2, -4)], 5) == [0, 1, 0, 4, 0, 6]

    def test_leading_power_validation(self):
        with pytest.raises(NonIntegralLeadingPowerError):
            eta_product_coeffs([(1, 4)], 8)
        with pytest.raises(NonIntegralLeadingPowerError):
            eta_product_coeffs([(2, -12)], 8)

    def test_truncation_before_lead(self):
        assert eta_product_coeffs([(2, 12)], 0) == [0]

    def test_newform_dispatch(self):
        assert newform_coefficients(4, 4, 9) == [0] * 10
        assert newform_coefficients(4, 6, 7)[7] == -88
        assert newform_coefficients(8, 4, 5)[5] == -2
        assert newform_coefficients(4, 8, 5) is None


class TestTraces:
    def test_pinned_values(self, ctx_of):
        assert trace_level4(ctx_of(5), 4) == 0
        assert trace_level8(ctx_of(5), 4) == -2
        assert trace_level4(ctx_of(7), 6) == -88

    def test_weight4_level4_vanishes(self, ctx_of):
        for p in small_primes(5, 60):
            assert trace_level4(ctx_of(p), 4) == 0

    def test_against_eta_oracle(self, ctx_of):
        eta6 = eta_product_naive([(2, 12)], 50)
        eta8 = eta_product_naive([(2, 4), (4, 4)], 50)
        for p in small_primes(5, 47):
            assert trace_level4(ctx_of(p), 6) == eta6[p], p
            assert trace_level8(ctx_of(p), 4) == eta8[p], p

    def test_matches_per_lambda_sum(self, ctx_of):
        for p in small_primes(5, 200):
            tl = tilde_sweep(ctx_of(p)).tolist()
            for k in (4, 6, 8):
                want4 = -3 - sum(pk_poly(k, tl[lam], p) for lam in range(2, p))
                want8 = -4 - sum(
                    pk_poly(k, tl[lam * lam % p], p) for lam in range(2, p - 1)
                )
                assert trace_level4(ctx_of(p), k) == want4, (p, k)
                assert trace_level8(ctx_of(p), k) == want8, (p, k)

    def test_dispatch_by_residue_class(self, ctx_of):
        import numpy as np

        assert np.array_equal(tilde_sweep(ctx_of(7)), family_sweep(ctx_of(7), "2g2t"))
        assert np.array_equal(tilde_sweep(ctx_of(11)), family_sweep(ctx_of(11), "6g6t"))

    def test_bad_weight(self, ctx_of):
        with pytest.raises(BadWeightError):
            trace_level4(ctx_of(5), 3)
        with pytest.raises(BadWeightError):
            trace_level8(ctx_of(5), 2)
