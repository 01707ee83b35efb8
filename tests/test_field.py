"""Prime contexts: primality, characters, point counts, Jacobi sums."""

import numpy as np
import pytest

from padichg import (
    CyclotomicInt4,
    NoOrderFourCharacterError,
    NotPrimeError,
    PrimeTooSmallError,
    SingularLambdaError,
    is_prime,
    make_prime_ctx,
)
from padichg.errors import BadPrecisionError

from oracles import ap_point_count, legendre_euler, small_primes


def test_is_prime_small_range():
    for n in range(-3, 200):
        assert is_prime(n) == (n in small_primes(2, 200))


def test_is_prime_large_and_carmichael():
    assert is_prime(10007) and is_prime(30011)
    assert not is_prime(561) and not is_prime(41 * 43)


def test_ctx_rejects_bad_input():
    with pytest.raises(NotPrimeError):
        make_prime_ctx(9)
    with pytest.raises(PrimeTooSmallError):
        make_prime_ctx(3)
    for precision in (1, 4):
        with pytest.raises(BadPrecisionError):
            make_prime_ctx(7, precision=precision)


def test_primitive_root_and_tables(ctx_of):
    ctx = ctx_of(7)
    assert ctx.g == 3
    assert int(ctx.legendre[2]) == 1  # squares mod 7 are {1, 2, 4}
    assert int(ctx_of(13).legendre[11]) == -1  # phi(-2) = -1 at p = 13
    for p in (7, 13, 31):
        ctx = ctx_of(p)
        assert int(ctx.dlog[0]) == -1
        for x in range(1, p):
            assert pow(ctx.g, int(ctx.dlog[x]), p) == x
            assert int(ctx.legendre[x]) == legendre_euler(p, x)
        assert int(ctx.legendre[0]) == 0


def test_char_exponent(ctx_of):
    ctx = ctx_of(7)
    assert ctx.char_exponent(3, 2) == 0  # phi(2) = +1
    assert ctx.char_exponent(0, 5) == 0
    assert ctx.char_exponent(3, 0) is None


def test_trace_frobenius_matches_point_counts(ctx_of):
    for p in (5, 7, 13):
        ctx = ctx_of(p)
        for lam in range(2, p):
            assert ctx.trace_frobenius(lam) == ap_point_count(p, lam)
    assert ctx_of(7).trace_frobenius(3) == 4
    assert ctx_of(7).trace_frobenius(2) == 0
    assert ctx_of(5).trace_frobenius(4) == -2


def test_trace_frobenius_singular_fibers(ctx_of):
    for lam in (0, 1):
        with pytest.raises(SingularLambdaError):
            ctx_of(7).trace_frobenius(lam)


def test_frobenius_sweep(ctx_of):
    for p in (5, 13):
        sweep = ctx_of(p).frobenius_sweep()
        assert sweep[0] == 0 and sweep[1] == 0
        for lam in range(2, p):
            assert int(sweep[lam]) == ap_point_count(p, lam)


def test_hasse_bound(ctx_of):
    for p in (11, 29, 53):
        sweep = ctx_of(p).frobenius_sweep()
        assert int(np.max(sweep * sweep)) <= 4 * p


def test_jacobi_sum_order4(ctx_of):
    j5 = ctx_of(5).jacobi_sum_order4()
    assert (j5.re, j5.im) == (-1, 2)
    for p in (13, 17, 29):
        j = ctx_of(p).jacobi_sum_order4()
        assert j.norm() == p
    with pytest.raises(NoOrderFourCharacterError):
        ctx_of(7).jacobi_sum_order4()


def test_cyclotomic_int4():
    z = CyclotomicInt4(3, -2)
    assert z.conjugate() == CyclotomicInt4(3, 2)
    assert z.norm() == 13


def test_correction_term(ctx_of):
    assert ctx_of(5).correction_term() == 2
    assert ctx_of(7).correction_term() == 0  # p = 3 (mod 4)
    for p in (5, 13, 17, 29, 37):
        assert -ctx_of(p).correction_term() == ap_point_count(p, p - 1)
    for p in (7, 11, 19, 23):
        assert ctx_of(p).correction_term() == 0
        assert ap_point_count(p, p - 1) == 0


def test_gauss_sum_float(ctx_of):
    assert abs(abs(ctx_of(5).gauss_sum_float(2)) ** 2 - 5) < 1e-6
    assert abs(ctx_of(7).gauss_sum_float(0) + 1) < 1e-6
    assert abs(abs(ctx_of(13).gauss_sum_float(4)) ** 2 - 13) < 1e-6
