"""Prime contexts: primality, characters, point counts, Jacobi sums."""

import random

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
from padichg.field import cumprod_mod, digit_dot, digits, mulmod, powers_mod

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


@pytest.mark.parametrize("p", [1447, 1451])
def test_cumprod_mod_matches_loop(p):
    modulus = p**3
    rng = random.Random(p)
    for length in (1, 2, 15, 16, 17, p - 1):
        x = [rng.randrange(modulus) for _ in range(length)]
        want, acc = [], 1
        for v in x:
            acc = acc * v % modulus
            want.append(acc)
        got = cumprod_mod(np.array(x, dtype=np.int64), modulus)
        assert got.dtype == np.int64
        assert got.tolist() == want
        base = x[-1]
        assert powers_mod(base, length, modulus).tolist() == [
            pow(base, k, modulus) for k in range(length)
        ]


@pytest.mark.parametrize(
    "p, n",
    # both sides of the plain-product edge p^(2n) < 2^63 at n = 3 and 2,
    # and the largest prime whose residues mod p^3 fit in int64
    [(1447, 3), (1451, 3), (55103, 2), (55109, 2), (2097143, 3), (2097143, 2)],
)
def test_mulmod_matches_python_ints(p, n):
    pn = p**n
    assert (pn * pn < 2**63) == (p in (1447, 55103))
    rng = np.random.default_rng(p + n)
    a = rng.integers(0, pn, 3000)
    b = rng.integers(0, pn, 3000)
    a[:2] = b[:2] = pn - 1  # every digit p - 1: the largest partials
    a[2], b[3] = 0, 1
    want = [x * y % pn for x, y in zip(a.tolist(), b.tolist())]
    got = mulmod(a, b, p, n)
    assert got.dtype == np.int64
    assert got.tolist() == want
    assert mulmod(pn - 1, int(b[5]), p, n) == (pn - 1) * int(b[5]) % pn
    assert sum(d * p**i for i, d in enumerate(digits(a, p, n))).tolist() == a.tolist()


@pytest.mark.parametrize(
    "p, n, size",
    [
        (13, 3, 12),
        # (p-1)^3 < 2^63: one block of p - 1 columns at the n = 3 limit
        (2097143, 3, 2097142),
        # (p-1)^2 ~ 2^60: 8 columns a block, so 100 columns need 13 blocks
        (1073741789, 2, 100),
    ],
)
def test_digit_dot_worst_case(p, n, size):
    x = np.full((n, size), p - 1, dtype=np.int64)  # every digit p - 1
    assert digit_dot(x, x, p) == size * (p**n - 1) ** 2 % p**n
    rng = np.random.default_rng(p)
    y = rng.integers(0, p, (n, min(size, 50)))
    z = rng.integers(0, p, y.shape)
    want = sum(
        sum(int(d) * p**i for i, d in enumerate(y[:, j]))
        * sum(int(d) * p**i for i, d in enumerate(z[:, j]))
        for j in range(y.shape[1])
    )
    assert digit_dot(y, z, p) == want % p**n
