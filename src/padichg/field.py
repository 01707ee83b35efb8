"""Finite-field context: discrete logs, characters, and Frobenius traces.

A PrimeContext bundles the mod-p tables every other module leans on: powers
of a fixed primitive root g, discrete logarithms base g, and the quadratic
character.  Multiplicative characters are always written as powers of the
Teichmuller character omega, pinned down by omega(g) = the Teichmuller lift
of g; a character omega^k is therefore identified with its exponent k
modulo p - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadPrecisionError,
    NoOrderFourCharacterError,
    NotPrimeError,
    PrecisionExhaustedError,
    PrimeTooSmallError,
    SingularLambdaError,
)

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n < 3.3 * 10**24."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _primitive_root(p: int) -> int:
    factors = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise AssertionError("no primitive root found")


# rounding a float FFT output is certified exact while every entry lies
# within RINT_GUARD of an integer; below RINT_MAX floats are spaced at
# most 1/8 apart, fine enough for such a residual to show
RINT_GUARD = 0.25
RINT_MAX = 2.0**50


def exact_rint(c: np.ndarray) -> np.ndarray:
    """The integers that a float FFT result c approximates, as int64.

    Raises PrecisionExhaustedError when some entry lies RINT_GUARD or
    farther from its nearest integer, or is too large for that distance
    to be seen: float error may then have eaten the margin that makes the
    rounding exact.
    """
    r = np.rint(c)
    resid = float(np.max(np.abs(c - r), initial=0.0))
    peak = float(np.max(np.abs(r), initial=0.0))
    if not (resid < RINT_GUARD and peak < RINT_MAX):  # NaN fails too
        raise PrecisionExhaustedError(
            f"FFT rounding residual {resid:.3g} (guard {RINT_GUARD}) at "
            f"magnitude {peak:.3g} (limit 2^50); the float transform "
            "cannot certify an exact integer result"
        )
    return r.astype(np.int64)


def cumprod_mod(x, modulus: int) -> np.ndarray:
    """Prefix products x[0] * ... * x[i] mod modulus < 2^63, exactly.

    One pass in Python ints (faster than itertools.accumulate with a
    reducing lambda); the result is an int64 array.
    """
    out, acc = [], 1
    for v in np.asarray(x).tolist():
        acc = acc * v % modulus
        out.append(acc)
    return np.array(out, dtype=np.int64)


def powers_mod(x: int, k: int, modulus: int) -> np.ndarray:
    """x^0, x^1, ..., x^(k-1) mod modulus: cumprod_mod of [1, x, x, ...]."""
    f = np.full(k, x % modulus, dtype=np.int64)
    f[0] = 1
    return cumprod_mod(f, modulus)


def digits(x, p: int, n: int) -> list:
    """The n base-p digits of residues x mod p^n, lowest first."""
    out = []
    for _ in range(n - 1):
        q = x // p  # numpy divides by a scalar much faster than it takes %
        out.append(x - q * p)
        x = q
    out.append(x)
    return out


def mulmod(a, b, p: int, n: int):
    """a * b mod p^n for residues a, b in [0, p^n): int64 arrays or ints.

    While p^(2n) < 2^63 this is a * b % p^n.  Above that, a and b are
    written in base-p digits and the product is carried digit by digit:
    digit m collects the a_i b_(m-i) and the carry, so for n <= 3 every
    partial stays below 3 p^2, inside int64 for p < 2^30.
    """
    pn = p**n
    if pn * pn < 2**63:
        return a * b % pn
    da, db = digits(a, p, n), digits(b, p, n)
    out, carry = 0, 0
    for m in range(n):
        c = carry + sum(da[i] * db[m - i] for i in range(m + 1))
        carry = c // p
        out = out + (c - carry * p) * p**m
    return out


def digit_dot(x: np.ndarray, y: np.ndarray, p: int) -> int:
    """sum_j x_j y_j mod p^n, from the base-p digit rows of x and y.

    x and y are (n, L) int64 arrays of digits in [0, p).  Digit i of x
    meets digit k of y for i + k < n only, in an int64 dot over blocks of
    at most (2^63 - 1) // (p - 1)^2 columns, so that no dot wraps (numpy
    integer dots wrap silently); a block holds every column while
    p < 2^21.  The dots add up in Python ints.
    """
    n, size = x.shape
    block = (2**63 - 1) // (p - 1) ** 2
    total = 0
    for lo in range(0, size, block):
        xb, yb = x[:, lo : lo + block], y[:, lo : lo + block]
        for i in range(n):
            for k in range(n - i):
                total += int(np.dot(xb[i], yb[k])) * p ** (i + k)
    return total % p**n


@dataclass(frozen=True)
class CyclotomicInt4:
    """An element re + im*i of Z[i], kept exact (never floated)."""

    re: int
    im: int

    def conjugate(self) -> "CyclotomicInt4":
        return CyclotomicInt4(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im


class PrimeContext:
    """Tables and character arithmetic for one odd prime p >= 5.

    Attributes:
        p: the prime.
        precision: working p-adic precision (digits of p; 2 or 3).
        g: the smallest primitive root mod p.
        pow_g: pow_g[k] = g**k mod p for 0 <= k < p - 1.
        dlog: dlog[x] = k with g**k = x mod p; dlog[0] = -1 as a sentinel.
        legendre: legendre[x] in {-1, 0, 1}, the quadratic character.
        sweeps: cache of hypergeo.family_sweep, by family name.
        coefficients: cache of hypergeo._coefficients, by
            (upper, lower, p_shift, n).
        digits: cache of the base-p digit rows that hypergeo.eval_gn
            reads: the coefficients by the same key, and the powers of
            omega(g) mod p^n by n.
    """

    def __init__(self, p: int, precision: int = 3):
        if not isinstance(p, int) or not is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        if p < 5:
            raise PrimeTooSmallError(f"p = {p} < 5 is not supported")
        if not isinstance(precision, int) or not 2 <= precision <= 3:
            raise BadPrecisionError(
                f"working precision {precision} must be 2 or 3"
            )
        self.p = p
        self.precision = precision
        self.g = _primitive_root(p)
        pow_g = powers_mod(self.g, p - 1, p)
        dlog = np.empty(p, dtype=np.int64)
        dlog[0] = -1
        dlog[pow_g] = np.arange(p - 1, dtype=np.int64)
        legendre = np.zeros(p, dtype=np.int64)
        legendre[pow_g] = np.where(np.arange(p - 1) % 2 == 0, 1, -1)
        self.pow_g = pow_g
        self.dlog = dlog
        self.legendre = legendre
        self.sweeps: dict = {}
        self.coefficients: dict = {}
        self.digits: dict = {}

    def __repr__(self) -> str:
        return f"PrimeContext(p={self.p})"

    def legendre_symbol(self, x: int) -> int:
        """Quadratic character phi(x) in {-1, 0, 1}."""
        return int(self.legendre[x % self.p])

    def char_exponent(self, k: int, x: int) -> int | None:
        """Exponent e with omega^k(x) = zeta_(p-1)^e, or None when x = 0.

        None marks the zero element, on which every multiplicative
        character vanishes by the chi(0) := 0 convention.
        """
        x %= self.p
        if x == 0:
            return None
        return k * int(self.dlog[x]) % (self.p - 1)

    def trace_frobenius(self, lam: int) -> int:
        """Frobenius trace a_p(lambda) of y^2 = x(x-1)(x-lambda).

        a_p = p + 1 - #E(F_p) = -sum_x phi(x(x-1)(x-lambda)).
        """
        p = self.p
        lam %= p
        if lam in (0, 1):
            raise SingularLambdaError(f"lambda = {lam} is a singular fiber")
        x = np.arange(p, dtype=np.int64)
        f = x * ((x - 1) % p) % p * ((x - lam) % p) % p
        return -int(self.legendre[f].sum())

    def frobenius_sweep(self) -> np.ndarray:
        """a_p(lambda) for every lambda, as an int64 array of length p.

        a_p(lambda) = -sum_x phi(x(x-1)) phi(x-lambda) is one length-p
        cyclic correlation of two {-1, 0, 1} sequences, computed by a real
        FFT and rounded to the nearest integer; every value is bounded by
        p, so rounding is exact (see exact_rint).  Entries at the singular
        fibers lambda = 0, 1 are set to 0.
        """
        p = self.p
        x = np.arange(p, dtype=np.int64)
        phi_x1 = np.fft.rfft(self.legendre[x * (x - 1) % p])
        phi = np.fft.rfft(self.legendre)
        # irfft(F(a) * conj(F(b)))[k] = sum_y a[y + k] * b[y]
        out = -exact_rint(np.fft.irfft(phi_x1 * phi.conj(), p))
        out[:2] = 0
        return out

    def jacobi_sum_order4(self) -> CyclotomicInt4:
        """Jacobi sum J(phi*chi4, conj(chi4)) in Z[i], for p = 1 (mod 4).

        chi4 = omega^((p-1)/4) has order 4; phi*chi4 = conj(chi4), so the
        sum is sum_{x != 0,1} conj(chi4)(x) * conj(chi4)(1-x), computed
        exactly by binning dlog(x) + dlog(1-x) mod 4 (chi4(g^d) = i^d).
        Satisfies re^2 + im^2 = p; the real part does not depend on which
        of the two order-4 characters plays chi4.
        """
        p = self.p
        if p % 4 != 1:
            raise NoOrderFourCharacterError(f"p = {p} is 3 mod 4")
        x = np.arange(2, p, dtype=np.int64)
        e = (self.dlog[x] + self.dlog[(1 - x) % p]) % 4
        c = np.bincount(e, minlength=4)
        return CyclotomicInt4(int(c[0] - c[2]), int(c[3] - c[1]))

    def correction_term(self) -> int:
        """The integer subtracted at lambda = -1 to regularize the sweep.

        Equals -a_p(-1): zero for p = 3 (mod 4), and twice the real part
        of chi4(-1) * J(phi*chi4, conj(chi4)) for p = 1 (mod 4).  The
        factor two is a calibration pinned by the identity
        a_p(-1) = -2 * chi4(-1) * Re J (see README).
        """
        if self.p % 4 != 1:
            return 0
        chi4_m1 = -1 if (self.p - 1) // 4 % 2 else 1
        return 2 * chi4_m1 * self.jacobi_sum_order4().re

    def gauss_sum_float(self, k: int) -> complex:
        """Gauss sum g(omega^k) as a complex float.

        g(chi) = sum_{x=1}^{p-1} chi(x) * exp(2 pi i x / p).  For the
        trivial character (k = 0 mod p-1) this returns -1.
        """
        p = self.p
        x = np.arange(1, p, dtype=np.int64)
        chi = np.exp(2j * np.pi * (k % (p - 1)) * self.dlog[x] / (p - 1))
        zeta = np.exp(2j * np.pi * x / p)
        return complex((chi * zeta).sum())


def make_prime_ctx(p: int, precision: int = 3) -> PrimeContext:
    """Validate p and build the table context (alias for PrimeContext)."""
    return PrimeContext(p, precision)
