"""Truncated p-adic arithmetic and the Morita p-adic gamma function.

Working precision is a modulus p^n: a residue is an int in [0, p^n)
standing for a p-adic integer known to n digits.  GammaTable evaluates
Gamma_p at any p-adic integer argument mod p^n in O(1) after an O(p)
precompute, for n <= 3, the largest precision it supports.  Its one
evaluator, gamma_residue, takes an int or an int64 array of arguments.

The O(1) evaluation rests on a block identity: for p >= 5 the product of
the prime-to-p integers in any length-p block, prod_{c=1}^{p-1} (ip + c),
is congruent to (p-1)! mod p^3 independently of i, because the harmonic
sum H_{p-1} vanishes mod p^2 and the second elementary symmetric sum of
{1/c} vanishes mod p (Wolstenholme).  Writing an integer argument as
m = qp + r, Gamma_p(m) then equals

    (-1)^(q+r) * ((p-1)!)^q * (r-1)! * (1 + qp*H_{r-1} + q^2 p^2 E_{r-1})

mod p^3, with H_j = sum_{c<=j} 1/c and E_j = sum_{c<d<=j} 1/(cd).  Since
Gamma_p is 1-Lipschitz, the value mod p^n only depends on the argument
mod p^n, so this covers every p-adic integer argument.

The O(p) tables are int64 numpy arrays built by field.cumprod_mod; H
only enters times p, so it is kept mod p^(n-1).  gamma_residue reduces
its argument mod p^n, gathers from these arrays and multiplies residues
through field.mulmod: a plain int64 product while p^(2n) < 2^63
(p <= 1447 at n = 3, p <= 55103 at n = 2), a base-p digit product above.
Every residue mod p^n must itself fit in int64, so precision 3 stops at
p < 2^21; a GammaTable past that limit raises BadPrecisionError.

_gamma_product, the product of Gamma_p at num/den, serves hypergeo's
coefficients, entries() and the identity checks of verify's gamma
suite, which return bool arrays.  Of these, jacobi_sum_check ties the
table to the context's characters: by Gross-Koblitz, a Jacobi sum of
Teichmuller characters is a ratio of Gamma_p values.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import (
    ArgumentNotRepresentableError,
    BadPrecisionError,
    NotPrimeError,
    ParameterNotPadicError,
    PrimeTooSmallError,
)
from .field import PrimeContext, cumprod_mod, is_prime, mulmod, powers_mod


def frac_bracket(x: Fraction) -> Fraction:
    """Fractional part <x> = x - floor(x), in [0, 1)."""
    return x - math.floor(x)


def teichmuller(p: int, t: int, n: int) -> int:
    """Teichmuller lift omega(t) mod p^n: the root of unity with t as digit 0.

    omega(0) := 0.  Computed as t^(p^(n-1)) by Hensel iteration a -> a^p,
    which gains one digit per step.
    """
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if p < 5:
        raise PrimeTooSmallError(f"p = {p} < 5 is not supported")
    if n < 1:
        raise BadPrecisionError(f"precision n = {n} must be >= 1")
    return _teichmuller_lift(p, t, n)


def _teichmuller_lift(p: int, t: int, n: int) -> int:
    """teichmuller(p, t, n) without its checks, for a prime p >= 5, n >= 1."""
    if t % p == 0:
        return 0
    pn = p**n
    a = t % pn
    for _ in range(n - 1):
        a = pow(a, p, pn)
    return a


class GammaTable:
    """Evaluates Morita's Gamma_p mod p^n, O(1) per call, for 1 <= n <= 3.

    Its tables, for c = 0 .. p-1 and w = (p-1)!, are int64 arrays: c! and
    w^c mod p^n, H_c mod p^(n-1) (n >= 2), E_c mod p and w^(p c) mod p^n
    (n = 3).  gamma_residue reads them.  Residues mod p^n must fit in
    int64, so n = 3 needs p < 2^21.
    """

    __slots__ = (
        "p",
        "n",
        "modulus",
        "_fact",
        "_h1",
        "_e2",
        "_w_lo",
        "_w_hi",
    )

    def __init__(self, ctx: PrimeContext, n: int):
        if not isinstance(n, int) or not 1 <= n <= 3:
            raise BadPrecisionError(f"precision n = {n} must be 1, 2 or 3")
        p = self.p = ctx.p
        if p**n >= 2**63:
            raise BadPrecisionError(
                f"p = {p} is too large for precision {n}: residues mod p^{n} "
                "must fit in int64 (p < 2^21 at n = 3)"
            )
        self.n = n
        pn = self.modulus = p**n
        c = np.arange(p, dtype=np.int64)
        c[0] = 1
        self._fact = cumprod_mod(c, pn)
        w = int(self._fact[p - 1])
        self._w_lo = powers_mod(w, p, p, n)
        self._h1 = self._e2 = self._w_hi = None
        if n == 1:
            return
        # 1/c mod p from the context's tables (1/0 := 0); all int64 below
        inv = np.zeros(p, dtype=np.int64)
        inv[1:] = ctx.pow_g[-ctx.dlog[1:] % (p - 1)]
        h_sum = np.cumsum(inv)
        h1 = h_sum % p
        if n == 3:
            # E_c = sum_{d <= c} H_(d-1)/d mod p
            self._e2 = np.cumsum(inv * np.roll(h1, 1) % p) % p
            # one Hensel step gives digit 1 of 1/c mod p^2, so H_c mod p^2
            hi = -inv * ((c * inv - 1) // p) % p
            h1 = (h_sum + p * (np.cumsum(hi) % p)) % (p * p)
            self._w_hi = powers_mod(pow(w, p, pn), p, p, n)
        self._h1 = h1

    def gamma_residue(self, r: int | np.ndarray) -> int | np.ndarray:
        """Gamma_p at the p-adic integers congruent to r mod p^n.

        r is an int, giving an int, or an int64 array, giving an int64
        array entry by entry.  It is reduced mod p^n first.
        """
        p, n, pn = self.p, self.n, self.modulus
        fact, h1, e2, w_lo, w_hi = self._fact, self._h1, self._e2, self._w_lo, self._w_hi
        r = r % pn
        q, rem = r // p, r % p
        k = rem - 1  # -1 where rem = 0, masked below
        part = fact[k]
        if h1 is not None:
            # q p H + q^2 p^2 E mod p^n = p * (q H + p (q^2 E mod p) mod p^(n-1))
            x = mulmod(q, h1[k], p, n - 1)
            if e2 is not None:
                x = (x + p * ((q % p) ** 2 % p * e2[k] % p)) % (pn // p)
            part = mulmod(part, 1 + p * x, p, n)
        part = np.where(rem == 0, 1, part)
        wq = w_lo[q % p]
        if w_hi is not None:
            wq = mulmod(wq, w_hi[q // p], p, n)
        val = mulmod(wq, part, p, n)
        val = np.where((q + k) % 2 == 0, (pn - val) % pn, val)
        return val if np.ndim(r) else int(val)

    def fraction_residue(self, x: Fraction) -> int:
        """The residue mod p^n of a rational (or int) that is a p-adic integer."""
        if x.denominator % self.p == 0:
            raise ParameterNotPadicError(
                f"{x} has denominator divisible by p = {self.p}"
            )
        return x.numerator * pow(x.denominator, -1, self.modulus) % self.modulus

    def gamma_fraction(self, x: Fraction | int) -> int:
        """Gamma_p(x) mod p^n for a rational p-adic integer x."""
        return self.gamma_residue(self.fraction_residue(x))

    def entries(self) -> list[int]:
        """All p-1 canonical values Gamma_p(k/(p-1)), k = 0 .. p-2."""
        k = np.arange(self.p - 1, dtype=np.int64)
        return _gamma_product(self, (k,), self.p - 1).tolist()


def build_gamma_table(ctx: PrimeContext, n: int = 3) -> GammaTable:
    """Precompute Gamma_p evaluation tables at precision p^n."""
    return GammaTable(ctx, n)


def _gamma_product(table: GammaTable, nums, den: int) -> np.ndarray:
    """prod_i Gamma_p(nums[i] / den) mod p^n, entrywise, for int64 arrays
    nums[i] and den prime to p."""
    p, n, pn = table.p, table.n, table.modulus
    inv = pow(den, -1, pn)
    out = 1
    for num in nums:
        out = mulmod(out, table.gamma_residue(mulmod(num % pn, inv, p, n)), p, n)
    return out


def _gamma_unit_fractions(table: GammaTable, m: int) -> int:
    """prod_{h=1}^{m-1} Gamma_p(h/m) mod p^n."""
    vals = _gamma_product(table, (np.arange(1, m, dtype=np.int64),), m)
    return math.prod(vals.tolist()) % table.modulus


def reflection_check(table: GammaTable, x: np.ndarray) -> np.ndarray:
    """Gamma_p(x) * Gamma_p(1 - x) == (-1)^(digit of x in {1..p}),
    entrywise: x is an int64 array of residues mod p^n, and the result
    a bool array.
    """
    p, pn = table.p, table.modulus
    r = x % pn
    lhs = _gamma_product(table, (r, 1 - r), 1)
    # the digit of r in {1..p} is odd where r mod p is odd or 0 (digit p)
    x0 = r % p
    return lhs == np.where((x0 % 2 == 1) | (x0 == 0), pn - 1, 1)


def product_formula_check(table: GammaTable, m: int, r: np.ndarray) -> np.ndarray:
    """Gauss multiplication formula for Gamma_p at x = r/(p-1).

    prod_{h=0}^{m-1} Gamma_p((x+h)/m)
        == omega(m)^r * Gamma_p(x) * prod_{h=1}^{m-1} Gamma_p(h/m),
    where the character exponent r is (1-x)(1-p) reduced mod p-1, for
    an int64 array r; the result is a bool array, one entry per r.
    """
    p, n, pn = table.p, table.n, table.modulus
    if m % p == 0:
        raise ArgumentNotRepresentableError(
            "multiplier m must be prime to p"
        )
    # (x + h)/m = (r + h(p-1)) / (m(p-1))
    lhs = _gamma_product(table, (r + h * (p - 1) for h in range(m)), m * (p - 1))
    rhs = powers_mod(teichmuller(p, m, n), p - 1, p, n)[r % (p - 1)]
    rhs = mulmod(rhs, _gamma_unit_fractions(table, m), p, n)
    return lhs == mulmod(rhs, _gamma_product(table, (r,), p - 1), p, n)


def jacobi_sum_check(ctx: PrimeContext, table: GammaTable) -> np.ndarray:
    """Gross-Koblitz for Jacobi sums: for 0 < a, b < p-1 with
    c = (a + b) mod (p-1) != 0, mod p^n,

        sum_{x != 0, 1} omega(x)^(-a) * omega(1-x)^(-b)
            == eps * Gamma_p(a/(p-1)) * Gamma_p(b/(p-1)) / Gamma_p(c/(p-1)),

    with eps = -1 if a + b < p-1, else p.  Returns the (p-1, p-1) bool
    array ok[a, b], True off that range.  The left side reads ctx.g and
    ctx.dlog, the right side the Gamma_p table.
    """
    p, n, pn = table.p, table.n, table.modulus
    # the left side is an int64 matmul over p-2 products of residues mod
    # p^n, exact while (p-2) p^(2n) < 2^63, which holds for p < 500 at n = 3
    if (p - 2) * pn * pn >= 2**63:
        raise BadPrecisionError(f"p = {p} is too large for int64 Jacobi sums at precision {n}")
    zeta = powers_mod(teichmuller(p, ctx.g, n), p - 1, p, n)
    a = np.arange(p - 1, dtype=np.int64)[:, None]
    s = a + a.T
    # z[a, x - 2] = omega(x)^(-a), x = 2 .. p-1; 1 - x runs over them in reverse
    z = zeta[-a * ctx.dlog[2:] % (p - 1)]
    lhs = z @ z[:, ::-1].T % pn
    gam = np.array(table.entries(), dtype=np.int64)
    inv = np.array([pow(v, -1, pn) for v in gam.tolist()], dtype=np.int64)
    rhs = mulmod(mulmod(gam[a], gam[a.T], p, n), inv[s % (p - 1)], p, n)
    rhs = mulmod(rhs, np.where(s < p - 1, pn - 1, p), p, n)
    return (lhs == rhs) | (a == 0) | (a.T == 0) | (s == p - 1)
