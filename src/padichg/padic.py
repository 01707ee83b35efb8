"""Truncated p-adic arithmetic and the Morita p-adic gamma function.

Working precision is a modulus p^n: a ResidueMod is an element of Z/p^n
standing for a p-adic integer known to n digits.  GammaTable evaluates
Gamma_p at any p-adic integer argument mod p^n in O(1) after an O(p)
precompute, for n <= 3, the largest precision it supports.

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
only enters times p, so it is kept mod p^(n-1).  GammaTable.vectorized()
shares these arrays rather than copying them, and multiplies residues
through field.mulmod: a plain int64 product while p^(2n) < 2^63
(p <= 1447 at n = 3, p <= 55103 at n = 2), a base-p digit product above.
Every residue mod p^n must itself fit in int64, so precision 3 stops at
p < 2^21; a GammaTable past that limit raises BadPrecisionError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import (
    ArgumentNotRepresentableError,
    BadPrecisionError,
    NotPrimeError,
    ParameterNotPadicError,
    PrimeTooSmallError,
)
from .field import PrimeContext, cumprod_mod, is_prime, mulmod, powers_mod


class ResidueMod:
    """An element of Z/p^n: a p-adic integer truncated to n digits."""

    __slots__ = ("value", "p", "n", "modulus")

    def __init__(self, value: int, p: int, n: int):
        if n < 1:
            raise BadPrecisionError(f"precision n = {n} must be >= 1")
        self.p = p
        self.n = n
        self.modulus = p**n
        self.value = value % self.modulus

    def _coerce(self, other) -> "ResidueMod":
        if isinstance(other, ResidueMod):
            if other.p != self.p or other.n != self.n:
                raise ValueError("mixed moduli")
            return other
        if isinstance(other, int):
            return ResidueMod(other, self.p, self.n)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return ResidueMod(self.value + o.value, self.p, self.n)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return ResidueMod(self.value - o.value, self.p, self.n)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return ResidueMod(o.value - self.value, self.p, self.n)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return ResidueMod(self.value * o.value, self.p, self.n)

    __rmul__ = __mul__

    def __neg__(self):
        return ResidueMod(-self.value, self.p, self.n)

    def __pow__(self, e: int):
        return ResidueMod(pow(self.value, e, self.modulus), self.p, self.n)

    def inverse(self) -> "ResidueMod":
        if self.value % self.p == 0:
            raise ZeroDivisionError("not a unit mod p")
        return ResidueMod(pow(self.value, -1, self.modulus), self.p, self.n)

    def is_unit(self) -> bool:
        return self.value % self.p != 0

    def reduce(self, n: int) -> "ResidueMod":
        """Drop to a coarser precision n <= self.n."""
        if n > self.n:
            raise BadPrecisionError("cannot refine a truncated value")
        return ResidueMod(self.value, self.p, n)

    def lift_centered(self) -> int:
        """The representative in (-p^n/2, p^n/2]."""
        if self.value * 2 > self.modulus:
            return self.value - self.modulus
        return self.value

    def __eq__(self, other) -> bool:
        if isinstance(other, ResidueMod):
            return (
                self.p == other.p
                and self.n == other.n
                and self.value == other.value
            )
        if isinstance(other, int):
            return self.value == other % self.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p, self.n))

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.p}^{self.n})"


def frac_bracket(x: Fraction) -> Fraction:
    """Fractional part <x> = x - floor(x), in [0, 1)."""
    return x - math.floor(x)


def floor_bracket(x: Fraction | int) -> int:
    """Greatest integer <= x."""
    return math.floor(x)


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
    (n = 3).  vectorized() shares them.  Residues mod p^n must fit in
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
        "_frac_cache",
    )

    def __init__(self, ctx: PrimeContext, n: int = 2):
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
        self._frac_cache: dict = {}
        c = np.arange(p, dtype=np.int64)
        c[0] = 1
        self._fact = cumprod_mod(c, pn)
        w = int(self._fact[p - 1])
        self._w_lo = powers_mod(w, p, pn)
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
            self._w_hi = powers_mod(pow(w, p, pn), p, pn)
        self._h1 = h1

    def gamma_residue(self, r: int) -> int:
        """Gamma_p at any p-adic integer congruent to r mod p^n."""
        p, pn = self.p, self.modulus
        r %= pn
        if r == 0:
            return 1  # Gamma_p(0) = 1
        q, rem = divmod(r, p)
        part = 1
        if rem:
            part = int(self._fact[rem - 1])
            if self.n >= 2:
                corr = 1 + q * p * int(self._h1[rem - 1])
                if self.n >= 3:
                    corr += q * q % p * p * p * int(self._e2[rem - 1])
                part = part * (corr % pn) % pn
        wq = int(self._w_lo[q % p])
        if q >= p:
            wq = wq * int(self._w_hi[q // p]) % pn
        val = wq * part % pn
        if (q + rem) % 2:
            val = pn - val if val else 0
        return val

    def vectorized(self) -> Callable[[np.ndarray], np.ndarray]:
        """gamma_residue lifted to arrays of residues mod p^n.

        The returned function maps an int64 array of residues to an int64
        array.  It reads the table's own arrays.
        """
        p, n, pn = self.p, self.n, self.modulus
        fact, h1, e2, w_lo, w_hi = self._fact, self._h1, self._e2, self._w_lo, self._w_hi

        def gamma(r: np.ndarray) -> np.ndarray:
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
            return np.where((q + k) % 2 == 0, (pn - val) % pn, val)

        return gamma

    def fraction_residue(self, x: Fraction) -> int:
        """The residue mod p^n of a rational that is a p-adic integer."""
        if isinstance(x, int):
            return x % self.modulus
        if x.denominator % self.p == 0:
            raise ParameterNotPadicError(
                f"{x} has denominator divisible by p = {self.p}"
            )
        key = (x.numerator, x.denominator)
        hit = self._frac_cache.get(key)
        if hit is None:
            hit = (
                x.numerator
                * pow(x.denominator, -1, self.modulus)
                % self.modulus
            )
            self._frac_cache[key] = hit
        return hit

    def gamma_fraction(self, x: Fraction | int) -> int:
        """Gamma_p(x) mod p^n for a rational p-adic integer x."""
        return self.gamma_residue(self.fraction_residue(x))

    def entry(self, k: int) -> int:
        """Gamma_p(<k/(p-1)>) mod p^n, the k-th canonical table argument."""
        return self.gamma_fraction(frac_bracket(Fraction(k, self.p - 1)))

    def entries(self) -> list[int]:
        """All p-1 canonical values Gamma_p(k/(p-1)), k = 0 .. p-2."""
        k = np.arange(self.p - 1, dtype=np.int64)
        inv = pow(self.p - 1, -1, self.modulus)
        return self.vectorized()(mulmod(k, inv, self.p, self.n)).tolist()


def build_gamma_table(ctx: PrimeContext, n: int | None = None) -> GammaTable:
    """Precompute Gamma_p evaluation tables at precision p^n.

    n defaults to the context's working precision.
    """
    return GammaTable(ctx, ctx.precision if n is None else n)


def gamma_p(table: GammaTable, x: Fraction | int) -> ResidueMod:
    """Gamma_p(x) as a ResidueMod, for a rational p-adic integer x."""
    return ResidueMod(table.gamma_fraction(x), table.p, table.n)


def gamma_p_integer(table: GammaTable, m: int) -> ResidueMod:
    """Gamma_p at a nonnegative integer argument, mod p^n.

    Gamma_p(0) = 1 and Gamma_p(m) = (-1)^m * prod of j < m prime to p;
    reduction of m mod p^n is valid by 1-Lipschitz continuity.
    """
    if m < 0:
        raise ValueError("integer gamma argument must be >= 0")
    return ResidueMod(table.gamma_residue(m % table.modulus), table.p, table.n)


def reflection_check(table: GammaTable, x: Fraction | int) -> bool:
    """Gamma_p(x) * Gamma_p(1 - x) == (-1)^(digit of x in {1..p})."""
    pn = table.modulus
    r = table.fraction_residue(x) if isinstance(x, Fraction) else x % pn
    x0 = r % table.p
    if x0 == 0:
        x0 = table.p
    lhs = table.gamma_residue(r) * table.gamma_residue((1 - r) % pn) % pn
    rhs = (-1) ** x0 % pn
    return lhs == rhs


def product_formula_check(table: GammaTable, m: int, r: int) -> bool:
    """Gauss multiplication formula for Gamma_p at x = r/(p-1).

    prod_{h=0}^{m-1} Gamma_p((x+h)/m)
        == omega(m)^r * Gamma_p(x) * prod_{h=1}^{m-1} Gamma_p(h/m),
    where the character exponent r is (1-x)(1-p) reduced mod p-1.
    """
    p, pn = table.p, table.modulus
    if m % p == 0:
        raise ArgumentNotRepresentableError(
            "multiplier m must be prime to p"
        )
    x = Fraction(r, p - 1)
    lhs = 1
    for h in range(m):
        lhs = lhs * table.gamma_fraction((x + h) / m) % pn
    rhs = pow(teichmuller(p, m, table.n), r % (p - 1), pn)
    rhs = rhs * table.gamma_fraction(x) % pn
    for h in range(1, m):
        rhs = rhs * table.gamma_fraction(Fraction(h, m)) % pn
    return lhs == rhs


def gamma_shift_check(table: GammaTable, t: int, j: int) -> bool:
    """Both Gamma_p shift-product identities at x = j/(p-1).

    For p = 1 (mod t) and either sign s in {+1, -1}:

        omega(t)^(s*t*j) * Gamma_p(<s*t*x>) * prod_{h=1}^{t-1} Gamma_p(h/t)
            == prod_{h=0}^{t-1} Gamma_p(<h/t + s*x>).
    """
    p, pn = table.p, table.modulus
    if t % p == 0:
        raise ArgumentNotRepresentableError(
            "shift order t must be prime to p"
        )
    x = Fraction(j, p - 1)
    base = 1
    for h in range(1, t):
        base = base * table.gamma_fraction(Fraction(h, t)) % pn
    omega_t = teichmuller(p, t, table.n)
    for s in (1, -1):
        lhs = pow(omega_t, (s * t * j) % (p - 1), pn)
        lhs = lhs * table.gamma_fraction(frac_bracket(s * t * x)) % pn
        lhs = lhs * base % pn
        rhs = 1
        for h in range(t):
            rhs = rhs * table.gamma_fraction(
                frac_bracket(Fraction(h, t) + s * x)
            ) % pn
        if lhs != rhs:
            return False
    return True
