"""Independent oracles the tests trust.

Everything here is computed from first principles with the standard
library only; nothing imports the package under test.  Slow is fine:
these run at small primes, and the expected values they produce are
frozen into the tests.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable


def small_primes(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi] by trial division."""
    out = []
    for n in range(max(lo, 2), hi + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def legendre_euler(p: int, x: int) -> int:
    """Quadratic character of x mod p by Euler's criterion."""
    x %= p
    if x == 0:
        return 0
    return 1 if pow(x, (p - 1) // 2, p) == 1 else -1


def ap_point_count(p: int, lam: int) -> int:
    """Frobenius trace of y^2 = x(x-1)(x-lam): p + 1 minus the point count.

    #E = 1 + sum_x (1 + phi(f(x))), so a_p = -sum_x phi(f(x)).
    """
    return -sum(
        legendre_euler(p, x * (x - 1) * (x - lam)) for x in range(p)
    )


@lru_cache(maxsize=None)
def _prime_to_p_products(p: int, n: int) -> list[int]:
    """F[m] = prod of 0 < j < m prime to p, mod p^n, for m = 0 .. p^n."""
    pn = p**n
    out = [1] * (pn + 1)
    for m in range(2, pn + 1):
        j = m - 1
        out[m] = out[m - 1] * (j if j % p else 1) % pn
    return out


def _residue(p: int, n: int, x: Fraction | int) -> int:
    """The residue mod p^n of a rational p-adic integer x."""
    pn = p**n
    if isinstance(x, Fraction):
        if x.denominator % p == 0:
            raise ValueError(f"{x} is not a p-adic integer at p = {p}")
        return x.numerator * pow(x.denominator, -1, pn) % pn
    return x % pn


def gamma_morita(p: int, n: int, x: Fraction | int) -> int:
    """Gamma_p(x) mod p^n from the literal factorial product.

    Gamma_p(m) = (-1)^m * prod_{0<j<m, p not | j} j for integers m >= 0;
    rational p-adic integer arguments reduce to their residue mod p^n by
    1-Lipschitz continuity.
    """
    pn = p**n
    r = _residue(p, n, x)
    v = _prime_to_p_products(p, n)[r]
    return v if r % 2 == 0 else (pn - v) % pn


def gamma_tables_loop(p: int, n: int) -> dict[str, list[int] | None]:
    """The O(p) tables of a Gamma_p evaluator mod p^n, one loop each.

    fact[c] = c!, h1[c] = H_c = sum_{d<=c} 1/d (n >= 2), e2[c] =
    sum_{d<=c} H_(d-1)/d mod p (n = 3), w_lo[m] = w^m and w_hi[m] =
    w^(p m) (n = 3) with w = (p-1)!, all mod p^n unless stated.  The
    inverses 1/c come from one inversion of (p-1)!, walked back down.
    """
    pn = p**n
    fact = [1] * p
    for c in range(1, p):
        fact[c] = fact[c - 1] * c % pn
    inv = [0] * p
    t = pow(fact[p - 1], -1, pn)
    for c in range(p - 1, 0, -1):
        inv[c] = t * fact[c - 1] % pn
        t = t * c % pn
    h1 = [0] * p
    for c in range(1, p):
        h1[c] = (h1[c - 1] + inv[c]) % pn
    e2 = [0] * p
    for c in range(2, p):
        e2[c] = (e2[c - 1] + inv[c] * h1[c - 1]) % p
    w = fact[p - 1]
    w_lo = [1] * p
    for m in range(1, p):
        w_lo[m] = w_lo[m - 1] * w % pn
    wp = pow(w, p, pn)
    w_hi = [1] * p
    for m in range(1, p):
        w_hi[m] = w_hi[m - 1] * wp % pn
    return {
        "fact": fact,
        "h1": h1 if n >= 2 else None,
        "e2": e2 if n >= 3 else None,
        "w_lo": w_lo,
        "w_hi": w_hi if n >= 3 else None,
    }


_loop_tables = lru_cache(maxsize=None)(gamma_tables_loop)


def gamma_block(p: int, n: int, x: Fraction | int, tables: dict | None = None) -> int:
    """Gamma_p(x) mod p^n for n <= 3 by the block formula, in Python ints.

    With r = x mod p^n = q p + c, Gamma_p(x) is
    (-1)^(q+c) w^q (c-1)! (1 + q p H_(c-1) + q^2 p^2 E_(c-1)) mod p^n,
    where w = (p-1)! and the factor (c-1)! (...) is 1 when c = 0; the
    tables are gamma_tables_loop(p, n) unless given.
    """
    pn = p**n
    t = tables or _loop_tables(p, n)
    r = _residue(p, n, x)
    if r == 0:
        return 1
    q, c = divmod(r, p)
    part = 1
    if c:
        corr = 1
        if n >= 2:
            corr += q * p * t["h1"][c - 1]
        if n >= 3:
            corr += q * q * p * p * t["e2"][c - 1]
        part = t["fact"][c - 1] * corr % pn
    wq = t["w_lo"][q % p]
    if q >= p:
        wq = wq * t["w_hi"][q // p] % pn
    val = wq * part % pn
    return (pn - val) % pn if (q + c) % 2 else val


def teichmuller_limit(p: int, t: int, n: int) -> int:
    """omega(t) mod p^n as the stable limit of t, t^p, t^(p^2), ..."""
    pn = p**n
    a = t % pn
    if a % p == 0:
        return 0
    while True:
        b = pow(a, p, pn)
        if b == a:
            return a
        a = b


_omega = lru_cache(maxsize=None)(teichmuller_limit)


# The Gamma_p identity checks, one argument at a time in Python ints.
# gamma(x) is Gamma_p(x) mod p^n for a rational p-adic integer or an int
# (default: gamma_block).


def reflection_reference(
    p: int, n: int, x: Fraction | int, gamma: Callable | None = None
) -> bool:
    """Gamma_p(x) * Gamma_p(1 - x) == (-1)^(digit of x in {1..p})."""
    gamma = gamma or partial(gamma_block, p, n)
    pn = p**n
    r = _residue(p, n, x)
    x0 = r % p or p
    return gamma(r) * gamma(1 - r) % pn == (-1) ** x0 % pn


def product_formula_reference(
    p: int, n: int, m: int, r: int, gamma: Callable | None = None
) -> bool:
    """prod_h Gamma_p((x+h)/m) == omega(m)^r Gamma_p(x) prod_{h>0} Gamma_p(h/m)
    at x = r/(p-1)."""
    gamma = gamma or partial(gamma_block, p, n)
    pn = p**n
    x = Fraction(r, p - 1)
    lhs = 1
    for h in range(m):
        lhs = lhs * gamma((x + h) / m) % pn
    rhs = pow(teichmuller_limit(p, m, n), r % (p - 1), pn)
    rhs = rhs * gamma(x) % pn
    for h in range(1, m):
        rhs = rhs * gamma(Fraction(h, m)) % pn
    return lhs == rhs


def jacobi_sum_reference(
    p: int, n: int, a: int, b: int, gamma: Callable | None = None
) -> bool:
    """Gross-Koblitz for the Jacobi sum of omega^(-a), omega^(-b):
    sum_{x != 0,1} omega(x)^(-a) omega(1-x)^(-b)
    == eps Gamma_p(a/(p-1)) Gamma_p(b/(p-1)) / Gamma_p(c/(p-1)),
    c = (a + b) mod (p-1), eps = -1 if a + b < p-1 else p."""
    gamma = gamma or partial(gamma_block, p, n)
    pn = p**n
    lhs = 0
    for x in range(2, p):
        wx, wy = _omega(p, x, n), _omega(p, 1 - x, n)
        lhs += pow(wx, -a % (p - 1), pn) * pow(wy, -b % (p - 1), pn)
    c = (a + b) % (p - 1)
    rhs = -1 if a + b < p - 1 else p
    rhs = rhs * gamma(Fraction(a, p - 1)) * gamma(Fraction(b, p - 1))
    rhs = rhs * pow(gamma(Fraction(c, p - 1)), -1, pn)
    return lhs % pn == rhs % pn


def hypergeometric_coefficients(
    p: int,
    n: int,
    upper: tuple[Fraction, ...],
    lower: tuple[Fraction, ...],
    p_shift: int = 0,
    gamma: Callable[[Fraction], int] | None = None,
) -> list[int]:
    """The s_j mod p^n with p^p_shift nGn(t) = sum_j s_j conj(omega)^j(t),
    transcribed term by term in Python ints.

    Term j carries (-1)^(j*len) * (-p)^e_j * a ratio of Gamma_p values,
    with e_j = -sum of the two floor brackets, times -1/(p-1); p_shift
    must make every e_j + p_shift nonnegative.  gamma(x) is Gamma_p(x)
    mod p^n (default: gamma_morita, whose table has p^n entries).
    """
    pn = p**n
    if gamma is None:
        gamma = partial(gamma_morita, p, n)
    nlen = len(upper)
    aa = [a - math.floor(a) for a in upper]
    bb = [-b - math.floor(-b) for b in lower]
    denom = 1
    for f in aa + bb:
        denom = denom * gamma(f) % pn
    pref = pow((1 - p) % pn, -1, pn) * pow(denom, -1, pn) % pn
    out = []
    for j in range(p - 1):
        x = Fraction(j, p - 1)
        e = 0
        unit = pref
        for a in aa:
            e -= math.floor(a - x)
            y = a - x
            unit = unit * gamma(y - math.floor(y)) % pn
        for b in bb:
            e -= math.floor(b + x)
            y = b + x
            unit = unit * gamma(y - math.floor(y)) % pn
        if e + p_shift < 0:
            raise ValueError(f"term j={j} has p-exponent {e + p_shift} < 0")
        term = unit * pow(p, e + p_shift, pn) % pn
        if (j * nlen + e) % 2:
            term = (pn - term) % pn
        out.append(term)
    return out


def hypergeometric_sum(
    p: int,
    n: int,
    upper: tuple[Fraction, ...],
    lower: tuple[Fraction, ...],
    t: int,
    p_shift: int = 0,
) -> int:
    """p^p_shift times the nGn sum mod p^n: the coefficients of
    hypergeometric_coefficients against conj(omega)^j(t), term by term."""
    pn = p**n
    t %= p
    if t == 0:
        return 0
    om_inv = pow(teichmuller_limit(p, t, n), -1, pn)
    s = hypergeometric_coefficients(p, n, upper, lower, p_shift)
    return sum(sj * pow(om_inv, j, pn) for j, sj in enumerate(s)) % pn


def _power_character(p: int, n: int, x: int, order: int) -> int:
    """omega(x)^((p-1)/order) mod p^n; order must divide p - 1."""
    return pow(teichmuller_limit(p, x, n), (p - 1) // order, p**n)


def legendre_2g2_literal(p: int, n: int, lam: int) -> int:
    """The 2G2 wrapper mod p^n as the paper writes it, for p = 1 (mod 6):

        p psi6(2) psi3(4 (1+lam)^2 / lam) phi(1+lam)
          * 2G2[2/3, 2/3; 5/12, 11/12 | 4 lam / (1+lam)^2],

    with psi_k = omega^((p-1)/k), and 0 at lam = 0, -1.
    """
    lam %= p
    if lam in (0, p - 1):
        return 0
    upper = (Fraction(2, 3), Fraction(2, 3))
    lower = (Fraction(5, 12), Fraction(11, 12))
    t = 4 * lam * pow(1 + lam, -2, p) % p
    inner = hypergeometric_sum(p, n, upper, lower, t, p_shift=1)
    psi6_2 = _power_character(p, n, 2, 6)
    psi3 = _power_character(p, n, 4 * (1 + lam) ** 2 * pow(lam, -1, p), 3)
    return legendre_euler(p, 1 + lam) * psi6_2 * psi3 * inner % p**n


def legendre_6g6_literal(p: int, n: int, lam: int) -> int:
    """The 6G6 wrapper mod p^n as the paper writes it, for any p >= 5:

        phi(1+lam) * 6G6[1/3, 1/3, 2/3, 2/3, 0, 0;
                         1/12, 1/4, 5/12, 7/12, 3/4, 11/12
                         | 2^6 lam^3 / (1+lam)^6],

    and 0 at lam = 0, -1.
    """
    lam %= p
    if lam in (0, p - 1):
        return 0
    upper = tuple(Fraction(a, 3) for a in (1, 1, 2, 2, 0, 0))
    lower = tuple(Fraction(b, 12) for b in (1, 3, 5, 7, 9, 11))
    t = 64 * lam**3 * pow(1 + lam, -6, p) % p
    inner = hypergeometric_sum(p, n, upper, lower, t)
    return legendre_euler(p, 1 + lam) * inner % p**n


def eta_product_naive(spec: list[tuple[int, int]], n_max: int) -> list[int]:
    """q-coefficients of prod eta(scale*tau)^exponent by schoolbook expansion.

    Multiplies the dense series by each factor (1 - q^(scale*m)) one at a
    time, exponent many times; only positive exponents are supported.
    """
    lead24 = sum(scale * e for scale, e in spec)
    if lead24 % 24 or lead24 <= 0:
        raise ValueError("leading power is not a positive integer")
    lead = lead24 // 24
    if lead > n_max:
        return [0] * (n_max + 1)
    work = n_max - lead
    series = [1] + [0] * work
    for scale, e in spec:
        if e <= 0:
            raise ValueError("naive oracle needs positive exponents")
        for _ in range(e):
            m = scale
            while m <= work:
                for i in range(work, m - 1, -1):
                    series[i] -= series[i - m]
                m += scale
    return [0] * lead + series


def companion_closed_form(k: int, s: int, p: int) -> int:
    """P_k(s, p) = sum_j (-1)^j C(k-2-j, j) p^j s^(k-2-2j)."""
    return sum(
        (-1) ** j * math.comb(k - 2 - j, j) * p**j * s ** (k - 2 - 2 * j)
        for j in range((k - 2) // 2 + 1)
    )


def ks_sorted_samples(samples, cdf) -> float:
    """Kolmogorov-Smirnov distance of a sample to a CDF, by sorting.

    max_i max(F(x_i) - i/n, (i+1)/n - F(x_i)) over the sorted samples x_i
    attains the supremum of |empirical CDF - F|.  cdf maps the sorted list
    of samples to the list of their F values, so that a test can hand in
    the very CDF evaluation the code under test uses.
    """
    xs = sorted(samples)
    n = len(xs)
    return max(max(f - i / n, (i + 1) / n - f) for i, f in enumerate(cdf(xs)))


def semicircle_cdf_quadrature(t: float, steps: int = 200_000) -> float:
    """Integral of sqrt(4-u^2)/(2 pi) from -2 to t by the midpoint rule."""
    t = max(-2.0, min(2.0, t))
    h = (t + 2.0) / steps
    total = 0.0
    for i in range(steps):
        u = -2.0 + (i + 0.5) * h
        total += math.sqrt(max(4.0 - u * u, 0.0))
    return total * h / (2.0 * math.pi)


def sweep_text_reference(values: list[int], p: int, start: int, fmt: str) -> str:
    """The CLI sweep's text, one formatted row per lambda: CSV lines
    lambda,value,normalized with 12 decimals, or the rows as a JSON list
    at indent 2 with normalized read back from those 12 decimals."""
    rs = math.sqrt(p)
    rows = [
        [lam, values[lam], f"{values[lam] / rs:.12f}"] for lam in range(start, p)
    ]
    header = ["lambda", "value", "normalized"]
    if fmt == "json":
        payload = [dict(zip(header, [lam, v, float(s)])) for lam, v, s in rows]
        return json.dumps(payload, indent=2) + "\n"
    lines = [",".join(header)] + [",".join(str(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"
