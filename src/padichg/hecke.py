"""Hecke operator traces on Gamma_0(4) and Gamma_0(8), with eta oracles.

For even weight k >= 4 the trace of the p-th Hecke operator is assembled
from the regularized hypergeometric values (2G2-tilde for p = 1 mod 3,
6G6-tilde for p = 2 mod 3) through the companion polynomials

    P_k(s, p) = (alpha^(k-1) - beta^(k-1)) / (alpha - beta),
    alpha*beta = p, alpha + beta = s,

via

    Tr_k(Gamma_0(4), p) = -3 - sum_{lambda=2}^{p-1} P_k(tilde(lambda), p)
    Tr_k(Gamma_0(8), p) = -4 - sum_{lambda=2}^{p-2} P_k(tilde(lambda^2), p).

Both sums run over the histogram of the tilde values (stats.value_counts),
so P_k is evaluated once per distinct value, not once per lambda.

The level-8 sum stops at p-2: lambda = p-1 would square to 1, the
singular fiber, where tilde carries the regularized special value rather
than a Frobenius trace; including it is inconsistent with the eta oracle
at every prime (see README).

S_6(Gamma_0(4)) and S_4(Gamma_0(8)) are one-dimensional, spanned by
eta(2 tau)^12 and eta(2 tau)^4 eta(4 tau)^4, so those traces equal exact
eta-product q-coefficients; S_4(Gamma_0(4)) is zero-dimensional and its
trace vanishes identically.  The eta expansions here are computed from
scratch (pentagonal-number Euler products over the integers) and serve
as the independent oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadWeightError, NonIntegralLeadingPowerError
from .field import PrimeContext
from .hypergeo import family_sweep
from .stats import value_counts


def _check_weight(k: int) -> None:
    if not isinstance(k, int) or k < 4 or k % 2:
        raise BadWeightError(f"weight k = {k} must be an even integer >= 4")


def pk_poly(k: int, s: int, p: int) -> int:
    """P_k(s, p) by the integer recurrence u_(j+1) = s*u_j - p*u_(j-1).

    u_1 = 1, u_2 = s; returns u_(k-1).  Equals the closed form
    sum_j (-1)^j C(k-2-j, j) p^j s^(k-2-2j).
    """
    _check_weight(k)
    u_prev, u = 1, s
    for _ in range(k - 3):
        u_prev, u = u, s * u - p * u_prev
    return u


def pk_sum(values: np.ndarray, k: int, p: int) -> int:
    """sum of P_k(v, p) over an array of values with |v| <= 2 sqrt(p)."""
    atoms, counts = value_counts(values, math.isqrt(4 * p))
    return sum(c * pk_poly(k, v, p) for v, c in zip(atoms.tolist(), counts.tolist()))


def tilde_sweep(ctx: PrimeContext) -> np.ndarray:
    """The regularized sweep the trace formulas consume, picked by p mod 3."""
    family = "2g2t" if ctx.p % 3 == 1 else "6g6t"
    return family_sweep(ctx, family)


def trace_level4(ctx: PrimeContext, k: int) -> int:
    """Trace of the p-th Hecke operator on S_k(Gamma_0(4))."""
    _check_weight(k)
    return -3 - pk_sum(tilde_sweep(ctx)[2:], k, ctx.p)


def trace_level8(ctx: PrimeContext, k: int) -> int:
    """Trace of the p-th Hecke operator on S_k(Gamma_0(8))."""
    _check_weight(k)
    lam = np.arange(2, ctx.p - 1)
    return -4 - pk_sum(tilde_sweep(ctx)[lam * lam % ctx.p], k, ctx.p)


def euler_factor_coeffs(scale: int, n_max: int) -> list[int]:
    """Coefficients of prod_{n>=1} (1 - q^(scale*n)) up to q^n_max.

    Sparse by the pentagonal number theorem:
    sum_k (-1)^k (q^(k(3k-1)/2) + q^(k(3k+1)/2)) scaled by `scale`.
    """
    out = [0] * (n_max + 1)
    out[0] = 1
    k = 1
    while True:
        e1 = scale * k * (3 * k - 1) // 2
        e2 = scale * k * (3 * k + 1) // 2
        if e1 > n_max:
            break
        sgn = -1 if k % 2 else 1
        out[e1] += sgn
        if e2 <= n_max:
            out[e2] += sgn
        k += 1
    return out


def _series_mul(a: list[int], b: list[int], n_max: int) -> list[int]:
    out = [0] * (n_max + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j in range(min(len(b), n_max + 1 - i)):
            out[i + j] += ai * b[j]
    return out


def _series_inv(a: list[int], n_max: int) -> list[int]:
    # reciprocal of a power series with constant term 1
    out = [0] * (n_max + 1)
    out[0] = 1
    for m in range(1, n_max + 1):
        out[m] = -sum(a[i] * out[m - i] for i in range(1, min(m, len(a) - 1) + 1))
    return out


def eta_product_coeffs(
    spec: list[tuple[int, int]], n_max: int
) -> list[int]:
    """q-expansion of prod eta(scale*tau)^exponent, coefficients of q^0..q^n_max.

    spec lists (scale, exponent) pairs.  The leading power
    sum(scale*exponent)/24 must be a positive integer.
    """
    lead24 = sum(scale * e for scale, e in spec)
    if lead24 % 24 or lead24 <= 0:
        raise NonIntegralLeadingPowerError(
            f"leading q-power {lead24}/24 is not a positive integer"
        )
    lead = lead24 // 24
    if lead > n_max:
        return [0] * (n_max + 1)
    work = n_max - lead
    acc = [1] + [0] * work
    for scale, e in spec:
        f = euler_factor_coeffs(scale, work)
        if e < 0:
            f = _series_inv(f, work)
            e = -e
        # f is sparse (pentagonal numbers); keep it as the outer factor
        for _ in range(e):
            acc = _series_mul(f, acc, work)
    return [0] * lead + acc


def newform_coefficients(level: int, k: int, n_max: int) -> list[int] | None:
    """Exact trace oracle: coefficients of the trace generating series.

    S_4(Gamma_0(4)) is empty (all traces 0); S_6(Gamma_0(4)) and
    S_4(Gamma_0(8)) are spanned by single eta products.  Returns None for
    spaces with no oracle here.
    """
    if (level, k) == (4, 4):
        return [0] * (n_max + 1)
    if (level, k) == (4, 6):
        return eta_product_coeffs([(2, 12)], n_max)
    if (level, k) == (8, 4):
        return eta_product_coeffs([(2, 4), (4, 4)], n_max)
    return None
