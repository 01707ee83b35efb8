"""Self-verification suites over ranges of primes.

Five named suites, each producing one aggregated CheckResult per
mathematical statement:

    identities  the hypergeometric-to-Frobenius identities
                G = phi(twist) a_p, the special value G(1) = phi(twist),
                and the regularized value tilde(-1) = a_p(-1)
    gamma       reflection, the integer functional equation, Teichmuller
                unit order, precision consistency, the multiplication
                (product) formula, and Gross-Koblitz for Jacobi sums
                (exact, mod p^3)
    gauss       on the exact Jacobi sums mod p^3 (padic.jacobi_sums),
                their modulus and the Davenport-Hasse relation for n = 2;
                and the norm of the order-4 Jacobi sum
    moments     the Hasse bound on every value, the exact moment
                decomposition identity, and - when the range reaches the
                anchor primes near 10^4 and 3*10^4 - moment thresholds
                against Catalan numbers and Kolmogorov-Smirnov distances
                to the semicircle law
    traces      Hecke traces against exact eta-product coefficients, the
                Frobenius-trace backdoor, and the Deligne bound

Statements that are theorems for every prime run over the whole
requested range [pmin, pmax].  Statements whose contract is an
exhaustive bound run only inside that bound (noted per check): the
multiplication formula, Gross-Koblitz, the whole gauss suite and the
decomposition identity at p <= 100, and the Hasse-bound scan at
p <= 199 (the anchor checks cover large p).  Only the anchor checks
have tolerances.  Each family's twist comes from hypergeo's table.

The gamma suite evaluates every Gamma_p identity on whole int64 arrays
per prime (or per order m) through GammaTable.gamma_residue, the one
evaluator that gamma_fraction and the hypergeometric coefficients
also call; each False entry becomes one failure string.  The identities
suite does not compare 2G2(-1) or 6G6(-1) with 0, nor a tilde sweep
with its plain sweep away from -1: family_sweep writes those zeros, and
builds a tilde sweep as a copy of the plain one with the entry at -1
patched, so such comparisons cannot fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .field import make_prime_ctx, mulmod, powers_mod
from .hecke import newform_coefficients, pk_sum, trace_level4, trace_level8
from .hypergeo import _FAMILIES, family_sweep, integral_family
from .padic import (
    build_gamma_table,
    jacobi_sum_check,
    jacobi_sums,
    product_formula_check,
    reflection_check,
    teichmuller,
)
from .stats import distribution_report, moment_sum, power_sum, value_counts

SUITES = ("identities", "gamma", "gauss", "moments", "traces")

# anchor primes per residue class mod 3 for the statistical checks
_ANCHOR_MID = (("2g2", 10009), ("6g6", 10007))
_ANCHOR_PAIR = (("2g2", 3001, 30013), ("6g6", 2999, 30011))

_MOMENT_TOLS = ((1, 0.15), (2, 0.15), (3, 0.15), (4, 0.5))
_KS_TOL = 0.05


@dataclass(frozen=True)
class CheckResult:
    """One verified statement: PASS iff ok."""

    suite: str
    name: str
    ok: bool
    detail: str


def primes_between(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], ascending (sieve of Eratosthenes)."""
    if hi < 2 or hi < lo:
        return []
    sieve = np.ones(hi + 1, dtype=bool)
    sieve[:2] = False
    for q in range(2, math.isqrt(hi) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    return [int(n) for n in np.nonzero(sieve)[0] if n >= lo]


# fragment: check name -> (primes touched, cases run, failure strings)
_Frag = dict[str, tuple[int, int, list[str]]]


def _merge(frags: Iterable[_Frag]) -> dict[str, list]:
    out: dict[str, list] = {}
    for frag in frags:
        for name, (nprimes, ncases, fails) in frag.items():
            slot = out.setdefault(name, [0, 0, []])
            slot[0] += nprimes
            slot[1] += ncases
            slot[2].extend(fails)
    return out


def _results(suite: str, merged: dict[str, list], order: Sequence[str]) -> list[CheckResult]:
    out = []
    for name in order:
        if name not in merged:
            continue
        nprimes, ncases, fails = merged[name]
        if fails:
            shown = "; ".join(fails[:3])
            more = f" (+{len(fails) - 3} more)" if len(fails) > 3 else ""
            detail = (
                f"{len(fails)} failures out of {ncases} cases "
                f"across {nprimes} primes: {shown}{more}"
            )
        else:
            detail = f"{ncases} cases across {nprimes} primes"
        out.append(CheckResult(suite, name, not fails, detail))
    return out


def _fails(ok: np.ndarray, prefix: str) -> list[str]:
    """One failure string, prefix + argument, per False entry of ok."""
    return [f"{prefix}{i}" for i in np.flatnonzero(~ok).tolist()]


def _identities_worker(p: int) -> _Frag:
    ctx = make_prime_ctx(p)
    ap = family_sweep(ctx, "ap")
    fam = integral_family(p)
    g = family_sweep(ctx, fam.name)
    s, twist = ctx.legendre_symbol(fam.twist), f"phi({fam.twist})"
    label = fam.name.upper()
    frag: _Frag = {}
    bad = np.flatnonzero(g[2 : p - 1] != s * ap[2 : p - 1]) + 2
    fails = [
        f"p={p} lambda={lam}: {label}={int(g[lam])}, {twist}*ap={s * int(ap[lam])}"
        for lam in bad.tolist()
    ]
    frag[f"{fam.name}-matches-{twist}-ap"] = (1, p - 3, fails)
    sp_fails = [] if int(g[1]) == s else [f"p={p}: {label}(1)={int(g[1])}, {twist}={s}"]
    frag["special-values"] = (1, 1, sp_fails)
    tl = int(family_sweep(ctx, fam.name + "t")[p - 1])
    t_fails = [] if tl == int(ap[p - 1]) else [f"p={p}: tilde(-1)={tl}, a_p(-1)={int(ap[p - 1])}"]
    frag["tilde-at-minus-one"] = (1, 1, t_fails)
    return frag


def _gamma_worker(p: int) -> _Frag:
    ctx = make_prime_ctx(p)
    t3 = build_gamma_table(ctx, 3)
    t2 = build_gamma_table(ctx, 2)
    frag: _Frag = {}

    pn = t3.modulus
    k = np.arange(p - 1, dtype=np.int64)
    # the residues of k/(p-1) mod p^3
    ok = reflection_check(t3, mulmod(k, pow(p - 1, -1, pn), p, 3))
    frag["reflection"] = (1, p - 1, _fails(ok, f"p={p} k="))

    ns = list(range(1, min(p * p, 240)))
    for extra in (p - 1, p, p + 1, 2 * p, 3 * p - 1, p * p - p, p * p - 2, p * p - 1):
        if 0 < extra < p * p and extra not in ns:
            ns.append(extra)
    m = np.array(ns, dtype=np.int64)
    fac = np.where(m % p == 0, pn - 1, (pn - m) % pn)
    ok = t3.gamma_residue(m + 1) == mulmod(fac, t3.gamma_residue(m), p, 3)
    frag["functional-equation"] = (1, len(ns), [f"p={p} n={x}" for x in m[~ok].tolist()])

    if p <= 200:
        pn3 = p**3
        tw_fails = []
        for t in range(1, p):
            w = teichmuller(p, t, 3)
            if w % p != t or pow(w, p - 1, pn3) != 1:
                tw_fails.append(f"p={p} t={t}")
        frag["teichmuller-order"] = (1, p - 1, tw_fails)

    ok = np.array(t3.entries()) % (p * p) == np.array(t2.entries())
    frag["precision-consistency"] = (1, p - 1, _fails(ok, f"p={p} k="))

    if p <= 100:
        # no order below is divisible by a prime p >= 5
        orders = (2, 3, 4, 6, 12)
        r = np.arange(p, dtype=np.int64)
        pf_fails = []
        for m in orders:
            pf_fails += _fails(product_formula_check(t3, m, r), f"p={p} m={m} r=")
        frag["product-formula"] = (1, len(orders) * p, pf_fails)

        bad = np.argwhere(~jacobi_sum_check(ctx, t3)).tolist()
        gk_fails = [f"p={p} a={a} b={b}" for a, b in bad]
        frag["gross-koblitz"] = (1, (p - 2) * (p - 3), gk_fails)
    return frag


_GAMMA_ORDER = (
    "reflection",
    "functional-equation",
    "teichmuller-order",
    "precision-consistency",
    "product-formula",
    "gross-koblitz",
)


def _gauss_worker(p: int) -> _Frag:
    frag: _Frag = {}
    if p > 100:
        return frag
    ctx = make_prime_ctx(p)
    n1, pn = p - 1, p**3
    jac = jacobi_sums(ctx, 3)
    a = np.arange(1, n1, dtype=np.int64)[:, None]
    b = a.T
    # J(chi, psi) J(conj chi, conj psi) = p where chi psi is nontrivial,
    # and J(chi, conj chi) = -chi(-1), for chi = omega^(-a), psi = omega^(-b)
    ok = np.where(
        (a + b) % n1 == 0,
        jac[a, b] == np.where(a % 2, 1, pn - 1),
        mulmod(jac[a, b], jac[-a % n1, -b % n1], p, 3) == p,
    )
    bad = (np.argwhere(~ok) + 1).tolist()
    frag["jacobi-modulus"] = (1, ok.size, [f"p={p} a={x} b={y}" for x, y in bad])

    if p % 4 == 1:
        re, im = ctx.jacobi_sum_order4()
        norm = re * re + im * im
        jn_fails = [] if norm == p else [f"p={p}: norm={norm}"]
        frag["jacobi-norm"] = (1, 1, jn_fails)

    # Davenport-Hasse for n = 2: J(chi, chi) = conj chi(4) J(chi, phi)
    # where chi^2 is nontrivial, with phi = omega^((p-1)/2) quadratic
    half = n1 // 2
    d = np.arange(1, n1, dtype=np.int64)
    d = d[d != half]
    w4 = powers_mod(teichmuller(p, 4, 3), n1, p, 3)
    ok = jac[d, d] == mulmod(w4[d], jac[d, half], p, 3)
    frag["davenport-hasse"] = (1, len(d), [f"p={p} a={x}" for x in d[~ok].tolist()])
    return frag


_GAUSS_ORDER = ("jacobi-modulus", "jacobi-norm", "davenport-hasse")


def _moments_worker(p: int) -> _Frag:
    frag: _Frag = {}
    if p > 199:
        return frag
    ctx = make_prime_ctx(p)
    fam = integral_family(p)
    hb_fails, hb_cases = [], 0
    for name in ("ap", fam.name, fam.name + "t"):
        sw = family_sweep(ctx, name)
        hb_cases += len(sw)
        for lam in np.nonzero(sw * sw > 4 * p)[0][:3]:
            hb_fails.append(f"p={p} family={name} lambda={int(lam)}")
    frag["hasse-bound"] = (1, hb_cases, hb_fails)

    if p <= 100:
        g, ap = family_sweep(ctx, fam.name), family_sweep(ctx, "ap")
        s = ctx.legendre_symbol(fam.twist)
        g1, apm1 = int(g[1]), int(ap[p - 1])
        g_counts, ap_counts = value_counts(g), value_counts(ap[2:])
        dc_fails = []
        for m in range(1, 7):
            lhs = power_sum(*g_counts, m)
            tail = power_sum(*ap_counts, m)
            rhs = g1**m - s**m * apm1**m + s**m * tail
            if lhs != rhs:
                dc_fails.append(f"p={p} m={m}: lhs={lhs}, rhs={rhs}")
        frag["decomposition-identity"] = (1, 6, dc_fails)
    return frag


def _anchor_results(pmin: int, pmax: int) -> list[CheckResult]:
    out = []
    for fam, q in _ANCHOR_MID:
        if not pmin <= q <= pmax:
            continue
        ctx = make_prime_ctx(q)
        fails = []
        for mm, tol in _MOMENT_TOLS:
            rep = moment_sum(ctx, fam, mm)
            if abs(rep.normalized - rep.expected) > tol:
                fails.append(
                    f"m={mm}: normalized={rep.normalized:.6f}, "
                    f"expected={rep.expected}, tolerance={tol}"
                )
        out.append(
            CheckResult(
                "moments",
                f"catalan-thresholds-{fam}",
                not fails,
                "; ".join(fails)
                or f"p={q}: m=1..4 within tolerances 0.15/0.15/0.15/0.5",
            )
        )
        ks = distribution_report(ctx, fam).ks_distance
        out.append(
            CheckResult(
                "moments",
                f"ks-near-10^4-{fam}",
                ks <= _KS_TOL,
                f"p={q}: ks={ks:.6f} (tolerance {_KS_TOL})",
            )
        )
    for fam, qlo, qhi in _ANCHOR_PAIR:
        if not (pmin <= qlo and qhi <= pmax):
            continue
        klo = distribution_report(make_prime_ctx(qlo), fam).ks_distance
        khi = distribution_report(make_prime_ctx(qhi), fam).ks_distance
        out.append(
            CheckResult(
                "moments",
                f"ks-convergence-{fam}",
                khi < klo,
                f"ks(p={qhi})={khi:.6f} vs ks(p={qlo})={klo:.6f}",
            )
        )
    return out


_MOMENT_ORDER = ("hasse-bound", "decomposition-identity")


def _traces_worker(p: int, eta6: list[int], eta8: list[int]) -> _Frag:
    ctx = make_prime_ctx(p)
    frag: _Frag = {}
    t44 = trace_level4(ctx, 4)
    frag["level4-weight4-zero"] = (
        1,
        1,
        [] if t44 == 0 else [f"p={p}: trace={t44} != 0"],
    )
    t46 = trace_level4(ctx, 6)
    frag["level4-weight6-eta"] = (
        1,
        1,
        [] if t46 == eta6[p] else [f"p={p}: trace={t46}, eta={eta6[p]}"],
    )
    t84 = trace_level8(ctx, 4)
    frag["level8-weight4-eta"] = (
        1,
        1,
        [] if t84 == eta8[p] else [f"p={p}: trace={t84}, eta={eta8[p]}"],
    )

    ap = family_sweep(ctx, "ap")
    lam = np.arange(2, p - 1)
    b44 = -3 - pk_sum(ap[2:], 4, p)
    b46 = -3 - pk_sum(ap[2:], 6, p)
    b84 = -4 - pk_sum(ap[lam * lam % p], 4, p)
    bd_fails = []
    if (b44, b46, b84) != (t44, t46, t84):
        bd_fails.append(
            f"p={p}: via a_p {(b44, b46, b84)}, via G-families {(t44, t46, t84)}"
        )
    frag["frobenius-backdoor"] = (1, 3, bd_fails)

    dl_fails = []
    if t46 * t46 > 4 * p**5:
        dl_fails.append(f"p={p} level=4 k=6: |trace|={abs(t46)}")
    if t84 * t84 > 4 * p**3:
        dl_fails.append(f"p={p} level=8 k=4: |trace|={abs(t84)}")
    frag["deligne-bound"] = (1, 2, dl_fails)
    return frag


_TRACE_ORDER = (
    "level4-weight4-zero",
    "level4-weight6-eta",
    "level8-weight4-eta",
    "frobenius-backdoor",
    "deligne-bound",
)


def run_suite(suite: str, pmin: int = 5, pmax: int = 199) -> list[CheckResult]:
    """Run one named suite (or 'all') over primes in [pmin, pmax], in order."""
    if suite == "all":
        out = []
        for s in SUITES:
            out.extend(run_suite(s, pmin, pmax))
        return out
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES + ('all',)}")
    primes = primes_between(max(pmin, 5), pmax)

    if suite == "identities":
        frags = map(_identities_worker, primes)
        twists = (f"{fam.name}-matches-phi({fam.twist})-ap" for fam in _FAMILIES.values())
        return _results(suite, _merge(frags), (*twists, "special-values", "tilde-at-minus-one"))
    if suite == "gamma":
        frags = map(_gamma_worker, primes)
        return _results(suite, _merge(frags), _GAMMA_ORDER)
    if suite == "gauss":
        frags = map(_gauss_worker, primes)
        return _results(suite, _merge(frags), _GAUSS_ORDER)
    if suite == "moments":
        frags = map(_moments_worker, primes)
        out = _results(suite, _merge(frags), _MOMENT_ORDER)
        out.extend(_anchor_results(pmin, pmax))
        return out
    # traces
    if not primes:
        return []
    n_max = max(primes)
    eta6 = newform_coefficients(4, 6, n_max)
    eta8 = newform_coefficients(8, 4, n_max)
    frags = (_traces_worker(p, eta6, eta8) for p in primes)
    return _results(suite, _merge(frags), _TRACE_ORDER)
