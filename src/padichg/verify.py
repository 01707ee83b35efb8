"""Self-verification suites over ranges of primes.

Five named suites, each producing one aggregated CheckResult per
mathematical statement:

    identities  the hypergeometric-to-Frobenius identities, special
                values at lambda = 1 and lambda = -1, and the
                regularized value tilde(-1) = a_p(-1)
    gamma       reflection, the integer functional equation, Teichmuller
                unit order, precision consistency, the multiplication
                (product) formula, and the shift identity
    gauss       character orthogonality (exact, combinatorial), Gauss
                sum modulus, Jacobi sum norm, and the Davenport-Hasse
                relation for n = 2 (float, 1e-6 relative)
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
multiplication/shift formulas and float Gauss checks at p <= 100,
orthogonality at p <= 200, the decomposition identity at p <= 100, and
the Hasse-bound scan at p <= 199 (the anchor checks cover large p).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .field import PrimeContext, make_prime_ctx
from .hecke import newform_coefficients, pk_sum, trace_level4, trace_level8
from .hypergeo import eval_family, family_sweep, integral_family
from .padic import (
    build_gamma_table,
    gamma_shift_check,
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


def _twisted_trace_fails(
    p: int, label: str, twist_name: str, g: np.ndarray, s: int, ap: np.ndarray
) -> list[str]:
    """One failure string per lambda in 2 .. p-2 where g != s * a_p."""
    bad = np.flatnonzero(g[2 : p - 1] != s * ap[2 : p - 1]) + 2
    return [
        f"p={p} lambda={lam}: {label}={int(g[lam])}, {twist_name}*ap={s * int(ap[lam])}"
        for lam in bad.tolist()
    ]


def _identities_worker(p: int) -> _Frag:
    ctx = make_prime_ctx(p)
    frag: _Frag = {}
    ap = family_sweep(ctx, "ap")
    sp_fails: list[str] = []
    if integral_family(p) == "2g2":
        g = family_sweep(ctx, "2g2")
        s = ctx.legendre_symbol(-2)
        fails = _twisted_trace_fails(p, "2G2", "phi(-2)", g, s, ap)
        frag["2g2-matches-phi(-2)-ap"] = (1, p - 3, fails)
        if int(g[1]) != s:
            sp_fails.append(f"p={p}: 2G2(1)={int(g[1])}, phi(-2)={s}")
        if int(g[p - 1]) != 0:
            sp_fails.append(f"p={p}: 2G2(-1)={int(g[p - 1])} != 0")
        g6m1 = eval_family(ctx, build_gamma_table(ctx, 2), "6g6", p - 1)
        if g6m1.residue.value != 0:
            sp_fails.append(f"p={p}: 6G6(-1) residue {g6m1.residue.value} != 0")
        frag["special-values"] = (1, 3, sp_fails)
        tl = family_sweep(ctx, "2g2t")
    else:
        g = family_sweep(ctx, "6g6")
        s = ctx.legendre_symbol(-1)
        fails = _twisted_trace_fails(p, "6G6", "phi(-1)", g, s, ap)
        frag["6g6-matches-phi(-1)-ap"] = (1, p - 3, fails)
        if int(g[p - 1]) != 0:
            sp_fails.append(f"p={p}: 6G6(-1)={int(g[p - 1])} != 0")
        frag["special-values"] = (1, 1, sp_fails)
        tl = family_sweep(ctx, "6g6t")
    t_fails = []
    if int(tl[p - 1]) != int(ap[p - 1]):
        t_fails.append(
            f"p={p}: tilde(-1)={int(tl[p - 1])}, a_p(-1)={int(ap[p - 1])}"
        )
    if not np.array_equal(tl[: p - 1], g[: p - 1]):
        t_fails.append(f"p={p}: tilde differs from the plain family away from -1")
    frag["tilde-at-minus-one"] = (1, 1, t_fails)
    return frag


_IDENTITY_ORDER = (
    "2g2-matches-phi(-2)-ap",
    "6g6-matches-phi(-1)-ap",
    "special-values",
    "tilde-at-minus-one",
)


def _gamma_worker(p: int) -> _Frag:
    ctx = make_prime_ctx(p)
    t3 = build_gamma_table(ctx, 3)
    t2 = build_gamma_table(ctx, 2)
    frag: _Frag = {}

    refl_fails = [
        f"p={p} k={k}"
        for k in range(p - 1)
        if not reflection_check(t3, Fraction(k, p - 1))
    ]
    frag["reflection"] = (1, p - 1, refl_fails)

    pn = t3.modulus
    ns = list(range(1, min(p * p, 240)))
    for extra in (p - 1, p, p + 1, 2 * p, 3 * p - 1, p * p - p, p * p - 2, p * p - 1):
        if 0 < extra < p * p and extra not in ns:
            ns.append(extra)
    fe_fails = []
    for m in ns:
        lhs = t3.gamma_residue(m + 1)
        fac = (pn - m) % pn if m % p else pn - 1
        if lhs != fac * t3.gamma_residue(m) % pn:
            fe_fails.append(f"p={p} n={m}")
    frag["functional-equation"] = (1, len(ns), fe_fails)

    if p <= 200:
        pn3 = p**3
        tw_fails = []
        for t in range(1, p):
            w = teichmuller(p, t, 3)
            if w % p != t or pow(w, p - 1, pn3) != 1:
                tw_fails.append(f"p={p} t={t}")
        frag["teichmuller-order"] = (1, p - 1, tw_fails)

    psq = p * p
    lip_fails = [
        f"p={p} k={k}"
        for k, (e3, e2) in enumerate(zip(t3.entries(), t2.entries()))
        if e3 % psq != e2
    ]
    frag["precision-consistency"] = (1, p - 1, lip_fails)

    if p <= 100:
        pf_fails, pf_cases = [], 0
        for m in (2, 3, 4, 6, 12):
            if m % p == 0:
                continue
            for r in range(p):
                pf_cases += 1
                if not product_formula_check(t3, m, r):
                    pf_fails.append(f"p={p} m={m} r={r}")
        frag["product-formula"] = (1, pf_cases, pf_fails)

        sh_fails, sh_cases = [], 0
        for t in (2, 3, 4, 6, 12):
            if t % p == 0:
                continue
            for j in range(p - 1):
                sh_cases += 1
                if not gamma_shift_check(t3, t, j):
                    sh_fails.append(f"p={p} t={t} j={j}")
        frag["shift-identity"] = (1, sh_cases, sh_fails)
    return frag


_GAMMA_ORDER = (
    "reflection",
    "functional-equation",
    "teichmuller-order",
    "precision-consistency",
    "product-formula",
    "shift-identity",
)


def _gauss_worker(p: int) -> _Frag:
    frag: _Frag = {}
    if p > 200:
        return frag
    ctx = make_prime_ctx(p)
    n1 = p - 1
    m = np.arange(n1, dtype=np.int64)
    orth_fails = []
    for d in range(1, n1):
        g = math.gcd(d, n1)
        counts = np.bincount(d * m % n1, minlength=n1)
        want = np.where(m % g == 0, g, 0)
        if not np.array_equal(counts, want):
            orth_fails.append(f"p={p} d={d}")
    # trivial character: total mass p-1 under the chi(0) := 0 convention
    if sum(1 for x in range(p) if ctx.char_exponent(0, x) is not None) != n1:
        orth_fails.append(f"p={p}: trivial character mass != p-1")
    frag["orthogonality"] = (1, n1, orth_fails)

    if p > 100:
        return frag
    gs = [ctx.gauss_sum_float(k) for k in range(n1)]
    mod_fails = []
    for k in range(1, n1):
        if abs(abs(gs[k]) ** 2 - p) / p > 1e-6:
            mod_fails.append(f"p={p} k={k}")
    if abs(gs[0] + 1) > 1e-6:
        mod_fails.append(f"p={p}: trivial Gauss sum != -1")
    frag["gauss-modulus"] = (1, n1, mod_fails)

    if p % 4 == 1:
        jsum = ctx.jacobi_sum_order4()
        jn_fails = [] if jsum.norm() == p else [f"p={p}: norm={jsum.norm()}"]
        frag["jacobi-norm"] = (1, 1, jn_fails)

        half = n1 // 2
        d4 = int(ctx.dlog[4 % p])
        dh_fails = []
        for k in range(n1):
            lhs = gs[k] * gs[(k + half) % n1]
            psi4_inv = cmath.exp(-2j * cmath.pi * (k * d4 % n1) / n1)
            rhs = gs[2 * k % n1] * psi4_inv * gs[half]
            if abs(lhs - rhs) / max(abs(lhs), 1e-9) > 1e-6:
                dh_fails.append(f"p={p} k={k}")
        frag["davenport-hasse"] = (1, n1, dh_fails)
    return frag


_GAUSS_ORDER = ("orthogonality", "gauss-modulus", "jacobi-norm", "davenport-hasse")


def _moments_worker(p: int) -> _Frag:
    frag: _Frag = {}
    if p > 199:
        return frag
    ctx = make_prime_ctx(p)
    plain = integral_family(p)
    fams = ("ap", plain, plain + "t")
    hb_fails, hb_cases = [], 0
    for fam in fams:
        sw = family_sweep(ctx, fam)
        hb_cases += len(sw)
        for lam in np.nonzero(sw * sw > 4 * p)[0][:3]:
            hb_fails.append(f"p={p} family={fam} lambda={int(lam)}")
    frag["hasse-bound"] = (1, hb_cases, hb_fails)

    if plain == "2g2" and p <= 100:
        g = family_sweep(ctx, "2g2")
        ap = family_sweep(ctx, "ap")
        s = ctx.legendre_symbol(-2)
        g1, apm1 = int(g[1]), int(ap[p - 1])
        bound = math.isqrt(4 * p)
        g_counts, ap_counts = value_counts(g, bound), value_counts(ap[2:], bound)
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
        return _results(suite, _merge(frags), _IDENTITY_ORDER)
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
