"""Acceptance gate: one test per criterion, each reporting one line.

Criteria 1-5 and 8 are exact (zero tolerance); 6 and 7 use the documented
heuristic thresholds at fixed anchor primes.  The collected PASS/FAIL
lines are printed in the terminal summary.
"""

from pathlib import Path

import numpy as np

from padichg import (
    distribution_report,
    eval_family,
    eval_gn,
    family_sweep,
    moment_sum,
    run_suite,
    trace_level4,
    trace_level8,
)
from padichg.hypergeo import G2_LOWER, G2_UPPER, G6_LOWER, G6_UPPER

from conftest import cached_ctx, cached_table
from oracles import eta_product_naive, hypergeometric_sum, small_primes

PMAX = 199


def test_criterion_1_2g2_identity(criterion_report):
    fails = []
    cases = 0
    for p in small_primes(7, PMAX):
        if p % 3 != 1:
            continue
        ctx = cached_ctx(p)
        g = family_sweep(ctx, "2g2")
        ap = family_sweep(ctx, "ap")
        s = ctx.legendre_symbol(-2)
        cases += p - 3
        if not np.array_equal(g[2 : p - 1], s * ap[2 : p - 1]):
            fails.append(p)
    ok = criterion_report(
        1,
        not fails,
        f"2G2 = phi(-2) a_p exactly, {cases} lambdas over primes "
        f"p = 1 (mod 3), 7 <= p <= {PMAX}"
        + (f"; failing primes {fails}" if fails else ""),
    )
    assert ok


def test_criterion_2_6g6_identity(criterion_report):
    fails = []
    cases = 0
    for p in small_primes(5, PMAX):
        if p % 3 != 2:
            continue
        ctx = cached_ctx(p)
        g = family_sweep(ctx, "6g6")
        ap = family_sweep(ctx, "ap")
        s = ctx.legendre_symbol(-1)
        cases += p - 3
        if not np.array_equal(g[2 : p - 1], s * ap[2 : p - 1]):
            fails.append(p)
    ok = criterion_report(
        2,
        not fails,
        f"6G6 = phi(-1) a_p exactly, {cases} lambdas over primes "
        f"p = 2 (mod 3), 5 <= p <= {PMAX}"
        + (f"; failing primes {fails}" if fails else ""),
    )
    assert ok


def test_criterion_3_special_values(criterion_report):
    fails = []
    for p in small_primes(5, PMAX):
        ctx = cached_ctx(p)
        if p % 3 == 1:
            g = family_sweep(ctx, "2g2")
            if int(g[1]) != ctx.legendre_symbol(-2):
                fails.append(f"2G2(1) at p={p}")
            if int(g[p - 1]) != 0:
                fails.append(f"2G2(-1) at p={p}")
            if eval_family(ctx, cached_table(p, 2), "6g6", p - 1).residue != 0:
                fails.append(f"6G6(-1) at p={p}")
        else:
            if int(family_sweep(ctx, "6g6")[p - 1]) != 0:
                fails.append(f"6G6(-1) at p={p}")
    ok = criterion_report(
        3,
        not fails,
        f"2G2(1) = phi(-2), 2G2(-1) = 6G6(-1) = 0 on all primes <= {PMAX}"
        + (f"; failures {fails[:4]}" if fails else ""),
    )
    assert ok


def test_criterion_4_tilde_calibration(criterion_report):
    fails = []
    classes = set()
    for p in small_primes(5, PMAX):
        ctx = cached_ctx(p)
        classes.add(p % 4)
        tilde = family_sweep(ctx, "2g2t" if p % 3 == 1 else "6g6t")
        ap = family_sweep(ctx, "ap")
        if int(tilde[p - 1]) != int(ap[p - 1]):
            fails.append(p)
    readme = Path(__file__).resolve().parents[1] / "README.md"
    documented = readme.exists() and "calibration" in readme.read_text().lower()
    if not documented:
        fails.append("calibration constant not documented in README")
    ok = criterion_report(
        4,
        not fails and classes == {1, 3},
        f"tilde(-1) = a_p(-1) on all primes <= {PMAX}, both classes mod 4, "
        "constant documented" + (f"; failures {fails[:4]}" if fails else ""),
    )
    assert ok


def test_criterion_5_trace_formulas(criterion_report):
    eta6 = eta_product_naive([(2, 12)], PMAX)
    eta8 = eta_product_naive([(2, 4), (4, 4)], PMAX)
    fails = []
    for p in small_primes(5, PMAX):
        ctx = cached_ctx(p)
        if trace_level4(ctx, 4) != 0:
            fails.append(f"level 4 weight 4 at p={p}")
        if trace_level4(ctx, 6) != eta6[p]:
            fails.append(f"level 4 weight 6 at p={p}")
        if trace_level8(ctx, 4) != eta8[p]:
            fails.append(f"level 8 weight 4 at p={p}")
    ok = criterion_report(
        5,
        not fails,
        f"traces match the eta oracles on all primes <= {PMAX} "
        "(both residue classes mod 3)"
        + (f"; failures {fails[:4]}" if fails else ""),
    )
    assert ok


_MOMENT_TOLS = ((1, 0.15), (2, 0.15), (3, 0.15), (4, 0.5))


def test_criterion_6_moment_asymptotics(criterion_report):
    fails = []
    details = []
    for fam, p in (("2g2", 10009), ("6g6", 10007)):
        ctx = cached_ctx(p)
        for m, tol in _MOMENT_TOLS:
            rep = moment_sum(ctx, fam, m)
            gap = abs(rep.normalized - rep.expected)
            details.append(f"{fam} m={m}: |{rep.normalized:.4f} - {rep.expected}|")
            if gap > tol:
                fails.append(f"{fam} p={p} m={m}: gap {gap:.4f} > {tol}")
    ok = criterion_report(
        6,
        not fails,
        "normalized moments within 0.15/0.15/0.15/0.5 of semicircle "
        "moments at p = 10009 (2g2) and p = 10007 (6g6)"
        + (f"; failures {fails}" if fails else ""),
    )
    assert ok, fails


def test_criterion_7_semicircle_distribution(criterion_report):
    fails = []
    parts = []
    for fam, p in (("2g2", 10009), ("6g6", 10007)):
        ks = distribution_report(cached_ctx(p), fam).ks_distance
        parts.append(f"ks({p})={ks:.4f}")
        if ks > 0.05:
            fails.append(f"{fam} p={p}: ks {ks:.4f} > 0.05")
    for fam, plo, phi in (("2g2", 3001, 30013), ("6g6", 2999, 30011)):
        klo = distribution_report(cached_ctx(plo), fam).ks_distance
        khi = distribution_report(cached_ctx(phi), fam).ks_distance
        parts.append(f"ks({phi})={khi:.4f} < ks({plo})={klo:.4f}")
        if not khi < klo:
            fails.append(f"{fam}: ks({phi}) {khi:.4f} !< ks({plo}) {klo:.4f}")
    ok = criterion_report(
        7,
        not fails,
        "; ".join(parts) + (f"; failures {fails}" if fails else ""),
    )
    assert ok, fails


def test_criterion_8_property_suites(criterion_report):
    results = []
    for suite in ("gamma", "gauss", "moments"):
        results.extend(run_suite(suite, 5, PMAX))
    suite_fails = [f"{r.suite}/{r.name}" for r in results if not r.ok]

    naive_fails = []
    naive_cases = 0
    for p in small_primes(5, 50):
        ctx, tab = cached_ctx(p), cached_table(p, 3)
        rows = [(G6_UPPER, G6_LOWER, 0)]
        if p % 6 == 1:
            rows.append((G2_UPPER, G2_LOWER, 1))
        for upper, lower, shift in rows:
            for t in range(p):
                naive_cases += 1
                got = eval_gn(ctx, tab, upper, lower, t, p_shift=shift)
                want = hypergeometric_sum(p, 3, upper, lower, t, shift)
                if got != want:
                    naive_fails.append(f"p={p} t={t}")
    ok = criterion_report(
        8,
        not suite_fails and not naive_fails,
        f"gamma/gauss/moment suites pass over 5..{PMAX} "
        f"({len(results)} aggregated checks) and the definition evaluator "
        f"matches the literal transcription on {naive_cases} arguments, "
        "p <= 50"
        + (
            f"; failures {suite_fails + naive_fails[:4]}"
            if suite_fails or naive_fails
            else ""
        ),
    )
    assert ok, (suite_fails, naive_fails[:5])
