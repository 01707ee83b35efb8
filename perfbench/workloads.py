"""One pass of each workload, and the oracles that check its outputs.

A pass is the unit a run repeats.  Its calls into padichg are timed and
their outputs kept; every output is checked after the pass, outside the
pass's wall time, by an oracle that does not go through the timed code:
direct point counts (PrimeContext.trace_frobenius), Euler's criterion,
eta-product coefficients, the CLI's own output file, and the suites'
CheckResults.  Oracle values are cached per run, since every pass of a
run repeats the same inputs.

The client drives only names exported by padichg and CLI flags that
change the result: no --precision, --threads or threads=.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import padichg as P
import padichg.cli

from inputs import family_for, g2_class
from tracing import CallFailed, Recorder

SUITES = ("identities", "gamma", "gauss", "moments", "traces")
DIST_BINS = 40


def hasse_bound(p: int) -> int:
    return math.isqrt(4 * p)


def legendre(a: int, p: int) -> int:
    """Quadratic character by Euler's criterion."""
    r = pow(a % p, (p - 1) // 2, p)
    return 0 if r == 0 else (1 if r == 1 else -1)


def twist(p: int) -> int:
    """G(lambda) = twist * a_p(lambda): phi(-2) for 2G2, phi(-1) for 6G6."""
    return legendre(-2 if g2_class(p) else -1, p)


def semicircle_cdf(t: float) -> float:
    t = min(max(t, -2.0), 2.0)
    return 0.5 + t * math.sqrt(max(4.0 - t * t, 0.0)) / (4.0 * math.pi) + math.asin(t / 2.0) / math.pi


def ks_distance(values: list[int], p: int) -> float:
    """Kolmogorov-Smirnov distance of value/sqrt(p) to the semicircle law."""
    xs = sorted(v / math.sqrt(p) for v in values)
    n = len(xs)
    return max(
        max(semicircle_cdf(x) - i / n, (i + 1) / n - semicircle_cdf(x))
        for i, x in enumerate(xs)
    )


@dataclass
class Pass:
    wall: float
    # seconds per client request, in order: a prime's session
    # (anchor-session), a run_suite call (prime-range), a query (point-eval)
    latencies: list[float]
    # per-pass figures for the end-to-end metrics
    values: int = 0
    value_seconds: float = 0.0
    data: dict = field(default_factory=dict)


@dataclass
class Oracles:
    """Oracle values cached for the run, plus the tally of checks."""

    ctxs: dict = field(default_factory=dict)
    frob: dict = field(default_factory=dict)
    eta: dict = field(default_factory=dict)
    attempted: int = 0
    failed: list = field(default_factory=list)
    # smallest floor(2 sqrt p) - |v| over every value the client received
    hasse_margin_min: int | None = None

    def ctx(self, p: int) -> P.PrimeContext:
        if p not in self.ctxs:
            self.ctxs[p] = P.make_prime_ctx(p)
        return self.ctxs[p]

    def ap(self, p: int, lam: int) -> int:
        key = (p, lam)
        if key not in self.frob:
            self.frob[key] = self.ctx(p).trace_frobenius(lam)
        return self.frob[key]

    def eta_traces(self, p: int) -> tuple[int, int]:
        """(Tr_6(Gamma0(4), p), Tr_4(Gamma0(8), p)) from the eta products."""
        if p not in self.eta:
            self.eta[p] = (
                P.newform_coefficients(4, 6, p)[p],
                P.newform_coefficients(8, 4, p)[p],
            )
        return self.eta[p]

    def record(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(label)

    def margin(self, p: int, values) -> None:
        m = hasse_bound(p) - int(np.max(np.abs(np.asarray(values, dtype=np.int64))))
        if self.hasse_margin_min is None or m < self.hasse_margin_min:
            self.hasse_margin_min = m


def _is_sweep(arr, p: int) -> bool:
    return isinstance(arr, np.ndarray) and arr.shape == (p,)


# ---------------------------------------------------------------- anchor-session


def anchor_pass(inp: dict, rec: Recorder, tmpdir: Path) -> Pass:
    """The Sato-Tate and Hecke experiment at each anchor prime."""
    lat: list[float] = []
    call = rec.call
    sessions = []
    t0 = perf_counter()
    with rec.block("pass"):
        for p in inp["primes"]:
            fam = family_for(p)
            s = {"p": p, "fam": fam, "cli_path": tmpdir / f"sweep-{p}.csv"}
            t_session = perf_counter()
            with rec.block("session", p=p):
                ctx, _ = call("field.make_prime_ctx", P.make_prime_ctx, p, p=p)
                s["plain"], s["plain_s"] = call(
                    "hypergeo.family_sweep", P.family_sweep, ctx, fam, p=p, kind="plain")
                s["tilde"], s["tilde_s"] = call(
                    "hypergeo.family_sweep", P.family_sweep, ctx, fam + "t", p=p, kind="tilde")
                s["ap"], s["ap_s"] = call("field.family_sweep", P.family_sweep, ctx, "ap", p=p)
                s["moments"] = [
                    call("stats.moment_sum", P.moment_sum, ctx, fam, m, p=p)[0]
                    for m in range(1, 5)
                ]
                s["dist"], _ = call(
                    "stats.distribution_report", P.distribution_report, ctx, fam, DIST_BINS, p=p)
                s["t4"], _ = call("hecke.trace_level4", P.trace_level4, ctx, 6, p=p)
                s["t8"], _ = call("hecke.trace_level8", P.trace_level8, ctx, 4, p=p)
                argv = ["sweep", "--prime", str(p), "--function", fam, "--output", str(s["cli_path"])]
                s["cli_rc"], _ = call("cli.main", padichg.cli.main, argv, p=p)
            lat.append(perf_counter() - t_session)
            sessions.append(s)
    wall = perf_counter() - t0
    values = sum(len(s[k]) for s in sessions for k in ("plain", "tilde", "ap") if _is_sweep(s[k], s["p"]))
    value_seconds = sum(s[k] for s in sessions for k in ("plain_s", "tilde_s", "ap_s"))
    hyp_values = sum(len(s[k]) for s in sessions for k in ("plain", "tilde") if _is_sweep(s[k], s["p"]))
    return Pass(wall, lat, values, value_seconds, {"sessions": sessions, "hypergeo_values": hyp_values})


def _read_cli_sweep(path: Path) -> list[tuple[int, int]] | None:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError:
        return None
    finally:
        path.unlink(missing_ok=True)
    if not rows or rows[0] != ["lambda", "value", "normalized"]:
        return None
    try:
        return [(int(r[0]), int(r[1])) for r in rows[1:]]
    except (ValueError, IndexError):
        return None


def anchor_check(inp: dict, run: Pass, orc: Oracles) -> None:
    for s in run.data["sessions"]:
        p, fam = s["p"], s["fam"]
        bound, tw = hasse_bound(p), twist(p)
        plain, tilde, ap = s["plain"], s["tilde"], s["ap"]
        tag = f"p={p}"

        def in_bound(arr) -> bool:
            return _is_sweep(arr, p) and int(np.max(np.abs(arr))) <= bound

        ap_ok = in_bound(ap) and all(int(ap[lam]) == orc.ap(p, lam) for lam in inp["ap_sample"][p])
        orc.record(f"{tag} ap sweep vs trace_frobenius", ap_ok)
        inner = slice(2, p - 1)
        plain_ok = in_bound(plain) and _is_sweep(ap, p) and np.array_equal(plain[inner], tw * ap[inner])
        orc.record(f"{tag} {fam} sweep = twist * a_p", plain_ok)
        tilde_ok = (
            in_bound(tilde) and _is_sweep(ap, p)
            and np.array_equal(tilde[inner], tw * ap[inner])
            and int(tilde[p - 1]) == orc.ap(p, p - 1)
        )
        orc.record(f"{tag} {fam}t sweep, tilde(-1) = a_p(-1)", tilde_ok)
        for arr in (plain, tilde, ap):
            if _is_sweep(arr, p):
                orc.margin(p, arr)

        plain_list = plain.tolist() if _is_sweep(plain, p) else None
        for m, rep in enumerate(s["moments"], 1):
            ok = (
                plain_list is not None and not isinstance(rep, CallFailed)
                and rep.sum == sum(v**m for v in plain_list)
            )
            orc.record(f"{tag} moment m={m}", ok)
        rep = s["dist"]
        ok = (
            plain_list is not None and not isinstance(rep, CallFailed)
            and len(rep.rows) == DIST_BINS and rep.sample_size == p
            and sum(r[2] for r in rep.rows) == p
            and abs(rep.ks_distance - ks_distance(plain_list, p)) <= 1e-9
        )
        orc.record(f"{tag} distribution", ok)

        want4, want8 = orc.eta_traces(p)
        orc.record(f"{tag} trace level 4 weight 6", s["t4"] == want4)
        orc.record(f"{tag} trace level 8 weight 4", s["t8"] == want8)

        rows = _read_cli_sweep(s["cli_path"])
        ok = (
            s["cli_rc"] == 0 and rows is not None and plain_list is not None
            and rows == list(enumerate(plain_list))
        )
        orc.record(f"{tag} cli sweep file", ok)


# ---------------------------------------------------------------- prime-range


def prime_range_pass(inp: dict, rec: Recorder, tmpdir: Path) -> Pass:
    """Every verify suite over 5..pmax, with the pool size set by run.py."""
    lat: list[float] = []
    results = {}
    t0 = perf_counter()
    with rec.block("pass"):
        for suite in SUITES:
            results[suite], dt = rec.call(
                "verify.run_suite", P.run_suite, suite, inp["pmin"], inp["pmax"], suite=suite)
            lat.append(dt)
    wall = perf_counter() - t0
    # the identities suite compares the family with phi * a_p at p - 3
    # lambdas per prime; the rate is over the whole pass, because that
    # one numpy-bound suite call alone swings by 20 % between runs
    values = sum(p - 3 for p in inp["primes"])
    return Pass(wall, lat, values, wall, {"results": results})


def prime_range_probe(inp: dict, rec: Recorder) -> None:
    """Traced runs only: the per-prime set-up the suites do internally,
    timed from outside (a context and an n = 3 Gamma_p table per prime)."""
    with rec.block("probe"):
        for p in inp["primes"]:
            ctx, _ = rec.call("field.make_prime_ctx", P.make_prime_ctx, p, p=p)
            rec.call("padic.build_gamma_table", P.build_gamma_table, ctx, p=p)


def prime_range_check(inp: dict, run: Pass, orc: Oracles) -> None:
    for suite, res in run.data["results"].items():
        if isinstance(res, CallFailed) or not res:
            # a suite that raised or checked nothing is a failure
            orc.record(f"suite {suite} returned no checks", False)
            continue
        for r in res:
            orc.record(f"{suite}/{r.name}: {r.detail}", r.ok and r.suite == suite)


# ---------------------------------------------------------------- point-eval


def _query(ctx, table, family: str, lam: int) -> int:
    return P.lift_signed(P.eval_family(ctx, table, family, lam))


def point_eval_pass(inp: dict, rec: Recorder, tmpdir: Path) -> Pass:
    """A stream of scalar queries, one at a time, one context per prime."""
    lat: list[float] = []
    tables: dict[int, tuple] = {}
    values = []
    t0 = perf_counter()
    with rec.block("pass"):
        for p, fam, lam in inp["queries"]:
            first = p not in tables
            if first:
                ctx, _ = rec.call("field.make_prime_ctx", P.make_prime_ctx, p, p=p)
                table, _ = rec.call("padic.build_gamma_table", P.build_gamma_table, ctx, p=p)
                tables[p] = (ctx, table)
            ctx, table = tables[p]
            v, dt = rec.call("hypergeo.eval_family", _query, ctx, table, fam, lam, p=p, first=first)
            values.append(v)
            lat.append(dt)
    wall = perf_counter() - t0
    return Pass(wall, lat, len(values), sum(lat), {"values": values, "hypergeo_values": len(values)})


def point_eval_check(inp: dict, run: Pass, orc: Oracles) -> None:
    by_prime: dict[int, list[int]] = {}
    for (p, fam, lam), v in zip(inp["queries"], run.data["values"]):
        ok = isinstance(v, int) and v == twist(p) * orc.ap(p, lam)
        orc.record(f"p={p} {fam}({lam}) = {v!r}", ok)
        if isinstance(v, int):
            by_prime.setdefault(p, []).append(v)
    for p, vs in by_prime.items():
        orc.margin(p, vs)


def first_query_excess(spans) -> float:
    """hypergeo.coeff_s: per prime, first query minus the median of the
    later ones (the one-off coefficient vector), summed over primes."""
    first: dict[int, float] = {}
    later: dict[int, list[float]] = {}
    for s in spans:
        if s.name == "hypergeo.eval_family":
            p = s.attrs["p"]
            if s.attrs["first"]:
                first[p] = s.duration
            else:
                later.setdefault(p, []).append(s.duration)
    return sum(t - statistics.median(later[p]) for p, t in first.items() if later.get(p))


WORKLOADS = {
    "anchor-session": (anchor_pass, anchor_check),
    "prime-range": (prime_range_pass, prime_range_check),
    "point-eval": (point_eval_pass, point_eval_check),
}
