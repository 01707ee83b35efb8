"""Command-line front end.

Subcommands:
    eval          one family value at one lambda (exact integer)
    sweep         all lambda values for one prime and family
    moments       power-moment sums m = 1 .. m-max
    distribution  histogram of normalized values plus K-S distance
    trace         Hecke traces for one prime or a prime range
    verify        self-verification suites, PASS/FAIL lines

Output is CSV (default) or JSON; reals print with 12 decimal digits,
round-half-even, so runs diff cleanly.  Exit codes: 0 success, 1 verify
failures, 2 usage or domain errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import PadicHGError
from .field import make_prime_ctx
from .hecke import trace_level4, trace_level8
from .hypergeo import (
    EVAL_FAMILIES,
    PLAIN_FAMILIES,
    SWEEP_FAMILIES,
    eval_family,
    lift_signed,
    require_integral,
)
from .padic import build_gamma_table
from .stats import distribution_report, family_values, moment_sum
from .verify import SUITES, primes_between, run_suite


def _fmt(x: float) -> str:
    return f"{x:.12f}"


def _rounded(x: float) -> float:
    return float(_fmt(x))


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_rows(
    args: argparse.Namespace,
    header: list[str],
    rows: list[list],
    trailer: str | None = None,
) -> None:
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        _write(json.dumps(payload, indent=2) + "\n", args.output)
        return
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(c) for c in row))
    if trailer is not None:
        lines.append(trailer)
    _write("\n".join(lines) + "\n", args.output)


def cmd_eval(args: argparse.Namespace) -> int:
    ctx = make_prime_ctx(args.prime)
    require_integral(args.function, ctx.p)
    table = build_gamma_table(ctx)
    value = lift_signed(eval_family(ctx, table, args.function, args.lam))
    normalized = value / math.sqrt(ctx.p)
    if args.format == "json":
        payload = {
            "p": ctx.p,
            "function": args.function,
            "lambda": args.lam % ctx.p,
            "value": value,
            "normalized": _rounded(normalized),
        }
        _write(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        _write(f"{value}\nnormalized={_fmt(normalized)}\n", args.output)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    ctx = make_prime_ctx(args.prime)
    values = family_values(ctx, args.function)
    start = ctx.p - len(values)
    rs = math.sqrt(ctx.p)
    # format each value in the sweep's range once
    vs = range(values.min(), values.max() + 1)
    rows = enumerate(values.tolist(), start)
    if args.format == "json":
        cell = {
            v: f'"value": {v},\n    "normalized": {json.dumps(_rounded(v / rs))}'
            for v in vs
        }
        body = ",\n".join(
            f'  {{\n    "lambda": {lam},\n    {cell[v]}\n  }}' for lam, v in rows
        )
        text = f"[\n{body}\n]\n"
    else:
        cell = {v: f"{v},{_fmt(v / rs)}" for v in vs}
        body = "".join(f"{lam},{cell[v]}\n" for lam, v in rows)
        text = f"lambda,value,normalized\n{body}"
    _write(text, args.output)
    return 0


def cmd_moments(args: argparse.Namespace) -> int:
    if args.m_max < 1:
        raise PadicHGError(f"--m-max must be >= 1; got {args.m_max}")
    ctx = make_prime_ctx(args.prime)
    rows = []
    for m in range(1, args.m_max + 1):
        rep = moment_sum(ctx, args.function, m)
        rows.append([m, rep.sum, _fmt(rep.normalized), rep.expected])
    if args.format == "json":
        rows = [[m, s, float(norm), exp] for m, s, norm, exp in rows]
    _emit_rows(args, ["m", "sum", "normalized", "expected"], rows)
    return 0


def cmd_distribution(args: argparse.Namespace) -> int:
    ctx = make_prime_ctx(args.prime)
    rep = distribution_report(ctx, args.function, args.bins)
    header = [
        "bin_left",
        "bin_right",
        "count",
        "empirical_density",
        "semicircle_density",
    ]
    if args.format == "json":
        payload = {
            "p": ctx.p,
            "function": args.function,
            "ks": _rounded(rep.ks_distance),
            "rows": [
                {
                    "bin_left": _rounded(left),
                    "bin_right": _rounded(right),
                    "count": count,
                    "empirical_density": _rounded(emp),
                    "semicircle_density": _rounded(semi),
                }
                for left, right, count, emp, semi in rep.rows
            ],
        }
        _write(json.dumps(payload, indent=2) + "\n", args.output)
        return 0
    rows = [
        [_fmt(left), _fmt(right), count, _fmt(emp), _fmt(semi)]
        for left, right, count, emp, semi in rep.rows
    ]
    _emit_rows(args, header, rows, trailer=f"# ks={_fmt(rep.ks_distance)}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    if args.prime is not None:
        if args.pmin is not None or args.pmax is not None:
            raise PadicHGError("trace takes --prime or --pmin/--pmax, not both")
        primes = [args.prime]
    elif args.pmin is not None and args.pmax is not None:
        primes = primes_between(max(args.pmin, 5), args.pmax)
        if not primes:
            raise PadicHGError(f"no prime >= 5 in [{args.pmin}, {args.pmax}]")
    else:
        raise PadicHGError("trace needs --prime, or both --pmin and --pmax")
    rows = []
    for p in primes:
        ctx = make_prime_ctx(p)
        fn = trace_level4 if args.level == 4 else trace_level8
        rows.append([p, args.weight, args.level, fn(ctx, args.weight)])
    _emit_rows(args, ["p", "k", "level", "trace"], rows)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.suite, args.pmin, args.pmax)
    if args.format == "json":
        payload = [
            {"suite": r.suite, "name": r.name, "ok": r.ok, "detail": r.detail}
            for r in results
        ]
        _write(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        lines = [
            f"{'PASS' if r.ok else 'FAIL'} {r.suite}/{r.name}: {r.detail}"
            for r in results
        ]
        failures = sum(1 for r in results if not r.ok)
        lines.append(
            f"# {len(results) - failures}/{len(results)} checks passed "
            f"(primes {args.pmin}..{args.pmax}, suite {args.suite})"
        )
        _write("\n".join(lines) + "\n", args.output)
    # a run that checked nothing has verified nothing
    return 0 if results and all(r.ok for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="padichg",
        description="p-adic hypergeometric evaluators, Hecke traces, and "
        "Sato-Tate statistics for the Legendre family",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--format", choices=("csv", "json"), default="csv", help="output format"
        )
        sp.add_argument("--output", default=None, help="output path (default stdout)")

    sp = sub.add_parser("eval", help="one family value at one lambda")
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--function", required=True, choices=EVAL_FAMILIES)
    sp.add_argument("--lambda", dest="lam", type=int, required=True)
    common(sp)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("sweep", help="all lambda values for one prime")
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--function", required=True, choices=SWEEP_FAMILIES)
    common(sp)
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("moments", help="power-moment sums m = 1 .. m-max")
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--function", required=True, choices=(*PLAIN_FAMILIES, "ap"))
    sp.add_argument("--m-max", dest="m_max", type=int, default=4)
    common(sp)
    sp.set_defaults(fn=cmd_moments)

    sp = sub.add_parser("distribution", help="histogram and K-S distance")
    sp.add_argument("--prime", type=int, required=True)
    sp.add_argument("--function", required=True, choices=(*PLAIN_FAMILIES, "ap"))
    sp.add_argument("--bins", type=int, default=40)
    common(sp)
    sp.set_defaults(fn=cmd_distribution)

    sp = sub.add_parser("trace", help="Hecke traces at level 4 or 8")
    sp.add_argument("--prime", type=int, default=None)
    sp.add_argument("--pmin", type=int, default=None)
    sp.add_argument("--pmax", type=int, default=None)
    sp.add_argument("--weight", type=int, required=True)
    sp.add_argument("--level", type=int, required=True, choices=(4, 8))
    common(sp)
    sp.set_defaults(fn=cmd_trace)

    sp = sub.add_parser("verify", help="self-verification suites")
    sp.add_argument("--pmin", type=int, default=5)
    sp.add_argument("--pmax", type=int, default=199)
    sp.add_argument("--suite", default="all", choices=SUITES + ("all",))
    common(sp)
    sp.set_defaults(fn=cmd_verify)
    return top


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (PadicHGError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
