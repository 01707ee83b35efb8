#!/usr/bin/env python3
"""The padichg benchmark: one workload, timed, checked and reported.

    python3 perfbench/run.py --workload anchor-session --seed 1 --seconds 30 --trace 0

Run from the repository root (it imports padichg from ./src).  The run
repeats passes of the workload for about --seconds, checks every output
against an oracle after each pass, prints a table of metrics with their
units, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics; --trace 1 alternates traced and untraced passes and
reports the per-layer metrics, the per-layer self times and the tracing
overhead.  --smoke shrinks the inputs to primes in the hundreds.

Spans, the run record and the CLI's temporary files go under .perfbench/
in the repository root.  Workloads, metrics and their meaning are in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import uuid
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# set-ups measured per run, after one unmeasured set-up that warms the
# page cache and writes the bytecode caches
SETUPS = 7
VERIFY_THREADS = "1"

_SETUP_PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
t0 = time.perf_counter()
import padichg, padichg.cli
import inputs
inputs.generate({workload!r}, {seed!r}, {smoke!r})
print(time.perf_counter() - t0)
"""


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs (primes in the hundreds)")
    return ap.parse_args(argv)


def _setup_seconds(workload: str, seed: int, smoke: bool, env: dict) -> list[float]:
    """Import plus input generation, each in a fresh interpreter."""
    code = _SETUP_PROBE.format(src=str(SRC), bench=str(BENCH), workload=workload, seed=seed, smoke=smoke)
    times = []
    for _ in range(SETUPS + 1):
        res = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        if res.returncode != 0:
            sys.exit(f"perfbench: set-up failed:\n{res.stderr.strip()}")
        times.append(float(res.stdout.split()[-1]))
    return times[1:]


def _host_steal_s() -> float | None:
    """CPU time the hypervisor gave to other guests so far, summed over
    this machine's CPUs (Linux /proc/stat); None where unavailable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _measure(workload, inp, seconds, traced, run_id, tmpdir):
    """Repeat passes while the next one, if it takes as long as the last,
    would end within half a pass of `seconds`; so a run measures about
    `seconds` on average.

    At least one pass; a traced run makes at least two, alternating
    traced and untraced, so that it can report the tracing overhead.
    """
    from tracing import Recorder
    from workloads import WORKLOADS, Oracles, prime_range_probe

    pass_fn, check_fn = WORKLOADS[workload]
    orc = Oracles()
    passes, steal = [], []
    start = perf_counter()
    while True:
        rec = Recorder(traced and len(passes) % 2 == 0, run_id)
        steal0 = _host_steal_s()
        run = pass_fn(inp, rec, tmpdir)
        steal1 = _host_steal_s()
        steal.append(None if steal0 is None or steal1 is None else round(steal1 - steal0, 2))
        if rec.traced and workload == "prime-range":
            prime_range_probe(inp, rec)
        check_fn(inp, run, orc)
        passes.append((run, rec))
        if len(passes) < (2 if traced else 1):
            continue
        if perf_counter() - start + run.wall / 2 > seconds:
            break
    return passes, orc, steal


def _e2e_metrics(passes, setup_s: float) -> tuple[dict, dict]:
    runs = [run for run, _ in passes]
    lat_ms = [1000.0 * t for run in runs for t in run.latencies]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(r.wall for r in runs),
        "lambdas_per_s": statistics.median(r.values / r.value_seconds for r in runs),
        "evals_per_s": statistics.median(len(r.latencies) / r.wall for r in runs),
        "eval_ms.p50": statistics.median(lat_ms),
        "eval_ms.p99": statistics.quantiles(lat_ms, n=100, method="inclusive")[98],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {SETUPS} fresh interpreters",
        "wall_s": f"median of {len(runs)} passes",
        "lambdas_per_s": f"{runs[0].values} values per pass",
        "evals_per_s": f"{len(runs[0].latencies)} requests per pass",
        "eval_ms.p50": f"{len(lat_ms)} samples",
        "eval_ms.p99": f"{len(lat_ms)} samples, {len(lat_ms) // 100} beyond",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return metrics, notes


def _layer_metrics(spans, run, orc) -> dict:
    from tracing import self_times
    from workloads import SUITES, first_query_excess

    st = self_times(spans)

    def total(name, **match):
        return sum(
            t for s, t in zip(spans, st)
            if s.name == name and all(s.attrs.get(k) == v for k, v in match.items())
        )

    later = [s.duration for s in spans if s.name == "hypergeo.eval_family" and not s.attrs["first"]]
    cli_primes = {s.attrs["p"] for s in spans if s.name == "cli.main"}
    results = run.data.get("results", {})
    m = {
        "field.ctx_s": total("field.make_prime_ctx"),
        "field.ap_sweep_s": total("field.family_sweep"),
        "padic.gamma_table_s": total("padic.build_gamma_table"),
        "hypergeo.coeff_s": first_query_excess(spans),
        "hypergeo.eval_ms": 1000.0 * statistics.median(later) if later else 0.0,
        "hypergeo.sweep_s": total("hypergeo.family_sweep", kind="plain"),
        "hypergeo.tilde_sweep_s": total("hypergeo.family_sweep", kind="tilde"),
        "hypergeo.values": run.data.get("hypergeo_values", 0),
        "hypergeo.hasse_margin_min": orc.hasse_margin_min or 0,
        "stats.moments_s": total("stats.moment_sum"),
        "stats.distribution_s": total("stats.distribution_report"),
        "hecke.trace_s": total("hecke.trace_level4") + total("hecke.trace_level8"),
        "verify.checks": sum(len(r) for r in results.values() if isinstance(r, list)),
        "cli.sweep_s": total("cli.main"),
        "cli.format_s": sum(
            total("cli.main", p=p) - total("field.make_prime_ctx", p=p)
            - total("hypergeo.family_sweep", p=p, kind="plain")
            for p in cli_primes
        ),
    }
    for suite in SUITES:
        m[f"verify.{suite}_s"] = total("verify.run_suite", suite=suite)
    return m


def _report_e2e(passes, setup_s: float) -> tuple[dict, dict]:
    from metrics import END_TO_END

    metrics, notes = _e2e_metrics(passes, setup_s)
    print(f"{'metric':<16} {'value':>14} {'unit':<6} note")
    for name, unit, *_ in END_TO_END:
        print(f"{name:<16} {_fmt(metrics[name]):>14} {unit:<6} {notes[name]}")
    return metrics, {name: unit for name, unit, *_ in END_TO_END}


def _report_layers(passes, orc, spans_path: Path) -> tuple[dict, dict]:
    """Per-layer metrics and self times over the traced passes; the
    overhead compares them with the untraced passes of the same run."""
    from metrics import LAYERS, PER_LAYER
    from tracing import layer_self_time, span_records

    traced = [(run, rec) for run, rec in passes if rec.traced]
    wall = statistics.median(run.wall for run, _ in traced)
    overhead = wall - statistics.median(run.wall for run, rec in passes if not rec.traced)
    per_pass = [_layer_metrics(rec.spans, run, orc) for run, rec in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_s"] = overhead
    print(f"{'metric':<26} {'value':>12} {'unit':<6} moves")
    for name, unit, _, moves in PER_LAYER:
        print(f"{name:<26} {_fmt(metrics[name]):>12} {unit:<6} {moves}")
    self_t = [layer_self_time(rec.spans) for _, rec in traced]
    print(f"self time per traced pass (median of {len(traced)}; pass wall_s {wall:.4g}; "
          f"tracing overhead {overhead:+.4g} s):")
    for layer in LAYERS + ("client",):
        t = statistics.median(s.get(layer, 0.0) for s in self_t)
        print(f"  {layer:<10} {t:>10.4f} s  {100 * t / wall:5.1f}%")
    spans_path.write_text(json.dumps({
        "run_id": traced[0][1].run_id,
        "passes": [span_records(rec.spans) for _, rec in traced],
    }))
    return metrics, {name: unit for name, unit, *_ in PER_LAYER}


def _input_summary(workload: str, inp: dict) -> dict:
    if workload == "point-eval":
        stream = json.dumps(inp["queries"]).encode()
        return {
            "primes": inp["primes"],
            "queries": len(inp["queries"]),
            "queries_per_prime": dict(sorted(Counter(p for p, _, _ in inp["queries"]).items())),
            "query_stream_sha256": hashlib.sha256(stream).hexdigest(),
        }
    if workload == "prime-range":
        return {"pmin": inp["pmin"], "pmax": inp["pmax"], "primes": len(inp["primes"])}
    return {"primes": inp["primes"], "ap_sample": {str(k): v for k, v in inp["ap_sample"].items()}}


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "padichg" / "__init__.py").is_file():
        print(f"perfbench: no padichg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import inputs

    if args.workload not in inputs.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {inputs.WORKLOADS}",
              file=sys.stderr)
        return 2
    # One verify worker, the same on every machine.  With one worker per
    # CPU, prime-range keeps every vCPU busy, and on an oversubscribed VM
    # host its wall time followed the CPU time taken by other guests.
    os.environ["PADICHG_THREADS"] = VERIFY_THREADS
    setup_times = _setup_seconds(args.workload, args.seed, args.smoke, dict(os.environ))

    import numpy as np
    import padichg
    inp = inputs.generate(args.workload, args.seed, args.smoke)
    run_id = uuid.uuid4().hex
    OUT.mkdir(exist_ok=True)
    tmpdir = OUT / f"tmp-{run_id}"
    tmpdir.mkdir()
    try:
        passes, orc, steal = _measure(args.workload, inp, args.seconds, bool(args.trace), run_id, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "run_id": run_id,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "padichg": padichg.__version__,
        "verify_threads": int(VERIFY_THREADS),
        "inputs": _input_summary(args.workload, inp),
        "passes": len(passes),
        "traced_passes": sum(1 for _, rec in passes if rec.traced),
        "setup_times_s": setup_times,
        "pass_walls_s": [run.wall for run, _ in passes],
        # time other guests took from this VM's CPUs during each pass: a
        # pass with a large share of it ran on a disturbed machine
        "pass_host_steal_s": steal,
        "attempted": orc.attempted,
        "failed": len(orc.failed),
        "failures": orc.failed[:20],
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)}")
    print("record: " + json.dumps({k: record[k] for k in (
        "nproc", "python", "numpy", "verify_threads", "seed", "inputs", "pass_walls_s",
        "pass_host_steal_s")}, sort_keys=True)[:2000])
    if args.trace:
        metrics, units = _report_layers(passes, orc, OUT / f"spans-{tag}.json")
        record["spans"] = f".perfbench/spans-{tag}.json"
    else:
        metrics, units = _report_e2e(passes, statistics.median(setup_times))
    failed = len(orc.failed)
    ratio = failed / orc.attempted if orc.attempted else 1.0
    print(f"failed_ratio {failed}/{orc.attempted} = {ratio:.6g} (ratio)")
    for label in orc.failed[:10]:
        print(f"  FAILED {label}")
    record["metrics"] = metrics
    (OUT / f"record-{tag}.json").write_text(json.dumps(record, indent=1, default=str))
    result = {
        "correct": orc.attempted > 0 and failed == 0,
        "attempted": orc.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
