#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny primes (p in the hundreds).

    python3 perfbench/smoke.py

Run from the repository root.  For every workload it runs
perfbench/run.py --smoke once untraced and once traced, and checks that:

- the run exits 0 and its last line is the result object, with exactly
  the keys correct, attempted, failed and metrics;
- every metric BENCHMARK.json names (end-to-end untraced, per-layer
  traced) is reported with its unit, both in that object and in the
  printed table;
- nothing failed its oracle: failed_ratio is 0 and correct is true;
- both runs of one seed generated the same inputs.

It also checks that BENCHMARK.json agrees with perfbench/metrics.py, and
that the benchmark exits non-zero, printing no result, in a directory
that holds only BENCHMARK.json and perfbench/.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from inputs import WORKLOADS  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

SEED = 7
problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)
        print(f"FAIL {what}")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_manifest() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads match inputs.WORKLOADS")
    expect([(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
           == [row[:4] for row in END_TO_END], "BENCHMARK.json end_to_end matches metrics.py")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == [row[:3] for row in PER_LAYER], "BENCHMARK.json per_layer matches metrics.py")


def check_run(workload: str, trace: int) -> dict | None:
    tag = f"{workload} --trace {trace}"
    res = run(ROOT, workload, trace)
    expect(res.returncode == 0, f"{tag}: exit code {res.returncode}\n{res.stderr[-2000:]}")
    lines = res.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        expect(False, f"{tag}: last line is not JSON")
        return None
    expect(set(out) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: result keys")
    expect(out.get("correct") is True, f"{tag}: correct is {out.get('correct')}")
    expect(out.get("failed") == 0 and out.get("attempted", 0) >= 1,
           f"{tag}: failed {out.get('failed')} of {out.get('attempted')}")
    expect(any(ln.startswith("failed_ratio 0/") for ln in lines), f"{tag}: failed_ratio is 0")
    want = END_TO_END if trace == 0 else PER_LAYER
    metrics = out.get("metrics", {})
    expect(list(metrics) == [row[0] for row in want], f"{tag}: metric names")
    for name, unit, *_ in want:
        m = metrics.get(name, {})
        expect(m.get("unit") == unit and isinstance(m.get("value"), (int, float)),
               f"{tag}: {name} reported in {unit}")
        expect(any(ln.split()[:1] == [name] and f" {unit} " in f"{ln} " for ln in lines[:-1]),
               f"{tag}: {name} printed with its unit")
    suffix = f"{workload}-seed{SEED}-trace{trace}-smoke"
    return json.loads((ROOT / ".perfbench" / f"record-{suffix}.json").read_text())


def check_without_sources() -> None:
    """Only BENCHMARK.json and perfbench/: no result, non-zero exit."""
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        res = run(bare, WORKLOADS[0], 0)
        expect(res.returncode != 0, "bare checkout: exits non-zero")
        expect('"metrics"' not in res.stdout, "bare checkout: prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_manifest()
    for workload in WORKLOADS:
        records = [check_run(workload, trace) for trace in (0, 1)]
        if all(records):
            expect(records[0]["inputs"] == records[1]["inputs"], f"{workload}: same seed, same inputs")
        print(f"{workload}: checked")
    check_without_sources()
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
