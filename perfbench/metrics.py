"""Names, units and meaning of every metric the benchmark reports.

BENCHMARK.json lists the same names and units; smoke.py checks that the
two agree.  Every workload reports every metric: where a metric's
natural subject is absent from a workload, its definition below says
what it measures there instead (end to end) or reads 0 (per layer,
a module the workload never calls from outside).
"""

from __future__ import annotations

# name, unit, better, bound, definition
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "import of padichg plus input generation in a fresh interpreter; median of 7 set-ups after a warm-up"),
    ("wall_s", "s", "lower", 0.24,
     "wall time of one pass of the workload, oracle checks excluded; median over passes"),
    ("lambdas_per_s", "1/s", "higher", 0.24,
     "exact family values per second of the calls that deliver them: sweep values / "
     "family_sweep time (anchor-session), queries / eval time (point-eval), "
     "lambdas the identities suite checks (p - 3 per prime) / pass wall time (prime-range); "
     "median over passes"),
    ("evals_per_s", "1/s", "higher", 0.24,
     "client requests completed per second of pass wall time; a request is a query "
     "(point-eval), one prime's whole session (anchor-session), or one run_suite call "
     "(prime-range); median over passes"),
    ("eval_ms.p50", "ms", "lower", 0.24,
     "median latency of one client request, over every request of every pass"),
    ("eval_ms.p99", "ms", "lower", 0.24,
     "99th-percentile latency of one client request, over every request of every pass"),
    ("peak_rss_mb", "MB", "lower", 0.15,
     "peak resident set size of the benchmark process"),
)

# name, unit, better, the end-to-end metric and workload it should move
PER_LAYER = (
    ("field.ctx_s", "s", "lower", "wall_s on prime-range (traced runs time the suites' "
     "per-prime contexts in a probe after the pass)"),
    ("field.ap_sweep_s", "s", "lower", "lambdas_per_s on anchor-session"),
    ("padic.gamma_table_s", "s", "lower", "wall_s and evals_per_s on point-eval"),
    ("hypergeo.coeff_s", "s", "lower", "evals_per_s on point-eval"),
    ("hypergeo.eval_ms", "ms", "lower", "eval_ms.p50 and eval_ms.p99 on point-eval"),
    ("hypergeo.sweep_s", "s", "lower", "lambdas_per_s on anchor-session"),
    ("hypergeo.tilde_sweep_s", "s", "lower", "lambdas_per_s on anchor-session"),
    ("hypergeo.values", "count", "higher", "none (work done: values produced)"),
    ("hypergeo.hasse_margin_min", "int", "higher", "none (health: floor(2 sqrt p) - |v|)"),
    ("stats.moments_s", "s", "lower", "wall_s on anchor-session"),
    ("stats.distribution_s", "s", "lower", "wall_s on anchor-session"),
    ("hecke.trace_s", "s", "lower", "wall_s on anchor-session"),
    ("verify.identities_s", "s", "lower", "wall_s on prime-range (hypergeo, field)"),
    ("verify.gamma_s", "s", "lower", "wall_s on prime-range (padic)"),
    ("verify.gauss_s", "s", "lower", "wall_s on prime-range (field)"),
    ("verify.moments_s", "s", "lower", "wall_s on prime-range (stats)"),
    ("verify.traces_s", "s", "lower", "wall_s on prime-range (hecke)"),
    ("verify.checks", "count", "higher", "none (work done: CheckResults returned)"),
    ("cli.sweep_s", "s", "lower", "wall_s on anchor-session"),
    ("cli.format_s", "s", "lower", "wall_s on anchor-session (parse, format, write)"),
    ("trace.overhead_s", "s", "lower", "none (traced minus untraced pass wall_s)"),
)

LAYERS = ("field", "padic", "hypergeo", "stats", "hecke", "verify", "cli")
