"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload build --seed 1 --seconds 25 --trace 0

Workloads: build, query, search (see perfbench/README.md). With --trace 0 the
result holds the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a traced run, and the spans are written to
perfbench/out/trace-<workload>-seed<seed>.json. A human-readable summary goes
to stderr. The program comes from this checkout's src/; without it the run
exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import shutil
import sys

from common import OUT, Tracer, require_package
from workloads import SAMPLES, WORKLOADS, Run, layer_metrics


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("build", "query", "search"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--detail", default=None,
                   help="also write every measurement, with sample counts, to this JSON file")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def end_to_end(w, run) -> dict:
    """The end-to-end metrics every workload reports (see BENCHMARK.json).

    Times are in seconds at the reference speed (see `common.Stopwatch`).
    Command and request times are means (total seconds / calls) over the
    run's fixed mix of inputs; set-up is a median of several set-ups.
    A workload that failed before measuring something reports it as +inf.
    """
    command, request, _span = SAMPLES[w]
    t, v = run.t, run.values
    return {
        "setup_s": (t.stat("setup"), "s"),
        "command_s": (t.mean(command) if t.count(command) else math.inf, "s"),
        "request_ms": (t.mean(request, 1e3) if t.count(request) else math.inf, "ms"),
        "db_bytes_per_label": (v.get("db_bytes_per_label", math.inf), "B"),
        "peak_rss_mb": (v.get("peak_rss_mb", math.inf), "MB"),
    }


def named(w, run) -> dict:
    """The workload's metrics under their own names, with sample counts.

    A value the workload never measured, because it failed first, is +inf.
    """
    t = run.t
    v = collections.defaultdict(lambda: math.inf, run.values)
    rows = {"setup_s": (t.stat("setup"), "s", t.count("setup"))}
    if w == "build":
        rows["build_s"] = (t.stat("build"), "s", t.count("build"))
        rows["db_mb"] = (v["db_mb"], "MB", 1)
    elif w == "query":
        rows["query_cli_s"] = (t.stat("cli"), "s", t.count("cli"))
        rows["query_p50_ms"] = (t.stat("lib", 0.5, 1e3), "ms", t.count("lib"))
        rows["query_p90_ms"] = (t.stat("lib", 0.9, 1e3), "ms", t.count("lib"))
        rows["fronts_per_s"] = (v["fronts_per_s"], "1/s", t.count("fronts"))
    else:
        rows["search_p50_ms"] = (t.stat("moa", 0.5, 1e3), "ms", t.count("moa"))
        rows["search_p90_ms"] = (t.stat("moa", 0.9, 1e3), "ms", t.count("moa"))
        rows["crosscheck_s"] = (t.stat("pass"), "s", t.count("pass"))
        rows["moastar_share"] = (v["moastar_share"], "ratio", t.count("pass"))
    rows["peak_rss_mb"] = (v["peak_rss_mb"], "MB", 1)
    tally = run.tally
    rows["error_rate"] = (tally.failed / tally.attempted, "ratio", tally.attempted)
    return rows


def main(argv=None) -> int:
    args = _args(argv)
    cp = require_package()
    import cellplan.cli

    work = OUT / f"tmp-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(cp=cp, cli=cellplan.cli, seed=args.seed, seconds=args.seconds, work=work,
              tracer=Tracer() if args.trace else None)
    try:
        WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rows = named(args.workload, run)
    if args.trace:
        metrics = {k: (v, None) for k, v in layer_metrics(run, args.workload).items()}
        run.tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = end_to_end(args.workload, run)
    for name, (value, unit, n) in rows.items():
        print(f"{args.workload:6} {name:16} {value:12.4f} {unit:5} n={n}", file=sys.stderr)
    for problem in run.tally.errors:
        print(f"FAILED: {problem}", file=sys.stderr)

    if args.detail:
        detail = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace,
            "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in rows.items()},
            "values": run.values,
            "samples": run.t.samples,
            "errors": run.tally.errors,
        }
        if args.trace:
            detail["per_layer"] = {k: v for k, (v, _u) in metrics.items()}
        with open(args.detail, "w", encoding="utf-8") as fh:
            json.dump(detail, fh, indent=1)
            fh.write("\n")

    # A value a failed run could not measure (+inf) is printed as null, so
    # the line stays valid JSON; `correct` is then false.
    result = {
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u or unit_of(k)}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


def unit_of(name: str) -> str:
    """Per-layer units follow the metric name's suffix."""
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"),
                         ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
