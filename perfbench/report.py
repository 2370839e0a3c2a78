"""Run every workload, timed and traced, and print all metrics by name.

    python3 perfbench/report.py --seed 1 [--out perfbench/history/BENCH_1.json]

Each workload runs in a fresh process (`perfbench/run.py`), once with
--trace 0 and once with --trace 1, one after the other, each for the
`run_seconds` of BENCHMARK.json. The report lists the workloads' own
metrics with units and sample counts, then the per-layer metrics side by
side, then each layer's self time inside the workload's command. With
--out it also writes the whole record as one JSON file, the format of the
perf history in perfbench/history/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib import metadata
from pathlib import Path

from common import OUT

HERE = Path(__file__).resolve().parent
WORKLOADS = ("build", "query", "search")
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def run_one(workload: str, seed: int, trace: int) -> dict:
    detail = OUT / f"detail-{workload}-seed{seed}-trace{trace}.json"
    OUT.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace), "--detail", str(detail)],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(detail.read_text(encoding="utf-8"))
    out["result"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def machine() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "machine": platform.machine(),
            "cpu_pinning": False, "cache_dropping": False}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=None, help="write the record to this JSON file")
    args = p.parse_args(argv)

    record = {"seed": args.seed, "seconds": SECONDS,
              "machine": machine(), "workloads": {}}
    for w in WORKLOADS:
        timed = run_one(w, args.seed, 0)
        traced = run_one(w, args.seed, 1)
        record["workloads"][w] = {
            "correct": timed["result"]["correct"] and traced["result"]["correct"],
            "attempted": timed["result"]["attempted"],
            "failed": timed["result"]["failed"],
            "metrics": timed["metrics"],
            "benchmark_metrics": timed["result"]["metrics"],
            "per_layer": traced["per_layer"],
            "self_s_by_layer": traced["values"]["self_s_by_layer"],
            "command_untraced_s": traced["values"]["command_untraced_s"],
        }

    print(f"{'workload':8} {'metric':16} {'value':>14} {'unit':6} samples")
    for w, rec in record["workloads"].items():
        for name, m in rec["metrics"].items():
            print(f"{w:8} {name:16} {m['value']:14.4f} {m['unit']:6} {m['samples']}")
    print()
    print(f"{'per-layer metric':30} " + " ".join(f"{w:>14}" for w in WORKLOADS))
    for name in record["workloads"]["build"]["per_layer"]:
        print(f"{name:30} " + " ".join(
            f"{record['workloads'][w]['per_layer'][name]:14.4f}" for w in WORKLOADS))
    print()
    print("self seconds per layer inside one traced command, their sum, and the untraced "
          "command (build: cellplan build; query: cellplan query; search: cellplan build)")
    for w in WORKLOADS:
        rec = record["workloads"][w]
        parts = ", ".join(f"{k} {v:.4f}" for k, v in rec["self_s_by_layer"].items())
        print(f"{w:8} {parts}; sum {sum(rec['self_s_by_layer'].values()):.4f}, "
              f"untraced {rec['command_untraced_s']:.4f}, "
              f"overhead {rec['per_layer']['trace.overhead_pct']:+.2f}%")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["correct"] for r in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
