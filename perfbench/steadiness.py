"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py [--write]

Runs every workload in BENCHMARK.json at seeds 1 to 10 for its run_seconds.
For every workload and end-to-end metric this prints the median of the
per-seed values, the first and third quartiles (``statistics.quantiles``,
n=4) and the spread (Q3 - Q1) / median, next to the metric's bound from
BENCHMARK.json; at the end, the largest spread as a share of its bound.
``--write`` also makes one traced run per workload at the first seed and
records everything (environment, each workload's provenance from the first
seed's run, per-seed values, per-layer metrics and the tracing overhead) in
perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "commit": commit}


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    info = next(json.loads(line[4:]) for line in lines if line.startswith("run {"))
    return info, json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"environment": environment(), "run_seconds": seconds,
              "seeds": SEEDS, "workloads": {}}
    worst = (0.0, None)
    for name in [w["name"] for w in spec["workloads"]]:
        runs = [run_once(name, seed, seconds, 0) for seed in SEEDS]
        entry = {"provenance": runs[0][0], "metrics": {}}
        print(f"{name}: {[r[0]['ops'] for r in runs]} ops per seed")
        for metric, bound in bounds.items():
            values = [r[1]["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            worst = max(worst, (spread / bound, f"{name} {metric}"))
            entry["metrics"][metric] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                "unit": runs[0][1]["metrics"][metric]["unit"], "values": values,
            }
            print(f"  {metric:12s} median {med:12.6g}  Q1 {q1:12.6g}  Q3 {q3:12.6g}  "
                  f"spread {spread:7.4f}  bound {bound}")
        failed = sum(r[1]["failed"] for r in runs)
        print(f"  failed ops: {failed}")
        if args.write:
            entry["per_layer"] = {
                metric: m["value"]
                for metric, m in run_once(name, SEEDS[0], seconds, 1)[1]["metrics"].items()
            }
        report["workloads"][name] = entry
    print(f"largest spread as a share of its bound: {worst[0]:.3f} ({worst[1]})")
    if args.write:
        (HERE / "baseline.json").write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
