"""Smoke self-test of the benchmark: every workload, briefly, both modes.

    python3 perfbench/selftest.py

Asserts that each run exits 0, that its result line names exactly the
metrics BENCHMARK.json declares for the mode (end_to_end untraced,
per_layer traced), and that no op failed its output check at seed 1.
Runs are one second long, which still executes one whole cycle of each
workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1
SECONDS = 1


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(SEED),
                 "--seconds", str(SECONDS), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit status {proc.returncode}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            names = set(result["metrics"])
            if names != expected[trace]:
                problems.append(f"{label}: missing {sorted(expected[trace] - names)}, "
                                f"unexpected {sorted(names - expected[trace])}")
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of "
                                f"{result['attempted']} ops failed")
            print(f"{label}: {result['attempted']} ops, {result['failed']} failed")
    for problem in problems:
        print("SELFTEST FAIL " + problem)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
