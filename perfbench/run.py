"""Benchmark of the fusionkit command line, end to end and layer by layer.

    python3 perfbench/run.py --workload fuse-tall --seed 1 --seconds 20 --trace 0

Run from the root of a fusionkit checkout; the package is imported from
``src/``.  One op is one in-process ``fusionkit.cli.main(argv)`` call with
stdout captured; the load is a closed loop with one client and one thread.
The op sequence depends only on ``--seed`` (see workloads.py).  A run holds
a fixed number of whole cycles, as many as took ``--seconds`` when the
benchmark was defined, so a faster or slower program runs the same ops.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
cycles of half of ``--seconds`` untraced, then replays the same cycles with
every layer wrapped (layertrace.py) and reports the per-layer metrics and the
tracing overhead.  ``--workload all`` runs every workload in its own process.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; an op whose output
fails its check counts as failed and the run goes on.  Exit status 0 when
the result line was printed, 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from layertrace import Tracer
from workloads import WORKLOADS, Checker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / ".runs"  # cache directories and span files; removed or ignored

SETUP_STARTS = 21  # half before the measured loop, half after it
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); "
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import fusionkit.cli; fusionkit.cli.build_parser(); "
    "print(time.perf_counter() - t0)"
)
# Not timed: lets argparse and the first-call paths of every module warm up.
WARMUP_ARGV = ["fuse", "--N", "3", "--k", "2", "--lhs", "[1]", "--rhs", "[2,1]",
               "--method", "all", "--format", "json"]
MIN_TAIL_SAMPLES = 10


@dataclass
class Phase:
    """What one pass over the op sequence produced."""

    cycles: int = 0
    elapsed: float = 0.0
    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    repeats: int = 0
    L: Counter = field(default_factory=Counter)


def run_op(cli, argv):
    """One op: (seconds, exit status or exception text, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except Exception as exc:  # an escaping exception is a failed op
        status = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, status, out.getvalue()


def run_phase(cli, workload, seed, cache_dir, cycles, tracer=None):
    """The first `cycles` cycles of the workload's op sequence."""
    phase = Phase()
    checker = Checker()
    seen = set()
    start = time.perf_counter()
    for ops in workload.cycles(seed, cache_dir):
        for op in ops:
            if tracer is not None:
                tracer.op_id += 1
            dt, status, out = run_op(cli, op.argv)
            phase.latencies.append(dt)
            if op.key in seen:
                phase.repeats += 1
            seen.add(op.key)
            if op.operands:
                phase.L[min(len(op.operands[0]), len(op.operands[1]))] += 1
            try:
                error = checker.check(op, status, out)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                error = f"unreadable output: {exc!r}"
            if error:
                phase.failures.append((op.argv, error))
        phase.cycles += 1
        if phase.cycles == cycles:
            break
    phase.elapsed = time.perf_counter() - start
    return phase


def percentile(sorted_values, pct):
    """Linear interpolation between closest ranks (Python's 'inclusive')."""
    pos = pct / 100 * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def setup_times(n):
    """Seconds that each of `n` fresh interpreters took, as timed inside it,
    to import fusionkit.cli and build its parser; interpreter start-up is
    not included."""
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            check=True, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        )
        times.append(float(proc.stdout))
    return times


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def describe(workload, seed, phase):
    n = len(phase.latencies)
    info = {
        "workload": workload.name,
        "seed": seed,
        "why": workload.why,
        "contexts": [list(c) for c in workload.contexts],
        "basis_sizes": [math.comb(N - 1 + k, k) for N, k in workload.contexts],
        "ops": n,
        "cycles": phase.cycles,
        "repeat_share": phase.repeats / n,
        "tail_percentile": workload.tail_pct,
    }
    if phase.L:
        info["L_distribution"] = {str(L): phase.L[L] for L in sorted(phase.L)}
    return info


def end_to_end(workload, phase):
    lat = sorted(phase.latencies)
    n = len(lat)
    ok = n - len(phase.failures)
    beyond = n - 1 - math.floor(workload.tail_pct / 100 * (n - 1))
    if beyond < MIN_TAIL_SAMPLES:
        print(f"warning: only {beyond} samples beyond p{workload.tail_pct}")
    rows = [
        ("ops_per_s", ok / phase.elapsed, "1/s", f"{ok} ops in {phase.elapsed:.3f} s"),
        ("op_p50_ms", 1e3 * percentile(lat, 50), "ms", f"{n} samples"),
        ("op_tail_ms", 1e3 * percentile(lat, workload.tail_pct), "ms",
         f"p{workload.tail_pct}, {n} samples, {beyond} beyond"),
        ("error_rate", len(phase.failures) / n, "ratio", f"{len(phase.failures)} of {n} ops"),
    ]
    return rows


def print_rows(rows):
    for name, value, unit, note in rows:
        print(f"  {name:34s} {value:14.6g} {unit:6s} ({note})")


def run_workload(args):
    workload = WORKLOADS[args.workload]
    for var in ("FUSIONKIT_CACHE", "XDG_CACHE_HOME"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))
    import fusionkit
    from fusionkit import cli, duality, fusion, orbits, weyl

    if Path(fusionkit.__file__).resolve().parent != SRC / "fusionkit":
        sys.exit(f"error: imported fusionkit from {fusionkit.__file__}, not {SRC}")
    RUNS.mkdir(exist_ok=True)
    setup = []
    if not args.trace:
        setup_times(1)  # writes the bytecode caches; not timed
        setup += setup_times(SETUP_STARTS // 2)
    run_op(cli, WARMUP_ARGV)

    cache_dirs = []

    def fresh_cache():
        cache_dirs.append(tempfile.mkdtemp(prefix="cache-", dir=RUNS))
        return cache_dirs[-1]

    try:
        if not args.trace:
            cycles = workload.cycle_count(args.seconds)
            phase = run_phase(cli, workload, args.seed, fresh_cache(), cycles)
            phases = [phase]
            setup += setup_times(SETUP_STARTS - len(setup))
        else:
            cycles = workload.cycle_count(args.seconds / 2)
            plain = run_phase(cli, workload, args.seed, fresh_cache(), cycles)
            tracer = Tracer()
            tracer.install({"fusion": fusion, "orbits": orbits, "weyl": weyl,
                            "duality": duality, "cli": cli})
            try:
                phase = run_phase(cli, workload, args.seed, fresh_cache(), cycles,
                                  tracer=tracer)
            finally:
                tracer.uninstall()
            phases = [plain, phase]
    finally:
        for d in cache_dirs:
            shutil.rmtree(d, ignore_errors=True)

    print(f"workload {workload.name}: {workload.why}")
    print("run " + json.dumps(describe(workload, args.seed, phase)))
    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(len(p.failures) for p in phases)
    for argv, error in [f for p in phases for f in p.failures][:20]:
        print(f"FAILED {' '.join(argv)}: {error}")

    if not args.trace:
        rows = end_to_end(workload, phase) + [
            ("setup_s", statistics.median(setup), "s",
             f"median of {len(setup)} fresh interpreters"),
            ("peak_rss_mb", peak_rss_mb(), "MB", "peak RSS of this process"),
        ]
        print("end-to-end metrics:")
        print_rows(rows)
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit, _ in rows if name != "error_rate"}
    else:
        spans = RUNS / f"spans-{workload.name}-seed{args.seed}.tsv"
        tracer.write_spans(spans)
        layer = tracer.metrics()
        plain_rate = len(plain.latencies) / plain.elapsed
        traced_rate = len(phase.latencies) / phase.elapsed
        layer["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
        layer["trace.traced_ops_per_s"] = (traced_rate, "1/s")
        layer["trace.overhead_ratio"] = (plain_rate / traced_rate, "ratio")
        print(f"per-layer metrics ({len(phase.latencies)} ops, {len(tracer.start)} "
              f"spans written to {spans.relative_to(ROOT)}):")
        print_rows([(name, v, unit, "traced run") for name, (v, unit) in layer.items()])
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in layer.items()}

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in a fresh process, so peak_rss_mb is per workload."""
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        print(proc.stdout, end="")
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode == 0 else None
    print(json.dumps(results))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fusionkit" / "cli.py").is_file():
        print(f"error: no fusionkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
