"""Workloads: seeded op sequences for the fusionkit CLI and their output checks.

An op is one ``fusionkit.cli.main(argv)`` call.  Every workload is a stream
of *cycles*.  A run of ``seconds`` executes exactly ``cycle_count(seconds)``
whole cycles, a number fixed by the workload's ``cycle_s`` (the time of one
cycle, measured once) and not by the clock during the run.  So every run of
a workload, whatever the program's speed, executes the same multiset of ops,
and its latency quantiles and per-layer totals compare from run to run.

The checks here do not call fusionkit: they recompute what they need
(basis sizes, quantum dimensions, simple-current orbit counts) from the
definitions, so they stay independent of the three routes they check.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from math import comb, gcd


def box_partitions(rows: int, cols: int) -> list:
    """Partitions inside the rows x cols box, in graded lexicographic order."""
    out = []

    def rec(prefix, limit):
        out.append(tuple(prefix))
        if len(prefix) < rows:
            for part in range(1, limit + 1):
                rec(prefix + [part], part)

    rec([], cols)
    return sorted(out, key=lambda p: (sum(p), p))


def fmt_partition(p) -> str:
    return "[" + ",".join(map(str, p)) + "]"


def quantum_dimension(lam, N: int, k: int) -> float:
    """prod_{i<j} sin(pi(l_i - l_j + j - i)/(N+k)) / sin(pi(j - i)/(N+k))."""
    lam = tuple(lam) + (0,) * (N - len(lam))
    h = N + k
    d = 1.0
    for i in range(N):
        for j in range(i + 1, N):
            d *= math.sin(math.pi * (lam[i] - lam[j] + j - i) / h)
            d /= math.sin(math.pi * (j - i) / h)
    return d


def simple_current_orbits(N: int, k: int) -> int:
    """Burnside count of Z_N orbits on level-k weights (rotations of the
    affine Dynkin labels, i.e. compositions of k into N parts)."""
    fixed = 0
    for t in range(N):
        g = gcd(t, N)  # rotation by t has g cycles of length N // g
        if k % (N // g) == 0:
            fixed += comb(k // (N // g) + g - 1, g - 1)
    return fixed // N


@dataclass
class Op:
    argv: list
    kind: str  # "fuse" | "table" | "duality"
    ctx: tuple
    operands: tuple = ()  # (p, q) for fuse ops
    key: str = field(init=False)

    def __post_init__(self):
        self.key = "\x00".join(self.argv)


class Checker:
    """Per-run output checks; returns an error message or None."""

    def __init__(self):
        self._qdim: dict = {}
        self._table_json: dict = {}

    def qdim(self, p, ctx) -> float:
        key = (p, ctx)
        if key not in self._qdim:
            self._qdim[key] = quantum_dimension(p, *ctx)
        return self._qdim[key]

    def check(self, op: Op, status, out: str):
        """`status` is cli.main's return value, or the text of the exception
        that escaped it."""
        if isinstance(status, str):
            return status
        if status != 0:
            return f"exit status {status}"
        return getattr(self, "_check_" + op.kind)(op, out)

    def _check_fuse(self, op, out):
        doc = json.loads(out)
        if doc.get("agree") is not True:
            return "methods disagree"
        p, q = op.operands
        lhs = sum(t["mult"] * self.qdim(tuple(t["label"]), op.ctx) for t in doc["terms"])
        rhs = self.qdim(p, op.ctx) * self.qdim(q, op.ctx)
        if abs(lhs - rhs) > 1e-9 * max(1.0, abs(rhs)):
            return f"quantum dimensions: sum N_pq^r d_r = {lhs!r} != d_p d_q = {rhs!r}"
        return None

    def _check_table(self, op, out):
        first, *axioms = out.splitlines()
        doc = json.loads(first)
        N, k = op.ctx
        if (doc["N"], doc["k"]) != (N, k):
            return f"table is for N={doc['N']}, k={doc['k']}"
        if len(doc["basis"]) != comb(N - 1 + k, k):
            return f"basis size {len(doc['basis'])} != C({N - 1 + k}, {k})"
        if not axioms or not all(line.startswith("PASS ") for line in axioms):
            return "axiom check: " + "; ".join(axioms)
        miss = self._table_json.setdefault(op.ctx, first)
        if miss != first:
            return "cache hit differs from the table the miss computed"
        return None

    def _check_duality(self, op, out):
        doc = json.loads(out)
        if doc.get("isomorphic") is not True:
            return f"not isomorphic: {doc.get('witness')}"
        expected = simple_current_orbits(*op.ctx)
        if doc.get("classes") != expected:
            return f"classes {doc.get('classes')} != Burnside count {expected}"
        return None


# -- workloads -------------------------------------------------------------


class Workload:
    """What every workload has: a name, the why sentence, its contexts, the
    tail percentile it reports, and ``cycle_s``, the seconds one untraced
    cycle took on a 2-vCPU Intel Xeon KVM guest (Python 3.11.7) when the
    benchmark was defined.  It only sets how many cycles a run holds."""

    def __init__(self, name, why, contexts, tail_pct, cycle_s):
        self.name, self.why = name, why
        self.contexts = contexts
        self.tail_pct = tail_pct
        self.cycle_s = cycle_s

    def cycle_count(self, seconds: float) -> int:
        return max(1, round(seconds / self.cycle_s))


class FuseWorkload(Workload):
    """``fuse --method all`` on distinct label pairs.

    Per context, two fixed permutations sigma, tau of the basis give cycle j
    the pairs (b[sigma(i)], b[tau(i + j mod n)]): each label appears once as
    lhs and once as rhs per cycle, and n cycles visit all n^2 ordered pairs
    once.  The pairs do not depend on the seed, which only orders the ops
    within each cycle.  At (10,2) a run holds three cycles, and the
    op-latency CDF is steep at its median (the 40th to 60th percentiles of
    all 3025 pairs span 34 to 130 ms), so per-seed pairs moved the median by
    about 20% from seed to seed.
    """

    kind = "fuse"

    def cycles(self, seed: int, cache_dir: str):
        design = random.Random(self.name)
        plans = []
        for N, k in self.contexts:
            base = box_partitions(N - 1, k)
            n = len(base)
            plans.append(((N, k), base, design.sample(range(n), n), design.sample(range(n), n)))
        rng = random.Random(seed)
        for j in itertools.count():
            ops = []
            for (N, k), base, sigma, tau in plans:
                n = len(base)
                for i in range(n):
                    p, q = base[sigma[i]], base[tau[(i + j) % n]]
                    argv = [
                        "fuse", "--N", str(N), "--k", str(k),
                        "--lhs", fmt_partition(p), "--rhs", fmt_partition(q),
                        "--method", "all", "--format", "json",
                    ]
                    ops.append(Op(argv, "fuse", (N, k), (p, q)))
            rng.shuffle(ops)
            yield ops


class MixWorkload(Workload):
    """One command over a weighted multiset of contexts; each cycle is a
    seeded shuffle of the multiset, so inputs repeat from cycle to cycle."""

    def __init__(self, name, why, kind, mix, tail_pct, cycle_s):
        super().__init__(name, why, [ctx for ctx, _ in mix], tail_pct, cycle_s)
        self.kind = kind
        self.mix = mix  # ((N, k), weight) pairs

    def argv(self, ctx, cache_dir):
        N, k = map(str, ctx)
        if self.kind == "table":
            return ["table", "--N", N, "--k", k, "--verify-axioms",
                    "--format", "json", "--cache-dir", cache_dir]
        return ["duality", "--N", N, "--k", k, "--format", "json"]

    def cycles(self, seed: int, cache_dir: str):
        rng = random.Random(seed)
        ops = [
            Op(self.argv(ctx, cache_dir), self.kind, ctx)
            for ctx, weight in self.mix
            for _ in range(weight)
        ]
        while True:
            rng.shuffle(ops)
            yield list(ops)


# The weights of the mix workloads put each reported quantile in the middle
# of one context's block of the sorted latencies (the contexts' costs differ
# by up to 20x, so a quantile on a block boundary would jump between runs).
WORKLOADS = {
    w.name: w
    for w in (
        FuseWorkload(
            "fuse-tall",
            "fuse --method all at (10,2), n=55: both determinant expansions "
            "reach L=9 rows, so the Jacobi-Trudi and fixed-product layers set "
            "the tail",
            [(10, 2)],
            tail_pct=90,
            cycle_s=7.0,
        ),
        FuseWorkload(
            "fuse-wide",
            "fuse --method all at (3,12), n=91 and (4,7), n=120: L <= 3, so "
            "Pieri steps, tableaux and CLI parse/render dominate; the bypass "
            "workload for determinant changes",
            [(3, 12), (4, 7)],
            tail_pct=99,
            cycle_s=1.8,
        ),
        MixWorkload(
            "table",
            "table --verify-axioms at n <= 21 with a fresh cache per run: "
            "the first op per context misses and stores, repeats load; the "
            "dense axiom check dominates",
            "table",
            (((3, 4), 2), ((5, 2), 1), ((2, 16), 4), ((4, 3), 1),
             ((3, 5), 1), ((6, 2), 1)),
            tail_pct=75,
            cycle_s=5.5,
        ),
        MixWorkload(
            "duality",
            "duality at six contexts: the well-definedness check multiplies "
            "every pair of class members, so inputs repeat heavily and "
            "memoisation would pay here and not on fuse-*",
            "duality",
            (((2, 5), 2), ((3, 4), 2), ((2, 6), 2), ((2, 7), 3),
             ((3, 5), 5), ((4, 4), 1)),
            tail_pct=75,
            cycle_s=5.5,
        ),
    )
}
