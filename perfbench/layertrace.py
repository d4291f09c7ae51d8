"""Per-layer spans for the traced run.

The tracer rebinds public functions as attributes of the fusionkit modules.
fusionkit code calls these functions through module globals (or, from the
CLI, as ``fusion.multiply`` etc.), so internal calls reach the wrappers too;
nothing under ``src/`` is edited.  Spans are kept in flat arrays in memory
and written out when the run ends.
"""

from __future__ import annotations

import time
from array import array

# (module, attribute) in install order: fusion.multiply is wrapped before
# duality.multiply, which is routed through it (see Tracer.install).
TRACED = (
    ("fusion", "multiply"),
    ("fusion", "pieri_h"),
    ("fusion", "full_table"),
    ("fusion", "verify_fusion_axioms"),
    ("orbits", "fixed_product"),
    ("orbits", "special_orbit_product"),
    ("weyl", "kac_walton_fusion"),
    ("weyl", "tableau_contents"),
    ("duality", "quotient_table"),
    ("duality", "multiply"),
    ("cli", "main"),
    ("cli", "cache_lookup"),
    ("cli", "cache_store"),
)


class Tracer:
    """Spans (name, start, end, parent, op id), self time and counters."""

    def __init__(self):
        self.names = [f"{mod}.{attr}" for mod, attr in TRACED]
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.op_id = -1
        self.calls = dict.fromkeys(self.names, 0)
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.tableaux = 0  # sum of the counts tableau_contents returns
        self.kw_output = 0  # sum of kac_walton_fusion output multiplicities
        self.cache_lookups = 0
        self.cache_hits = 0
        self.duality_pairs: set = set()
        self._stack: list = []  # [span index, seconds covered by children]
        self._saved: list = []

    def install(self, modules: dict) -> None:
        observers = {
            "weyl.tableau_contents": self._on_tableaux,
            "weyl.kac_walton_fusion": self._on_kac_walton,
            "cli.cache_lookup": self._on_cache_lookup,
            "duality.multiply": self._on_duality_multiply,
        }
        for nid, (mod, attr) in enumerate(TRACED):
            module = modules[mod]
            original = getattr(module, attr)
            target = original
            if (mod, attr) == ("duality", "multiply"):
                # duality bound fusion.multiply at import; call the wrapped
                # one so fusion.multiply also counts the calls from duality.
                target = modules["fusion"].multiply
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(nid, target, observers.get(self.names[nid])))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, nid, fn, observe):
        stack = self._stack
        name = self.names[nid]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.op.append(self.op_id)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            self.start.append(t0)
            self.end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.end[idx] = t1
                self.self_s[name] += (t1 - t0) - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += t1 - t0
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _on_tableaux(self, args, result):
        self.tableaux += sum(result.values())

    def _on_kac_walton(self, args, result):
        self.kw_output += sum(result.values())

    def _on_cache_lookup(self, args, result):
        self.cache_lookups += 1
        self.cache_hits += result is not None

    def _on_duality_multiply(self, args, result):
        p, q, ctx = args
        self.duality_pairs.add((p, q, tuple(ctx)))

    def metrics(self) -> dict:
        """Per-layer metrics by name: (value, unit)."""

        def ratio(num, den):
            return num / den if den else 0.0

        calls, self_s = self.calls, self.self_s
        out = {}
        for name in (
            "fusion.multiply", "fusion.pieri_h", "orbits.fixed_product",
            "orbits.special_orbit_product", "duality.multiply",
        ):
            out[f"{name}.calls"] = (calls[name], "count")
        for name in self.names:
            if name != "duality.multiply":
                out[f"{name}.self_s"] = (self_s[name], "s")
        out["fusion.pieri_h.per_multiply"] = (
            ratio(calls["fusion.pieri_h"], calls["fusion.multiply"]), "ratio")
        out["weyl.tableaux_enumerated"] = (self.tableaux, "count")
        out["weyl.useful_ratio"] = (ratio(self.kw_output, self.tableaux), "ratio")
        out["cli.cache_hit_ratio"] = (ratio(self.cache_hits, self.cache_lookups), "ratio")
        out["duality.multiply.distinct_ratio"] = (
            ratio(len(self.duality_pairs), calls["duality.multiply"]), "ratio")
        return out

    def write_spans(self, path) -> None:
        """One span per line: name, start, end (perf_counter s), parent span
        index (-1 for none), op id; the line number is the span index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op[i]}\n"
                )
