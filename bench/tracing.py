"""Outside-in tracing: spans around the package's public functions.

The tracer rebinds the module attributes that callers look up at call
time, so the package itself is unchanged.  Each span records its name,
start, end, parent span and the id of the command it ran under.  Spans stay
in memory (flat arrays) until the benchmark writes them out.

A function imported into another module under its own name is looked up
there, not in its home module, so each traced function lists every binding
a caller in the package uses.
"""

from __future__ import annotations

import statistics
import time
from array import array

import numpy as np


def _len_result(args, kwargs, result):
    return len(result)


def _len_first_arg(args, kwargs, result):
    return len(args[0])


def _girth_bounded_edges(args, kwargs, result):
    # edges returned by girth-bounded generation, the numerator of
    # lab.accept_ratio; a bound of 3 or less runs no girth check
    bound = kwargs.get("min_girth", args[4] if len(args) > 4 else None)
    return len(result.edges) if bound is not None and bound > 3 else 0


# span name -> (bindings as (module, attribute), item counter or None).
# A binding on the Hypergraph class is written ("Hypergraph", attribute).
# Spans without a metric of their own (partition_function, estimate_count,
# the girth check in `compare`) keep their own work out of cli.main.self_s.
SPANS = {
    "formats.load": ([("formats", "load")], None),
    "formats.digest": ([("formats", "digest")], None),
    "formats.serialize_text": ([("formats", "serialize_text")], None),
    "hypergraph.build": ([("Hypergraph", "build")], None),
    "hypergraph.find_loose_cycle": ([("hypergraph", "find_loose_cycle"),
                                     ("lab", "find_loose_cycle")], None),
    "hypergraph.girth_at_most": ([("cli", "girth_at_most")], None),
    "hypergraph.link_graph": ([("Hypergraph", "link_graph")], None),
    "exact.count_independent_sets": ([("exact", "count_independent_sets"),
                                      ("polymers", "count_independent_sets")], None),
    "polymers.polymer_weight": ([("polymers", "polymer_weight"),
                                 ("clusters", "polymer_weight")], None),
    "polymers.enumerate_polymers": ([("polymers", "enumerate_polymers")], _len_result),
    "polymers.compatibility_sum": ([("polymers", "compatibility_sum")], _len_first_arg),
    "polymers.kp_terms": ([("polymers", "kp_terms")], None),
    "polymers.partition_function": ([("polymers", "partition_function")], None),
    "clusters.estimate_count": ([("clusters", "estimate_count")], None),
    "clusters.truncated_log_xi": ([("clusters", "truncated_log_xi")], None),
    "clusters.enumerate_clusters": ([("clusters", "enumerate_clusters")], _len_result),
    "clusters.cluster_weight": ([("clusters", "cluster_weight")], None),
    "clusters.ursell": ([("clusters", "ursell")], None),
    "formulas.closed_form": ([("formulas", "closed_form_t1"),
                              ("formulas", "closed_form_t2")], None),
    "lab.gen_linear_regular": ([("lab", "gen_linear_regular")], _girth_bounded_edges),
    "lab.girth_at_most": ([("lab", "girth_at_most")], None),
}

CLI_MAIN = "cli.main"


class Tracer:
    """Records nested spans while installed."""

    def __init__(self, modules: dict):
        self._modules = modules
        self.names = [CLI_MAIN] + list(SPANS)
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cmd = array("i")
        self.items = array("q")
        self._stack = []
        self._saved = []
        self.command_id = -1

    def wrap(self, name: str, fn, counter=None):
        nid = self._name_id[name]
        clock = time.perf_counter
        names, starts, ends = self.name, self.start, self.end
        parents, cmds, items, stack = self.parent, self.cmd, self.items, self._stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            cmds.append(self.command_id)
            ends.append(0.0)
            items.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                items[idx] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        hg_class = self._modules["hypergraph"].Hypergraph
        for name, (bindings, counter) in SPANS.items():
            for owner_name, attr in bindings:
                owner = hg_class if owner_name == "Hypergraph" else self._modules[owner_name]
                raw = owner.__dict__[attr]
                self._saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, counter)))
                else:
                    setattr(owner, attr, self.wrap(name, raw, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def arrays(self, lo: int = 0, hi: int = None) -> dict:
        """Spans lo..hi as numpy arrays, parents re-based to the slice."""
        hi = len(self.start) if hi is None else hi

        def part(arr, dtype):
            # slicing copies, so the recording arrays stay appendable
            return np.frombuffer(arr[lo:hi], dtype=dtype)

        parent = part(self.parent, np.int32).astype(np.int64)
        return {
            "name": part(self.name, np.int32),
            "start": part(self.start, np.float64),
            "end": part(self.end, np.float64),
            "parent": np.where(parent >= 0, parent - lo, -1),
            "cmd": part(self.cmd, np.int32),
            "items": part(self.items, np.int64),
        }

    def save(self, path: str, meta: dict) -> None:
        np.savez(path, names=np.array(self.names), meta=np.array(repr(meta)),
                 **self.arrays())


def span_totals(spans: dict, num_names: int) -> dict:
    """Per span name: calls, total duration, self time, max duration and
    item count.  Self time is a span's duration minus its children's."""
    dur = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    child = np.bincount(spans["parent"][has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    name = spans["name"]

    def per_name(values):
        return np.bincount(name, weights=values, minlength=num_names)

    maxes = np.zeros(num_names)
    np.maximum.at(maxes, name, dur)
    return {
        "calls": np.bincount(name, minlength=num_names),
        "s": per_name(dur),
        "self_s": per_name(dur - child),
        "max_s": maxes,
        "items": per_name(spans["items"].astype(np.float64)),
    }


# metric name -> (span name, field, unit)
LAYER_METRICS = [
    ("cli.main.self_s", CLI_MAIN, "self_s", "s"),
    ("formats.load.s", "formats.load", "s", "s"),
    ("formats.digest.s", "formats.digest", "s", "s"),
    ("formats.serialize_text.s", "formats.serialize_text", "s", "s"),
    ("hypergraph.build.calls", "hypergraph.build", "calls", "count"),
    ("hypergraph.build.s", "hypergraph.build", "s", "s"),
    ("hypergraph.find_loose_cycle.calls", "hypergraph.find_loose_cycle", "calls", "count"),
    ("hypergraph.find_loose_cycle.s", "hypergraph.find_loose_cycle", "s", "s"),
    ("hypergraph.link_graph.calls", "hypergraph.link_graph", "calls", "count"),
    ("hypergraph.link_graph.s", "hypergraph.link_graph", "s", "s"),
    ("exact.count_independent_sets.calls", "exact.count_independent_sets", "calls", "count"),
    ("exact.count_independent_sets.s", "exact.count_independent_sets", "s", "s"),
    ("exact.count_independent_sets.max_s", "exact.count_independent_sets", "max_s", "s"),
    ("polymers.polymer_weight.calls", "polymers.polymer_weight", "calls", "count"),
    ("polymers.polymer_weight.s", "polymers.polymer_weight", "s", "s"),
    ("polymers.polymer_weight.self_s", "polymers.polymer_weight", "self_s", "s"),
    ("polymers.enumerate_polymers.calls", "polymers.enumerate_polymers", "calls", "count"),
    ("polymers.enumerate_polymers.s", "polymers.enumerate_polymers", "s", "s"),
    ("polymers.enumerate_polymers.polymers", "polymers.enumerate_polymers", "items", "count"),
    ("polymers.compatibility_sum.calls", "polymers.compatibility_sum", "calls", "count"),
    ("polymers.compatibility_sum.s", "polymers.compatibility_sum", "s", "s"),
    ("polymers.compatibility_sum.polymers", "polymers.compatibility_sum", "items", "count"),
    ("polymers.kp_terms.calls", "polymers.kp_terms", "calls", "count"),
    ("polymers.kp_terms.s", "polymers.kp_terms", "s", "s"),
    ("polymers.kp_terms.self_s", "polymers.kp_terms", "self_s", "s"),
    ("clusters.truncated_log_xi.calls", "clusters.truncated_log_xi", "calls", "count"),
    ("clusters.truncated_log_xi.s", "clusters.truncated_log_xi", "s", "s"),
    ("clusters.truncated_log_xi.self_s", "clusters.truncated_log_xi", "self_s", "s"),
    ("clusters.enumerate_clusters.calls", "clusters.enumerate_clusters", "calls", "count"),
    ("clusters.enumerate_clusters.s", "clusters.enumerate_clusters", "s", "s"),
    ("clusters.enumerate_clusters.clusters", "clusters.enumerate_clusters", "items", "count"),
    ("clusters.cluster_weight.calls", "clusters.cluster_weight", "calls", "count"),
    ("clusters.cluster_weight.s", "clusters.cluster_weight", "s", "s"),
    ("clusters.cluster_weight.self_s", "clusters.cluster_weight", "self_s", "s"),
    ("clusters.ursell.calls", "clusters.ursell", "calls", "count"),
    ("clusters.ursell.s", "clusters.ursell", "s", "s"),
    ("formulas.closed_form.s", "formulas.closed_form", "s", "s"),
    ("lab.gen_linear_regular.calls", "lab.gen_linear_regular", "calls", "count"),
    ("lab.gen_linear_regular.s", "lab.gen_linear_regular", "s", "s"),
    ("lab.gen_linear_regular.self_s", "lab.gen_linear_regular", "self_s", "s"),
    ("lab.girth_checks", "lab.girth_at_most", "calls", "count"),
]


def layer_metrics(tracer: Tracer, pass_ranges: list, overhead: float) -> dict:
    """Per-layer metrics for one pass over the command list: the median over
    the traced passes of each per-pass total."""
    per_pass = [span_totals(tracer.arrays(lo, hi), len(tracer.names))
                for lo, hi in pass_ranges]
    ids = {n: i for i, n in enumerate(tracer.names)}
    out = {}
    for metric, span, field, unit in LAYER_METRICS:
        value = statistics.median(float(t[field][ids[span]]) for t in per_pass)
        out[metric] = {"value": value, "unit": unit}
    gen = ids["lab.gen_linear_regular"]
    checks = out["lab.girth_checks"]["value"]
    edges = statistics.median(float(t["items"][gen]) for t in per_pass)
    # useful edges over attempted girth checks; 0 when no check ran
    out["lab.accept_ratio"] = {"value": edges / checks if checks else 0.0, "unit": "1"}
    out["trace.overhead"] = {"value": overhead, "unit": "1"}
    return out
