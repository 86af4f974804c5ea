"""Per-layer metrics derived from the spans of one traced invocation.

A layer is a graphssl module. Times are in seconds per invocation, counts
are summed over the invocation. Each metric lists the wrapped functions it
is measured at; when one of them no longer exists, the metric is reported
as absent with the reason instead of failing the run.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from tracer import EXTRACT_SPAN, LAYERS, self_times

EIGEN = "linalg.smallest_eigenpairs"
SWEEP = "harness.run_noise_sweep"
CELL = "harness.multiclass_trial"
LAPLACIAN = "graph.normalized_laplacian"
ENCODE = "ssl.encode_labels"
FIT = ("ssl.fit_scores", "ssl.l1_ssl_fit", "ssl.l2_ssl_fit")


class Invocation:
    """Spans of one invocation, indexed by name, with their self times."""

    def __init__(self, spans):
        self.spans = spans
        self.self = self_times(spans)
        self.by_name = defaultdict(list)
        for span in spans:
            self.by_name[span.name].append(span)

    def total(self, name):
        return sum(span.duration for span in self.by_name[name])

    def calls(self, name):
        return len(self.by_name[name])

    def count(self, name, key):
        return sum(span.counts.get(key, 0) for span in self.by_name[name])

    def self_of(self, *names):
        return sum(self.self[span.id] for name in names for span in self.by_name[name])

    def layer_self(self, layer):
        return sum(self.self[span.id] for span in self.spans if span.layer == layer)

    def reads(self):
        return [span for name, group in self.by_name.items()
                if name.startswith("fileio.read") for span in group]

    def eigen_time(self, path):
        return sum(span.duration for span in self.by_name[EIGEN] if _path(span) == path)

    def eigen_calls(self, path):
        return sum(1 for span in self.by_name[EIGEN] if _path(span) == path)

    def unlabeled_components(self):
        """Components of each Laplacian that hold no point of its sibling label set."""
        labeled = {span.parent: span.data for span in self.by_name[ENCODE]
                   if span.data is not None}
        total = 0
        for span in self.by_name[LAPLACIAN]:
            indices = labeled.get(span.parent)
            if span.data is None or indices is None:
                continue
            present = np.unique(span.data[indices])
            total += int(np.unique(span.data).size - present.size)
        return total

    def parallel_efficiency(self):
        """Busy cell time over workers x sweep wall; 0 when no sweep ran."""
        busy = self.total(CELL)
        capacity = sum(span.duration * span.counts.get("workers", 1)
                       for span in self.by_name[SWEEP])
        return busy / capacity if capacity > 0 else 0.0


def _path(span):
    if span.counts.get("eigsh"):
        return "lanczos"
    if span.counts.get("eigh"):
        return "dense"
    return "other"


# (name, unit, wrapped functions it needs, value of one Invocation).
METRICS = [
    ("fileio.read_s", "s", ("fileio.read*",),
     lambda v: sum(span.duration for span in v.reads())),
    ("fileio.read_bytes", "B", ("fileio.read*",),
     lambda v: sum(span.counts.get("bytes", 0) for span in v.reads())),
    ("cli.write_bytes", "B", ("cli.main",), None),  # measured on the output files
    ("graph.knn_graph_s", "s", ("graph.gaussian_knn_graph",),
     lambda v: v.total("graph.gaussian_knn_graph")),
    ("graph.linear_kernel_s", "s", ("graph.linear_kernel",),
     lambda v: v.total("graph.linear_kernel")),
    ("graph.linear_kernel_bytes", "B", ("graph.linear_kernel",),
     lambda v: v.count("graph.linear_kernel", "kernel_bytes")),
    ("graph.knn_sparsify_s", "s", ("graph.knn_sparsify",),
     lambda v: v.total("graph.knn_sparsify")),
    ("graph.laplacian_s", "s", (LAPLACIAN,), lambda v: v.total(LAPLACIAN)),
    ("graph.nnz", "count", (LAPLACIAN,), lambda v: v.count(LAPLACIAN, "nnz")),
    ("graph.components", "count", (LAPLACIAN,), lambda v: v.count(LAPLACIAN, "components")),
    ("graph.unlabeled_components", "count", (LAPLACIAN, ENCODE),
     lambda v: v.unlabeled_components()),
    ("linalg.eigsh_s", "s", (EIGEN,), lambda v: v.eigen_time("lanczos")),
    ("linalg.eigh_s", "s", (EIGEN,), lambda v: v.eigen_time("dense")),
    ("linalg.eigensolves", "count", (EIGEN,), lambda v: v.calls(EIGEN)),
    ("linalg.eigensolves.lanczos", "count", (EIGEN,), lambda v: v.eigen_calls("lanczos")),
    ("linalg.eigensolves.dense", "count", (EIGEN,), lambda v: v.eigen_calls("dense")),
    ("linalg.cg_s", "s", ("linalg.cg_solve",), lambda v: v.total("linalg.cg_solve")),
    ("linalg.cg_iterations", "count", ("linalg.cg_solve",),
     lambda v: v.count("linalg.cg_solve", "iterations")),
    ("spectral.build_basis.self_s", "s", ("spectral.build_basis",),
     lambda v: v.self_of("spectral.build_basis")),
    ("solver.fista_s", "s", ("solver.fista_weighted_l1",),
     lambda v: v.total("solver.fista_weighted_l1")),
    ("solver.fista_calls", "count", ("solver.fista_weighted_l1",),
     lambda v: v.calls("solver.fista_weighted_l1")),
    ("solver.fista_iterations", "count", ("solver.fista_weighted_l1",),
     lambda v: v.count("solver.fista_weighted_l1", "iterations")),
    ("ssl.fit.self_s", "s", ("ssl.fit_scores",), lambda v: v.self_of(*FIT)),
    ("bow.refine.self_s", "s", ("bow.refine",), lambda v: v.self_of("bow.refine")),
    ("bow.restored_share", "ratio", ("bow.refine",),
     lambda v: (v.count("bow.refine", "restored") / v.count("bow.refine", "entries")
                if v.count("bow.refine", "entries") else 0.0)),
    ("harness.cells", "count", (CELL,), lambda v: v.calls(CELL)),
    ("harness.cell_s", "s", (CELL,), lambda v: v.total(CELL)),
    ("harness.parallel_efficiency", "ratio", (CELL, SWEEP), lambda v: v.parallel_efficiency()),
]
METRICS += [(f"{layer}.self_s", "s", (f"{layer}.*",), lambda v, layer=layer: v.layer_self(layer))
            for layer in LAYERS]
METRICS += [
    ("tracer.self_s", "s", (), lambda v: v.layer_self(EXTRACT_SPAN.split(".")[0])),
    ("trace.spans", "count", (), lambda v: len(v.spans)),
]
# Filled in from wall times, not from spans: traced median wall, and traced
# minus untraced median wall.
OVERHEAD = [("trace.wall_s", "s"), ("trace.overhead_s", "s")]

UNITS = {name: unit for name, unit, _, _ in METRICS}
UNITS.update(OVERHEAD)


def absent_reasons(tracer):
    """{metric: reason} for metrics whose wrapped functions no longer exist.

    A needed name ending in `*` is a prefix that any public function may match.
    """
    reasons = {}
    for name, _, needs, _ in METRICS:
        for need in needs:
            layer = need.split(".", 1)[0]
            if layer in tracer.missing:
                reason = tracer.missing[layer]
            elif need.endswith("*"):
                found = any(f.startswith(need[:-1]) for f in tracer.functions)
                reason = None if found else f"no public function graphssl.{need}"
            else:
                reason = None if need in tracer.functions else f"graphssl.{need} not found"
            if reason is None and need in tracer.extract_errors:
                reason = f"counts at graphssl.{need} failed: {tracer.extract_errors[need]}"
            if reason is not None:
                reasons[name] = reason
                break
    return reasons


def invocation_metrics(spans):
    """{metric: value} for one invocation's spans (cli.write_bytes excluded)."""
    view = Invocation(spans)
    return {name: float(fn(view)) for name, _, _, fn in METRICS if fn is not None}
