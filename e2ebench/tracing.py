"""Per-layer tracing from outside the program.

The tracer replaces module-level functions under the names their callers
look up (``consmax.template.p3p_solve``, ``consmax._kernels.packing_simplex``
and so on) with wrappers that record one span per call: layer, wrapped
name, parent span, round, start and end, and the counts read from the call's
arguments or result. ``src/`` is not touched; ``uninstall`` puts the
original functions back.

A wrap point that the program no longer has is skipped and listed under
``missing`` in the trace file, so that a refactoring shows as zero calls on
that layer instead of a failed run.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from collections import defaultdict

import numpy as np

# (module, attribute, layer); the attribute is the name the caller looks up
WRAP_POINTS = (
    ("consmax.isometric", "shape_registration_detailed", "isometric.pipeline"),
    ("consmax.cli", "shape_registration_detailed", "isometric.pipeline"),
    ("consmax.isometric", "geodesic_distances", "mesh.geodesic"),
    ("consmax._kernels", "dijkstra_table", "kernels.dijkstra"),
    ("consmax.isometric", "kmeans_partition", "core.kmeans"),
    ("consmax.template", "kmeans_partition", "core.kmeans"),
    ("consmax.isometric", "build_covering_program", "core.compile"),
    ("consmax.template", "build_covering_program", "core.compile"),
    ("consmax.isometric", "aggregate_labels", "core.aggregate"),
    ("consmax.template", "aggregate_labels", "core.aggregate"),
    ("consmax.template", "build_triangle_graph", "template.graph"),
    ("consmax.template", "p3p_solve", "pose.p3p"),
    ("consmax.template", "pose_agreement", "pose.agreement"),
    ("consmax.isometric", "solve_exact", "solver.solve"),
    ("consmax.template", "solve_exact", "solver.solve"),
    ("consmax._kernels", "packing_simplex", "kernels.lp"),
    ("consmax._kernels", "greedy_pick", "kernels.greedy"),
    ("consmax.cli", "load_mesh", "io.load"),
    ("consmax.io", "parse_matches", "io.load"),
    ("consmax.io", "evaluate_labels", "io.report"),
    ("consmax.io", "build_report", "io.report"),
    ("consmax.io", "emit_report", "io.report"),
)

# per-layer metrics of BENCHMARK.json: name -> unit. Metric names start with
# a letter, so the ``consmax._kernels`` layer is reported as ``kernels``.
PER_LAYER = {
    "mesh.geodesic_s": "s",
    "mesh.geodesic_sources": "count",
    "kernels.dijkstra_s": "s",
    "core.compile_s": "s",
    "core.constraints": "count",
    "core.kmeans_s": "s",
    "core.aggregate_s": "s",
    "isometric.graph_self_s": "s",
    "template.graph_s": "s",
    "template.graph_self_s": "s",
    "template.triangles": "count",
    "template.edges": "count",
    "pose.p3p_s": "s",
    "pose.p3p_calls": "count",
    "pose.p3p_empty": "count",
    "pose.agreement_s": "s",
    "pose.agreement_calls": "count",
    "solver.solve_s": "s",
    "solver.self_s": "s",
    "solver.solves": "count",
    "solver.certified": "count",
    "solver.bnb_nodes": "count",
    "solver.root_gap": "outliers",
    "kernels.lp_s": "s",
    "kernels.lp_solves": "count",
    "kernels.lp_pivots": "count",
    "kernels.greedy_s": "s",
    "kernels.greedy_calls": "count",
    "io.load_s": "s",
    "io.report_s": "s",
    "io.report_bytes": "bytes",
    "trace.label_s": "s",
    "trace.overhead_s": "s",
}

# layer -> metric holding the total duration of its spans
_DURATION = {
    "mesh.geodesic": "mesh.geodesic_s",
    "kernels.dijkstra": "kernels.dijkstra_s",
    "core.compile": "core.compile_s",
    "core.kmeans": "core.kmeans_s",
    "core.aggregate": "core.aggregate_s",
    "template.graph": "template.graph_s",
    "pose.p3p": "pose.p3p_s",
    "pose.agreement": "pose.agreement_s",
    "solver.solve": "solver.solve_s",
    "kernels.lp": "kernels.lp_s",
    "kernels.greedy": "kernels.greedy_s",
    "io.load": "io.load_s",
    "io.report": "io.report_s",
}
# layer -> metric holding the span count
_CALLS = {
    "pose.p3p": "pose.p3p_calls",
    "pose.agreement": "pose.agreement_calls",
    "solver.solve": "solver.solves",
    "kernels.lp": "kernels.lp_solves",
    "kernels.greedy": "kernels.greedy_calls",
}
# layer -> metric holding its duration minus that of its child spans
_SELF = {
    "isometric.pipeline": "isometric.graph_self_s",
    "template.graph": "template.graph_self_s",
    "solver.solve": "solver.self_s",
}


def _uncovered(program, z) -> int:
    """Constraints of ``program`` that the 0/1 vector ``z`` leaves uncovered."""
    if program.num_constraints == 0:
        return 0
    indptr, indices = program.cons_csr
    hits = np.add.reduceat(np.asarray(z, dtype=np.int64)[indices], indptr[:-1])
    return int((hits == 0).sum())


def _counts(layer, args, result) -> dict:
    """Counts a call contributes, read from its arguments or its result."""
    if layer == "mesh.geodesic":
        return {"mesh.geodesic_sources": len(args[1])}
    if layer == "core.compile":
        return {"core.constraints": result.num_constraints}
    if layer == "template.graph":
        return {"template.triangles": result.num_vertices, "template.edges": result.num_edges}
    if layer == "pose.p3p":
        return {"pose.p3p_empty": int(not result)}
    if layer == "kernels.lp":
        return {"kernels.lp_pivots": int(result[3])}
    if layer == "io.report" and len(args) > 1 and isinstance(args[1], (str, os.PathLike)):
        return {"io.report_bytes": os.path.getsize(args[1])}
    if layer == "solver.solve":
        trace = result.trace
        certified = bool(result.optimal) and float(result.lower_bound) == float(result.objective)
        return {
            "solver.certified": int(certified),
            # rows between the root row and the final row: one per branched node
            "solver.bnb_nodes": max(len(trace) - 2, 0),
            "solver.root_gap": (trace[0].upper_bound - trace[0].lower_bound) if trace else 0.0,
            "uncovered": _uncovered(args[0], result.labels.z),
        }
    return {}


class Tracer:
    """Spans and counts of the traced rounds of one run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.round = -1
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def install(self, round_no: int) -> None:
        self.round = round_no
        self.missing = []
        for mod_name, attr, layer in WRAP_POINTS:
            try:
                module = importlib.import_module(mod_name)
            except ModuleNotFoundError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, f"{mod_name}.{attr}", layer))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, original, fn_name, layer):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "layer": layer,
                "fn": fn_name,
                "parent": self._stack[-1] if self._stack else None,
                "round": self.round,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                if layer == "pose.p3p":
                    span["counts"] = {"pose.p3p_empty": 1}
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span["counts"] = _counts(layer, args, result)
            return result

        return wrapper

    def round_metrics(self, round_no: int) -> dict:
        """Per-layer metrics of one traced round: span durations, self times
        and counts, each summed over the round."""
        spans = [s for s in self.spans if s["round"] == round_no]
        out = {name: 0.0 if unit == "s" else 0 for name, unit in PER_LAYER.items() if not name.startswith("trace.")}
        child_time = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        for s in spans:
            dur = s["end"] - s["start"]
            layer = s["layer"]
            if layer in _DURATION:
                out[_DURATION[layer]] += dur
            if layer in _CALLS:
                out[_CALLS[layer]] += 1
            if layer in _SELF:
                out[_SELF[layer]] += dur - child_time[s["id"]]
            for name, value in s.get("counts", {}).items():
                if name in out:
                    out[name] += value
        return out

    def uncovered(self) -> list:
        """Solves whose labels leave some constraint of their program uncovered."""
        return [
            f"{s['fn']} (span {s['id']}): {s['counts']['uncovered']} constraints uncovered"
            for s in self.spans
            if s["layer"] == "solver.solve" and s.get("counts", {}).get("uncovered", 0)
        ]


def median_metrics(per_round: list) -> dict:
    """Median over the traced rounds of each per-layer metric; counts take
    the lower median, so that they stay whole numbers that were observed."""
    return {
        name: (statistics.median if PER_LAYER[name] == "s" else statistics.median_low)(r[name] for r in per_round)
        for name in per_round[0]
    }
