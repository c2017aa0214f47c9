"""Domain-agnostic consensus machinery.

Correspondence sets, agreement graphs over minimal index subsets, and the
compilation of disagreeing edges into a 0-1 covering program: one constraint
per edge whose agreement value is 0, requiring at least one member of the
union of the edge's two vertex subsets to be an outlier. Both pipelines
label their match clusters through ``register_clusters``.

All types are immutable after construction; the operations are pure
functions and safe to call concurrently.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from .errors import AllClustersSkipped, CoverageGap, InvalidArgument

if TYPE_CHECKING:
    from .solver import SolverResult

logger = logging.getLogger(__name__)

INLIER = 0
OUTLIER = 1


def _as_points(arr, dim_choices=(3,), name="points"):
    out = np.asarray(arr, dtype=np.float64)
    if out.ndim != 2 or out.shape[1] not in dim_choices:
        raise InvalidArgument(f"{name} must be an (n, {dim_choices}) array, got {out.shape}")
    if not np.isfinite(out).all():
        raise InvalidArgument(f"{name} contains non-finite values")
    return out


@dataclass(frozen=True, eq=False)
class LabelVector:
    """Per-match inlier/outlier labels; ``z[i] == 1`` marks match ``i`` as outlier."""

    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.int8)
        if z.ndim != 1:
            raise InvalidArgument("labels must be one-dimensional")
        if z.size and not np.isin(z, (INLIER, OUTLIER)).all():
            raise InvalidArgument("labels must be 0 (inlier) or 1 (outlier)")
        z.setflags(write=False)
        object.__setattr__(self, "z", z)

    @classmethod
    def all_inlier(cls, n: int) -> "LabelVector":
        return cls(np.zeros(n, dtype=np.int8))

    @classmethod
    def from_outlier_indices(cls, n: int, indices) -> "LabelVector":
        z = np.zeros(n, dtype=np.int8)
        z[np.asarray(indices, dtype=np.int64)] = OUTLIER
        return cls(z)

    def __len__(self) -> int:
        return int(self.z.size)

    def __eq__(self, other) -> bool:
        return isinstance(other, LabelVector) and np.array_equal(self.z, other.z)

    def __hash__(self):
        return hash(self.z.tobytes())

    @property
    def num_outliers(self) -> int:
        return int(self.z.sum())

    def outlier_indices(self) -> np.ndarray:
        return np.nonzero(self.z == OUTLIER)[0]


@dataclass(frozen=True)
class MatchSet:
    """Indexed point correspondences between two domains (3D-3D or 3D-2D).

    ``pairs[k] = (i, j)`` matches ``source_points[i]`` to ``target_points[j]``.
    ``gt_labels``, when present, records the known inlier/outlier status of
    each pair (used by synthetic benchmarks only).
    """

    source_points: np.ndarray
    target_points: np.ndarray
    pairs: np.ndarray
    gt_labels: Optional[LabelVector] = None

    def __post_init__(self):
        src = _as_points(self.source_points, (3,), "source_points")
        tgt = _as_points(self.target_points, (2, 3), "target_points")
        pairs = np.asarray(self.pairs, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise InvalidArgument("pairs must be a (p, 2) index array")
        if pairs.size:
            if pairs.min() < 0 or pairs[:, 0].max() >= len(src) or pairs[:, 1].max() >= len(tgt):
                raise InvalidArgument("pair indices out of range of their point lists")
        if self.gt_labels is not None and len(self.gt_labels) != len(pairs):
            raise InvalidArgument("gt_labels length must equal number of pairs")
        for name, arr in (("source_points", src), ("target_points", tgt), ("pairs", pairs)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.pairs.shape[0])

    @property
    def matched_source(self) -> np.ndarray:
        return self.source_points[self.pairs[:, 0]]


@dataclass(frozen=True)
class ConsensusGraph:
    """Agreement graph: vertices are match-index subsets of fixed size ``s``,
    edges carry the binary agreement value theta."""

    vertices: np.ndarray  # (v, s) match indices
    edges: np.ndarray     # (e, 2) vertex indices
    theta: np.ndarray     # (e,) values in {0, 1}
    s: int

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=np.int64)
        if verts.ndim != 2 or (verts.size and verts.shape[1] != self.s):
            raise InvalidArgument(f"vertices must be (v, s={self.s})")
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        theta = np.asarray(self.theta, dtype=np.uint8).reshape(-1)
        if edges.shape[0] != theta.shape[0]:
            raise InvalidArgument("edges and theta must have equal length")
        if verts.size:
            rows = np.sort(verts, axis=1)
            if (rows[:, 1:] == rows[:, :-1]).any():
                raise InvalidArgument("every vertex subset must have s distinct match indices")
        if edges.size:
            if edges.min() < 0 or edges.max() >= len(verts):
                raise InvalidArgument("edge vertex index out of range")
            if (edges[:, 0] == edges[:, 1]).any():
                raise InvalidArgument("self-loop edge")
            keys = np.sort(edges.min(axis=1) * len(verts) + edges.max(axis=1))
            if (keys[1:] == keys[:-1]).any():
                raise InvalidArgument("duplicate undirected edge")
        if theta.size and not np.isin(theta, (0, 1)).all():
            raise InvalidArgument("theta values must be 0 or 1")
        for name, arr in (("vertices", verts), ("edges", edges), ("theta", theta)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_vertices(self) -> int:
        return int(self.vertices.shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])


@dataclass(frozen=True)
class CoveringProgram:
    """The 0-1 program ``min sum(z)`` subject to ``sum(z[i] for i in C) >= 1``
    for every constraint ``C`` (one per violated edge).

    ``cons_csr`` is ``(indptr, indices)``, the constraint -> variable
    incidence; it is built with the checks."""

    num_vars: int
    constraints: tuple

    def __post_init__(self):
        if self.num_vars < 0:
            raise InvalidArgument("num_vars must be non-negative")
        cons = tuple(tuple(map(int, c)) for c in self.constraints)
        indptr = np.zeros(len(cons) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, cons), dtype=np.int64, count=len(cons)), out=indptr[1:])
        if (indptr[1:] == indptr[:-1]).any():
            raise InvalidArgument("empty constraint")
        try:
            indices = np.fromiter(chain.from_iterable(cons), dtype=np.int64, count=int(indptr[-1]))
        except OverflowError:
            if any(len(set(c)) != len(c) for c in cons):
                raise InvalidArgument("constraint has duplicate indices") from None
            raise InvalidArgument("constraint index out of range") from None
        # a repeated index sits next to itself once each constraint is sorted
        owner = np.repeat(np.arange(len(cons)), np.diff(indptr))
        order = np.lexsort((indices, owner))
        same = (owner[order][1:] == owner[order][:-1]) & (indices[order][1:] == indices[order][:-1])
        if same.any():
            raise InvalidArgument("constraint has duplicate indices")
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_vars):
            raise InvalidArgument("constraint index out of range")
        object.__setattr__(self, "constraints", cons)
        object.__setattr__(self, "cons_csr", (indptr, indices))

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)


def var_incidence(num_vars, cons_indptr, cons_indices):
    """Transpose a constraint -> variable CSR into (indptr, cons_ids), the
    variable -> constraint incidence; constraint ids ascend per variable."""
    counts = np.bincount(cons_indices, minlength=num_vars)
    indptr = np.zeros(num_vars + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    order = np.argsort(cons_indices, kind="stable")
    cons_of_elem = np.repeat(
        np.arange(len(cons_indptr) - 1, dtype=np.int64), np.diff(cons_indptr)
    )
    return indptr, cons_of_elem[order]


@dataclass(frozen=True)
class ClusterPartition:
    """Disjoint covering assignment of matches to clusters ``0..m-1``."""

    assignments: np.ndarray
    m: int

    def __post_init__(self):
        a = np.asarray(self.assignments, dtype=np.int64)
        if a.ndim != 1 or a.size == 0:
            raise InvalidArgument("assignments must be a non-empty 1-D array")
        if self.m < 1:
            raise InvalidArgument("m must be >= 1")
        if a.min() < 0 or a.max() >= self.m:
            raise InvalidArgument("cluster id out of range")
        if len(np.unique(a)) != self.m:
            raise InvalidArgument("every cluster must be non-empty")
        a.setflags(write=False)
        object.__setattr__(self, "assignments", a)

    def members(self, cluster: int) -> np.ndarray:
        return np.nonzero(self.assignments == cluster)[0]


def build_covering_program(graph: ConsensusGraph) -> CoveringProgram:
    """Compile every theta=0 edge of the graph into one covering constraint.

    The constraint is the deduplicated union of the edge's two vertex index
    subsets; agreeing edges (theta=1) produce nothing, and duplicate
    constraints are removed. An empty graph yields an empty program.
    Constraints are sorted as tuples. For s=1 they come from one
    ``np.sort`` of the ``(lo, hi)`` match-pair keys of the violated edges,
    with repeats dropped; a pair of equal matches is a one-variable
    constraint.
    """
    num_vars = int(graph.vertices.max()) + 1 if graph.vertices.size else 0
    if graph.s == 1:
        violated = graph.edges[graph.theta == 0]
        u, w = graph.vertices[violated[:, 0], 0], graph.vertices[violated[:, 1], 0]
        # (x, x) sorts before (x, y > x), as the singleton (x,) does before (x, y)
        keys = np.sort(np.minimum(u, w) * num_vars + np.maximum(u, w))
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        lo, hi = np.divmod(keys[first], num_vars)
        constraints = tuple((a,) if a == b else (a, b) for a, b in zip(lo.tolist(), hi.tolist()))
        return CoveringProgram(num_vars=num_vars, constraints=constraints)
    seen = set()
    for eidx in np.nonzero(graph.theta == 0)[0]:
        a, b = graph.edges[eidx]
        union = tuple(sorted(set(graph.vertices[a].tolist()) | set(graph.vertices[b].tolist())))
        seen.add(union)
    return CoveringProgram(num_vars=num_vars, constraints=tuple(sorted(seen)))


def kmeans_partition(points, m: int, seed: int) -> ClusterPartition:
    """Deterministic k-means: k-means++ seeding from ``seed``, Lloyd's
    iterations (max 100) until assignments stop changing.

    An empty cluster is repaired by reassigning to it the point currently
    farthest from its own centroid.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise InvalidArgument("points must be 2-D")
    n = len(pts)
    if m < 1 or m > n:
        raise InvalidArgument(f"m must be in [1, {n}], got {m}")
    if m == 1:
        return ClusterPartition(np.zeros(n, dtype=np.int64), 1)
    rng = np.random.default_rng(seed)

    centers = np.empty((m, pts.shape[1]))
    centers[0] = pts[rng.integers(n)]
    d2 = ((pts - centers[0]) ** 2).sum(axis=1)
    for k in range(1, m):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[k] = pts[idx]
        d2 = np.minimum(d2, ((pts - centers[k]) ** 2).sum(axis=1))

    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(100):
        dist2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = np.argmin(dist2, axis=1).astype(np.int64)
        # repair empty clusters with the globally worst-fitting point
        for k in range(m):
            if not (new_assign == k).any():
                own = dist2[np.arange(n), new_assign].copy()
                # a singleton cluster must not be emptied in turn
                for c in np.unique(new_assign):
                    members = np.nonzero(new_assign == c)[0]
                    if len(members) == 1:
                        own[members] = -1.0
                new_assign[int(np.argmax(own))] = k
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for k in range(m):
            centers[k] = pts[assign == k].mean(axis=0)
    return ClusterPartition(assign, m)


def aggregate_labels(
    per_cluster: Sequence[tuple[np.ndarray, LabelVector]],
    num_matches: int,
) -> LabelVector:
    """Union disjoint per-cluster labels into one global label vector.

    ``per_cluster`` holds ``(match indices of the cluster, labels for those
    matches in the same order)``. Raises on overlapping clusters or when some
    match receives no label.
    """
    z = np.full(num_matches, -1, dtype=np.int8)
    for indices, labels in per_cluster:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size != len(labels):
            raise InvalidArgument("cluster indices and labels differ in length")
        if idx.size and (idx.min() < 0 or idx.max() >= num_matches):
            raise InvalidArgument("cluster index out of range")
        if (z[idx] != -1).any():
            raise InvalidArgument("clusters overlap")
        z[idx] = labels.z
    if (z == -1).any():
        missing = np.nonzero(z == -1)[0]
        raise CoverageGap(f"matches without a label: {missing[:8].tolist()}...")
    return LabelVector(z)


@dataclass(frozen=True)
class ClusterReport:
    """Outcome of one cluster: its match indices, whether it was skipped for
    having too few matches, and its solver result (``None`` when skipped or
    labelled without a solver)."""

    indices: np.ndarray
    skipped: bool
    result: Optional[SolverResult]


@dataclass(frozen=True)
class Registration:
    """Per-cluster outcomes of a pipeline run, and which matches appear in
    at least one covering constraint."""

    cluster_reports: list
    constrained: np.ndarray

    @property
    def unconstrained(self) -> np.ndarray:
        return ~self.constrained


def register_clusters(
    partition: ClusterPartition,
    label_cluster: Callable,
    min_size: int = 1,
) -> tuple[LabelVector, Registration]:
    """Label every cluster of ``partition`` and aggregate the labels.

    ``label_cluster(c, idx)`` builds cluster ``c``'s graph and covering
    program over the cluster-local match ids ``0..len(idx)-1`` and returns
    ``(program, labels, result)``. Labels shorter than the cluster leave the
    remaining matches inlier. A cluster with fewer than ``min_size`` matches
    is skipped: its matches stay inlier and unconstrained. Raises when every
    cluster is skipped.
    """
    p = len(partition.assignments)
    per_cluster = []
    reports = []
    constrained = np.zeros(p, dtype=bool)
    for c in range(partition.m):
        idx = partition.members(c)
        z = np.zeros(len(idx), dtype=np.int8)
        if len(idx) < min_size:
            logger.warning(
                "cluster %d: only %d matches, skipped (labels stay inlier/unconstrained)", c, len(idx)
            )
            reports.append(ClusterReport(idx, True, None))
        else:
            program, labels, result = label_cluster(c, idx)
            constrained[idx[program.cons_csr[1]]] = True
            z[: len(labels)] = labels.z
            reports.append(ClusterReport(idx, False, result))
        per_cluster.append((idx, LabelVector(z)))
    if all(r.skipped for r in reports):
        raise AllClustersSkipped("no cluster had enough matches to build a graph")
    return aggregate_labels(per_cluster, p), Registration(reports, constrained)
