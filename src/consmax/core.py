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
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .errors import AllClustersSkipped, InvalidArgument

if TYPE_CHECKING:
    from .solver import SolverResult

logger = logging.getLogger(__name__)

INLIER = 0
OUTLIER = 1


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


@dataclass(frozen=True, eq=False)
class MatchSet:
    """Indexed correspondences between two domains (3D-3D or 3D-2D).

    ``pairs[k] = (i, j)`` matches point ``i`` of the source to point ``j`` of
    the target; the points themselves are the shapes each pipeline receives
    beside the match set, which checks the indices against them.
    ``gt_labels``, when present, records the known inlier/outlier status of
    each pair (used by synthetic benchmarks only).
    """

    pairs: np.ndarray
    gt_labels: Optional[LabelVector] = None

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise InvalidArgument("pairs must be a (p, 2) index array")
        if pairs.size and pairs.min() < 0:
            raise InvalidArgument("pair indices must be non-negative")
        if self.gt_labels is not None and len(self.gt_labels) != len(pairs):
            raise InvalidArgument("gt_labels length must equal number of pairs")
        pairs.setflags(write=False)
        object.__setattr__(self, "pairs", pairs)

    def __len__(self) -> int:
        return int(self.pairs.shape[0])


@dataclass(frozen=True, eq=False)
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
            if verts.min() < 0:
                raise InvalidArgument("match indices must be non-negative")
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


@dataclass(frozen=True, eq=False)
class CoveringProgram:
    """The 0-1 program ``min sum(z)`` subject to ``sum(z[i] for i in C) >= 1``
    for every constraint ``C`` (one per violated edge).

    It is held once, as the read-only constraint -> variable incidence
    ``cons_csr = (indptr, indices)``, checked for empty constraints, repeated
    indices and indices out of range. ``from_constraints`` builds one by hand."""

    num_vars: int
    cons_csr: tuple

    def __post_init__(self):
        if self.num_vars < 0:
            raise InvalidArgument("num_vars must be non-negative")
        indptr, indices = (np.asarray(a, dtype=np.int64) for a in self.cons_csr)
        if indptr.ndim != 1 or indices.ndim != 1 or indptr[:1].tolist() != [0] or indptr[-1] != len(indices):
            raise InvalidArgument("cons_csr must be (indptr, indices) with indptr from 0 to len(indices)")
        sizes = np.diff(indptr)
        if (sizes <= 0).any():
            raise InvalidArgument("empty constraint")
        # a repeated index sits next to itself once each constraint is sorted
        ordered = indices[np.lexsort((indices, np.repeat(np.arange(len(sizes)), sizes)))]
        same = ordered[1:] == ordered[:-1]
        same[indptr[1:-1] - 1] = False  # neighbours across a constraint boundary
        if same.any():
            raise InvalidArgument("constraint has duplicate indices")
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_vars):
            raise InvalidArgument("constraint index out of range")
        for arr in (indptr, indices):
            arr.setflags(write=False)
        object.__setattr__(self, "cons_csr", (indptr, indices))

    @classmethod
    def from_constraints(cls, num_vars: int, constraints) -> "CoveringProgram":
        """The program with one constraint per sequence of variable indices."""
        cons = [tuple(map(int, c)) for c in constraints]
        indptr = np.cumsum([0, *map(len, cons)], dtype=np.int64)
        try:
            indices = np.fromiter(chain.from_iterable(cons), dtype=np.int64, count=int(indptr[-1]))
        except OverflowError:  # an index beyond int64, reported after the other faults
            if not all(cons):
                raise InvalidArgument("empty constraint") from None
            if any(len(set(c)) != len(c) for c in cons):
                raise InvalidArgument("constraint has duplicate indices") from None
            raise InvalidArgument("constraint index out of range") from None
        return cls(num_vars, (indptr, indices))

    @property
    def constraints(self) -> tuple:
        """The constraints as tuples of Python ints, derived from ``cons_csr``."""
        indptr, indices = (a.tolist() for a in self.cons_csr)
        return tuple(tuple(indices[a:b]) for a, b in zip(indptr[:-1], indptr[1:]))

    @property
    def num_constraints(self) -> int:
        return len(self.cons_csr[0]) - 1


@dataclass(frozen=True, eq=False)
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


def _edge_unions(graph: ConsensusGraph, edges: np.ndarray) -> np.ndarray:
    """Per edge, the union of its two vertex subsets: ascending, then -1 up to width ``2 * s``."""
    rows = np.sort(graph.vertices[edges].reshape(len(edges), 2 * graph.s), axis=1)
    rows[:, 1:][rows[:, 1:] == rows[:, :-1]] = -1
    return np.take_along_axis(rows, np.argsort(rows < 0, axis=1, kind="stable"), axis=1)


def build_covering_program(graph: ConsensusGraph) -> CoveringProgram:
    """Compile every theta=0 edge of the graph into one covering constraint.

    The constraint is the union of the edge's two vertex index subsets;
    agreeing edges (theta=1) produce nothing. One vectorised pass serves
    every ``s``: the -1-padded union rows are sorted as rows, repeats are
    dropped, and the rest become the CSR arrays, so constraints ascend and
    come in tuple order, a shorter prefix first. An empty graph yields an
    empty program.
    """
    num_vars = int(graph.vertices.max()) + 1 if graph.vertices.size else 0
    rows = _edge_unions(graph, graph.edges[graph.theta == 0])
    rows = rows[np.lexsort(rows.T[::-1])]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    rows = rows[first]
    member = rows >= 0
    indptr = np.concatenate(([0], np.cumsum(member.sum(axis=1))))
    return CoveringProgram(num_vars, (indptr, rows[member]))


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
    """Label every cluster of ``partition``, writing the labels itself.

    ``label_cluster(c, idx)`` builds cluster ``c``'s graph and covering
    program over the cluster-local match ids ``0..len(idx)-1`` and returns
    ``(program, labels, result)``; ``labels[k]`` is written at match
    ``idx[k]``, and matches past the labels stay inlier. A cluster with fewer
    than ``min_size`` matches is skipped: its matches stay inlier and
    unconstrained. Raises when every cluster is skipped.
    """
    p = len(partition.assignments)
    z = np.zeros(p, dtype=np.int8)
    constrained = np.zeros(p, dtype=bool)
    reports = []
    for c in range(partition.m):
        idx = partition.members(c)
        if len(idx) < min_size:
            logger.warning(
                "cluster %d: only %d matches, skipped (labels stay inlier/unconstrained)", c, len(idx)
            )
            reports.append(ClusterReport(idx, True, None))
        else:
            program, labels, result = label_cluster(c, idx)
            constrained[idx[program.cons_csr[1]]] = True
            z[idx[: len(labels)]] = labels.z
            reports.append(ClusterReport(idx, False, result))
    if all(r.skipped for r in reports):
        raise AllClustersSkipped("no cluster had enough matches to build a graph")
    return LabelVector(z), Registration(reports, constrained)
