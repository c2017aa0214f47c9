"""Template-to-image outlier removal via piecewise-rigid pose agreement.

Vertices are non-collinear match triangles in the symmetric q-nearest
neighbour graph of the template points; edges join triangle pairs sharing
exactly two matches, so each constraint involves four unique matches. Edge
agreement solves P3P on both triangles and compares the recovered camera
poses. A voting baseline (local filtering) is included for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from . import _kernels
from .core import (
    ConsensusGraph,
    LabelVector,
    MatchSet,
    Registration,
    _edge_unions,
    build_covering_program,
    kmeans_partition,
    register_clusters,
)
from .errors import EmptyMatches, InvalidArgument, TooFewMatches
from .mesh import knn_graph
from .pose import CameraIntrinsics, p3p_batch, pose_agreement_batch, triangle_extent
from .solver import SolverConfig, solve_exact, solve_relaxed

MODES = ("exact", "relaxed", "local-filter")
_COLLINEAR_REL = 1e-6
# a cluster needs one pair of triangles sharing two matches to have an edge
MIN_CLUSTER_MATCHES = 4
# local filtering labels a match in fewer incident edges an outlier
MIN_INCIDENT_EDGES = 3


@dataclass(frozen=True)
class TemplateMatchConfig:
    eps1: float = math.radians(10.0)
    eps2: float = 0.40
    q: int = 15
    edges_per_point_cap: int = 30
    clusters: int = 1
    tau: float = 0.5
    solver: SolverConfig = field(default_factory=SolverConfig)
    mode: str = "exact"
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.eps1 < math.pi):
            raise InvalidArgument("eps1 must lie in (0, pi)")
        if not self.eps2 > 0.0:
            raise InvalidArgument("eps2 must be positive")
        if self.q < 4:
            raise InvalidArgument("q must be >= 4")
        if self.edges_per_point_cap < 1:
            raise InvalidArgument("edges_per_point_cap must be >= 1")
        if not (0.0 < self.tau <= 1.0):
            raise InvalidArgument("tau must lie in (0, 1]")
        if self.clusters < 1:
            raise InvalidArgument("clusters must be >= 1")
        if self.mode not in MODES:
            raise InvalidArgument(f"mode must be one of {MODES}")


def _collinear(pts: np.ndarray) -> np.ndarray:
    """Rows of an (n, 3, 3) stack of point triples that are coincident or
    collinear."""
    sides, area2 = triangle_extent(pts)
    diam = sides.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (diam <= 0.0) | (area2 / diam <= _COLLINEAR_REL * diam)


def _points(template_points, image_points):
    """The float64 (n, 3) template and (m, 2) image points, or InvalidArgument."""
    tpts, ipts = (np.asarray(a, dtype=np.float64) for a in (template_points, image_points))
    if tpts.shape[1:] != (3,) or ipts.shape[1:] != (2,):
        raise InvalidArgument("template points must be (n, 3) and image points (m, 2)")
    return tpts, ipts


def build_triangle_graph(
    template_points,
    image_points,
    K: CameraIntrinsics,
    config: TemplateMatchConfig = TemplateMatchConfig(),
) -> ConsensusGraph:
    """Agreement graph over match triangles (one cluster's matches).

    Row ``i`` of ``template_points``/``image_points`` is match ``i``.
    Triangle pairs sharing two matches are capped per point by seeded
    subsampling, then scored with P3P pose agreement. Degenerate triangles
    and empty P3P solution sets contribute no edge.
    """
    tpts, ipts = _points(template_points, image_points)
    k = len(tpts)
    if len(ipts) != k:
        raise InvalidArgument("template and image point counts differ")
    if k < MIN_CLUSTER_MATCHES:
        raise TooFewMatches(f"need at least {MIN_CLUSTER_MATCHES} matches, got {k}")

    indptr, nbrs, _ = knn_graph(tpts, config.q)
    rows = np.repeat(np.arange(k), np.diff(indptr))
    up = np.zeros((k, k), dtype=bool)
    up[rows, nbrs] = rows < nbrs  # the symmetric q-NN graph's upper triangle

    # triangles i < j < l, sorted: each edge (i, j) with each later common neighbour l
    i, j = np.nonzero(up)
    e, l = np.nonzero(up[i] & up[j])
    tri = np.column_stack([i[e], j[e], l])
    tri = tri[~_collinear(tpts[tri])]

    # pairs of triangles sharing an edge (two matches), in sorted order; two
    # distinct triangles share at most one edge, so no pair repeats. Sorted
    # by edge key, each triangle-edge pairs with every later entry of its key.
    keys = np.concatenate(
        [tri[:, 0] * k + tri[:, 1], tri[:, 1] * k + tri[:, 2], tri[:, 0] * k + tri[:, 2]]
    )
    owner = np.tile(np.arange(len(tri)), 3)
    order = np.lexsort((owner, keys))
    keys, owner = keys[order], owner[order]
    pos = np.arange(len(keys))
    later = np.searchsorted(keys, keys, side="right") - pos - 1
    first = np.repeat(pos, later)
    second = _kernels.segments(pos + 1, later)
    order = np.lexsort((owner[second], owner[first]))
    first, second = first[order], second[order]
    ordered = np.column_stack([owner[first], owner[second]])
    # the four matches of each pair: the first triangle's three, plus the
    # second triangle's vertex off the shared edge
    shared = keys[first] // k + keys[first] % k
    involved = np.column_stack([tri[ordered[:, 0]], tri[ordered[:, 1]].sum(axis=1) - shared])

    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(len(ordered))
    incident = [0] * k
    kept = []
    cap = config.edges_per_point_cap
    for pos, w, x, y, z in zip(perm.tolist(), *involved[perm].T.tolist()):
        if incident[w] >= cap or incident[x] >= cap or incident[y] >= cap or incident[z] >= cap:
            continue
        incident[w] += 1
        incident[x] += 1
        incident[y] += 1
        incident[z] += 1
        kept.append(pos)
    kept = ordered[np.sort(np.array(kept, dtype=np.int64))]

    # P3P for the triangles of kept edges only, then agreement over the
    # edges whose triangles both have poses
    used, slot = np.unique(kept, return_inverse=True)
    rot, trans, counts, _ = p3p_batch(tpts[tri[used]], K.bearing(ipts)[tri[used]])
    slot = slot.reshape(-1, 2)
    both = (counts[slot] > 0).all(axis=1)
    edges, slot = kept[both], slot[both]
    sa, sb = slot[:, 0], slot[:, 1]
    theta = pose_agreement_batch(
        rot[sa], trans[sa], counts[sa], rot[sb], trans[sb], counts[sb], config.eps1, config.eps2
    )

    return ConsensusGraph(vertices=tri, edges=edges, theta=theta, s=3)


def local_filtering(
    graph: ConsensusGraph,
    tau: float,
    min_incident: int,
    num_matches: int,
) -> LabelVector:
    """Voting baseline over ``num_matches`` matches: a match is an inlier
    when at least ``tau`` of its incident edges agree and it has at least
    ``min_incident`` of them."""
    if graph.s != 3:
        raise InvalidArgument("local filtering expects a triangle graph (s=3)")
    p = int(num_matches)
    rows = _edge_unions(graph, graph.edges)
    member = rows >= 0
    total = np.bincount(rows[member], minlength=p)
    agree = np.bincount(rows[member & (graph.theta[:, None] == 1)], minlength=p)
    z = np.ones(p, dtype=np.int8)
    ok = total >= min_incident
    frac = np.divide(agree, total, out=np.zeros(p, dtype=np.float64), where=total > 0)
    z[ok & (frac >= tau)] = 0
    return LabelVector(z)


def template_image_registration(
    template_points,
    image_points,
    matches: MatchSet,
    K: CameraIntrinsics,
    config: TemplateMatchConfig = TemplateMatchConfig(),
) -> tuple[LabelVector, Registration]:
    """Label template-image matches via per-cluster pose-agreement graphs.

    Matches in no constraint keep the inlier label and are reported as
    unconstrained; clusters with fewer than 4 matches are skipped with a
    warning. Raises when every cluster is skipped.
    """
    tpts, ipts = _points(template_points, image_points)
    if not (np.isfinite(tpts).all() and np.isfinite(ipts).all()):
        raise InvalidArgument("template and image points must be finite")
    p = len(matches)
    if p == 0:
        raise EmptyMatches("match set is empty")
    if matches.pairs[:, 0].max() >= len(tpts) or matches.pairs[:, 1].max() >= len(ipts):
        raise EmptyMatches("matches reference points outside the given arrays")

    mt = tpts[matches.pairs[:, 0]]
    mi = ipts[matches.pairs[:, 1]]
    m = min(config.clusters, p)
    partition = kmeans_partition(mt, m, config.seed)
    solve = solve_exact if config.mode == "exact" else solve_relaxed

    def label_cluster(c, idx):
        graph = build_triangle_graph(mt[idx], mi[idx], K, config)
        program = build_covering_program(graph)
        if config.mode == "local-filter":
            labels = local_filtering(graph, config.tau, MIN_INCIDENT_EDGES, len(idx))
            return program, labels, None
        result = solve(program, config.solver)
        return program, result.labels, result

    return register_clusters(partition, label_cluster, min_size=MIN_CLUSTER_MATCHES)
