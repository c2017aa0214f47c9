"""Template-to-image outlier removal via piecewise-rigid pose agreement.

Vertices are non-collinear match triangles among mutual q-nearest
neighbours on the template; edges join triangle pairs sharing exactly two
matches, so each constraint involves four unique matches. Edge agreement
solves P3P on both triangles and compares the recovered camera poses. A
voting baseline (local filtering) is included for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    ConsensusGraph,
    LabelVector,
    MatchSet,
    Registration,
    build_covering_program,
    kmeans_partition,
    register_clusters,
)
from .errors import (
    DegenerateConfiguration,
    EmptyMatches,
    InvalidArgument,
    TooFewMatches,
)
from .pose import CameraIntrinsics, p3p_solve, pose_agreement
from .solver import SolverConfig, solve_exact, solve_relaxed

MODES = ("exact", "relaxed", "local-filter")
_COLLINEAR_REL = 1e-6
# a cluster needs one pair of triangles sharing two matches to have an edge
MIN_CLUSTER_MATCHES = 4


@dataclass(frozen=True)
class TemplateMatchConfig:
    eps1: float = math.radians(10.0)
    eps2: float = 0.40
    q: int = 15
    edges_per_point_cap: int = 30
    clusters: int = 1
    tau: float = 0.5
    min_incident_edges: int = 3
    solver: SolverConfig = field(default_factory=SolverConfig)
    mode: str = "exact"
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.eps1 < math.pi):
            raise InvalidArgument("eps1 must lie in (0, pi)")
        if self.eps2 <= 0.0:
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


def _collinear(pts: np.ndarray) -> bool:
    sides = (
        np.linalg.norm(pts[1] - pts[2]),
        np.linalg.norm(pts[0] - pts[2]),
        np.linalg.norm(pts[0] - pts[1]),
    )
    diam = max(sides)
    if diam <= 0.0:
        return True
    area2 = np.linalg.norm(np.cross(pts[1] - pts[0], pts[2] - pts[0]))
    return area2 / diam <= _COLLINEAR_REL * diam


def build_triangle_graph(
    template_points,
    image_points,
    K: CameraIntrinsics,
    config: TemplateMatchConfig = TemplateMatchConfig(),
    match_ids=None,
) -> ConsensusGraph:
    """Agreement graph over match triangles (one cluster's matches).

    Rows of ``template_points``/``image_points`` correspond to matches;
    ``match_ids`` supplies their global indices (defaults to 0..k-1).
    Triangle pairs sharing two matches are capped per point by seeded
    subsampling, then scored with P3P pose agreement. Degenerate triangles
    and empty P3P solution sets contribute no edge.
    """
    tpts = np.asarray(template_points, dtype=np.float64).reshape(-1, 3)
    ipts = np.asarray(image_points, dtype=np.float64).reshape(-1, 2)
    k = len(tpts)
    if len(ipts) != k:
        raise InvalidArgument("template and image point counts differ")
    if k < MIN_CLUSTER_MATCHES:
        raise TooFewMatches(f"need at least {MIN_CLUSTER_MATCHES} matches, got {k}")
    ids = np.arange(k, dtype=np.int64) if match_ids is None else np.asarray(match_ids, dtype=np.int64)

    q = min(config.q, k - 1)
    d2 = ((tpts[:, None, :] - tpts[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    adj = np.zeros((k, k), dtype=bool)
    for i in range(k):
        nn = np.argsort(d2[i], kind="stable")[:q]
        adj[i, nn] = True
    adj |= adj.T  # symmetric q-NN graph

    triangles: list[tuple[int, int, int]] = []
    for i in range(k):
        nbrs = np.nonzero(adj[i])[0]
        nbrs = nbrs[nbrs > i]
        for a in range(len(nbrs)):
            for b in range(a + 1, len(nbrs)):
                j, l = int(nbrs[a]), int(nbrs[b])
                if adj[j, l] and not _collinear(tpts[[i, j, l]]):
                    triangles.append((i, j, l))
    triangles.sort()
    tri_index = {t: n for n, t in enumerate(triangles)}

    edge_to_tris: dict[tuple[int, int], list[int]] = {}
    for n, (a, b, c) in enumerate(triangles):
        for e in ((a, b), (b, c), (a, c)):
            edge_to_tris.setdefault(e, []).append(n)
    candidates = set()
    for tris in edge_to_tris.values():
        for x in range(len(tris)):
            for y in range(x + 1, len(tris)):
                candidates.add((tris[x], tris[y]))
    ordered = sorted(candidates)

    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(len(ordered))
    incident = np.zeros(k, dtype=np.int64)
    kept: list[tuple[int, int]] = []
    cap = config.edges_per_point_cap
    for pos in perm:
        t1, t2 = ordered[pos]
        involved = sorted(set(triangles[t1]) | set(triangles[t2]))
        if any(incident[v] >= cap for v in involved):
            continue
        for v in involved:
            incident[v] += 1
        kept.append((t1, t2))
    kept.sort()

    bearings = K.bearing(ipts)
    pose_cache: dict[int, Optional[list]] = {}

    def poses_of(tri_id: int):
        if tri_id not in pose_cache:
            tri = triangles[tri_id]
            try:
                sols = p3p_solve(tpts[list(tri)], bearings[list(tri)])
            except DegenerateConfiguration:
                sols = []
            pose_cache[tri_id] = sols if sols else None
        return pose_cache[tri_id]

    edges = []
    theta = []
    for t1, t2 in kept:
        pa = poses_of(t1)
        pb = poses_of(t2)
        if pa is None or pb is None:
            continue
        edges.append((t1, t2))
        theta.append(pose_agreement(pa, pb, config.eps1, config.eps2))

    vertices = (
        ids[np.array(triangles, dtype=np.int64)]
        if triangles
        else np.empty((0, 3), dtype=np.int64)
    )
    return ConsensusGraph(
        vertices=vertices,
        edges=np.array(edges, dtype=np.int64).reshape(-1, 2),
        theta=np.array(theta, dtype=np.uint8),
        s=3,
    )


def local_filtering(
    graph: ConsensusGraph,
    tau: float,
    min_incident: int,
    num_matches: Optional[int] = None,
) -> LabelVector:
    """Voting baseline: a match is an inlier when at least ``tau`` of its
    incident edges agree and it has at least ``min_incident`` of them."""
    if graph.s != 3:
        raise InvalidArgument("local filtering expects a triangle graph (s=3)")
    p = int(num_matches) if num_matches is not None else (
        int(graph.vertices.max()) + 1 if graph.vertices.size else 0
    )
    agree = np.zeros(p, dtype=np.int64)
    total = np.zeros(p, dtype=np.int64)
    for (a, b), th in zip(graph.edges.tolist(), graph.theta.tolist()):
        union = set(graph.vertices[a].tolist()) | set(graph.vertices[b].tolist())
        for v in union:
            total[v] += 1
            agree[v] += th
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
    tpts = np.asarray(template_points, dtype=np.float64).reshape(-1, 3)
    ipts = np.asarray(image_points, dtype=np.float64).reshape(-1, 2)
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
        graph = build_triangle_graph(mt[idx], mi[idx], K, config, match_ids=np.arange(len(idx)))
        program = build_covering_program(graph)
        if config.mode == "local-filter":
            labels = local_filtering(graph, config.tau, config.min_incident_edges, num_matches=len(idx))
            return program, labels, None
        result = solve(program, config.solver)
        return program, result.labels, result

    return register_clusters(partition, label_cluster, min_size=MIN_CLUSTER_MATCHES)
