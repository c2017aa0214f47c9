"""Shape-to-shape outlier removal under the isometry prior.

Matches are clustered with k-means on the source coordinates; inside each
cluster every match pair becomes a graph edge whose agreement compares the
two geodesic distances. Violated edges compile into two-variable covering
constraints solved exactly (or via the LP relaxation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

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
from .errors import EmptyMatches, GeodesicFailure, InvalidArgument
from .mesh import TriMesh, geodesic_distances, shape_points
from .solver import SolverConfig, solve_exact, solve_relaxed

ShapeLike = Union[TriMesh, np.ndarray]

DEFAULT_EPS_REL = 0.20
SMALL_PROBLEM_CLUSTER_THRESHOLD = 200


@dataclass(frozen=True)
class IsometryConfig:
    """Thresholds and solver settings for isometric matching.

    ``eps_rel`` is the allowed geodesic deviation relative to the source
    (template) geodesic; ``eps_abs_frac`` sets an absolute floor as a
    fraction of the source diameter so near-coincident points do not get a
    zero threshold. ``clusters=None`` picks 1 below 200 matches, 5 above.
    """

    eps_rel: float = DEFAULT_EPS_REL
    eps_abs_frac: float = 0.01
    clusters: Optional[int] = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    mode: str = "exact"
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.eps_rel < 1.0):
            raise InvalidArgument("eps_rel must lie in (0, 1)")
        if not (0.0 <= self.eps_abs_frac <= 0.1):
            raise InvalidArgument("eps_abs_frac must lie in [0, 0.1]")
        if self.clusters is not None and self.clusters < 1:
            raise InvalidArgument("clusters must be >= 1")
        if self.mode not in ("exact", "relaxed"):
            raise InvalidArgument("mode must be 'exact' or 'relaxed'")

    def effective_clusters(self, p: int) -> int:
        if self.clusters is not None:
            return min(self.clusters, p)
        return 1 if p < SMALL_PROBLEM_CLUSTER_THRESHOLD else 5


def isometry_agreement(g_source, g_target, eps_rel: float, eps_abs: float):
    """1 where |g_source - g_target| <= max(eps_rel * g_source, eps_abs), else 0.

    Takes scalars or arrays of geodesic distances; returns ``uint8``."""
    return (np.abs(g_source - g_target) <= np.maximum(eps_rel * g_source, eps_abs)).astype(np.uint8)


def shape_registration(
    source: ShapeLike,
    target: ShapeLike,
    matches: MatchSet,
    config: IsometryConfig = IsometryConfig(),
) -> tuple[LabelVector, list]:
    """Label every match inlier/outlier; returns per-cluster solver results.

    ``source``/``target`` may be triangle meshes or raw point clouds (a
    symmetric k-NN graph substitutes for missing connectivity); matches are
    clustered on the source points that ``matches.pairs[:, 0]`` picks.
    """
    labels, registration = shape_registration_detailed(source, target, matches, config)
    return labels, [r.result for r in registration.cluster_reports]


def shape_registration_detailed(
    source: ShapeLike,
    target: ShapeLike,
    matches: MatchSet,
    config: IsometryConfig = IsometryConfig(),
) -> tuple[LabelVector, Registration]:
    """Label every match and report each cluster and the constrained matches."""
    p = len(matches)
    if p == 0:
        raise EmptyMatches("match set is empty")
    src_ids = matches.pairs[:, 0]
    tgt_ids = matches.pairs[:, 1]
    src_points = shape_points(source)
    if src_ids.max() >= len(src_points) or tgt_ids.max() >= len(shape_points(target)):
        raise EmptyMatches("matches reference points outside the given shapes")

    src_unique = np.unique(src_ids)
    tgt_unique = np.unique(tgt_ids)
    src_table = geodesic_distances(source, src_unique)
    tgt_table = geodesic_distances(target, tgt_unique)
    src_row = np.searchsorted(src_unique, src_ids)
    tgt_row = np.searchsorted(tgt_unique, tgt_ids)

    src_d = src_table.distances
    diameter = float(np.max(src_d, where=np.isfinite(src_d), initial=0.0))
    eps_abs = config.eps_abs_frac * diameter

    m = config.effective_clusters(p)
    partition = kmeans_partition(src_points[src_ids], m, config.seed)

    solve = solve_exact if config.mode == "exact" else solve_relaxed

    def label_cluster(c, idx):
        iu, ju = np.triu_indices(len(idx), 1)
        # each pair's geodesics, gathered once straight from the tables
        rs, rt = src_row[idx], tgt_row[idx]
        gs = src_table.distances[rs[iu], rs[ju]]
        gt = tgt_table.distances[rt[iu], rt[ju]]
        src_ok, tgt_ok = np.isfinite(gs), np.isfinite(gt)
        if len(iu) and not src_ok.any():
            raise GeodesicFailure(f"cluster {c}: matched points disconnected on the source shape")
        if len(iu) and not tgt_ok.any():
            raise GeodesicFailure(f"cluster {c}: matched points disconnected on the target shape")
        valid = src_ok & tgt_ok
        theta = isometry_agreement(gs[valid], gt[valid], config.eps_rel, eps_abs)
        graph = ConsensusGraph(
            vertices=np.arange(len(idx), dtype=np.int64).reshape(-1, 1),
            edges=np.column_stack([iu[valid], ju[valid]]),
            theta=theta,
            s=1,
        )
        program = build_covering_program(graph)
        result = solve(program, config.solver)
        return program, result.labels, result

    return register_clusters(partition, label_cluster)
