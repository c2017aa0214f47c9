"""Triangle meshes and graph geodesics (mesh files are read and written in
:mod:`consmax.io`).

Geodesic distances are shortest paths over the mesh edge graph with
Euclidean edge weights -- adequate for thresholded geodesic comparisons on
reasonably dense meshes. Point clouds and meshes without triangles get a
symmetric k-nearest-neighbour graph instead (k=8).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import InvalidArgument

KNN_FALLBACK_K = 8


@dataclass(frozen=True)
class TriMesh:
    vertices: np.ndarray  # (n, 3)
    triangles: np.ndarray  # (t, 3)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64)
        t = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if v.ndim != 2 or v.shape[1] != 3:
            raise InvalidArgument("vertices must be (n, 3)")
        if t.size:
            if t.min() < 0 or t.max() >= len(v):
                raise InvalidArgument("triangle index out of range")
            if (
                (t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])
            ).any():
                raise InvalidArgument("degenerate triangle with repeated vertex")
        v.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)

    @property
    def num_vertices(self) -> int:
        return int(len(self.vertices))

    @cached_property
    def edge_graph(self):
        """Symmetric CSR (indptr, indices, weights) over mesh edges."""
        return _build_csr(self.vertices, self.triangles[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2))


def _build_csr(vertices, pairs):
    """Symmetric CSR (indptr, indices, weights) over the undirected vertex
    ``pairs``; a pair given twice, in either orientation, counts once."""
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    both = np.concatenate([arr, arr[:, ::-1]])
    first = _kernels.distinct_rows(both)
    src, dst = both[first, 0], both[first, 1]
    w = np.linalg.norm(vertices[src] - vertices[dst], axis=1)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=len(vertices)))))
    return indptr, dst, w


def knn_graph(points, k: int = KNN_FALLBACK_K):
    """Symmetric k-nearest-neighbour CSR graph for raw point clouds."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    if n < 2:
        raise InvalidArgument("need at least two points")
    k = min(k, n - 1)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    nn = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return _build_csr(pts, np.column_stack([np.repeat(np.arange(n), k), nn.ravel()]))


@dataclass(frozen=True)
class GeodesicTable:
    distances: np.ndarray  # symmetric, zero diagonal, +inf across components

    def __post_init__(self):
        d = np.asarray(self.distances, dtype=np.float64)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise InvalidArgument("distance matrix must be square")
        d.setflags(write=False)
        object.__setattr__(self, "distances", d)


def shape_points(mesh_or_points) -> np.ndarray:
    """The vertices of a TriMesh, or a raw (n, d) point cloud as float64;
    raises InvalidArgument unless every coordinate is finite."""
    if isinstance(mesh_or_points, TriMesh):
        pts = mesh_or_points.vertices
    else:
        pts = np.asarray(mesh_or_points, dtype=np.float64)
    if pts.ndim != 2 or not np.isfinite(pts).all():
        raise InvalidArgument(f"shape points must be a finite (n, d) array, got shape {pts.shape}")
    return pts


def geodesic_distances(mesh_or_points, query_ids) -> GeodesicTable:
    """Pairwise edge-graph shortest-path distances between query vertices.

    Accepts a TriMesh or a raw (n,3) point cloud; a point cloud, or a mesh
    without triangles, gets the k-NN graph instead of mesh edges.
    """
    pts = shape_points(mesh_or_points)
    if isinstance(mesh_or_points, TriMesh) and len(mesh_or_points.triangles):
        indptr, indices, weights = mesh_or_points.edge_graph
    else:
        indptr, indices, weights = knn_graph(pts)
    ids = np.asarray(query_ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= len(pts)):
        raise InvalidArgument("query id out of range")
    table = _kernels.dijkstra_table(indptr, indices, weights, ids, len(pts))
    sub = table[:, ids]
    del table
    np.minimum(sub, sub.T, out=sub)  # paths are symmetric; pick one rounding
    np.fill_diagonal(sub, 0.0)
    return GeodesicTable(distances=sub)
