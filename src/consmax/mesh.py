"""Triangle meshes, graph geodesics, and OBJ/PLY mesh files.

Geodesic distances are shortest paths over the mesh edge graph with
Euclidean edge weights -- adequate for thresholded geodesic comparisons on
reasonably dense meshes. Point clouds without connectivity get a symmetric
k-nearest-neighbour graph instead (k=8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import InvalidArgument, MalformedInput

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
    src = np.concatenate([arr[:, 0], arr[:, 1]])
    dst = np.concatenate([arr[:, 1], arr[:, 0]])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    first = np.ones(len(src), dtype=bool)
    first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    src, dst = src[first], dst[first]
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
    point_ids: np.ndarray
    distances: np.ndarray  # symmetric, zero diagonal, +inf across components

    def __post_init__(self):
        ids = np.asarray(self.point_ids, dtype=np.int64)
        d = np.asarray(self.distances, dtype=np.float64)
        if d.shape != (len(ids), len(ids)):
            raise InvalidArgument("distance matrix shape mismatch")
        ids.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "point_ids", ids)
        object.__setattr__(self, "distances", d)


def geodesic_distances(mesh_or_points, query_ids) -> GeodesicTable:
    """Pairwise edge-graph shortest-path distances between query vertices.

    Accepts a TriMesh or a raw (n,3) point cloud (k-NN graph fallback).
    """
    if isinstance(mesh_or_points, TriMesh):
        indptr, indices, weights = mesh_or_points.edge_graph
        n = mesh_or_points.num_vertices
    else:
        pts = np.asarray(mesh_or_points, dtype=np.float64)
        indptr, indices, weights = knn_graph(pts)
        n = len(pts)
    ids = np.asarray(query_ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise InvalidArgument("query id out of range")
    table = _kernels.dijkstra_table(indptr, indices, weights, ids, n)
    sub = table[:, ids]
    del table
    np.minimum(sub, sub.T, out=sub)  # paths are symmetric; pick one rounding
    np.fill_diagonal(sub, 0.0)
    return GeodesicTable(point_ids=ids, distances=sub)


# ---------------------------------------------------------------------------
# OBJ / PLY I/O (ASCII subsets)
# ---------------------------------------------------------------------------

def read_ascii(path) -> str:
    """The text of an ASCII input file. A file that cannot be read, or that
    holds a non-ASCII byte, raises MalformedInput."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as exc:
        raise MalformedInput(str(exc), str(path)) from None
    except UnicodeDecodeError as exc:
        line = exc.object[: exc.start].count(b"\n") + 1
        raise MalformedInput(f"non-ASCII byte 0x{exc.object[exc.start]:02x}", str(path), line) from None


def load_mesh(path) -> TriMesh:
    text = read_ascii(path)
    head = text.lstrip()[:3]
    if head == "ply":
        return _parse_ply(text, str(path))
    return _parse_obj(text, str(path))


def _parse_obj(text: str, path: str) -> TriMesh:
    verts, faces = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "v":
            if len(parts) < 4:
                raise MalformedInput("vertex needs 3 coordinates", path, lineno)
            try:
                verts.append([float(x) for x in parts[1:4]])
            except ValueError:
                raise MalformedInput("bad vertex coordinate", path, lineno) from None
            if not all(map(math.isfinite, verts[-1])):
                raise MalformedInput("non-finite vertex coordinate", path, lineno)
        elif parts[0] == "f":
            if len(parts) != 4:
                raise MalformedInput("only triangular faces supported", path, lineno)
            idx = []
            for tok in parts[1:]:
                tok = tok.split("/")[0]
                try:
                    i = int(tok)
                except ValueError:
                    raise MalformedInput("bad face index", path, lineno) from None
                if i < 1:
                    raise MalformedInput("face indices must be positive (1-based)", path, lineno)
                idx.append(i - 1)
            if len(set(idx)) != 3:
                raise MalformedInput("face repeats a vertex", path, lineno)
            faces.append(idx)
        # other records (vn, vt, o, g, s, usemtl ...) are ignored
    if not verts:
        raise MalformedInput("no vertices", path, 1)
    if faces and max(max(f) for f in faces) >= len(verts):
        raise MalformedInput("face index out of range", path, 1)
    return TriMesh(
        vertices=np.asarray(verts, dtype=np.float64),
        triangles=np.asarray(faces, dtype=np.int64).reshape(-1, 3),
    )


def _parse_ply(text: str, path: str) -> TriMesh:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise MalformedInput("missing ply magic", path, 1)
    n_vert = n_face = None
    vert_props: list[str] = []
    in_vertex_element = False
    body_start = None
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if line == "end_header":
            body_start = lineno
            break
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "format":
            if parts[1:2] != ["ascii"]:
                raise MalformedInput("only ascii PLY supported", path, lineno)
        elif parts[0] == "element":
            try:
                count = int(parts[2])
            except (ValueError, IndexError):
                raise MalformedInput("element needs a name and an integer count", path, lineno) from None
            if count < 0:
                raise MalformedInput("negative element count", path, lineno)
            in_vertex_element = parts[1] == "vertex"
            if parts[1] == "vertex":
                n_vert = count
            elif parts[1] == "face":
                n_face = count
        elif parts[0] == "property" and in_vertex_element and parts[1:2] != ["list"]:
            vert_props.append(parts[-1])
    if body_start is None or n_vert is None:
        raise MalformedInput("incomplete PLY header", path, 1)
    try:
        ix, iy, iz = (vert_props.index(k) for k in ("x", "y", "z"))
    except ValueError:
        raise MalformedInput("vertex element must carry x y z", path, 1) from None
    body = [
        (lineno, ln.strip())
        for lineno, ln in enumerate(lines[body_start:], start=body_start + 1)
        if ln.strip()
    ]
    if len(body) < n_vert + (n_face or 0):
        raise MalformedInput("truncated PLY body", path, body_start)
    verts = np.empty((n_vert, 3))
    for k in range(n_vert):
        lineno, ln = body[k]
        parts = ln.split()
        try:
            xyz = [float(parts[ix]), float(parts[iy]), float(parts[iz])]
        except (ValueError, IndexError):
            raise MalformedInput("bad vertex line", path, lineno) from None
        if not all(map(math.isfinite, xyz)):
            raise MalformedInput("non-finite vertex coordinate", path, lineno)
        verts[k] = xyz
    faces = []
    for k in range(n_face or 0):
        lineno, ln = body[n_vert + k]
        parts = ln.split()
        try:
            cnt = int(parts[0])
            idx = [int(t) for t in parts[1:1 + cnt]]
        except (ValueError, IndexError):
            raise MalformedInput("bad face line", path, lineno) from None
        if len(idx) != cnt:
            raise MalformedInput(f"face line lists {len(idx)} of its {cnt} indices", path, lineno)
        if cnt != 3:
            raise MalformedInput("only triangular faces supported", path, lineno)
        if min(idx) < 0 or max(idx) >= n_vert:
            raise MalformedInput("face index out of range", path, lineno)
        if len(set(idx)) != 3:
            raise MalformedInput("face repeats a vertex", path, lineno)
        faces.append(idx)
    return TriMesh(
        vertices=verts, triangles=np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    )


def save_mesh(mesh: TriMesh, path) -> None:
    """Write OBJ or PLY depending on the path suffix (ASCII, round-trip safe)."""
    p = str(path)
    if p.endswith(".ply"):
        out = ["ply", "format ascii 1.0", f"element vertex {mesh.num_vertices}"]
        out += [f"property double {ax}" for ax in "xyz"]
        out += [
            f"element face {len(mesh.triangles)}",
            "property list uchar int vertex_indices",
            "end_header",
        ]
        for v in mesh.vertices:
            out.append(" ".join(f"{x:.17g}" for x in v))
        for f in mesh.triangles:
            out.append("3 " + " ".join(str(int(i)) for i in f))
    else:
        out = []
        for v in mesh.vertices:
            out.append("v " + " ".join(f"{x:.17g}" for x in v))
        for f in mesh.triangles:
            out.append("f " + " ".join(str(int(i) + 1) for i in f))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(out) + "\n")
