import numpy as np
import pytest

from consmax.errors import InvalidArgument, MalformedInput
from consmax.io import emit_mesh, load_mesh
from consmax.mesh import TriMesh, geodesic_distances, knn_graph
from consmax.synth import grid_mesh


def chain_mesh():
    # three vertices along x with an apex making two triangles
    return TriMesh(
        vertices=np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [1, 1, 0]]),
        triangles=np.array([[0, 1, 3], [1, 2, 3]]),
    )


def two_islands():
    return TriMesh(
        vertices=np.array(
            [[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [9, 9, 0], [10, 9, 0], [9, 10, 0]]
        ),
        triangles=np.array([[0, 1, 2], [3, 4, 5]]),
    )


def jittered_grid(n, seed):
    """``grid_mesh(n)`` with every vertex moved by up to 0.3 grid spacings in
    x and y, so that edge lengths and shortest paths are irregular."""
    grid = grid_mesh(n)
    rng = np.random.default_rng(seed)
    shift = np.column_stack([rng.uniform(-0.3, 0.3, size=(n, 2)), np.zeros(n)])
    return TriMesh(grid.vertices + shift, grid.triangles)


class TestTriMesh:
    def test_degenerate_triangle_rejected(self):
        with pytest.raises(InvalidArgument):
            TriMesh(np.zeros((3, 3)), np.array([[0, 0, 1]]))

    def test_index_range(self):
        with pytest.raises(InvalidArgument):
            TriMesh(np.zeros((3, 3)), np.array([[0, 1, 5]]))


class TestGeodesics:
    def test_chain_distance(self):
        table = geodesic_distances(chain_mesh(), [0, 1, 2])
        assert table.distances[0, 2] == pytest.approx(2.0)

    def test_zero_diagonal(self):
        table = geodesic_distances(chain_mesh(), [0, 1, 2, 3])
        assert np.diagonal(table.distances).tolist() == [0.0] * 4

    def test_cross_component_infinite(self):
        table = geodesic_distances(two_islands(), [0, 3])
        assert np.isinf(table.distances[0, 1])

    def test_symmetry(self):
        table = geodesic_distances(chain_mesh(), [0, 1, 2, 3])
        assert np.array_equal(table.distances, table.distances.T)

    def test_geodesic_at_least_euclidean(self):
        mesh = jittered_grid(30, seed=5)
        ids = np.arange(30)
        table = geodesic_distances(mesh, ids)
        euclid = np.linalg.norm(
            mesh.vertices[:, None, :] - mesh.vertices[None, :, :], axis=2
        )
        assert (table.distances >= euclid - 1e-9).all()

    def test_against_floyd_warshall(self):
        mesh = jittered_grid(40, seed=9)
        indptr, indices, weights = mesh.edge_graph
        n = mesh.num_vertices
        dense = np.full((n, n), np.inf)
        np.fill_diagonal(dense, 0.0)
        for u in range(n):
            for k in range(indptr[u], indptr[u + 1]):
                dense[u, indices[k]] = weights[k]
        for k in range(n):
            dense = np.minimum(dense, dense[:, k][:, None] + dense[k, :][None, :])
        table = geodesic_distances(mesh, np.arange(n))
        assert np.allclose(table.distances, dense, atol=1e-9)

    def test_triangle_inequality(self):
        mesh = jittered_grid(25, seed=13)
        rng = np.random.default_rng(13)
        d = geodesic_distances(mesh, np.arange(25)).distances
        for _ in range(200):
            i, j, k = rng.integers(0, 25, size=3)
            assert d[i, j] <= d[i, k] + d[k, j] + 1e-9 * max(1.0, d[i, j])

    def test_query_id_out_of_range(self):
        with pytest.raises(InvalidArgument):
            geodesic_distances(chain_mesh(), [0, 10])


class TestKnnGraph:
    def test_symmetric(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(20, 3))
        indptr, indices, weights = knn_graph(pts, k=4)
        dense = np.zeros((20, 20), dtype=bool)
        for u in range(20):
            for k in range(indptr[u], indptr[u + 1]):
                dense[u, indices[k]] = True
        assert (dense == dense.T).all()
        assert dense.sum(axis=1).min() >= 4

    def test_cloud_geodesics(self):
        # raw clouds fall back to the k-NN graph
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(30, 3))
        table = geodesic_distances(pts, np.arange(10))
        assert np.isfinite(table.distances).all()


class TestMeshIO:
    def test_obj_round_trip(self, tmp_path):
        mesh = chain_mesh()
        path = tmp_path / "m.obj"
        emit_mesh(mesh, path)
        back = load_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.triangles, mesh.triangles)

    def test_ply_round_trip(self, tmp_path):
        mesh = chain_mesh()
        path = tmp_path / "m.ply"
        emit_mesh(mesh, path)
        back = load_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.triangles, mesh.triangles)

    def test_obj_with_face_slashes(self, tmp_path):
        path = tmp_path / "m.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1 2/2 3/3\n")
        mesh = load_mesh(path)
        assert mesh.triangles.tolist() == [[0, 1, 2]]

    def test_obj_negative_index(self, tmp_path):
        path = tmp_path / "m.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -1 2 3\n")
        with pytest.raises(MalformedInput) as exc:
            load_mesh(path)
        assert exc.value.line == 4

    def test_obj_bad_vertex(self, tmp_path):
        path = tmp_path / "m.obj"
        path.write_text("v 0 0\n")
        with pytest.raises(MalformedInput):
            load_mesh(path)

    @pytest.mark.parametrize(
        "header,face,line",
        [
            ("format ascii 1.0\nelement vertex abc", "3 0 1 2", 3),
            ("format\nelement vertex 3", "3 0 1 2", 2),
            ("format ascii 1.0\nelement vertex -2", "3 0 1 2", 3),
            ("format ascii 1.0\nelement vertex 3", "3 0 1", 13),
        ],
        ids=["non-integer-count", "bare-format", "negative-count", "short-face"],
    )
    def test_ply_malformed_header_or_face(self, tmp_path, header, face, line):
        path = tmp_path / "m.ply"
        path.write_text(
            f"ply\n{header}\nproperty double x\nproperty double y\nproperty double z\n"
            f"element face 1\nproperty list uchar int vertex_indices\nend_header\n"
            f"0 0 0\n1 0 0\n0 1 0\n{face}\n"
        )
        with pytest.raises(MalformedInput) as exc:
            load_mesh(path)
        assert (exc.value.path, exc.value.line) == (str(path), line)

    def test_ply_truncated(self, tmp_path):
        path = tmp_path / "m.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\nproperty double x\n"
            "property double y\nproperty double z\nend_header\n0 0 0\n"
        )
        with pytest.raises(MalformedInput):
            load_mesh(path)

