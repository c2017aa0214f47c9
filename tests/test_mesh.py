import numpy as np
import pytest

from consmax.errors import InvalidArgument, MalformedInput
from consmax.io import emit_mesh, load_mesh
from consmax.mesh import GeodesicTable, TriMesh, geodesic_distances, knn_graph
from consmax.synth import grid_mesh


def chain_mesh():
    # three vertices along x with an apex making two triangles
    return TriMesh(
        vertices=np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [1, 1, 0]]),
        triangles=np.array([[0, 1, 3], [1, 2, 3]]),
    )


# the header lines and body rows of chain_mesh's elements in an ASCII PLY,
# and of an edge element with two per-row properties
VERTEX_ELEMENT = (
    ["element vertex 4", "property float x", "property float y", "property float z"],
    ["0 0 0", "1 0 0", "2 0 0", "1 1 0"],
)
FACE_ELEMENT = (
    ["element face 2", "property list uchar int vertex_indices"],
    ["3 0 1 3", "3 1 2 3"],
)
EDGE_ELEMENT = (
    ["element edge 3", "property int vertex1", "property int vertex2"],
    ["0 1", "1 2", "2 3"],
)
# the same vertex and face elements with a property that the reader skips:
# a list after x y z, a scalar after the index list
TAGGED_VERTEX_ELEMENT = (
    [*VERTEX_ELEMENT[0], "property list uchar int tags"],
    [f"{row} 1 7" for row in VERTEX_ELEMENT[1]],
)
FLAGGED_FACE_ELEMENT = (
    [*FACE_ELEMENT[0], "property uchar flags"],
    [f"{row} 5" for row in FACE_ELEMENT[1]],
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

    @pytest.mark.parametrize("shape", [(3, 2), (9,)], ids=["2-columns", "1-d"])
    def test_vertex_shape(self, shape):
        with pytest.raises(InvalidArgument, match=r"\(n, 3\)"):
            TriMesh(np.zeros(shape), np.array([[0, 1, 2]]))


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

    @pytest.mark.parametrize("shape", [(2, 3), (4,)], ids=["not-square", "1-d"])
    def test_table_must_be_square(self, shape):
        with pytest.raises(InvalidArgument, match="square"):
            GeodesicTable(np.zeros(shape))


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

    @pytest.mark.parametrize("n", [0, 1])
    def test_needs_two_points(self, n):
        with pytest.raises(InvalidArgument, match="two points"):
            knn_graph(np.zeros((n, 3)))

    def test_cloud_geodesics(self):
        # raw clouds fall back to the k-NN graph
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(30, 3))
        table = geodesic_distances(pts, np.arange(10))
        assert np.isfinite(table.distances).all()


class TestMeshIO:
    def test_obj_round_trip(self, tmp_path):
        # (mesh, the bytes emit_mesh writes): 1-based faces, floats as .17g
        faceless = TriMesh(vertices=np.array([[0.5, -0.0, 1e-300], [1e300, 2.0, 3.0]]), triangles=np.zeros((0, 3)))
        cases = [
            (chain_mesh(), b"v 0 0 0\nv 1 0 0\nv 2 0 0\nv 1 1 0\nf 1 2 4\nf 2 3 4\n"),
            (faceless, b"v 0.5 -0 1e-300\nv 1.0000000000000001e+300 2 3\n"),
        ]
        path = tmp_path / "m.obj"
        for mesh, data in cases:
            emit_mesh(mesh, path)
            assert path.read_bytes() == data
            back = load_mesh(path)
            assert np.array_equal(back.vertices, mesh.vertices)
            assert np.array_equal(np.signbit(back.vertices), np.signbit(mesh.vertices))
            assert np.array_equal(back.triangles, mesh.triangles)
        # a mesh without vertices is an empty file, which the reader refuses
        emit_mesh(TriMesh(vertices=np.zeros((0, 3)), triangles=np.zeros((0, 3))), path)
        assert path.read_bytes() == b""
        with pytest.raises(MalformedInput, match="no vertices"):
            load_mesh(path)

    def test_ply_round_trip(self, tmp_path):
        mesh = chain_mesh()
        path = tmp_path / "m.ply"
        emit_mesh(mesh, path)
        assert path.read_bytes() == (
            b"ply\nformat ascii 1.0\nelement vertex 4\nproperty double x\nproperty double y\n"
            b"property double z\nelement face 2\nproperty list uchar int vertex_indices\nend_header\n"
            b"0 0 0\n1 0 0\n2 0 0\n1 1 0\n3 0 1 3\n3 1 2 3\n"
        )
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
        "header,face,line,message",
        [
            ("format ascii 1.0\nelement vertex abc", "3 0 1 2", 3, "element needs a name and an integer count"),
            ("format\nelement vertex 3", "3 0 1 2", 2, "only ascii PLY supported"),
            ("format ascii 1.0\nelement vertex -2", "3 0 1 2", 3, "negative element count"),
            ("format ascii 1.0\nelement vertex 3", "3 0 1", 13, "face line lists 2 of its 3 indices"),
            ("format ascii 1.0\nelement vertex 3", "x 0 1 2", 13, "bad face line"),
            ("format ascii 1.0\nelement vertex 3", "3 0 1 x", 13, "bad face index"),
            ("format ascii 1.0\nelement vertex 3", "3 0 1 3", 13, "face index out of range"),
            ("format ascii 1.0\nelement vertex 3", "3 0 -1 2", 13, "face index out of range"),
            ("format ascii 1.0\nelement vertex 3", "4 0 1 2 0", 13, "only triangular faces supported"),
            ("format ascii 1.0\nelement vertex 3\nproperty double w", "3 0 1 2", 11, "vertex needs 3 coordinates"),
            ("format ascii 1.0\nelement vertex 0\nelement normal 3", "3 0 1 2", 1, "vertex element must carry x y z"),
            ("format ascii 1.0\nelement point 3", "3 0 1 2", 1, "incomplete PLY header"),
        ],
        ids=[
            "non-integer-count", "bare-format", "negative-count", "short-face",
            "bad-face-count", "bad-face-index", "face-past-last-vertex", "negative-face-index",
            "quad-face", "short-vertex-row", "vertex-without-xyz", "no-vertex-element",
        ],
    )
    def test_ply_malformed_header_or_face(self, tmp_path, header, face, line, message):
        path = tmp_path / "m.ply"
        path.write_text(
            f"ply\n{header}\nproperty double x\nproperty double y\nproperty double z\n"
            f"element face 1\nproperty list uchar int vertex_indices\nend_header\n"
            f"0 0 0\n1 0 0\n0 1 0\n{face}\n"
        )
        with pytest.raises(MalformedInput) as exc:
            load_mesh(path)
        assert str(exc.value) == f"{path}:{line}: {message}"

    @pytest.mark.parametrize(
        "name,text,line,message",
        [
            ("m.obj", "# faces only\nf 1 2 3\n", 1, "no vertices"),
            ("m.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 4 3\n", 5, "only triangular faces supported"),
            ("m.ply", "ply ascii\nformat ascii 1.0\nend_header\n", 1, "missing ply magic"),
            ("m.ply", "ply\nformat ascii 1.0\nelement vertex 1\nproperty double x\n", 1, "incomplete PLY header"),
        ],
        ids=["obj-no-vertices", "obj-quad-face", "ply-bad-magic", "ply-no-end-header"],
    )
    def test_malformed_mesh_file(self, tmp_path, name, text, line, message):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(MalformedInput) as exc:
            load_mesh(path)
        assert str(exc.value) == f"{path}:{line}: {message}"

    @pytest.mark.parametrize(
        "elements",
        [
            [VERTEX_ELEMENT, FACE_ELEMENT],
            [FACE_ELEMENT, VERTEX_ELEMENT],
            [VERTEX_ELEMENT, EDGE_ELEMENT, FACE_ELEMENT],
            [EDGE_ELEMENT, FACE_ELEMENT, VERTEX_ELEMENT],
            [TAGGED_VERTEX_ELEMENT, FLAGGED_FACE_ELEMENT],
        ],
        ids=["vertex-face", "face-first", "edge-between", "edge-first", "skipped-properties"],
    )
    def test_ply_loads_as_its_obj_copy(self, tmp_path, elements):
        # the body holds each element's rows in the order the header
        # declares the elements; elements other than vertex and face are
        # skipped
        emit_mesh(chain_mesh(), tmp_path / "m.obj")
        path = tmp_path / "m.ply"
        header = [line for lines, _ in elements for line in lines]
        body = [row for _, rows in elements for row in rows]
        path.write_text("\n".join(["ply", "format ascii 1.0", *header, "end_header", *body]) + "\n")
        mesh, obj = load_mesh(path), load_mesh(tmp_path / "m.obj")
        assert np.array_equal(mesh.vertices, obj.vertices)
        assert np.array_equal(mesh.triangles, obj.triangles)
        assert (mesh.vertices.dtype, mesh.triangles.dtype) == (obj.vertices.dtype, obj.triangles.dtype)

    @pytest.mark.parametrize(
        "vertex,face,body,line,message",
        [
            (["list uchar int tags", "double x", "double y", "double z"], ["list uchar int vertex_indices"],
             ["1 7 0 0 0", "1 7 1 0 0", "1 7 0 1 0", "3 0 1 2"], 4, "a vertex list property must follow x y z"),
            (["double x", "double y", "double z"], ["uchar flags", "list uchar int vertex_indices"],
             ["0 0 0", "1 0 0", "0 1 0", "5 3 0 1 2"], 8, "the face element must start with its index list"),
        ],
        ids=["vertex-list-before-xyz", "face-scalar-before-indices"],
    )
    def test_ply_property_before_the_ones_read(self, tmp_path, vertex, face, body, line, message):
        # rows are read by token position, which a property before the read
        # ones would shift: such a header is refused at that property
        path = tmp_path / "m.ply"
        header = ["element vertex 3", *(f"property {p}" for p in vertex)]
        header += ["element face 1", *(f"property {p}" for p in face)]
        path.write_text("\n".join(["ply", "format ascii 1.0", *header, "end_header", *body]) + "\n")
        with pytest.raises(MalformedInput) as exc:
            load_mesh(path)
        assert str(exc.value) == f"{path}:{line}: {message}"

    def test_ply_truncated(self, tmp_path):
        path = tmp_path / "m.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\nproperty double x\n"
            "property double y\nproperty double z\nend_header\n0 0 0\n"
        )
        with pytest.raises(MalformedInput):
            load_mesh(path)

