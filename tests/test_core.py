import pickle
import tracemalloc

import numpy as np
import pytest

from consmax.core import (
    ClusterPartition,
    ConsensusGraph,
    CoveringProgram,
    LabelVector,
    MatchSet,
    build_covering_program,
    kmeans_partition,
    register_clusters,
)
from consmax.errors import AllClustersSkipped, InvalidArgument


def make_graph(vertices, edges, theta, s):
    return ConsensusGraph(
        vertices=np.asarray(vertices, dtype=np.int64),
        edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        theta=np.asarray(theta, dtype=np.uint8),
        s=s,
    )


class TestBuildCoveringProgram:
    def test_single_violated_edge(self):
        g = make_graph([[0], [1], [2]], [(0, 1), (1, 2)], [0, 1], s=1)
        prog = build_covering_program(g)
        assert prog.constraints == ((0, 1),)

    def test_all_agreeing_edges(self):
        g = make_graph([[0], [1], [2]], [(0, 1), (1, 2)], [1, 1], s=1)
        assert build_covering_program(g).constraints == ()

    def test_four_variable_union(self):
        g = make_graph([[0, 1, 2], [1, 2, 3]], [(0, 1)], [0], s=3)
        prog = build_covering_program(g)
        assert prog.constraints == ((0, 1, 2, 3),)
        assert len(prog.constraints[0]) == 4

    def test_minimal_shared_edge_triangles(self):
        # two s=3 vertices sharing two matches: one edge, one 4-var constraint
        g = make_graph([[0, 1, 2], [0, 1, 3]], [(0, 1)], [0], s=3)
        prog = build_covering_program(g)
        assert prog.num_constraints == 1
        assert prog.constraints[0] == (0, 1, 2, 3)

    def test_duplicate_constraints_removed(self):
        g = make_graph(
            [[0, 1, 2], [1, 2, 3], [2, 1, 0], [3, 2, 1]],
            [(0, 1), (2, 3)],
            [0, 0],
            s=3,
        )
        assert build_covering_program(g).constraints == ((0, 1, 2, 3),)

    def test_constraint_cardinality_bound(self):
        rng = np.random.default_rng(0)
        for s in (1, 2, 3):
            verts = np.array([rng.choice(20, s, replace=False) for _ in range(12)])
            edges, theta = [], []
            for a in range(12):
                for b in range(a + 1, 12):
                    edges.append((a, b))
                    theta.append(int(rng.integers(2)))
            g = make_graph(verts, edges, theta, s=s)
            prog = build_covering_program(g)
            for c in prog.constraints:
                assert len(c) <= 2 * s
            # every constraint corresponds to a violated edge's vertex union
            unions = {
                tuple(sorted(set(verts[a].tolist()) | set(verts[b].tolist())))
                for (a, b), th in zip(edges, theta)
                if th == 0
            }
            assert set(prog.constraints) == unions


def ref_build_covering_program(graph):
    """The per-edge loop form of ``build_covering_program``."""
    num_vars = int(graph.vertices.max()) + 1 if graph.vertices.size else 0
    seen = set()
    for eidx in np.nonzero(graph.theta == 0)[0]:
        a, b = graph.edges[eidx]
        union = tuple(sorted(set(graph.vertices[a].tolist()) | set(graph.vertices[b].tolist())))
        seen.add(union)
    return CoveringProgram.from_constraints(num_vars, sorted(seen))


class TestCoveringProgramChecks:
    @pytest.mark.parametrize(
        "constraints,message",
        [
            (((0, 1), ()), "empty constraint"),
            (((0, 1), (2, 0, 2)), "duplicate indices"),
            (((1, 1),), "duplicate indices"),
            (((0, 4),), "out of range"),
            (((0, -1),), "out of range"),
            (((0, 2**70),), "out of range"),
            # a repeat is reported before an index too large for int64
            (((0, 2**70), (3, 3)), "duplicate indices"),
            (((5, 5), (0, 9)), "duplicate indices"),
            # an empty constraint is reported before an index too large for int64
            (((0, 2**70), ()), "empty constraint"),
        ],
    )
    def test_rejects(self, constraints, message):
        with pytest.raises(InvalidArgument, match=message):
            CoveringProgram.from_constraints(4, constraints)

    @pytest.mark.parametrize(
        "indptr,indices,message",
        [
            ([0, 2, 1, 2], [0, 1], "empty constraint"),  # a negative size
            ([1, 2], [0, 1], "cons_csr"),
            ([0, 1], [0, 1], "cons_csr"),
            ([], [], "cons_csr"),
            ([[0, 1]], [0], "cons_csr"),
        ],
        ids=["decreasing", "not-from-0", "indices-left-over", "no-indptr", "2-d"],
    )
    def test_rejects_malformed_csr(self, indptr, indices, message):
        with pytest.raises(InvalidArgument, match=message):
            CoveringProgram(4, (np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64)))

    def test_rejects_negative_num_vars(self):
        with pytest.raises(InvalidArgument, match="num_vars"):
            CoveringProgram(-1, (np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)))

    def test_csr_is_read_only(self):
        prog = CoveringProgram.from_constraints(4, [(0, 1), (2,)])
        assert not any(a.flags.writeable for a in prog.cons_csr)
        assert prog.num_constraints == 2

    def test_repeats_across_constraints_allowed(self):
        prog = CoveringProgram.from_constraints(4, [[3, 1], (1, 3, 0), (np.int64(2),)])
        assert prog.constraints == ((3, 1), (1, 3, 0), (2,))
        assert prog.cons_csr[0].tolist() == [0, 2, 5, 6]
        assert prog.cons_csr[1].tolist() == [3, 1, 1, 3, 0, 2]


class TestVectorisedPairCompile:
    """The one compile gives the loop's program for s = 1, 2 and 3, byte for
    byte: the CSR arrays and the derived constraints tuple."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        for s in (1, 2, 3):
            k = int(rng.integers(2, 60))
            iu, ju = np.triu_indices(k, 1)
            keep = rng.random(len(iu)) < 0.7
            edges = np.column_stack([iu[keep], ju[keep]])
            # both orientations, and match ids repeated across vertices so that
            # some violated edges join overlapping subsets (fewer than 2s
            # variables; for s=1 a one-variable constraint)
            edges[::3] = edges[::3, ::-1]
            pool = s + 2 if seed % 2 else 3 * k
            verts = np.array([rng.choice(pool, s, replace=False) for _ in range(k)])
            theta = (rng.random(len(edges)) < 0.4).astype(np.uint8)
            g = make_graph(verts, edges, theta, s=s)
            got = build_covering_program(g)
            want = ref_build_covering_program(g)
            assert got.num_vars == want.num_vars
            assert pickle.dumps(got.constraints) == pickle.dumps(want.constraints)
            assert [np.array_equal(a, b) for a, b in zip(got.cons_csr, want.cons_csr)] == [True, True]
            if seed % 2 and got.num_constraints:
                assert any(len(c) < 2 * s for c in got.constraints)

    def test_empty_and_agreeing(self):
        for theta in ([], [1, 1]):
            edges = [(0, 1), (1, 2)][: len(theta)]
            g = make_graph([[0], [1], [2]], edges, theta, s=1)
            assert build_covering_program(g).constraints == ref_build_covering_program(g).constraints == ()

    def test_one_cluster_900_match_peak_memory(self):
        # every pair of 900 matches, about 58% violated: the size of the
        # one-cluster program of a 900-match isometric instance. Holding the
        # constraints as Python tuples as well as CSR took about 72 MiB.
        rng = np.random.default_rng(0)
        iu, ju = np.triu_indices(900, 1)
        theta = (rng.random(len(iu)) >= 0.58).astype(np.uint8)
        g = make_graph(np.arange(900)[:, None], np.column_stack([iu, ju]), theta, s=1)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            prog = build_covering_program(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        assert prog.num_constraints == int((theta == 0).sum())
        assert peak < 32 * 2**20, f"compile peaked at {peak / 2**20:.1f} MiB"


class TestGraphValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(InvalidArgument):
            make_graph([[0], [1]], [(0, 0)], [0], s=1)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InvalidArgument):
            make_graph([[0], [1]], [(0, 1), (1, 0)], [0, 1], s=1)

    def test_vertex_cardinality(self):
        with pytest.raises(InvalidArgument):
            make_graph([[0, 0, 1]], [], [], s=3)
        with pytest.raises(InvalidArgument, match=r"\(v, s=1\)"):
            make_graph([[0, 1]], [], [], s=1)

    @pytest.mark.parametrize(
        "edges,theta,message",
        [
            ([(0, 1)], [0, 1], "equal length"),
            ([(0, 2)], [0], "out of range"),
            ([(-1, 1)], [0], "out of range"),
            ([(0, 1)], [2], "0 or 1"),
        ],
        ids=["theta-length", "past-last-vertex", "negative-vertex", "theta-value"],
    )
    def test_rejects_malformed_edges(self, edges, theta, message):
        with pytest.raises(InvalidArgument, match=message):
            make_graph([[0], [1]], edges, theta, s=1)

    def test_negative_match_index_rejected(self):
        # -1 pads the compile's union rows, so it must never be a match
        with pytest.raises(InvalidArgument, match="non-negative"):
            make_graph([[-1], [2]], [(0, 1)], [0], s=1)

    def test_repeat_in_non_adjacent_position(self):
        with pytest.raises(InvalidArgument, match="s distinct match indices"):
            make_graph([[1, 0, 1]], [], [], s=3)

    def test_reversed_duplicate_deep_in_large_graph(self):
        rng = np.random.default_rng(5)
        v = 300
        iu, ju = np.triu_indices(v, 1)
        edges = np.column_stack([iu, ju])[rng.choice(len(iu), 5000, replace=False)]
        flip = rng.random(len(edges)) < 0.5
        edges[flip] = edges[flip, ::-1]
        theta = rng.integers(0, 2, len(edges))
        vertices = np.arange(v)[:, None]
        make_graph(vertices, edges, theta, s=1)
        dup = np.insert(edges, 4200, edges[3711, ::-1], axis=0)
        with pytest.raises(InvalidArgument, match="duplicate undirected edge"):
            make_graph(vertices, dup, np.insert(theta, 4200, 0), s=1)


class TestKmeans:
    def test_single_cluster(self):
        pts = np.random.default_rng(0).normal(size=(17, 3))
        part = kmeans_partition(pts, 1, seed=4)
        assert part.m == 1
        assert (part.assignments == 0).all()

    def test_two_separated_blobs(self):
        rng = np.random.default_rng(1)
        a = rng.normal(scale=0.1, size=(20, 3))
        b = rng.normal(scale=0.1, size=(25, 3)) + np.array([100.0, 0.0, 0.0])
        pts = np.vstack([a, b])
        part = kmeans_partition(pts, 2, seed=0)
        # cluster ids may swap; membership must match blob membership
        first = part.assignments[:20]
        second = part.assignments[20:]
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]

    def test_singletons_when_m_equals_n(self):
        pts = np.arange(15, dtype=np.float64).reshape(5, 3)
        part = kmeans_partition(pts, 5, seed=9)
        assert sorted(np.bincount(part.assignments).tolist()) == [1] * 5

    def test_deterministic(self):
        pts = np.random.default_rng(3).normal(size=(40, 3))
        a = kmeans_partition(pts, 4, seed=11)
        b = kmeans_partition(pts, 4, seed=11)
        assert np.array_equal(a.assignments, b.assignments)

    def test_m_larger_than_n(self):
        with pytest.raises(InvalidArgument):
            kmeans_partition(np.zeros((3, 3)), 4, seed=0)

    def test_points_must_be_2d(self):
        with pytest.raises(InvalidArgument, match="2-D"):
            kmeans_partition(np.zeros(3), 1, seed=0)

    def test_every_cluster_nonempty(self):
        # near-duplicate points force empty-cluster repair
        pts = np.zeros((10, 3))
        pts[0] = (5.0, 0.0, 0.0)
        part = kmeans_partition(pts, 3, seed=2)
        assert len(np.unique(part.assignments)) == 3


def stub_labeller(labels_of, constraints_of=lambda c, idx: []):
    """A ``label_cluster`` that returns ``labels_of(c, idx)`` as labels, a
    program of ``constraints_of(c, idx)`` and the cluster id as result, and
    records the clusters it was called for."""

    def label_cluster(c, idx):
        label_cluster.calls.append(c)
        program = CoveringProgram.from_constraints(len(idx), constraints_of(c, idx))
        return program, LabelVector(np.asarray(labels_of(c, idx), dtype=np.int8)), c

    label_cluster.calls = []
    return label_cluster


class TestRegisterClusters:
    def test_labels_land_at_their_matches(self):
        rng = np.random.default_rng(8)
        z = LabelVector(rng.integers(0, 2, size=30).astype(np.int8))
        part = kmeans_partition(rng.normal(size=(30, 3)), 4, seed=1)
        labels, reg = register_clusters(part, stub_labeller(lambda c, idx: z.z[idx]))
        assert labels == z
        assert [r.result for r in reg.cluster_reports] == [0, 1, 2, 3]
        for c, report in enumerate(reg.cluster_reports):
            assert np.array_equal(report.indices, part.members(c)) and not report.skipped

    def test_short_labels_leave_the_rest_inlier(self):
        part = ClusterPartition(np.array([1, 0, 0, 1, 0]), 2)
        labels, _ = register_clusters(part, stub_labeller(lambda c, idx: [1]))
        assert labels.z.tolist() == [1, 1, 0, 0, 0]

    def test_small_cluster_skipped(self, caplog):
        part = ClusterPartition(np.array([0, 1, 0, 0]), 2)
        label_cluster = stub_labeller(lambda c, idx: np.ones(len(idx)), lambda c, idx: [range(len(idx))])
        with caplog.at_level("WARNING", logger="consmax.core"):
            labels, reg = register_clusters(part, label_cluster, min_size=2)
        assert label_cluster.calls == [0]
        assert labels.z.tolist() == [1, 0, 1, 1]
        assert reg.constrained.tolist() == [True, False, True, True]
        skipped = reg.cluster_reports[1]
        assert skipped.skipped and skipped.result is None and skipped.indices.tolist() == [1]
        assert "cluster 1: only 1 matches, skipped" in caplog.text

    def test_constrained_marks_the_matches_of_each_program(self):
        part = ClusterPartition(np.array([0, 1, 0, 1, 0, 1, 0]), 2)  # members [0 2 4 6], [1 3 5]
        local = {0: [(0, 2)], 1: [(1,)]}
        _, reg = register_clusters(part, stub_labeller(lambda c, idx: [], lambda c, idx: local[c]))
        assert np.nonzero(reg.constrained)[0].tolist() == [0, 3, 4]

    def test_every_cluster_skipped(self):
        label_cluster = stub_labeller(lambda c, idx: [])
        with pytest.raises(AllClustersSkipped):
            register_clusters(ClusterPartition(np.array([0, 1, 1]), 2), label_cluster, min_size=3)
        assert label_cluster.calls == []


class TestMatchSet:
    # an index past the shapes is the pipelines' check (test_isometric,
    # test_template): a match set holds no points to check it against
    def test_negative_index_rejected(self):
        with pytest.raises(InvalidArgument):
            MatchSet(np.array([[0, 0], [-1, 2]]))

    @pytest.mark.parametrize("pairs", [[0, 1], [[0, 1, 2]]], ids=["1-d", "3-columns"])
    def test_pairs_shape_checked(self, pairs):
        with pytest.raises(InvalidArgument, match=r"\(p, 2\)"):
            MatchSet(np.array(pairs))

    def test_gt_length_checked(self):
        with pytest.raises(InvalidArgument):
            MatchSet(np.array([[0, 0]]), LabelVector(np.array([0, 1], dtype=np.int8)))


class TestClusterPartition:
    def test_nonempty_required(self):
        with pytest.raises(InvalidArgument):
            ClusterPartition(np.array([0, 0, 0]), 2)

    @pytest.mark.parametrize(
        "assignments,m,message",
        [
            ([], 1, "non-empty 1-D"),
            ([[0, 0]], 1, "non-empty 1-D"),
            ([0], 0, "m must be"),
            ([0, 2], 2, "out of range"),
            ([0, -1], 2, "out of range"),
        ],
        ids=["empty", "2-d", "m-zero", "id-past-m", "negative-id"],
    )
    def test_rejects(self, assignments, m, message):
        with pytest.raises(InvalidArgument, match=message):
            ClusterPartition(np.array(assignments, dtype=np.int64), m)


class TestLabelVector:
    @pytest.mark.parametrize(
        "z,message", [([[0, 1]], "one-dimensional"), ([0, 2], r"0 \(inlier\)")], ids=["2-d", "value-2"]
    )
    def test_rejects(self, z, message):
        with pytest.raises(InvalidArgument, match=message):
            LabelVector(np.array(z))


class TestIdentityEquality:
    """Records that hold arrays compare and hash by identity: a
    field-by-field ``==`` over arrays has no single truth value."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: MatchSet(np.array([[0, 1], [2, 3]])),
            lambda: make_graph([[0], [1], [2]], [[0, 1], [1, 2]], [0, 1], 1),
            lambda: CoveringProgram.from_constraints(3, [(0, 1), (1, 2)]),
            lambda: ClusterPartition(np.array([0, 1, 0]), 2),
        ],
        ids=["MatchSet", "ConsensusGraph", "CoveringProgram", "ClusterPartition"],
    )
    def test_compare_and_hash(self, make):
        a, b = make(), make()
        assert a == a and a != b
        assert len({a, a, b}) == 2
        assert hash(a) == hash(a)
