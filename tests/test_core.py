import numpy as np
import pytest

from consmax.core import (
    ClusterPartition,
    ConsensusGraph,
    LabelVector,
    MatchSet,
    aggregate_labels,
    build_covering_program,
    estimate_graph_size,
    kmeans_partition,
)
from consmax.errors import CoverageGap, InvalidArgument


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


class TestEstimateGraphSize:
    def test_full_connectivity(self):
        assert estimate_graph_size(100, None, 1, 1) == (100, 4950)

    def test_single_point(self):
        assert estimate_graph_size(1, None, 1, 1) == (1, 0)

    def test_q_connectivity(self):
        assert estimate_graph_size(90, 15, 5, 3) == (630, 198135)

    def test_preconditions(self):
        with pytest.raises(InvalidArgument):
            estimate_graph_size(0, None, 1, 1)
        with pytest.raises(InvalidArgument):
            estimate_graph_size(5, None, 1, 6)
        with pytest.raises(InvalidArgument):
            estimate_graph_size(5, None, 0, 1)
        with pytest.raises(InvalidArgument):
            estimate_graph_size(90, 1, 5, 3)  # q < s - 1


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

    def test_every_cluster_nonempty(self):
        # near-duplicate points force empty-cluster repair
        pts = np.zeros((10, 3))
        pts[0] = (5.0, 0.0, 0.0)
        part = kmeans_partition(pts, 3, seed=2)
        assert len(np.unique(part.assignments)) == 3


class TestAggregateLabels:
    def test_identity_passthrough(self):
        labels = LabelVector(np.array([0, 1, 0], dtype=np.int8))
        out = aggregate_labels([(np.arange(3), labels)], 3)
        assert out == labels

    def test_two_clusters(self):
        out = aggregate_labels(
            [
                (np.array([0, 1]), LabelVector(np.array([0, 1], dtype=np.int8))),
                (np.array([2]), LabelVector(np.array([0], dtype=np.int8))),
            ],
            3,
        )
        assert out.z.tolist() == [0, 1, 0]

    def test_overlap_rejected(self):
        with pytest.raises(InvalidArgument):
            aggregate_labels(
                [
                    (np.array([0, 1]), LabelVector(np.array([0, 0], dtype=np.int8))),
                    (np.array([1, 2]), LabelVector(np.array([0, 0], dtype=np.int8))),
                ],
                3,
            )

    def test_coverage_gap(self):
        with pytest.raises(CoverageGap):
            aggregate_labels(
                [(np.array([0]), LabelVector(np.array([1], dtype=np.int8)))], 2
            )

    def test_split_then_aggregate_roundtrip(self):
        rng = np.random.default_rng(8)
        z = LabelVector(rng.integers(0, 2, size=30).astype(np.int8))
        part = kmeans_partition(rng.normal(size=(30, 3)), 4, seed=1)
        pieces = [
            (part.members(c), LabelVector(z.z[part.members(c)]))
            for c in range(4)
        ]
        assert aggregate_labels(pieces, 30) == z


class TestMatchSet:
    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidArgument):
            MatchSet(np.zeros((3, 3)), np.zeros((3, 3)), np.array([[0, 5]]))

    def test_gt_length_checked(self):
        with pytest.raises(InvalidArgument):
            MatchSet(
                np.zeros((3, 3)),
                np.zeros((3, 3)),
                np.array([[0, 0]]),
                LabelVector(np.array([0, 1], dtype=np.int8)),
            )


class TestClusterPartition:
    def test_nonempty_required(self):
        with pytest.raises(InvalidArgument):
            ClusterPartition(np.array([0, 0, 0]), 2)
