import hashlib

import numpy as np
import pytest

from consmax import isometric
from consmax.core import LabelVector, MatchSet
from consmax.errors import EmptyMatches, GeodesicFailure, InvalidArgument
from consmax.isometric import (
    IsometryConfig,
    isometry_agreement,
    shape_registration,
    shape_registration_detailed,
)
from consmax.mesh import TriMesh, geodesic_distances
from consmax.synth import SynthSpec, grid_mesh, synth_isometric_instance


def identity_matchset(mesh, n=None):
    n = n or mesh.num_vertices
    pairs = np.column_stack([np.arange(n)] * 2)
    return MatchSet(pairs)


class TestIsometryAgreement:
    def test_equal_distances(self):
        assert isometry_agreement(1.0, 1.0, 0.2, 0.0) == 1

    def test_within_relative_threshold(self):
        assert isometry_agreement(1.0, 1.15, 0.2, 0.0) == 1

    def test_beyond_relative_threshold(self):
        assert isometry_agreement(1.0, 1.30, 0.2, 0.0) == 0

    def test_absolute_floor(self):
        assert isometry_agreement(0.0, 0.05, 0.2, 0.1) == 1
        assert isometry_agreement(0.0, 0.5, 0.2, 0.1) == 0


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidArgument):
            IsometryConfig(eps_rel=0.0)
        with pytest.raises(InvalidArgument):
            IsometryConfig(eps_abs_frac=0.5)
        with pytest.raises(InvalidArgument):
            IsometryConfig(mode="magic")
        with pytest.raises(InvalidArgument, match="clusters"):
            IsometryConfig(clusters=0)

    def test_default_cluster_rule(self):
        assert IsometryConfig().effective_clusters(100) == 1
        assert IsometryConfig().effective_clusters(400) == 5
        assert IsometryConfig(clusters=3).effective_clusters(400) == 3


class TestShapeRegistration:
    def test_identity_self_match_all_inliers(self):
        mesh = grid_mesh(64)
        labels, results = shape_registration(mesh, mesh, identity_matchset(mesh))
        assert labels.num_outliers == 0
        assert all(r.objective == 0 and r.optimal for r in results)

    def test_half_reassigned_grid_recovered_exactly(self):
        spec = SynthSpec(kind="isometric-grid", n_points=100, outlier_ratio=0.5, seed=7)
        source, target, matches = synth_isometric_instance(spec)
        labels, _ = shape_registration(source, target, matches)
        assert labels == matches.gt_labels

    def test_out_of_range_matches(self):
        mesh = grid_mesh(9)
        other = grid_mesh(4)
        ms = identity_matchset(mesh)
        with pytest.raises(EmptyMatches):
            shape_registration(mesh, other, ms)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_points_rejected(self, value):
        # a match set holds no coordinates: the shapes' own are checked
        mesh = grid_mesh(9)
        pts = mesh.vertices.copy()
        pts[4, 0] = value
        with pytest.raises(InvalidArgument):
            shape_registration(mesh, pts, identity_matchset(mesh))

    def test_empty_matches(self):
        mesh = grid_mesh(9)
        ms = MatchSet(np.empty((0, 2), dtype=np.int64))
        with pytest.raises(EmptyMatches):
            shape_registration(mesh, mesh, ms)

    def test_zero_outliers_generates_no_constraints(self):
        spec = SynthSpec(kind="isometric-grid", n_points=49, outlier_ratio=0.0, seed=3)
        source, target, matches = synth_isometric_instance(spec)
        labels, registration = shape_registration_detailed(source, target, matches)
        assert labels.num_outliers == 0
        assert not registration.constrained.any()

    def test_objective_invariant_to_match_ordering(self):
        spec = SynthSpec(kind="isometric-grid", n_points=64, outlier_ratio=0.3, seed=5)
        source, target, matches = synth_isometric_instance(spec)
        base_labels, base_results = shape_registration(source, target, matches)
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(matches))
        permuted = MatchSet(matches.pairs[perm], LabelVector(matches.gt_labels.z[perm]))
        labels_p, results_p = shape_registration(source, target, permuted)
        assert sum(r.objective for r in results_p) == sum(r.objective for r in base_results)
        assert np.array_equal(labels_p.z, base_labels.z[perm])

    def test_multi_cluster_matches_gt(self):
        spec = SynthSpec(kind="isometric-grid", n_points=100, outlier_ratio=0.4, seed=2)
        source, target, matches = synth_isometric_instance(spec)
        config = IsometryConfig(clusters=4, seed=1)
        labels, results = shape_registration(source, target, matches, config)
        assert len(results) == 4
        # per-cluster full connectivity still pins every reassigned match
        assert labels == matches.gt_labels

    def test_relaxed_mode_low_ratio(self):
        spec = SynthSpec(kind="isometric-grid", n_points=81, outlier_ratio=0.2, seed=4)
        source, target, matches = synth_isometric_instance(spec)
        labels, results = shape_registration(
            source, target, matches, IsometryConfig(mode="relaxed")
        )
        gt = matches.gt_labels
        kept = int(((labels.z == 0) & (gt.z == 0)).sum())
        assert kept / (gt.z == 0).sum() >= 0.95

    def test_disconnected_cluster_raises(self):
        verts = np.array(
            [[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [50, 50, 0], [51, 50, 0], [50, 51, 0]]
        )
        tris = np.array([[0, 1, 2], [3, 4, 5]])
        mesh = TriMesh(verts, tris)
        pairs = np.column_stack([np.arange(6)] * 2)
        ms = MatchSet(pairs)
        # single cluster spans both components: every cross pair is non-finite,
        # but within-component pairs exist, so no failure
        labels, _ = shape_registration(mesh, mesh, ms)
        assert labels.num_outliers == 0
        # clusters that isolate one component per cluster also work; a failure
        # needs a cluster whose matches are pairwise disconnected
        lonely = MatchSet(np.array([[0, 0], [3, 3]]))
        with pytest.raises(GeodesicFailure, match="source"):
            shape_registration(mesh, mesh, lonely)
        # connected on the source, split on the target
        split = MatchSet(np.array([[0, 0], [1, 3]]))
        with pytest.raises(GeodesicFailure, match="target"):
            shape_registration(mesh, mesh, split)

    def test_point_cloud_inputs(self):
        spec = SynthSpec(kind="isometric-grid", n_points=49, outlier_ratio=0.3, seed=9)
        source, target, matches = synth_isometric_instance(spec)
        # strip connectivity: geodesics fall back to the k-NN graph
        labels, _ = shape_registration(source.vertices, target.vertices, matches)
        gt = matches.gt_labels
        missed = int(((labels.z == 0) & (gt.z == 1)).sum())
        assert missed == 0


class TestLargeGridPinned:
    """The 900-match grid's geodesic tables and per-cluster programs, pinned
    with the heap Dijkstra kernel. Rounding decides which pairs sit on the
    isometric threshold, so any change in a path sum's bits moves these."""

    SPEC = SynthSpec("isometric-grid", n_points=900, outlier_ratio=0.5, seed=0)

    def test_geodesic_tables(self):
        source, target, matches = synth_isometric_instance(self.SPEC)
        digests = [
            hashlib.sha256(
                geodesic_distances(shape, np.unique(matches.pairs[:, col])).distances.tobytes()
            ).hexdigest()
            for shape, col in ((source, 0), (target, 1))
        ]
        assert digests == [
            "77ce3cf86e080b9564c8b1a22ec77702f0a45cbbf0ecf023dc1f977609fe50be",
            "3626271818bed330ceb2d7d8fdac74ae36b27ce5f83d4808a17a354dc135c6ce",
        ]

    def test_constraint_counts(self, monkeypatch):
        source, target, matches = synth_isometric_instance(self.SPEC)
        counts = []
        build = isometric.build_covering_program

        def counting_build(graph):
            program = build(graph)
            counts.append(program.num_constraints)
            return program

        monkeypatch.setattr(isometric, "build_covering_program", counting_build)
        labels, _ = shape_registration(source, target, matches)
        assert counts == [8434, 8220, 15301, 7699, 14905]
        assert labels == matches.gt_labels
