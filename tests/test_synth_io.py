import json

import numpy as np
import pytest

from consmax import _kernels
from consmax.core import ClusterReport, CoveringProgram, LabelVector, MatchSet, Registration
from consmax.errors import InvalidArgument, LengthMismatch, MalformedInput
from consmax.io import (
    build_report,
    emit_intrinsics,
    emit_matches,
    emit_points,
    emit_report,
    evaluate_labels,
    parse_intrinsics,
    parse_matches,
    parse_points,
)
from consmax.pose import CameraIntrinsics
from consmax.solver import solve_exact
from consmax.synth import (
    SynthSpec,
    grid_mesh,
    synth_isometric_instance,
    synth_template_instance,
)


class TestSynthSpec:
    def test_ratio_range(self):
        with pytest.raises(InvalidArgument):
            SynthSpec(kind="isometric-grid", n_points=100, outlier_ratio=1.0)

    def test_bend_radius_zero_invalid(self):
        with pytest.raises(InvalidArgument):
            SynthSpec(kind="template-bend", n_points=100, outlier_ratio=0.1, bend_radius=0.0)

    @pytest.mark.parametrize("field,kind", [("bend_radius", "template-bend"), ("noise", "isometric-grid")])
    def test_nan_invalid(self, field, kind):
        with pytest.raises(InvalidArgument, match=field):
            SynthSpec(kind=kind, n_points=100, outlier_ratio=0.1, **{field: float("nan")})

    @pytest.mark.parametrize(
        "field,kind",
        [("bend_radius", "template-bend"), ("noise", "isometric-grid"), ("noise", "template-bend")],
    )
    def test_inf_invalid(self, field, kind):
        with pytest.raises(InvalidArgument, match=field):
            SynthSpec(kind=kind, n_points=100, outlier_ratio=0.1, **{field: float("inf")})

    def test_kind_checked(self):
        with pytest.raises(InvalidArgument):
            SynthSpec(kind="torus", n_points=10, outlier_ratio=0.0)


class TestIsometricInstance:
    def test_zero_ratio_all_inliers(self):
        _, _, matches = synth_isometric_instance(
            SynthSpec(kind="isometric-grid", n_points=100, outlier_ratio=0.0, seed=1)
        )
        assert matches.gt_labels.num_outliers == 0
        assert np.array_equal(matches.pairs[:, 0], matches.pairs[:, 1])

    def test_outlier_count_exact(self):
        _, _, matches = synth_isometric_instance(
            SynthSpec(kind="isometric-grid", n_points=100, outlier_ratio=0.5, seed=7)
        )
        assert matches.gt_labels.num_outliers == 50

    def test_eighty_percent(self):
        _, _, matches = synth_isometric_instance(
            SynthSpec(kind="isometric-grid", n_points=100, outlier_ratio=0.8, seed=3)
        )
        assert matches.gt_labels.num_outliers == 80

    def test_reassignments_differ_from_identity(self):
        _, _, matches = synth_isometric_instance(
            SynthSpec(kind="isometric-grid", n_points=64, outlier_ratio=0.6, seed=9)
        )
        out = matches.gt_labels.outlier_indices()
        assert (matches.pairs[out, 0] != matches.pairs[out, 1]).all()
        inl = np.nonzero(matches.gt_labels.z == 0)[0]
        assert (matches.pairs[inl, 0] == matches.pairs[inl, 1]).all()

    def test_rigid_copy_is_isometric(self):
        source, target, _ = synth_isometric_instance(
            SynthSpec(kind="isometric-grid", n_points=49, outlier_ratio=0.0, seed=2)
        )
        d_src = np.linalg.norm(source.vertices[0] - source.vertices[-1])
        d_tgt = np.linalg.norm(target.vertices[0] - target.vertices[-1])
        assert d_src == pytest.approx(d_tgt, rel=1e-12)
        assert np.array_equal(source.triangles, target.triangles)

    def test_deterministic(self):
        spec = SynthSpec(kind="isometric-grid", n_points=80, outlier_ratio=0.4, seed=11)
        a = synth_isometric_instance(spec)
        b = synth_isometric_instance(spec)
        assert np.array_equal(a[2].pairs, b[2].pairs)
        assert np.array_equal(a[1].vertices, b[1].vertices)

    def test_non_square_grid_connected(self):
        for n in (50, 150, 200):
            mesh = grid_mesh(n)
            indptr, indices, weights = mesh.edge_graph
            from_first = _kernels.dijkstra_table(indptr, indices, weights, np.array([0]), n)
            assert np.isfinite(from_first).all()


class TestTemplateInstance:
    def test_zero_ratio_exact_projection(self):
        template, image, K, matches = synth_template_instance(
            SynthSpec(kind="template-bend", n_points=100, outlier_ratio=0.0, seed=5)
        )
        assert matches.gt_labels.num_outliers == 0
        # every image point reprojects from some consistent rigid pose;
        # verify via P3P on one triangle reprojecting all points
        from consmax.pose import p3p_solve

        bearings = K.bearing(image)
        sols = p3p_solve(template[[0, 5, 50]], bearings[[0, 5, 50]])
        best = None
        for s in sols:
            cam = template @ s.rotation.T + s.translation
            uv = np.column_stack(
                [K.fx * cam[:, 0] / cam[:, 2] + K.cx, K.fy * cam[:, 1] / cam[:, 2] + K.cy]
            )
            err = np.abs(uv - image).max()
            best = err if best is None else min(best, err)
        assert best < 1e-6

    def test_outlier_count_rounding(self):
        _, _, _, matches = synth_template_instance(
            SynthSpec(kind="template-bend", n_points=225, outlier_ratio=0.3, seed=1)
        )
        assert matches.gt_labels.num_outliers == 68  # round(0.3 * 225)

    def test_outliers_displaced_at_least_five_px(self):
        spec = SynthSpec(kind="template-bend", n_points=144, outlier_ratio=0.4, seed=3)
        template, image, K, matches = synth_template_instance(spec)
        clean = synth_template_instance(
            SynthSpec(kind="template-bend", n_points=144, outlier_ratio=0.0, seed=3)
        )[1]
        out = matches.gt_labels.outlier_indices()
        gaps = np.linalg.norm(image[out] - clean[out], axis=1)
        assert gaps.min() >= 5.0

    def test_bend_preserves_arc_length(self):
        flat = synth_template_instance(
            SynthSpec(kind="template-bend", n_points=225, outlier_ratio=0.0, seed=1, bend_radius=1e9)
        )[0]
        bent = synth_template_instance(
            SynthSpec(kind="template-bend", n_points=225, outlier_ratio=0.0, seed=1, bend_radius=2.0)
        )[0]
        # row-adjacent chord lengths shrink only second-order under the bend
        d_flat = np.linalg.norm(np.diff(flat[:15], axis=0), axis=1)
        d_bent = np.linalg.norm(np.diff(bent[:15], axis=0), axis=1)
        assert np.allclose(d_flat, d_bent, rtol=5e-4)

    def test_deterministic(self):
        spec = SynthSpec(kind="template-bend", n_points=100, outlier_ratio=0.3, seed=8)
        a = synth_template_instance(spec)
        b = synth_template_instance(spec)
        assert np.array_equal(a[1], b[1])


class TestEvaluateLabels:
    def test_perfect_prediction(self):
        gt = LabelVector(np.array([0, 1, 0, 1], dtype=np.int8))
        report = evaluate_labels(gt, gt)
        assert report.precision == 1.0 and report.recall == 1.0
        assert report.true_inliers_kept == 2 and report.outliers_removed == 2

    def test_all_predicted_outlier(self):
        gt = LabelVector(np.zeros(4, dtype=np.int8))
        pred = LabelVector(np.ones(4, dtype=np.int8))
        report = evaluate_labels(pred, gt)
        assert report.true_inliers_kept == 0
        assert report.recall == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            evaluate_labels(
                LabelVector(np.zeros(3, dtype=np.int8)),
                LabelVector(np.zeros(4, dtype=np.int8)),
            )

    def test_counts_partition(self):
        rng = np.random.default_rng(0)
        pred = LabelVector(rng.integers(0, 2, 50).astype(np.int8))
        gt = LabelVector(rng.integers(0, 2, 50).astype(np.int8))
        r = evaluate_labels(pred, gt)
        total = (
            r.true_inliers_kept + r.true_inliers_lost + r.outliers_removed + r.outliers_missed
        )
        assert total == 50


class TestFileFormats:
    def test_matches_round_trip(self, tmp_path):
        pairs = np.array([[0, 1], [3, 4], [9, 11]])
        gt = LabelVector(np.array([0, 1, 0], dtype=np.int8))
        ms = MatchSet(pairs, gt)
        path = tmp_path / "matches.txt"
        emit_matches(ms, path)
        assert path.read_text().splitlines()[0] == "3"
        back = parse_matches(path)
        assert np.array_equal(back.pairs, pairs)
        assert back.gt_labels == gt

    def test_matches_without_gt(self, tmp_path):
        ms = MatchSet(np.array([[0, 0], [1, 1]]))
        path = tmp_path / "m.txt"
        emit_matches(ms, path)
        back = parse_matches(path)
        assert np.array_equal(back.pairs, ms.pairs)
        assert back.gt_labels is None

    def test_matches_negative_index(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1\n-1 0\n")
        with pytest.raises(MalformedInput) as err:
            parse_matches(path)
        assert err.value.line == 2

    def test_matches_mixed_gt_flag(self, tmp_path):
        # the fault is the first line whose field count differs from the
        # first match line's
        path = tmp_path / "mixed.txt"
        path.write_text("3\n0 0 1\n1 1\n2 2 0\n")
        with pytest.raises(MalformedInput) as err:
            parse_matches(path)
        assert str(err.value) == f"{path}:3: gt_flag must be present on every line or none"

    def test_matches_index_past_int64(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2\n0 1\n0 99999999999999999999999\n")
        with pytest.raises(MalformedInput) as err:
            parse_matches(path)
        assert str(err.value) == f"{path}:3: bad match index"

    def test_matches_count_mismatch(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("3\n0 0\n1 1\n")
        with pytest.raises(MalformedInput):
            parse_matches(path)

    def test_points_round_trip(self, tmp_path):
        pts = np.random.default_rng(3).normal(size=(7, 2))
        path = tmp_path / "pts.txt"
        emit_points(pts, path)
        back = parse_points(path, dim=2)
        assert np.array_equal(back, pts)

    def test_points_bad_coordinate(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("1\nxx yy\n")
        with pytest.raises(MalformedInput):
            parse_points(path)

    def test_intrinsics_round_trip(self, tmp_path):
        K = CameraIntrinsics(800.0, 805.5, 320.25, 240.0)
        path = tmp_path / "K.json"
        emit_intrinsics(K, path)
        assert parse_intrinsics(path) == K

    def test_report_round_trip(self, tmp_path):
        labels = LabelVector(np.array([0, 1], dtype=np.int8))
        result = solve_exact(CoveringProgram.from_constraints(2, [(1,)]))
        registration = Registration([ClusterReport(np.arange(2), False, result)], np.array([False, True]))
        report = build_report(labels, registration, "exact", {"command": "test"}, evaluate_labels(labels, labels))
        assert report["solver"]["objective"] == 1 and report["solver"]["optimal"]
        path = tmp_path / "r.json"
        emit_report(report, path)
        with open(path, encoding="ascii") as fh:
            back = json.load(fh)
        assert back == report
        assert back["solver"]["wall_time"] is None  # timing off by default

    def test_report_rendering_stable(self, tmp_path, capsys):
        labels = LabelVector(np.array([0], dtype=np.int8))
        registration = Registration([ClusterReport(np.arange(1), False, None)], np.array([False]))
        report = build_report(labels, registration, "local-filter", {"c": 1}, include_timing=True)
        assert report["solver"]["objective"] == 0
        emit_report(report, tmp_path / "r.json")
        emit_report(report)
        assert capsys.readouterr().out == (tmp_path / "r.json").read_text()
