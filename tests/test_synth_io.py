import json
from functools import partial

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

    def test_too_few_points(self):
        with pytest.raises(InvalidArgument, match="at least 4 points"):
            SynthSpec(kind="isometric-grid", n_points=3, outlier_ratio=0.0)

    @pytest.mark.parametrize(
        "make,kind",
        [(synth_isometric_instance, "template-bend"), (synth_template_instance, "isometric-grid")],
        ids=["isometric", "template"],
    )
    def test_instance_of_the_other_kind_rejected(self, make, kind):
        with pytest.raises(InvalidArgument, match="expected kind"):
            make(SynthSpec(kind=kind, n_points=16, outlier_ratio=0.0))


def assert_noise_scale(delta, noise):
    """``delta`` looks like zero-mean normal noise of standard deviation ``noise``."""
    assert abs(delta.mean()) < 0.25 * noise
    assert 0.85 * noise < delta.std() < 1.15 * noise


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

    def test_noise(self):
        spec = SynthSpec(kind="isometric-grid", n_points=400, outlier_ratio=0.3, noise=0.05, seed=6)
        source, target, matches = synth_isometric_instance(spec)
        again = synth_isometric_instance(spec)
        assert np.array_equal(target.vertices, again[1].vertices)
        assert np.array_equal(matches.pairs, again[2].pairs)
        clean = synth_isometric_instance(SynthSpec(kind="isometric-grid", n_points=400, outlier_ratio=0.3, seed=6))
        assert np.array_equal(source.vertices, clean[0].vertices)
        # the same rigid motion, then noise on every target coordinate
        assert_noise_scale(target.vertices - clean[1].vertices, 0.05)

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

    def test_noise(self):
        spec = SynthSpec(kind="template-bend", n_points=400, outlier_ratio=0.3, noise=0.5, seed=6)
        template, image, _, matches = synth_template_instance(spec)
        again = synth_template_instance(spec)
        assert np.array_equal(image, again[1])
        assert np.array_equal(matches.gt_labels.z, again[3].gt_labels.z)
        clean = synth_template_instance(SynthSpec(kind="template-bend", n_points=400, outlier_ratio=0.3, seed=6))
        assert np.array_equal(template, clean[0])
        # the noise draw moves the outlier draw on: compare the rows that
        # are inliers in both instances
        both = (matches.gt_labels.z == 0) & (clean[3].gt_labels.z == 0)
        assert both.sum() > 100
        assert_noise_scale(image[both] - clean[1][both], 0.5)

    def test_projection_outside_the_frame_rejected(self):
        # a radius of 1e6 leaves the 4-point grid flat, and this seed's pose
        # puts one of its corners past the 640 x 480 frame
        spec = SynthSpec(kind="template-bend", n_points=4, outlier_ratio=0.0, seed=149995, bend_radius=1e6)
        with pytest.raises(InvalidArgument, match="leaves the frame"):
            synth_template_instance(spec)


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
        # (pairs, ground-truth flags, the bytes emit_matches writes)
        cases = [
            ([[0, 1], [3, 4], [9, 11]], [0, 1, 0], b"3\n0 1 0\n3 4 1\n9 11 0\n"),
            (np.zeros((0, 2)), [], b"0\n"),
        ]
        path = tmp_path / "matches.txt"
        for pairs, flags, data in cases:
            gt = LabelVector(np.array(flags, dtype=np.int8))
            emit_matches(MatchSet(pairs, gt), path)
            assert path.read_bytes() == data
            back = parse_matches(path)
            assert np.array_equal(back.pairs, pairs)
            # no match line is left to carry the flags of an empty set
            assert back.gt_labels == (gt if flags else None)

    def test_matches_without_gt(self, tmp_path):
        path = tmp_path / "m.txt"
        for pairs, data in [([[0, 0], [1, 1]], b"2\n0 0\n1 1\n"), (np.zeros((0, 2)), b"0\n")]:
            ms = MatchSet(pairs)
            emit_matches(ms, path)
            assert path.read_bytes() == data
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

    @pytest.mark.parametrize(
        "read,text,line,message",
        [
            (parse_matches, "\n\n", 1, "empty matches file"),
            (parse_matches, "2\n0 0\n1\n", 3, "expected 'src tgt [gt_flag]'"),
            (parse_matches, "2\n0 0 1\n1 1 2\n", 3, "gt_flag must be 0 or 1"),
            (parse_points, "", 1, "empty points file"),
            (partial(parse_points, dim=2), "2\n0.5 1.5\n2.5 3.5 4.5\n", 3, "expected 2 coordinates"),
            (parse_points, "2\n0.5 1.5 2.5\n3.5 4.5\n", 3, "inconsistent coordinate count"),
            # without dim, the format's 2 or 3 coordinates
            (parse_points, "2\n0.5\n1.5\n", 2, "expected 2 or 3 coordinates"),
            (parse_points, "2\n0.5 1.5 2.5\n3.5 4.5 5.5 6.5\n", 3, "expected 2 or 3 coordinates"),
        ],
        ids=[
            "empty-matches", "one-index", "gt-flag-2", "empty-points", "three-of-two-coordinates",
            "inconsistent-coordinates", "one-coordinate", "four-coordinates",
        ],
    )
    def test_malformed_matches_or_points(self, tmp_path, read, text, line, message):
        path = tmp_path / "input.txt"
        path.write_text(text)
        with pytest.raises(MalformedInput) as err:
            read(path)
        assert str(err.value) == f"{path}:{line}: {message}"

    def test_points_round_trip(self, tmp_path):
        pts = np.random.default_rng(3).normal(size=(7, 2))
        path = tmp_path / "pts.txt"
        emit_points(pts, path)
        back = parse_points(path, dim=2)
        assert np.array_equal(back, pts)
        # (points, the bytes emit_points writes): every float as .17g, so
        # the file reads back bit for bit, the sign of -0.0 included
        cases = [
            ([], b"0\n"),
            (np.zeros((0, 2)), b"0\n"),
            ([[0.1, -2.5], [1 / 3, 12345.678]], b"2\n0.10000000000000001 -2.5\n0.33333333333333331 12345.678\n"),
            ([[1.0, 2.0, 3.0], [-1e-5, 0.7, 2.0**0.5]],
             b"2\n1 2 3\n-1.0000000000000001e-05 0.69999999999999996 1.4142135623730951\n"),
            ([[-0.0, 1e-300], [1e300, -1e300]], b"2\n-0 1e-300\n1.0000000000000001e+300 -1.0000000000000001e+300\n"),
        ]
        for pts, data in cases:
            emit_points(pts, path)
            assert path.read_bytes() == data
            back = parse_points(path).reshape(np.shape(pts))
            assert np.array_equal(back, pts) and np.array_equal(np.signbit(back), np.signbit(pts))
        # any other shape is refused, unless it holds no point
        for pts in ([1.0, 2.0], np.zeros((2, 1)), np.zeros((2, 4)), np.zeros((1, 2, 3))):
            with pytest.raises(InvalidArgument, match=r"shaped \(n, 2\) or \(n, 3\)"):
                emit_points(pts, path)

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
