import math

import numpy as np
import pytest

from consmax.errors import (
    BehindCamera,
    DegenerateConfiguration,
    EmptySolutions,
    InvalidArgument,
    InvalidRotation,
    MalformedInput,
)
from consmax.pose import (
    CameraIntrinsics,
    Pose,
    _bearing_jacobian,
    _bearing_residual,
    p3p_solve,
    pose_agreement,
    project_point,
    random_rotation,
    rotation_geodesic_distance,
)


def rot_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def synth_p3p(rng):
    """Camera-frame points in a unit box 2-4 units deep, plus a random pose."""
    while True:
        cam = np.column_stack(
            [rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 3), rng.uniform(2.0, 4.0, 3)]
        )
        sides = [
            np.linalg.norm(cam[1] - cam[2]),
            np.linalg.norm(cam[0] - cam[2]),
            np.linalg.norm(cam[0] - cam[1]),
        ]
        area = np.linalg.norm(np.cross(cam[1] - cam[0], cam[2] - cam[0]))
        if area / max(sides) > 1e-3 * max(sides):
            break
    bearings = cam / np.linalg.norm(cam, axis=1, keepdims=True)
    R = random_rotation(rng)
    t = rng.uniform(-2.0, 2.0, 3)
    world = (cam - t) @ R  # cam = R @ world + t
    return world, bearings, R, t


class TestPoseType:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(InvalidRotation):
            Pose(rotation=np.eye(3) * 1.001, translation=np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(InvalidRotation):
            Pose(rotation=np.diag([1.0, 1.0, -1.0]), translation=np.zeros(3))


class TestRotationDistance:
    def test_identity(self):
        assert rotation_geodesic_distance(np.eye(3), np.eye(3)) == 0.0

    def test_ten_degrees_analytic(self):
        got = rotation_geodesic_distance(np.eye(3), rot_z(math.radians(10)))
        assert got == pytest.approx(math.radians(10), abs=1e-12)

    def test_pi_for_half_turn(self):
        flip = np.diag([1.0, -1.0, -1.0])  # 180 degrees about x
        assert rotation_geodesic_distance(np.eye(3), flip) == pytest.approx(math.pi, abs=1e-12)

    def test_symmetric_and_triangle_inequality(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            a, b, c = (random_rotation(rng) for _ in range(3))
            dab = rotation_geodesic_distance(a, b)
            dba = rotation_geodesic_distance(b, a)
            assert dab == pytest.approx(dba, abs=1e-12)
            assert dab <= rotation_geodesic_distance(a, c) + rotation_geodesic_distance(c, b) + 1e-9

    def test_invalid_rotation_rejected(self):
        with pytest.raises(InvalidRotation):
            rotation_geodesic_distance(np.eye(3), np.ones((3, 3)))


class TestP3P:
    def test_camera_at_origin_identity(self):
        pts = np.array([[0.0, 0, 1], [1, 0, 1], [0, 1, 1]])
        bearings = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        sols = p3p_solve(pts, bearings)
        assert 1 <= len(sols) <= 4
        best = min(
            np.linalg.norm(s.rotation - np.eye(3)) + np.linalg.norm(s.translation)
            for s in sols
        )
        assert best <= 1e-9

    def test_random_pose_roundtrip(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            world, bearings, R, t = synth_p3p(rng)
            sols = p3p_solve(world, bearings)
            assert 1 <= len(sols) <= 4
            hit = any(
                rotation_geodesic_distance(s.rotation, R) < 1e-6
                and np.linalg.norm(s.translation - t) / max(1.0, np.linalg.norm(t)) < 1e-6
                for s in sols
            )
            assert hit

    def test_reprojection_within_gate(self):
        rng = np.random.default_rng(3)
        world, bearings, _, _ = synth_p3p(rng)
        for sol in p3p_solve(world, bearings):
            cam = world @ sol.rotation.T + sol.translation
            cosang = (cam * bearings).sum(axis=1) / np.linalg.norm(cam, axis=1)
            assert np.arccos(np.clip(cosang, -1, 1)).max() <= 1e-6

    def test_collinear_points_raise(self):
        bearings = np.array([[0.0, 0, 1], [0.6, 0, 0.8], [0, 0.6, 0.8]])
        with pytest.raises(DegenerateConfiguration):
            p3p_solve(np.array([[0.0, 0, 1], [0, 0, 2], [0, 0, 3]]), bearings)

    def test_coincident_bearings_raise(self):
        pts = np.array([[0.0, 0, 1], [1, 0, 1], [0, 1, 1]])
        same = np.array([[0.0, 0, 1], [0, 0, 1], [0, 1, 1]])
        with pytest.raises(DegenerateConfiguration):
            p3p_solve(pts, same / np.linalg.norm(same, axis=1, keepdims=True))


class TestBearingJacobian:
    def test_matches_per_row_reference(self):
        # the per-row loop form that the vectorised Jacobian replaced
        rng = np.random.default_rng(4)
        eps = np.finfo(np.float64).eps
        for _ in range(200):
            world, _, R, t = synth_p3p(rng)
            _, X, norms = _bearing_residual(R, t, world, np.zeros((3, 3)))
            U = X / norms[:, None]
            ref = np.zeros((9, 6))
            for i in range(3):
                proj = (np.eye(3) - np.outer(U[i], U[i])) / norms[i]
                w = X[i] - t
                skew = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
                ref[3 * i:3 * i + 3, :3] = -proj @ skew
                ref[3 * i:3 * i + 3, 3:] = proj
            J = _bearing_jacobian(X, norms, t)
            np.testing.assert_allclose(J, ref, rtol=0, atol=8 * eps * np.abs(ref).max())


class TestPoseAgreement:
    def test_identical_poses(self):
        p = Pose(np.eye(3), np.array([0.0, 0, 5]))
        assert pose_agreement([p], [p], math.radians(10), 0.4) == 1

    def test_rotation_gap_beyond_eps1(self):
        a = Pose(np.eye(3), np.array([1.0, 0, 0]))
        b = Pose(rot_z(math.radians(15)), np.array([1.0, 0, 0]))
        assert pose_agreement([a], [b], math.radians(10), 10.0) == 0

    def test_translation_rule_arithmetic(self):
        a = Pose(np.eye(3), np.array([1.0, 0, 0]))
        ok = Pose(np.eye(3), np.array([1.6, 0, 0]))
        # l1 gap 0.6 <= 0.4 * 1.6 agrees
        assert pose_agreement([a], [ok], math.radians(10), 0.4) == 1
        bad = Pose(np.eye(3), np.array([1.7, 0, 0]))
        # l1 gap 0.7 > 0.4 * 1.7 disagrees
        assert pose_agreement([a], [bad], math.radians(10), 0.4) == 0

    def test_symmetric(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            pa = [Pose(random_rotation(rng), rng.uniform(-1, 1, 3)) for _ in range(2)]
            pb = [Pose(random_rotation(rng), rng.uniform(-1, 1, 3)) for _ in range(3)]
            lhs = pose_agreement(pa, pb, math.radians(25), 0.8)
            rhs = pose_agreement(pb, pa, math.radians(25), 0.8)
            assert lhs == rhs

    def test_selects_min_rotation_pair(self):
        # the min-rotation pair fails the translation test even though
        # another pair would pass: the rule still reports disagreement
        a = [Pose(np.eye(3), np.array([10.0, 0, 0]))]
        b = [
            Pose(np.eye(3), np.array([0.0, 0, 0.1])),
            Pose(rot_z(math.radians(5)), np.array([10.0, 0, 0])),
        ]
        assert pose_agreement(a, b, math.radians(10), 0.4) == 0

    def test_empty_solutions(self):
        p = Pose(np.eye(3), np.zeros(3))
        with pytest.raises(EmptySolutions):
            pose_agreement([], [p], 0.1, 0.4)


class TestProjection:
    def test_center_ray(self):
        K = CameraIntrinsics(1.0, 1.0, 0.0, 0.0)
        got = project_point(K, Pose(np.eye(3), np.zeros(3)), [0.0, 0, 1])
        assert got.tolist() == [0.0, 0.0]

    def test_halfway_point(self):
        K = CameraIntrinsics(1.0, 1.0, 0.0, 0.0)
        got = project_point(K, Pose(np.eye(3), np.zeros(3)), [1.0, 1, 2])
        assert got.tolist() == [0.5, 0.5]

    def test_behind_camera(self):
        K = CameraIntrinsics(1.0, 1.0, 0.0, 0.0)
        with pytest.raises(BehindCamera):
            project_point(K, Pose(np.eye(3), np.zeros(3)), [0.0, 0, -1])


class TestIntrinsics:
    def test_positive_focals(self):
        with pytest.raises(InvalidArgument):
            CameraIntrinsics(0.0, 1.0, 0.0, 0.0)

    def test_json_round_trip(self):
        K = CameraIntrinsics(800.0, 790.5, 320.0, 240.0)
        back = CameraIntrinsics.from_json(K.to_json())
        assert back == K

    def test_bad_json(self):
        with pytest.raises(MalformedInput):
            CameraIntrinsics.from_json("{\"fx\": 1.0}")

    def test_bearing_unit_norm(self):
        K = CameraIntrinsics(800.0, 800.0, 320.0, 240.0)
        rays = K.bearing([[0.0, 0.0], [639.0, 479.0]])
        assert np.allclose(np.linalg.norm(rays, axis=1), 1.0)
