import math

import numpy as np
import pytest

from consmax.errors import (
    DegenerateConfiguration,
    InvalidArgument,
    InvalidRotation,
    MalformedInput,
)
from consmax.io import emit_intrinsics, parse_intrinsics
from consmax.pose import (
    CameraIntrinsics,
    Pose,
    _first_of_duplicates,
    p3p_batch,
    p3p_solve,
    pose_agreement_batch,
    random_rotation,
    rotation_geodesic_distance,
)

# ---------------------------------------------------------------------------
# Reference: the one-triangle P3P solver (distance ratios and a quartic)
# and the pose-pair loop that ``p3p_batch`` and ``pose_agreement_batch``
# replaced, kept verbatim (names prefixed ``ref``) so the batched kernels
# can be checked against an independent method.
# ---------------------------------------------------------------------------

REF_REPROJECTION_ATOL = 1e-6
REF_DEDUP_ATOL = 1e-8


def ref_kabsch(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rigid transform with dst = R @ src + t (least squares, det(R)=+1)."""
    cs, cd = src.mean(axis=0), dst.mean(axis=0)
    H = (src - cs).T @ (dst - cd)
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    D = np.diag([1.0, 1.0, d])
    R = Vt.T @ D @ U.T
    return R, cd - R @ cs


def ref_polymul(a, b) -> np.ndarray:
    """``np.polymul(a, b)`` for 1-d float64 coefficient arrays, without the
    two ``poly1d`` objects it builds. Leading zeros are dropped first, as
    ``poly1d`` drops them, so the result is the same array."""
    return np.convolve(ref_drop_leading_zeros(a), ref_drop_leading_zeros(b))


def ref_drop_leading_zeros(c: np.ndarray) -> np.ndarray:
    for k, ck in enumerate(c.tolist()):
        if ck != 0.0:
            return c[k:]
    return np.zeros(1)


def ref_horner(coeffs, x: float) -> float:
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def ref_polish_root(coeffs, d1, d2, x: float, iters: int = 3) -> float:
    """Newton iteration on P/P', whose roots are simple even when P has a
    multiple root (companion eigenvalues of a triple root scatter by the
    cube root of the rounding error, so plain Newton cannot recover)."""
    for _ in range(iters):
        p = ref_horner(coeffs, x)
        p1 = ref_horner(d1, x)
        p2 = ref_horner(d2, x)
        denom = p1 * p1 - p * p2
        if denom == 0.0 or not math.isfinite(denom):
            break
        step = p * p1 / denom
        if not math.isfinite(step):
            break
        x = x - step
    return float(x)


def ref_orthonormalize(R: np.ndarray) -> np.ndarray:
    """Nearest rotation to ``R`` (SVD with the determinant forced to +1)."""
    Uq, _, Vtq = np.linalg.svd(R)
    return Uq @ np.diag([1.0, 1.0, np.sign(np.linalg.det(Uq @ Vtq))]) @ Vtq


def ref_bearing_residual(R, t, P, F):
    """Flattened residual ``normalize(R P + t) - F`` with the camera-frame
    points and their norms; three Nones when a point sits at the centre."""
    X = P @ R.T + t
    norms = np.sqrt((X * X).sum(axis=1))
    if (norms <= 1e-12).any():
        return None, None, None
    return (X / norms[:, None] - F).ravel(), X, norms


def ref_bearing_jacobian(X, norms, t):
    """(9, 6) Jacobian of the bearing residual with respect to a rotation
    increment applied on the left and to the translation."""
    U = X / norms[:, None]
    proj = (np.eye(3)[None, :, :] - U[:, :, None] * U[:, None, :]) / norms[:, None, None]
    W = X - t
    skews = np.zeros((3, 3, 3))
    skews[:, 0, 1] = -W[:, 2]
    skews[:, 0, 2] = W[:, 1]
    skews[:, 1, 0] = W[:, 2]
    skews[:, 1, 2] = -W[:, 0]
    skews[:, 2, 0] = -W[:, 1]
    skews[:, 2, 1] = W[:, 0]
    J = np.empty((3, 3, 6))
    J[:, :, :3] = -proj @ skews
    J[:, :, 3:] = proj
    return J.reshape(9, 6)


def ref_apply_step(R, t, delta):
    """Rotate ``R`` on the left by the axis-angle vector ``delta[:3]``
    (Rodrigues) and shift ``t`` by ``delta[3:]``."""
    w = delta[:3]
    angle = float(np.sqrt(w @ w))
    if angle > 0.0:
        K = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]]) / angle
        R = (np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)) @ R
    return R, t + delta[3:]


def ref_gauss_newton(R, t, P, F, iters: int):
    """Minimize the bearing residual; returns ``(R, t, rank_deficient)``.

    ``rank_deficient`` flags a degenerate bearing Jacobian at the last
    linearization point.
    """
    r, X, norms = ref_bearing_residual(R, t, P, F)
    if r is None:
        return R, t, False
    J = None
    for _ in range(iters):
        if np.abs(r).max() < 1e-16:
            break
        J = ref_bearing_jacobian(X, norms, t)
        JtJ = J.T @ J
        g = J.T @ r
        try:
            delta = -np.linalg.solve(JtJ + 1e-14 * np.trace(JtJ) * np.eye(6), g)
        except np.linalg.LinAlgError:
            break
        if not np.isfinite(delta).all():
            break
        R_new, t_new = ref_apply_step(R, t, delta)
        r_new, X_new, norms_new = ref_bearing_residual(R_new, t_new, P, F)
        if r_new is None or r_new @ r_new > r @ r:
            break
        R, t, r, X, norms = R_new, t_new, r_new, X_new, norms_new
        if delta @ delta < 1e-32:
            break
    if J is None:
        J = ref_bearing_jacobian(X, norms, t)
    evals = np.linalg.eigvalsh(J.T @ J)
    return R, t, bool(evals[0] < 1e-10 * max(evals[-1], 1e-300))


def ref_refine_pose(R, t, P, F, iters: int = 40):
    """Gauss-Newton on the bearing residuals ``normalize(R P + t) - F``.

    The quartic path loses accuracy near multiple roots (the cosines round
    when the quartic is formed); polishing against the original bearings
    restores machine precision. Rank-deficient configurations get a
    second-order polish on top.
    """
    R, t, deficient = ref_gauss_newton(R, t, P, F, iters)
    # one orthonormalization at the end instead of per step
    R = ref_orthonormalize(R)
    if deficient:
        return ref_null_direction_polish(R, t, P, F)
    return R, t


def ref_null_direction_polish(R, t, P, F, rounds: int = 16):
    """Polish along a rank-deficient direction of the bearing Jacobian
    (degenerate 'danger cylinder' configurations).

    Gauss-Newton stalls near sqrt(eps) there because the residual is
    quadratic in the flat direction. Sampling the residual at +-h, where the
    quadratic signal exceeds rounding noise, gives a step toward the true
    zero; the step estimate contracts geometrically, so iterate until the
    steps stop shrinking.
    """
    prev_alpha = np.inf
    for _ in range(rounds):
        r0, X, norms = ref_bearing_residual(R, t, P, F)
        if r0 is None:
            return R, t
        _, svals, Vt = np.linalg.svd(ref_bearing_jacobian(X, norms, t))
        if svals[-1] > 1e-5 * svals[0]:
            return R, t  # full rank: GN already did its job
        n = Vt[-1]
        h = 1e-5 * max(1.0, float(np.linalg.norm(t)))
        rp = ref_bearing_residual(*ref_apply_step(R, t, h * n), P, F)[0]
        rm = ref_bearing_residual(*ref_apply_step(R, t, -h * n), P, F)[0]
        if rp is None or rm is None:
            return R, t
        d = rp + rm - 2.0 * r0  # ~ 2*kappa*h^2 along the curvature direction
        dn = np.linalg.norm(d)
        if dn < 1e-13:
            return R, t
        hdir = d / dn
        s0, sp, sm = hdir @ r0, hdir @ rp, hdir @ rm
        kappa_2h2 = sp + sm - 2.0 * s0
        if kappa_2h2 <= 0.0:
            return R, t
        alpha = (sm - sp) * h / (2.0 * kappa_2h2)
        if not np.isfinite(alpha) or abs(alpha) > 10.0 * h:
            return R, t
        if abs(alpha) < 1e-13 or abs(alpha) >= prev_alpha:
            return R, t
        R_new, t_new = ref_apply_step(R, t, alpha * n)
        r_new = ref_bearing_residual(R_new, t_new, P, F)[0]
        # residual comparisons at the noise floor need an absolute slack
        if r_new is None or np.linalg.norm(r_new) > np.linalg.norm(r0) + 1e-15:
            return R, t
        R = ref_orthonormalize(R_new)
        t = t_new
        prev_alpha = abs(alpha)
    return R, t


def ref_p3p_solve(points3d, bearings) -> list[Pose]:
    """All real solutions of the perspective-three-point problem.

    Parameters
    ----------
    points3d : (3, 3) array
        Non-collinear 3D points in the world frame (one per row).
    bearings : (3, 3) array
        Unit viewing rays in the camera frame (one per row), pairwise
        distinct.

    Returns
    -------
    list of Pose
        At most four poses; each reprojects the three points onto their
        bearings within 1e-6 angular error. An empty list means the quartic
        has no usable real root (not an error).
    """
    P = np.asarray(points3d, dtype=np.float64).reshape(3, 3)
    F = np.asarray(bearings, dtype=np.float64).reshape(3, 3)
    norms = np.linalg.norm(F, axis=1)
    if (norms <= 0).any():
        raise DegenerateConfiguration("zero-length bearing")
    F = F / norms[:, None]

    sides = np.array(
        [
            np.linalg.norm(P[1] - P[2]),  # a, opposite P1
            np.linalg.norm(P[0] - P[2]),  # b, opposite P2
            np.linalg.norm(P[0] - P[1]),  # c, opposite P3
        ]
    )
    diam = sides.max()
    if diam <= 0.0:
        raise DegenerateConfiguration("coincident 3D points")
    area2 = np.linalg.norm(np.cross(P[1] - P[0], P[2] - P[0]))
    if area2 / diam <= 1e-9 * diam:
        raise DegenerateConfiguration("collinear 3D points")
    cos_ab = float(np.clip(F[0] @ F[1], -1.0, 1.0))
    cos_ac = float(np.clip(F[0] @ F[2], -1.0, 1.0))
    cos_bc = float(np.clip(F[1] @ F[2], -1.0, 1.0))
    for c in (cos_ab, cos_ac, cos_bc):
        if 1.0 - abs(c) < 1e-12:
            raise DegenerateConfiguration("coincident or opposite bearings")

    a2, b2, c2 = float(sides[0] ** 2), float(sides[1] ** 2), float(sides[2] ** 2)
    cos_alpha, cos_beta, cos_gamma = cos_bc, cos_ac, cos_ab
    A1 = (a2 - c2) / b2
    # u = N(v) / D(v) from eliminating the a- and c-equations
    N = np.array([1.0 - A1, 2.0 * A1 * cos_beta, -(1.0 + A1)])
    D = np.array([2.0 * cos_alpha, -2.0 * cos_gamma])
    # quadratic in u from the c-equation: u^2 - 2 cos(gamma) u + Q(v) = 0
    Q = np.array([-(c2 / b2), 2.0 * (c2 / b2) * cos_beta, 1.0 - (c2 / b2)])
    quartic = np.polyadd(
        np.polysub(ref_polymul(N, N), 2.0 * cos_gamma * ref_polymul(N, D)),
        ref_polymul(Q, ref_polymul(D, D)),
    )
    lead = np.max(np.abs(quartic))
    if lead <= 0.0 or not np.isfinite(lead):
        return []
    quartic = quartic / lead
    roots = np.roots(quartic)

    qc = quartic.tolist()
    qd1 = np.polyder(quartic).tolist()
    qd2 = np.polyder(quartic, 2).tolist()
    candidates = []
    seen_v: list[float] = []
    for root in roots:
        # near-real roots only; clustered multiple roots may carry imaginary
        # parts up to the cube root of machine epsilon, so be permissive and
        # let the residual and reprojection gates reject impostors
        if abs(root.imag) > 1e-2 * (1.0 + abs(root.real)):
            continue
        v = ref_polish_root(qc, qd1, qd2, float(root.real))
        if v <= 0.0:
            continue
        if any(abs(v - w) <= 1e-9 * (1.0 + abs(w)) for w in seen_v):
            continue
        seen_v.append(v)
        denom = 1.0 + v * v - 2.0 * v * cos_beta
        if denom <= 1e-15:
            continue
        s1 = math.sqrt(b2 / denom)
        dv = ref_horner(D, v)
        if abs(dv) > 1e-9:
            us = [ref_horner(N, v) / dv]
        else:
            disc = cos_gamma * cos_gamma - ref_horner(Q, v)
            if disc < 0.0:
                continue
            rt = math.sqrt(disc)
            us = [cos_gamma + rt, cos_gamma - rt]
        for u in us:
            if u <= 0.0:
                continue
            # the eliminated a-equation must hold as well
            resid = (
                u * u + v * v - 2.0 * u * v * cos_alpha - a2 / b2 * denom
            )
            if abs(resid) > 1e-5 * max(1.0, u * u + v * v):
                continue
            candidates.append((s1, u * s1, v * s1))

    raw: list[tuple[np.ndarray, np.ndarray]] = []
    for s1, s2, s3 in candidates:
        cam_pts = np.array([s1 * F[0], s2 * F[1], s3 * F[2]])
        R, t = ref_kabsch(P, cam_pts)
        R, t = ref_refine_pose(R, t, P, F)
        transformed = P @ R.T + t
        depths = (transformed * F).sum(axis=1)
        if (depths <= 0.0).any():
            continue
        lens = np.sqrt((transformed * transformed).sum(axis=1))
        cosang = np.clip(depths / lens, -1.0, 1.0)
        if np.arccos(cosang).max() > REF_REPROJECTION_ATOL:
            continue
        dup = False
        for Rp, tp in raw:
            ctr = (np.trace(Rp.T @ R) - 1.0) / 2.0
            ang = math.acos(min(1.0, max(-1.0, ctr)))
            if ang <= REF_DEDUP_ATOL and np.abs(tp - t).max() <= REF_DEDUP_ATOL * (
                1.0 + np.abs(tp).max()
            ):
                dup = True
                break
        if not dup:
            raw.append((R, t))

    poses: list[Pose] = []
    for R, t in raw:
        try:
            poses.append(Pose(rotation=R, translation=t))
        except InvalidRotation:
            continue

    poses.sort(
        key=lambda p: (
            round(float(np.trace(p.rotation)), 12),
            tuple(np.round(p.translation, 12)),
        )
    )
    return poses


def ref_pose_agreement(poses_a, poses_b, eps1: float, eps2: float) -> int:
    """Binary agreement between two P3P solution sets.

    The pair (one pose from each set) with the smallest rotation geodesic
    distance is selected (ties toward the smaller l1 translation gap); it
    agrees when that rotation distance is at most ``eps1`` and the l1
    translation gap is at most ``eps2 * max(|t_a|, |t_b|)``.
    """
    assert poses_a and poses_b
    best = None
    for pa in poses_a:
        for pb in poses_b:
            rd = rotation_geodesic_distance(pa, pb)
            tgap = float(np.abs(pa.translation - pb.translation).sum())
            key = (rd, tgap)
            if best is None or key < best[0]:
                best = (key, pa, pb)
    (rd, tgap), pa, pb = best
    scale = max(np.linalg.norm(pa.translation), np.linalg.norm(pb.translation))
    return int(rd <= eps1 and tgap <= eps2 * scale)


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
        with pytest.raises(InvalidRotation, match="3x3"):
            rotation_geodesic_distance(np.eye(2), np.eye(3))

    def test_poses_and_matrices_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = random_rotation(rng), random_rotation(rng)
            pa, pb = Pose(a, np.zeros(3)), Pose(b, np.ones(3))
            assert rotation_geodesic_distance(pa, pb) == rotation_geodesic_distance(a, b)


class TestP3P:
    def test_camera_at_origin_identity(self):
        pts = np.array([[0.0, 0, 1], [1, 0, 1], [0, 1, 1]])
        bearings = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        sols = p3p_solve(pts, bearings)
        assert len(sols) == len(ref_p3p_solve(pts, bearings)) == 1
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

    def test_rounding_apart_poses_are_duplicates(self):
        # rotations 2**-52 apart per entry: acos of the trace reads a 2.1e-8
        # angle, above the 1e-8 dedup tolerance; the chord reads 2.2e-16
        R = np.stack([np.eye(3), np.diag([1.0 - 2.0**-52, 1.0 - 2.0**-52, 1.0])])
        assert _first_of_duplicates(np.array([0, 0]), R, np.zeros((2, 3))).tolist() == [0]

    def test_collinear_points_raise(self):
        bearings = np.array([[0.0, 0, 1], [0.6, 0, 0.8], [0, 0.6, 0.8]])
        with pytest.raises(DegenerateConfiguration):
            p3p_solve(np.array([[0.0, 0, 1], [0, 0, 2], [0, 0, 3]]), bearings)

    def test_coincident_bearings_raise(self):
        pts = np.array([[0.0, 0, 1], [1, 0, 1], [0, 1, 1]])
        same = np.array([[0.0, 0, 1], [0, 0, 1], [0, 1, 1]])
        with pytest.raises(DegenerateConfiguration):
            p3p_solve(pts, same / np.linalg.norm(same, axis=1, keepdims=True))


def rotation_gap(ra, rb) -> float:
    """Angle between two rotations from the chord ``|ra - rb|_F``, which
    stays exact near zero (``acos`` of the trace cannot resolve angles below
    about 1e-8)."""
    return 2.0 * math.asin(min(1.0, np.linalg.norm(ra - rb) / (2.0 * math.sqrt(2.0))))


def recovered(rotations, translations, R, t) -> bool:
    """Whether one of the poses is the true pose ``(R, t)`` within 1e-6."""
    return any(
        rotation_gap(Rs, R) < 1e-6 and np.linalg.norm(ts - t) / max(1.0, np.linalg.norm(t)) < 1e-6
        for Rs, ts in zip(rotations, translations)
    )


def danger_cylinder_instance(rng):
    """An exact P3P instance with the camera centre on the danger cylinder:
    three points on a circle of radius 0.5-2 in the plane z=0, the camera
    1-4 above a fourth point of that circle, identity rotation, exact
    bearings."""
    radius = rng.uniform(0.5, 2.0)
    angles = rng.uniform(0.0, 2.0 * math.pi, 4)
    circle = radius * np.column_stack([np.cos(angles), np.sin(angles), np.zeros(4)])
    centre = circle[3] + np.array([0.0, 0.0, rng.uniform(1.0, 4.0)])
    world = circle[:3]
    cam = world - centre
    return world, cam / np.linalg.norm(cam, axis=1, keepdims=True), np.eye(3), -centre


def bearing_residual(P, F, R, t) -> float:
    """``max|normalize(R P + t) - F|`` of one pose, for unit bearings ``F``."""
    X = P @ R.T + t
    return float(np.abs(X / np.linalg.norm(X, axis=1, keepdims=True) - F).max())


def known_pose_gap(rotations, translations, R, t) -> float:
    """Distance from the known pose ``(R, t)`` to the nearest of the poses:
    the larger of the rotation gap and the relative translation gap."""
    return min(
        (max(rotation_gap(Rs, R), np.linalg.norm(ts - t) / max(1.0, np.linalg.norm(t)))
         for Rs, ts in zip(rotations, translations)),
        default=np.inf,
    )


class TestBatchedP3P:
    # The quartic reference and the batched Lambda Twist solver round
    # differently, so their poses are compared by count, by their fit to the
    # bearings and by the known pose, not bit for bit.

    def test_matches_reference_on_criterion_6_instances(self):
        # criterion 6's 1000 seeded instances: the reference's pose count per
        # triangle, every pose exact on the bearings, the true pose recovered
        rng = np.random.default_rng(777)
        cases = [synth_p3p(rng) for _ in range(1000)]
        world = np.array([c[0] for c in cases])
        bearings = np.array([c[1] for c in cases])
        rot, trans, counts, degenerate = p3p_batch(world, bearings)
        assert not degenerate.any()
        for i, (P, F, R, t) in enumerate(cases):
            assert counts[i] == len(ref_p3p_solve(P, F))
            for j in range(counts[i]):
                assert bearing_residual(P, F, rot[i, j], trans[i, j]) <= 1e-12
            assert known_pose_gap(rot[i, :counts[i]], trans[i, :counts[i]], R, t) <= 1e-10

    def test_zero_leading_coefficients_match_reference(self):
        # a right angle at the first point (a^2 = b^2 + c^2 exactly) and
        # perpendicular second and third bearings zero the leading
        # coefficient of a factor of the reference's quartic; the right
        # triangles have a known pose, the other rows none
        rng = np.random.default_rng(6)
        right = np.array([[0.0, 0, 0], [3, 0, 0], [0, 4, 0]])
        world, bearings, known = [], [], []
        for _ in range(40):
            R, t = random_rotation(rng), np.array([0.0, 0.0, 8.0]) + rng.uniform(-1, 1, 3)
            cam = right @ R.T + t
            world.append(right)
            bearings.append(cam / np.linalg.norm(cam, axis=1, keepdims=True))
            known.append((R, t))
            world.append(rng.normal(size=(3, 3)))
            bearings.append(np.array([rng.normal(size=3), [1.0, 0, 0.5], [0, 1.0, 0]]))
            known.append(None)
        world, bearings = np.array(world), np.array(bearings)
        rot, trans, counts, degenerate = p3p_batch(world, bearings)
        assert not degenerate.any() and counts[::2].min() >= 1
        for i in range(len(world)):
            F = bearings[i] / np.linalg.norm(bearings[i], axis=1, keepdims=True)
            assert counts[i] == len(ref_p3p_solve(world[i], bearings[i]))
            for j in range(counts[i]):
                assert bearing_residual(world[i], F, rot[i, j], trans[i, j]) <= 1e-12
            if known[i] is not None:
                assert known_pose_gap(rot[i, :counts[i]], trans[i, :counts[i]], *known[i]) <= 1e-10

    def test_singular_cubic_leading_coefficient(self):
        # det(D2), the leading coefficient of the Lambda Twist cubic,
        # vanishes: up to rounding for an isosceles triangle seen from its
        # plane of symmetry (the largest root is huge), exactly for three
        # mutually perpendicular bearings to two points equidistant from
        # the third (no finite root). No solution may be lost.
        isosceles = np.array([[-1.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0]])
        cases = [(isosceles, np.array([0.0, -y, z])) for y, z in
                 [(0.3, 3.0), (0.5, 2.0), (-0.2, 4.0), (0.1, 1.5), (0.7, 5.0)]]
        cases.append((np.array([[2.0, 0, 0], [0, 2.0, 0], [0, 0, 3.0]]), np.zeros(3)))
        for world, t in cases:
            cam = world + t
            F = cam / np.linalg.norm(cam, axis=1, keepdims=True)
            rot, trans, counts, _ = p3p_batch(world, F)
            assert counts[0] == len(ref_p3p_solve(world, F))
            for j in range(counts[0]):
                assert bearing_residual(world, F, rot[0, j], trans[0, j]) <= 1e-12
            assert known_pose_gap(rot[0, :counts[0]], trans[0, :counts[0]], np.eye(3), t) <= 1e-10

    def test_rows_match_single_solves(self):
        # a batch mixing every degenerate kind with regular triangles and
        # danger-cylinder rows (rank-deficient Jacobians at their roots) gives
        # each row what p3p_solve gives for it alone
        rng = np.random.default_rng(5)
        world, bearings = [], []
        for _ in range(40):
            P, F, _, _ = synth_p3p(rng)
            world.append(P)
            bearings.append(F)
        rng = np.random.default_rng(2018)
        for _ in range(10):
            P, F, _, _ = danger_cylinder_instance(rng)
            world.append(P)
            bearings.append(F)
        P, F = world[0], bearings[0]
        world += [P[[0, 0, 1]], P[[0, 1, 1]] * 0.0, np.array([[0.0, 0, 1], [0, 0, 2], [0, 0, 3]]), P, P]
        bearings += [F, F, F, F[[0, 0, 2]], np.array([F[0], F[1], np.zeros(3)])]
        world, bearings = np.array(world), np.array(bearings)
        rot, trans, counts, degenerate = p3p_batch(world, bearings)
        assert degenerate[:50].tolist() == [0] * 50
        # two equal points are collinear; all three equal are coincident
        assert degenerate[50:].tolist() == [3, 2, 3, 4, 1]
        for i in range(len(world)):
            if degenerate[i]:
                assert counts[i] == 0
                with pytest.raises(DegenerateConfiguration):
                    p3p_solve(world[i], bearings[i])
                continue
            single = p3p_solve(world[i], bearings[i])
            assert counts[i] == len(single) >= 1
            for j, pose in enumerate(single):
                assert np.array_equal(rot[i, j], pose.rotation)
                assert np.array_equal(trans[i, j], pose.translation)


class TestDangerCylinder:
    def test_recovers_as_often_as_reference(self):
        rng = np.random.default_rng(2018)
        cases = [danger_cylinder_instance(rng) for _ in range(300)]
        world = np.array([c[0] for c in cases])
        bearings = np.array([c[1] for c in cases])
        rot, trans, counts, _ = p3p_batch(world, bearings)
        batched = reference = 0
        for i, (P, F, R, t) in enumerate(cases):
            batched += recovered(rot[i, :counts[i]], trans[i, :counts[i]], R, t)
            try:
                want = ref_p3p_solve(P, F)
            except DegenerateConfiguration:
                continue
            reference += recovered([p.rotation for p in want], [p.translation for p in want], R, t)
        assert batched >= reference


def pose_table(*pose_sets):
    """Padded ``pose_agreement_batch`` tables, one row per list of poses."""
    width = max(len(s) for s in pose_sets)
    rot = np.zeros((len(pose_sets), width, 3, 3))
    trans = np.zeros((len(pose_sets), width, 3))
    for i, poses in enumerate(pose_sets):
        for j, p in enumerate(poses):
            rot[i, j], trans[i, j] = p.rotation, p.translation
    return rot, trans, np.array([len(s) for s in pose_sets])


def one_row_agreement(poses_a, poses_b, eps1, eps2):
    """One row of ``pose_agreement_batch``."""
    return int(pose_agreement_batch(*pose_table(poses_a), *pose_table(poses_b), eps1, eps2)[0])


class TestPoseAgreement:
    # the agreement rule, through one-row tables of pose_agreement_batch
    def test_identical_poses(self):
        p = Pose(np.eye(3), np.array([0.0, 0, 5]))
        assert one_row_agreement([p], [p], math.radians(10), 0.4) == 1

    def test_rotation_gap_beyond_eps1(self):
        a = Pose(np.eye(3), np.array([1.0, 0, 0]))
        b = Pose(rot_z(math.radians(15)), np.array([1.0, 0, 0]))
        assert one_row_agreement([a], [b], math.radians(10), 10.0) == 0

    def test_translation_rule_arithmetic(self):
        a = Pose(np.eye(3), np.array([1.0, 0, 0]))
        ok = Pose(np.eye(3), np.array([1.6, 0, 0]))
        # l1 gap 0.6 <= 0.4 * 1.6 agrees
        assert one_row_agreement([a], [ok], math.radians(10), 0.4) == 1
        bad = Pose(np.eye(3), np.array([1.7, 0, 0]))
        # l1 gap 0.7 > 0.4 * 1.7 disagrees
        assert one_row_agreement([a], [bad], math.radians(10), 0.4) == 0

    def test_symmetric(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            pa = [Pose(random_rotation(rng), rng.uniform(-1, 1, 3)) for _ in range(2)]
            pb = [Pose(random_rotation(rng), rng.uniform(-1, 1, 3)) for _ in range(3)]
            lhs = one_row_agreement(pa, pb, math.radians(25), 0.8)
            rhs = one_row_agreement(pb, pa, math.radians(25), 0.8)
            assert lhs == rhs

    def test_selects_min_rotation_pair(self):
        # the min-rotation pair fails the translation test even though
        # another pair would pass: the rule still reports disagreement
        a = [Pose(np.eye(3), np.array([10.0, 0, 0]))]
        b = [
            Pose(np.eye(3), np.array([0.0, 0, 0.1])),
            Pose(rot_z(math.radians(5)), np.array([10.0, 0, 0])),
        ]
        assert one_row_agreement(a, b, math.radians(10), 0.4) == 0


class TestIntrinsics:
    def test_positive_focals(self):
        with pytest.raises(InvalidArgument):
            CameraIntrinsics(0.0, 1.0, 0.0, 0.0)

    def test_json_round_trip(self, tmp_path):
        K = CameraIntrinsics(800.0, 790.5, 320.0, 240.0)
        path = tmp_path / "K.json"
        emit_intrinsics(K, path)
        assert parse_intrinsics(path) == K

    def test_bad_json(self, tmp_path):
        path = tmp_path / "K.json"
        path.write_text("{\"fx\": 1.0}")
        with pytest.raises(MalformedInput) as exc:
            parse_intrinsics(path)
        assert exc.value.path == str(path)

    @pytest.mark.parametrize("fx,cx", [(math.inf, 320.0), (800.0, math.inf), (800.0, math.nan)])
    def test_finite_fields(self, fx, cx):
        with pytest.raises(InvalidArgument):
            CameraIntrinsics(fx, 800.0, cx, 240.0)

    @pytest.mark.parametrize(
        "text",
        ['{"fx": 800, "fy": 800, "cx": Infinity, "cy": 240}', '{"fx": Infinity, "fy": 800, "cx": 320, "cy": 240}'],
        ids=["cx", "fx"],
    )
    def test_non_finite_json(self, tmp_path, text):
        # json.loads accepts Infinity and NaN
        path = tmp_path / "K.json"
        path.write_text(text)
        with pytest.raises(MalformedInput, match="intrinsics must be finite"):
            parse_intrinsics(path)

    def test_bearing_unit_norm(self):
        K = CameraIntrinsics(800.0, 800.0, 320.0, 240.0)
        rays = K.bearing([[0.0, 0.0], [639.0, 479.0]])
        assert np.allclose(np.linalg.norm(rays, axis=1), 1.0)


class TestBatchedPoseAgreement:
    def test_matches_pair_loop(self):
        # perturbed and repeated poses, so that thresholds and ties both occur
        rng = np.random.default_rng(8)
        rows = []
        for _ in range(400):
            base = Pose(random_rotation(rng), rng.uniform(-2.0, 2.0, 3))
            sets = []
            for _ in range(2):
                poses = []
                for _ in range(int(rng.integers(1, 5))):
                    if poses and rng.random() < 0.2:
                        poses.append(poses[-1])
                        continue
                    turn = rot_z(rng.normal(0.0, 0.15)) @ base.rotation
                    poses.append(Pose(turn, base.translation * rng.uniform(0.6, 1.4)))
                sets.append(poses)
            rows.append(sets)

        eps1, eps2 = math.radians(10.0), 0.4
        got = pose_agreement_batch(
            *pose_table(*[r[0] for r in rows]), *pose_table(*[r[1] for r in rows]), eps1, eps2
        )
        want = [ref_pose_agreement(a, b, eps1, eps2) for a, b in rows]
        assert got.tolist() == want
        assert 0 < sum(want) < len(want)
        # a one-row table gives the bit its row gets in the wider batch
        assert [one_row_agreement(a, b, eps1, eps2) for a, b in rows] == want

