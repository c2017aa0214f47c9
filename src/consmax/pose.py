"""Minimal absolute-pose machinery: P3P, rotation distance, pose agreement.

The P3P solver follows the classical distance-ratio formulation: the law of
cosines between the three viewing rays reduces to a quartic in the ratio of
two unknown point depths. Roots come from the companion matrix
(``np.roots``) and are polished with a multiplicity-tolerant Newton
iteration; every surviving depth triple is upgraded to a pose by rigid
alignment, refined against the bearings by Gauss-Newton, and validated by
reprojection. Degenerate configurations on the danger cylinder (where pose
solutions collide) get an extra second-order polish.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateConfiguration,
    EmptySolutions,
    InvalidArgument,
    InvalidRotation,
)

_ROT_ATOL = 1e-9
_REPROJECTION_ATOL = 1e-6
_DEDUP_ATOL = 1e-8


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise InvalidArgument("focal lengths must be positive")

    def bearing(self, pixels) -> np.ndarray:
        """Unit viewing rays for (n, 2) pixel coordinates."""
        px = np.atleast_2d(np.asarray(pixels, dtype=np.float64))
        rays = np.column_stack(
            [(px[:, 0] - self.cx) / self.fx, (px[:, 1] - self.cy) / self.fy, np.ones(len(px))]
        )
        return rays / np.linalg.norm(rays, axis=1, keepdims=True)

    def to_json(self) -> str:
        return json.dumps(
            {"fx": self.fx, "fy": self.fy, "cx": self.cx, "cy": self.cy},
            sort_keys=True, indent=2,
        ) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CameraIntrinsics":
        from .errors import MalformedInput

        try:
            doc = json.loads(text)
            return cls(fx=float(doc["fx"]), fy=float(doc["fy"]),
                       cx=float(doc["cx"]), cy=float(doc["cy"]))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise MalformedInput(f"bad intrinsics JSON: {exc}") from None


def _check_rotation(R: np.ndarray, atol: float = _ROT_ATOL) -> np.ndarray:
    R = np.asarray(R, dtype=np.float64)
    if R.shape != (3, 3):
        raise InvalidRotation("rotation must be 3x3")
    if np.linalg.norm(R.T @ R - np.eye(3)) > atol:
        raise InvalidRotation("matrix is not orthonormal")
    if abs(np.linalg.det(R) - 1.0) > atol:
        raise InvalidRotation("determinant must be +1")
    return R


@dataclass(frozen=True)
class Pose:
    """Rigid transform into the camera frame: ``x_cam = R @ x + t``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = _check_rotation(self.rotation)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        R.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    def apply(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return pts @ self.rotation.T + self.translation


def rotation_geodesic_distance(ra, rb) -> float:
    """Angle (radians, in [0, pi]) of the relative rotation ``ra.T @ rb``."""
    ra = _valid_rotation(ra)
    rb = _valid_rotation(rb)
    c = (np.trace(ra.T @ rb) - 1.0) / 2.0
    return float(math.acos(min(1.0, max(-1.0, c))))


def _valid_rotation(x) -> np.ndarray:
    """The checked rotation of a Pose (checked when the Pose was made) or of
    a matrix or object with a ``rotation`` attribute (checked here)."""
    if isinstance(x, Pose):
        return x.rotation
    return _check_rotation(getattr(x, "rotation", x))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation from a normalized quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _kabsch(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rigid transform with dst = R @ src + t (least squares, det(R)=+1)."""
    cs, cd = src.mean(axis=0), dst.mean(axis=0)
    H = (src - cs).T @ (dst - cd)
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    D = np.diag([1.0, 1.0, d])
    R = Vt.T @ D @ U.T
    return R, cd - R @ cs


def _polymul(a, b) -> np.ndarray:
    """``np.polymul(a, b)`` for 1-d float64 coefficient arrays, without the
    two ``poly1d`` objects it builds. Leading zeros are dropped first, as
    ``poly1d`` drops them, so the result is the same array."""
    return np.convolve(_drop_leading_zeros(a), _drop_leading_zeros(b))


def _drop_leading_zeros(c: np.ndarray) -> np.ndarray:
    for k, ck in enumerate(c.tolist()):
        if ck != 0.0:
            return c[k:]
    return np.zeros(1)


def _horner(coeffs, x: float) -> float:
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _polish_root(coeffs, d1, d2, x: float, iters: int = 3) -> float:
    """Newton iteration on P/P', whose roots are simple even when P has a
    multiple root (companion eigenvalues of a triple root scatter by the
    cube root of the rounding error, so plain Newton cannot recover)."""
    for _ in range(iters):
        p = _horner(coeffs, x)
        p1 = _horner(d1, x)
        p2 = _horner(d2, x)
        denom = p1 * p1 - p * p2
        if denom == 0.0 or not math.isfinite(denom):
            break
        step = p * p1 / denom
        if not math.isfinite(step):
            break
        x = x - step
    return float(x)


def _orthonormalize(R: np.ndarray) -> np.ndarray:
    """Nearest rotation to ``R`` (SVD with the determinant forced to +1)."""
    Uq, _, Vtq = np.linalg.svd(R)
    return Uq @ np.diag([1.0, 1.0, np.sign(np.linalg.det(Uq @ Vtq))]) @ Vtq


def _bearing_residual(R, t, P, F):
    """Flattened residual ``normalize(R P + t) - F`` with the camera-frame
    points and their norms; three Nones when a point sits at the centre."""
    X = P @ R.T + t
    norms = np.sqrt((X * X).sum(axis=1))
    if (norms <= 1e-12).any():
        return None, None, None
    return (X / norms[:, None] - F).ravel(), X, norms


def _bearing_jacobian(X, norms, t):
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


def _apply_step(R, t, delta):
    """Rotate ``R`` on the left by the axis-angle vector ``delta[:3]``
    (Rodrigues) and shift ``t`` by ``delta[3:]``."""
    w = delta[:3]
    angle = float(np.sqrt(w @ w))
    if angle > 0.0:
        K = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]]) / angle
        R = (np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)) @ R
    return R, t + delta[3:]


def _gauss_newton(R, t, P, F, iters: int):
    """Minimize the bearing residual; returns ``(R, t, rank_deficient)``.

    ``rank_deficient`` flags a degenerate bearing Jacobian at the last
    linearization point.
    """
    r, X, norms = _bearing_residual(R, t, P, F)
    if r is None:
        return R, t, False
    J = None
    for _ in range(iters):
        if np.abs(r).max() < 1e-16:
            break
        J = _bearing_jacobian(X, norms, t)
        JtJ = J.T @ J
        g = J.T @ r
        try:
            delta = -np.linalg.solve(JtJ + 1e-14 * np.trace(JtJ) * np.eye(6), g)
        except np.linalg.LinAlgError:
            break
        if not np.isfinite(delta).all():
            break
        R_new, t_new = _apply_step(R, t, delta)
        r_new, X_new, norms_new = _bearing_residual(R_new, t_new, P, F)
        if r_new is None or r_new @ r_new > r @ r:
            break
        R, t, r, X, norms = R_new, t_new, r_new, X_new, norms_new
        if delta @ delta < 1e-32:
            break
    if J is None:
        J = _bearing_jacobian(X, norms, t)
    evals = np.linalg.eigvalsh(J.T @ J)
    return R, t, bool(evals[0] < 1e-10 * max(evals[-1], 1e-300))


def _refine_pose(R, t, P, F, iters: int = 40):
    """Gauss-Newton on the bearing residuals ``normalize(R P + t) - F``.

    The quartic path loses accuracy near multiple roots (the cosines round
    when the quartic is formed); polishing against the original bearings
    restores machine precision. Rank-deficient configurations get a
    second-order polish on top.
    """
    R, t, deficient = _gauss_newton(R, t, P, F, iters)
    # one orthonormalization at the end instead of per step
    R = _orthonormalize(R)
    if deficient:
        return _null_direction_polish(R, t, P, F)
    return R, t


def _null_direction_polish(R, t, P, F, rounds: int = 16):
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
        r0, X, norms = _bearing_residual(R, t, P, F)
        if r0 is None:
            return R, t
        _, svals, Vt = np.linalg.svd(_bearing_jacobian(X, norms, t))
        if svals[-1] > 1e-5 * svals[0]:
            return R, t  # full rank: GN already did its job
        n = Vt[-1]
        h = 1e-5 * max(1.0, float(np.linalg.norm(t)))
        rp = _bearing_residual(*_apply_step(R, t, h * n), P, F)[0]
        rm = _bearing_residual(*_apply_step(R, t, -h * n), P, F)[0]
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
        R_new, t_new = _apply_step(R, t, alpha * n)
        r_new = _bearing_residual(R_new, t_new, P, F)[0]
        # residual comparisons at the noise floor need an absolute slack
        if r_new is None or np.linalg.norm(r_new) > np.linalg.norm(r0) + 1e-15:
            return R, t
        R = _orthonormalize(R_new)
        t = t_new
        prev_alpha = abs(alpha)
    return R, t


def p3p_solve(points3d, bearings) -> list[Pose]:
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
        np.polysub(_polymul(N, N), 2.0 * cos_gamma * _polymul(N, D)),
        _polymul(Q, _polymul(D, D)),
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
        v = _polish_root(qc, qd1, qd2, float(root.real))
        if v <= 0.0:
            continue
        if any(abs(v - w) <= 1e-9 * (1.0 + abs(w)) for w in seen_v):
            continue
        seen_v.append(v)
        denom = 1.0 + v * v - 2.0 * v * cos_beta
        if denom <= 1e-15:
            continue
        s1 = math.sqrt(b2 / denom)
        dv = _horner(D, v)
        if abs(dv) > 1e-9:
            us = [_horner(N, v) / dv]
        else:
            disc = cos_gamma * cos_gamma - _horner(Q, v)
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
        R, t = _kabsch(P, cam_pts)
        R, t = _refine_pose(R, t, P, F)
        transformed = P @ R.T + t
        depths = (transformed * F).sum(axis=1)
        if (depths <= 0.0).any():
            continue
        lens = np.sqrt((transformed * transformed).sum(axis=1))
        cosang = np.clip(depths / lens, -1.0, 1.0)
        if np.arccos(cosang).max() > _REPROJECTION_ATOL:
            continue
        dup = False
        for Rp, tp in raw:
            ctr = (np.trace(Rp.T @ R) - 1.0) / 2.0
            ang = math.acos(min(1.0, max(-1.0, ctr)))
            if ang <= _DEDUP_ATOL and np.abs(tp - t).max() <= _DEDUP_ATOL * (
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


def pose_agreement(poses_a, poses_b, eps1: float, eps2: float) -> int:
    """Binary agreement between two P3P solution sets.

    The pair (one pose from each set) with the smallest rotation geodesic
    distance is selected (ties toward the smaller l1 translation gap); it
    agrees when that rotation distance is at most ``eps1`` and the l1
    translation gap is at most ``eps2 * max(|t_a|, |t_b|)``.
    """
    if not poses_a or not poses_b:
        raise EmptySolutions("both pose lists must be non-empty")
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
