"""Absolute-pose machinery: batched P3P, rotation distance, pose agreement.

The P3P solver follows the classical distance-ratio formulation: the law of
cosines between the three viewing rays reduces to a quartic in the ratio of
two unknown point depths. ``p3p_batch`` solves many triangles in one pass,
one array row per triangle or per candidate pose:

- the quartic coefficients are arrays, and the roots are the eigenvalues of
  stacked companion matrices, built as ``np.roots`` builds them;
- root polishing (a multiplicity-tolerant Newton iteration), the ``v``/``u``
  branch checks and depth recovery are masked array operations;
- every surviving depth triple becomes a pose by rigid alignment (stacked
  SVD), is refined against the bearings by Gauss-Newton on stacked
  Jacobians, where each row stops where a one-triangle solve would stop,
  and passes the reprojection, rotation and duplicate gates row by row.

Stacked BLAS and LAPACK calls treat each small matrix as a single call
does, and row dot products go through the same BLAS ``ddot``, so a row's
poses have the same bits whichever rows share its batch. Degenerate
configurations on the danger cylinder (where pose solutions collide) get an
extra second-order polish, one row at a time. ``p3p_solve`` and
``pose_agreement`` are one-item wrappers over ``p3p_batch`` and
``pose_agreement_batch``.
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
    return float(_acos_clamped((np.trace(ra.T @ rb) - 1.0) / 2.0))


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


def _acos_clamped(c) -> np.ndarray:
    """``math.acos(min(1.0, max(-1.0, x)))`` for every entry of ``c``.

    ``math.acos`` and ``np.arccos`` differ in the last bit for some inputs;
    rotation distances are compared against thresholds and against each
    other, so all of them use ``math.acos``.
    """
    c = np.asarray(c, dtype=np.float64)
    return np.array(
        [math.acos(min(1.0, max(-1.0, x))) for x in c.ravel().tolist()], dtype=np.float64
    ).reshape(c.shape)


def _dot(a, b) -> np.ndarray:
    """``a[i] @ b[i]`` over the last axis, for every leading index ``i``.

    The stacked ``(1, k) @ (k, 1)`` products go through BLAS ``ddot`` one
    pair at a time, as a single vector ``@`` does, so the bits equal those of
    one-vector calls (an elementwise multiply-and-sum rounds differently).
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norm(x) -> np.ndarray:
    """``np.linalg.norm`` of every vector along the last axis, same bits."""
    return np.sqrt(_dot(x, x))


def triangle_extent(points) -> tuple[np.ndarray, np.ndarray]:
    """Side lengths ``(|p1 - p2|, |p0 - p2|, |p0 - p1|)`` and twice the area
    of every point triple in an (n, 3, 3) array. A triple is flat when
    ``area2 / diam`` is small against its longest side ``diam``."""
    P = np.asarray(points, dtype=np.float64)
    sides = np.stack(
        [_norm(P[:, 1] - P[:, 2]), _norm(P[:, 0] - P[:, 2]), _norm(P[:, 0] - P[:, 1])], axis=1
    )
    return sides, _norm(np.cross(P[:, 1] - P[:, 0], P[:, 2] - P[:, 0]))


def _diag_sign(d: np.ndarray) -> np.ndarray:
    """Stacked ``np.diag([1.0, 1.0, d[i]])``."""
    D = np.zeros((len(d), 3, 3))
    D[:, 0, 0] = D[:, 1, 1] = 1.0
    D[:, 2, 2] = d
    return D


def _kabsch(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rigid transforms with dst[i] = R[i] @ src[i] + t[i] (least squares,
    det(R)=+1), for (n, 3, 3) point stacks."""
    cs, cd = src.mean(axis=1), dst.mean(axis=1)
    H = (src - cs[:, None]).transpose(0, 2, 1) @ (dst - cd[:, None])
    U, _, Vt = np.linalg.svd(H)
    V, Ut = Vt.transpose(0, 2, 1), U.transpose(0, 2, 1)
    R = V @ _diag_sign(np.sign(np.linalg.det(V @ Ut))) @ Ut
    return R, cd - (R @ cs[:, :, None])[:, :, 0]


def _polymul(a, b) -> np.ndarray:
    """Row-wise ``np.polymul(a[i], b[i])``, left-padded with zeros to
    ``len(a[i]) + len(b[i]) - 1`` coefficients, with the same bits.

    ``np.polymul`` drops leading zeros, then ``np.convolve`` puts the longer
    factor first and sums the end coefficients with BLAS ``ddot`` and the
    full-overlap ones left to right. Both sums are reproduced for every row
    at once; a row with a leading zero changes those splits and takes
    ``np.polymul`` itself.
    """
    a0 = a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b0 = b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if b.shape[1] > a.shape[1]:
        a, b = b, a
    la, lb = a.shape[1], b.shape[1]
    br = b[:, ::-1].copy()  # np.convolve reverses into a copy as well
    out = np.empty((len(a), la + lb - 1))
    for k in range(lb - 1):
        out[:, k] = _dot(a[:, : k + 1], br[:, lb - 1 - k:])
        out[:, la + k] = _dot(a[:, la - lb + 1 + k:], br[:, : lb - 1 - k])
    for i in range(la - lb + 1):
        acc = a[:, i] * br[:, 0]
        for j in range(1, lb):
            acc = acc + a[:, i + j] * br[:, j]
        out[:, lb - 1 + i] = acc
    for i in np.nonzero((a0[:, 0] == 0.0) | (b0[:, 0] == 0.0))[0]:
        p = np.polymul(a0[i], b0[i])
        out[i] = 0.0
        out[i, out.shape[1] - len(p):] = p
    return out


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(x)
    for j in range(coeffs.shape[1]):
        acc = acc * x + coeffs[:, j]
    return acc


def _quartic_roots(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise ``np.roots``: (n, 4) complex roots and a mask of the ones
    that exist. Rows with a zero first or last coefficient (a lower degree
    or a root at 0) take ``np.roots`` itself; the others get the companion
    matrix it builds, and one stacked ``eigvals`` call."""
    roots = np.zeros(p.shape[:1] + (4,), dtype=np.complex128)
    exists = np.ones(roots.shape, dtype=bool)
    plain = np.nonzero((p[:, 0] != 0.0) & (p[:, -1] != 0.0))[0]
    A = np.zeros((len(plain), 4, 4))
    A[:, 1, 0] = A[:, 2, 1] = A[:, 3, 2] = 1.0
    A[:, 0, :] = -p[plain, 1:] / p[plain, :1]
    roots[plain] = np.linalg.eigvals(A)
    for i in np.setdiff1d(np.arange(len(p)), plain):
        r = np.roots(p[i])
        roots[i, : len(r)] = r
        exists[i, len(r):] = False
    return roots, exists


def _polish_roots(coeffs: np.ndarray, x: np.ndarray, iters: int = 3) -> np.ndarray:
    """Newton iteration on P/P', whose roots are simple even when P has a
    multiple root (companion eigenvalues of a triple root scatter by the
    cube root of the rounding error, so plain Newton cannot recover). A row
    stops at a zero or non-finite denominator or step."""
    d1 = coeffs[:, :-1] * np.arange(coeffs.shape[1] - 1, 0, -1)  # np.polyder
    d2 = d1[:, :-1] * np.arange(d1.shape[1] - 1, 0, -1)
    live = np.ones(len(x), dtype=bool)
    for _ in range(iters):
        p, p1, p2 = _horner(coeffs, x), _horner(d1, x), _horner(d2, x)
        denom = p1 * p1 - p * p2
        live &= (denom != 0.0) & np.isfinite(denom)
        step = p * p1 / denom
        live &= np.isfinite(step)
        x = np.where(live, x - step, x)
    return x


def _orthonormalize(R: np.ndarray) -> np.ndarray:
    """Nearest rotations to an (n, 3, 3) stack (SVD with the determinant
    forced to +1)."""
    Uq, _, Vtq = np.linalg.svd(R)
    return Uq @ _diag_sign(np.sign(np.linalg.det(Uq @ Vtq))) @ Vtq


def _bearing_residual(R, t, P, F):
    """Row-wise flattened residuals ``normalize(R P + t) - F`` (n, 9), with
    the camera-frame points, their norms and a mask of the rows whose points
    all stay away from the centre."""
    X = P @ R.transpose(0, 2, 1) + t[:, None, :]
    norms = np.sqrt((X * X).sum(axis=2))
    ok = ~(norms <= 1e-12).any(axis=1)
    return (X / norms[:, :, None] - F).reshape(len(X), 9), X, norms, ok


def _bearing_jacobian(X, norms, t):
    """(n, 9, 6) Jacobians of the bearing residuals with respect to a
    rotation increment applied on the left and to the translation."""
    n = len(X)
    U = X / norms[:, :, None]
    proj = (np.eye(3) - U[:, :, :, None] * U[:, :, None, :]) / norms[:, :, None, None]
    W = X - t[:, None, :]
    skews = np.zeros((n, 3, 3, 3))
    skews[:, :, 0, 1] = -W[:, :, 2]
    skews[:, :, 0, 2] = W[:, :, 1]
    skews[:, :, 1, 0] = W[:, :, 2]
    skews[:, :, 1, 2] = -W[:, :, 0]
    skews[:, :, 2, 0] = -W[:, :, 1]
    skews[:, :, 2, 1] = W[:, :, 0]
    J = np.empty((n, 3, 3, 6))
    J[..., :3] = -proj @ skews
    J[..., 3:] = proj
    return J.reshape(n, 9, 6)


def _apply_step(R, t, delta):
    """Rotate every ``R`` on the left by the axis-angle vector
    ``delta[:, :3]`` (Rodrigues) and shift ``t`` by ``delta[:, 3:]``."""
    w = delta[:, :3]
    angle = np.sqrt(_dot(w, w))
    R = R.copy()
    turn = np.nonzero(angle > 0.0)[0]
    if turn.size:
        a = angle[turn]
        u = w[turn] / a[:, None]
        K = np.zeros((turn.size, 3, 3))
        K[:, 0, 1], K[:, 0, 2], K[:, 1, 2] = -u[:, 2], u[:, 1], -u[:, 0]
        K[:, 1, 0], K[:, 2, 0], K[:, 2, 1] = u[:, 2], -u[:, 1], u[:, 0]
        rot = np.eye(3) + np.sin(a)[:, None, None] * K + (1.0 - np.cos(a))[:, None, None] * (K @ K)
        R[turn] = rot @ R[turn]
    return R, t + delta[:, 3:]


def _solve(A, b):
    """Stacked ``np.linalg.solve``; rows with a singular matrix get NaN."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for i in range(len(A)):
            try:
                out[i] = np.linalg.solve(A[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _gauss_newton(R, t, P, F, iters: int):
    """Minimize every row's bearing residual; returns ``(R, t, rank_deficient)``.

    A row stops at a residual below 1e-16, at a singular or non-finite step,
    at a step that raises the residual (not taken) and after a step shorter
    than 1e-16. ``rank_deficient`` flags a degenerate bearing Jacobian at the
    row's last linearization point. Rows with a point at the camera centre
    are left as they are.
    """
    R, t = R.copy(), t.copy()
    r, X, norms, ok = _bearing_residual(R, t, P, F)
    J = np.empty((len(R), 9, 6))
    linearized = np.zeros(len(R), dtype=bool)
    live = ok.copy()
    for _ in range(iters):
        live &= ~(np.abs(r).max(axis=1) < 1e-16)
        rows = np.nonzero(live)[0]
        if rows.size == 0:
            break
        Jr = J[rows] = _bearing_jacobian(X[rows], norms[rows], t[rows])
        linearized[rows] = True
        Jt = Jr.transpose(0, 2, 1)
        JtJ = Jt @ Jr
        g = Jt @ r[rows][:, :, None]
        damp = (1e-14 * np.trace(JtJ, axis1=1, axis2=2))[:, None, None] * np.eye(6)
        delta = -_solve(JtJ + damp, g)[:, :, 0]
        live[rows] = False
        finite = np.isfinite(delta).all(axis=1)
        rows, delta = rows[finite], delta[finite]
        R_new, t_new = _apply_step(R[rows], t[rows], delta)
        r_new, X_new, norms_new, ok_new = _bearing_residual(R_new, t_new, P[rows], F[rows])
        better = ok_new & ~(_dot(r_new, r_new) > _dot(r[rows], r[rows]))
        took = rows[better]
        R[took], t[took], r[took] = R_new[better], t_new[better], r_new[better]
        X[took], norms[took] = X_new[better], norms_new[better]
        live[took[~(_dot(delta[better], delta[better]) < 1e-32)]] = True
    late = np.nonzero(ok & ~linearized)[0]
    J[late] = _bearing_jacobian(X[late], norms[late], t[late])
    deficient = np.zeros(len(R), dtype=bool)
    rows = np.nonzero(ok)[0]
    evals = np.linalg.eigvalsh(J[rows].transpose(0, 2, 1) @ J[rows])
    top = evals[:, -1]
    deficient[rows] = evals[:, 0] < 1e-10 * np.where(1e-300 > top, 1e-300, top)
    return R, t, deficient


def _refine_pose(R, t, P, F, iters: int = 40):
    """Gauss-Newton on the bearing residuals ``normalize(R P + t) - F``.

    The quartic path loses accuracy near multiple roots (the cosines round
    when the quartic is formed); polishing against the original bearings
    restores machine precision. Rank-deficient rows get a second-order
    polish on top, one row at a time.
    """
    R, t, deficient = _gauss_newton(R, t, P, F, iters)
    # one orthonormalization at the end instead of per step
    R = _orthonormalize(R)
    for i in np.nonzero(deficient)[0]:
        one = slice(i, i + 1)
        R[one], t[one] = _null_direction_polish(R[one], t[one], P[one], F[one])
    return R, t


def _null_direction_polish(R, t, P, F, rounds: int = 16):
    """Polish along a rank-deficient direction of the bearing Jacobian
    (degenerate 'danger cylinder' configurations), for one-row stacks.

    Gauss-Newton stalls near sqrt(eps) there because the residual is
    quadratic in the flat direction. Sampling the residual at +-h, where the
    quadratic signal exceeds rounding noise, gives a step toward the true
    zero; the step estimate contracts geometrically, so iterate until the
    steps stop shrinking.
    """
    prev_alpha = np.inf
    for _ in range(rounds):
        r0, X, norms, ok = _bearing_residual(R, t, P, F)
        if not ok[0]:
            return R, t
        _, svals, Vt = np.linalg.svd(_bearing_jacobian(X, norms, t))
        if svals[0, -1] > 1e-5 * svals[0, 0]:
            return R, t  # full rank: GN already did its job
        n = Vt[:, -1]
        h = 1e-5 * max(1.0, float(np.linalg.norm(t)))
        rp, _, _, ok_p = _bearing_residual(*_apply_step(R, t, h * n), P, F)
        rm, _, _, ok_m = _bearing_residual(*_apply_step(R, t, -h * n), P, F)
        if not (ok_p[0] and ok_m[0]):
            return R, t
        d = rp + rm - 2.0 * r0  # ~ 2*kappa*h^2 along the curvature direction
        dn = np.linalg.norm(d)
        if dn < 1e-13:
            return R, t
        hdir = d / dn
        s0, sp, sm = (float(_dot(hdir, x)[0]) for x in (r0, rp, rm))
        kappa_2h2 = sp + sm - 2.0 * s0
        if kappa_2h2 <= 0.0:
            return R, t
        alpha = (sm - sp) * h / (2.0 * kappa_2h2)
        if not np.isfinite(alpha) or abs(alpha) > 10.0 * h:
            return R, t
        if abs(alpha) < 1e-13 or abs(alpha) >= prev_alpha:
            return R, t
        R_new, t_new = _apply_step(R, t, alpha * n)
        r_new, _, _, ok_new = _bearing_residual(R_new, t_new, P, F)
        # residual comparisons at the noise floor need an absolute slack
        if not ok_new[0] or np.linalg.norm(r_new) > np.linalg.norm(r0) + 1e-15:
            return R, t
        R = _orthonormalize(R_new)
        t = t_new
        prev_alpha = abs(alpha)
    return R, t


# rows per pass of the batched kernels: each P3P row holds about three
# candidate poses of a few kilobytes of Gauss-Newton temporaries each, so
# this bounds their memory whatever the number of triangles
_BATCH_ROWS = 256

# reasons a triangle has no P3P problem, by ``p3p_batch`` degenerate code
_DEGENERATE = (
    None,
    "zero-length bearing",
    "coincident 3D points",
    "collinear 3D points",
    "coincident or opposite bearings",
)


def p3p_batch(points3d, bearings):
    """All real P3P solutions of many triangles in one pass.

    Parameters
    ----------
    points3d, bearings : (n, 3, 3) arrays
        Row ``i`` holds triangle ``i``'s input to ``p3p_solve``.

    Returns
    -------
    rotations : (n, k, 3, 3) array
    translations : (n, k, 3) array
        Triangle ``i``'s poses in ``rotations[i, :counts[i]]`` and
        ``translations[i, :counts[i]]``, in ``p3p_solve`` order; ``k`` is the
        largest count (at least 1).
    counts : (n,) int64 array
    degenerate : (n,) uint8 array
        Nonzero where ``p3p_solve`` raises DegenerateConfiguration (the
        count is then 0); the code indexes the reason in ``_DEGENERATE``.

    Every row takes the same floating-point steps as a one-triangle solve,
    so its poses do not depend on the other rows.
    """
    P = np.asarray(points3d, dtype=np.float64).reshape(-1, 3, 3)
    F = np.asarray(bearings, dtype=np.float64).reshape(-1, 3, 3)
    n = len(P)
    with np.errstate(all="ignore"):
        fnorm = np.linalg.norm(F, axis=2)
        F = F / fnorm[:, :, None]
        sides, area2 = triangle_extent(P)
        diam = sides.max(axis=1)
        cos = np.clip(
            np.stack([_dot(F[:, 0], F[:, 1]), _dot(F[:, 0], F[:, 2]), _dot(F[:, 1], F[:, 2])], axis=1),
            -1.0, 1.0,
        )
        degenerate = np.select(
            [
                (fnorm <= 0).any(axis=1),
                diam <= 0.0,
                area2 / diam <= 1e-9 * diam,
                (1.0 - np.abs(cos) < 1e-12).any(axis=1),
            ],
            [1, 2, 3, 4],
            0,
        ).astype(np.uint8)
        lanes = np.nonzero(degenerate == 0)[0]
        # libm ``pow``, as the scalar ``side ** 2`` uses, rounds some squares
        # differently from the ``x * x`` that an array ``** 2`` computes
        sq = np.array([x ** 2 for x in sides[lanes].ravel().tolist()]).reshape(-1, 3)
        found = []
        for start in range(0, max(len(lanes), 1), _BATCH_ROWS):
            part = slice(start, start + _BATCH_ROWS)
            lane, R, t = _p3p_poses(P[lanes[part]], F[lanes[part]], sq[part], cos[lanes[part]])
            found.append((lanes[part][lane], R, t))
    row, R, t = (np.concatenate(x) for x in zip(*found))
    counts = np.bincount(row, minlength=n)
    rank = np.arange(len(row)) - np.searchsorted(row, row)
    rotations = np.zeros((n, max(1, int(counts.max(initial=0))), 3, 3))
    translations = np.zeros(rotations.shape[:3])
    rotations[row, rank] = R
    translations[row, rank] = t
    return rotations, translations, counts, degenerate


def _p3p_poses(P, F, sq, cos):
    """P3P poses of non-degenerate rows, as ``(row, R, t)`` arrays sorted by
    row and, within a row, in ``p3p_solve`` order."""
    a2, b2, c2 = sq[:, 0], sq[:, 1], sq[:, 2]
    cos_gamma, cos_beta, cos_alpha = cos[:, 0], cos[:, 1], cos[:, 2]
    A1 = (a2 - c2) / b2
    # u = N(v) / D(v) from eliminating the a- and c-equations
    N = np.stack([1.0 - A1, 2.0 * A1 * cos_beta, -(1.0 + A1)], axis=1)
    D = np.stack([2.0 * cos_alpha, -2.0 * cos_gamma], axis=1)
    # quadratic in u from the c-equation: u^2 - 2 cos(gamma) u + Q(v) = 0
    ratio = c2 / b2
    Q = np.stack([-ratio, 2.0 * ratio * cos_beta, 1.0 - ratio], axis=1)
    ND = (2.0 * cos_gamma)[:, None] * _polymul(N, D)
    quartic = _polymul(N, N) - np.concatenate([np.zeros((len(N), 1)), ND], axis=1)
    quartic = quartic + _polymul(Q, _polymul(D, D))
    lead = np.abs(quartic).max(axis=1)
    usable = np.nonzero(~(lead <= 0.0) & np.isfinite(lead))[0]
    quartic = quartic[usable] / lead[usable, None]
    roots, exists = _quartic_roots(quartic)

    m = len(usable)
    ca, cb, cg = cos_alpha[usable], cos_beta[usable], cos_gamma[usable]
    a2, b2 = a2[usable], b2[usable]
    N, D, Q = N[usable], D[usable], Q[usable]
    seen = np.zeros((m, 4))
    seen_ok = np.zeros((m, 4), dtype=bool)
    slot_ok = np.zeros((m, 8), dtype=bool)
    depths = np.zeros((m, 8, 3))
    for k in range(4):
        z = roots[:, k]
        # near-real roots only; clustered multiple roots may carry imaginary
        # parts up to the cube root of machine epsilon, so be permissive and
        # let the residual and reprojection gates reject impostors
        ok = exists[:, k] & ~(np.abs(z.imag) > 1e-2 * (1.0 + np.abs(z.real)))
        v = _polish_roots(quartic, z.real.copy())
        ok &= ~(v <= 0.0)
        for j in range(k):
            ok &= ~(seen_ok[:, j] & (np.abs(v - seen[:, j]) <= 1e-9 * (1.0 + np.abs(seen[:, j]))))
        seen[:, k], seen_ok[:, k] = v, ok
        denom = 1.0 + v * v - 2.0 * v * cb
        ok &= ~(denom <= 1e-15)
        s1 = np.sqrt(b2 / denom)
        dv = _horner(D, v)
        single = np.abs(dv) > 1e-9
        disc = cg * cg - _horner(Q, v)
        rt = np.sqrt(disc)
        pair = ok & ~single & ~(disc < 0.0)
        us = ((np.where(single, _horner(N, v) / dv, cg + rt), ok & (single | pair)), (cg - rt, pair))
        for j, (u, live) in enumerate(us):
            # the eliminated a-equation must hold as well
            resid = u * u + v * v - 2.0 * u * v * ca - a2 / b2 * denom
            uv = u * u + v * v
            slot_ok[:, 2 * k + j] = (
                live & ~(u <= 0.0) & ~(np.abs(resid) > 1e-5 * np.where(uv > 1.0, uv, 1.0))
            )
            depths[:, 2 * k + j] = np.stack([s1, u * s1, v * s1], axis=1)

    row, slot = np.nonzero(slot_ok)
    lane = usable[row]
    Pc, Fc = P[lane], F[lane]
    R, t = _kabsch(Pc, depths[row, slot][:, :, None] * Fc)
    R, t = _refine_pose(R, t, Pc, Fc)
    X = Pc @ R.transpose(0, 2, 1) + t[:, None, :]
    along = (X * Fc).sum(axis=2)
    lens = np.sqrt((X * X).sum(axis=2))
    reproj = np.arccos(np.clip(along / lens, -1.0, 1.0))
    keep = np.nonzero(~(along <= 0.0).any(axis=1) & ~(reproj.max(axis=1) > _REPROJECTION_ATOL))[0]
    lane, R, t = lane[keep], R[keep], t[keep]
    keep = _first_of_duplicates(lane, R, t)
    lane, R, t = lane[keep], R[keep], t[keep]
    # rotation checks of the Pose type
    off = _norm((R.transpose(0, 2, 1) @ R - np.eye(3)).reshape(-1, 9))
    valid = np.nonzero(~(off > _ROT_ATOL) & ~(np.abs(np.linalg.det(R) - 1.0) > _ROT_ATOL))[0]
    lane, R, t = lane[valid], R[valid], t[valid]
    trace = np.array([round(x, 12) for x in np.trace(R, axis1=1, axis2=2).tolist()])
    tr = np.round(t, 12)
    order = np.lexsort((tr[:, 2], tr[:, 1], tr[:, 0], trace, lane))
    return lane[order], R[order], t[order]


def _first_of_duplicates(lane, R, t) -> np.ndarray:
    """Indices of the poses (sorted by lane) that repeat no earlier pose of
    their lane within the dedup tolerance, in order."""
    start = np.searchsorted(lane, lane)
    rank = np.arange(len(lane)) - start
    keep = np.ones(len(lane), dtype=bool)
    for j in range(1, int(rank.max(initial=0)) + 1):
        late = np.nonzero(rank == j)[0]
        for i in range(j):
            early = start[late] + i
            ctr = (np.trace(R[early].transpose(0, 2, 1) @ R[late], axis1=1, axis2=2) - 1.0) / 2.0
            gap = np.abs(t[early] - t[late]).max(axis=1)
            dup = (_acos_clamped(ctr) <= _DEDUP_ATOL) & (
                gap <= _DEDUP_ATOL * (1.0 + np.abs(t[early]).max(axis=1))
            )
            keep[late[keep[early] & dup]] = False
    return np.nonzero(keep)[0]


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
    P = np.asarray(points3d, dtype=np.float64).reshape(1, 3, 3)
    F = np.asarray(bearings, dtype=np.float64).reshape(1, 3, 3)
    rotations, translations, counts, degenerate = p3p_batch(P, F)
    if degenerate[0]:
        raise DegenerateConfiguration(_DEGENERATE[degenerate[0]])
    return [
        Pose(rotation=rotations[0, i].copy(), translation=translations[0, i].copy())
        for i in range(counts[0])
    ]


def pose_agreement_batch(
    rot_a, trans_a, count_a, rot_b, trans_b, count_b, eps1: float, eps2: float
) -> np.ndarray:
    """Row-wise ``pose_agreement`` over padded pose tables.

    Row ``i`` compares poses ``rot_a[i, :count_a[i]]``/``trans_a[i, :count_a[i]]``
    with ``rot_b[i, :count_b[i]]``/``trans_b[i, :count_b[i]]``; every count
    is at least 1. Returns a uint8 array of 0/1.
    """
    rot_a, rot_b = np.asarray(rot_a, dtype=np.float64), np.asarray(rot_b, dtype=np.float64)
    trans_a, trans_b = np.asarray(trans_a, dtype=np.float64), np.asarray(trans_b, dtype=np.float64)
    count_a, count_b = np.asarray(count_a), np.asarray(count_b)
    if len(rot_a) > _BATCH_ROWS:
        return np.concatenate([
            pose_agreement_batch(
                rot_a[s], trans_a[s], count_a[s], rot_b[s], trans_b[s], count_b[s], eps1, eps2
            )
            for s in (slice(i, i + _BATCH_ROWS) for i in range(0, len(rot_a), _BATCH_ROWS))
        ])
    e, ka, kb = len(rot_a), rot_a.shape[1], rot_b.shape[1]
    rel = rot_a.transpose(0, 1, 3, 2)[:, :, None] @ rot_b[:, None]
    rd = _acos_clamped((np.trace(rel, axis1=3, axis2=4) - 1.0) / 2.0)
    tgap = np.abs(trans_a[:, :, None] - trans_b[:, None]).sum(axis=3)
    valid = (np.arange(ka) < count_a[:, None])[:, :, None] & (
        np.arange(kb) < count_b[:, None]
    )[:, None, :]
    rd = np.where(valid, rd, np.inf).reshape(e, ka * kb)
    tgap = tgap.reshape(e, ka * kb)
    # the first pair, in (a, b) order, with the smallest (rd, tgap)
    tie = rd == rd.min(axis=1, keepdims=True)
    gap = np.where(tie, tgap, np.inf)
    pick = np.argmax(tie & (gap == gap.min(axis=1, keepdims=True)), axis=1)
    rows = np.arange(e)
    na, nb = _norm(trans_a[rows, pick // kb]), _norm(trans_b[rows, pick % kb])
    scale = np.where(nb > na, nb, na)
    return ((rd[rows, pick] <= eps1) & (tgap[rows, pick] <= eps2 * scale)).astype(np.uint8)


def pose_agreement(poses_a, poses_b, eps1: float, eps2: float) -> int:
    """Binary agreement between two P3P solution sets.

    The pair (one pose from each set) with the smallest rotation geodesic
    distance is selected (ties toward the smaller l1 translation gap); it
    agrees when that rotation distance is at most ``eps1`` and the l1
    translation gap is at most ``eps2 * max(|t_a|, |t_b|)``.
    """
    if not poses_a or not poses_b:
        raise EmptySolutions("both pose lists must be non-empty")

    def table(poses):
        rot = np.stack([_valid_rotation(p) for p in poses])[None]
        trans = np.stack([np.asarray(p.translation, dtype=np.float64).reshape(3) for p in poses])[None]
        return rot, trans, [len(poses)]

    return int(pose_agreement_batch(*table(poses_a), *table(poses_b), eps1, eps2)[0])
