"""Absolute-pose machinery: batched P3P, rotation distance, pose agreement.

The P3P solver is Lambda Twist (Persson & Nordberg, ECCV 2018): the law of
cosines between the three viewing rays gives two homogeneous quadratic
forms in the point depths, one real root of a cubic makes a combination of
them split into two planes, and on each plane the other form is a
quadratic in one ratio. ``p3p_batch`` solves many triangles in one pass,
one array row per triangle or per candidate pose:

- the cubic's roots are the eigenvalues of stacked companion matrices,
  polished by Newton steps; the planes come from one stacked symmetric
  eigendecomposition; the quadratics and the depth scaling are array
  operations;
- every positive depth triple is refined by guarded Newton steps on the
  three law-of-cosines equations the solver started from;
- one rigid alignment (stacked SVD) per triple gives the pose, which then
  passes the reprojection, duplicate and rotation gates.

Stacked BLAS and LAPACK calls treat each small matrix as a single call
does, so a row's poses have the same bits whichever rows share its batch.
``p3p_solve`` is a one-item wrapper over ``p3p_batch``; pose agreement is
only batched, as ``pose_agreement_batch``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConfiguration, InvalidArgument, InvalidRotation

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
        if not all(map(math.isfinite, (self.fx, self.fy, self.cx, self.cy))):
            raise InvalidArgument("intrinsics must be finite")
        if not (self.fx > 0 and self.fy > 0):
            raise InvalidArgument("focal lengths must be positive")

    def bearing(self, pixels) -> np.ndarray:
        """Unit viewing rays for (n, 2) pixel coordinates."""
        px = np.atleast_2d(np.asarray(pixels, dtype=np.float64))
        rays = np.column_stack(
            [(px[:, 0] - self.cx) / self.fx, (px[:, 1] - self.cy) / self.fy, np.ones(len(px))]
        )
        return rays / np.linalg.norm(rays, axis=1, keepdims=True)


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
    ra, rb = (_check_rotation(getattr(r, "rotation", r)) for r in (ra, rb))
    return float(_acos_clamped((np.trace(ra.T @ rb) - 1.0) / 2.0))


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
    """``arccos`` of ``c`` clipped to [-1, 1].

    Rotation distances are compared against thresholds and against each
    other, so every one of them, ``rotation_geodesic_distance`` included,
    comes from this one call. Its last bits follow numpy's CPU dispatch for
    float64 ``arccos``: SVML on AVX-512 hosts (numpy's ``AVX512_SKX``
    target, ``X86_V4`` from numpy 2.4), libm's ``acos`` elsewhere.
    """
    return np.arccos(np.clip(c, -1.0, 1.0))


def _dot(a, b) -> np.ndarray:
    """``a[i] @ b[i]`` over the last axis, for every leading index ``i``, with
    the bits of one-vector ``@`` calls (BLAS ``ddot``)."""
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


def _kabsch(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rigid transforms with dst[i] = R[i] @ src[i] + t[i] (least squares,
    det(R)=+1), for (n, 3, 3) point stacks."""
    cs, cd = src.mean(axis=1), dst.mean(axis=1)
    H = (src - cs[:, None]).transpose(0, 2, 1) @ (dst - cd[:, None])
    U, _, Vt = np.linalg.svd(H)
    V, Ut = Vt.transpose(0, 2, 1), U.transpose(0, 2, 1)
    V[:, :, 2] *= np.sign(np.linalg.det(V @ Ut))[:, None]
    R = V @ Ut
    return R, cd - (R @ cs[:, :, None])[:, :, 0]


def _side_forms(cos) -> np.ndarray:
    """(n, 3, 3, 3) quadratic forms: ``L' M[:, k] L`` is the squared distance
    between the points at depths ``L`` on the unit bearings at the ends of
    side ``k`` (in ``triangle_extent`` order), for the bearing cosines
    ``cos`` of ``p3p_batch``."""
    M = np.zeros((len(cos), 3, 3, 3))
    for k, (i, j) in enumerate(((1, 2), (0, 2), (0, 1))):
        M[:, k, i, i] = M[:, k, j, j] = 1.0
        M[:, k, i, j] = M[:, k, j, i] = -cos[:, 2 - k]
    return M


def _side_equations(L, M, a):
    """Residuals ``L' M[:, k] L - a[:, k]`` (m, 3) of depth triples ``L``
    and their Jacobians ``2 M[:, k] L`` (m, 3, 3), one row per equation."""
    ML = (M @ L[:, None, :, None])[..., 0]
    return _dot(ML, L[:, None, :]) - a, 2.0 * ML


def _newton_step(J, r):
    """``J^-1 r`` for every row, by cofactors; a singular ``J`` gives a
    non-finite step instead of an error."""
    C = np.cross(J[:, [1, 2, 0]], J[:, [2, 0, 1]])  # columns of det(J) J^-1
    return (r[:, None, :] @ C)[:, 0] / _dot(J[:, 0], C[:, 0])[:, None]


def _refine_depths(L, M, a):
    """Newton on the three side equations of every depth triple, at most ten
    steps; a row stops at a step that does not lower its residual (the step
    is not taken). The depths of ``_lambda_twist`` lose accuracy near multiple
    solutions, where its planes and quadratics are ill-conditioned; these
    steps restore them against the original equations. At a double root (the
    danger cylinder) they stall near sqrt(eps), far below what agreement reads.
    """
    L = L.copy()
    r, J = _side_equations(L, M, a)
    live = np.arange(len(L))
    for _ in range(10):
        if live.size == 0:
            break
        L_new = L[live] - _newton_step(J[live], r[live])
        r_new, J_new = _side_equations(L_new, M[live], a[live])
        better = _dot(r_new, r_new) < _dot(r[live], r[live])
        live = live[better]
        L[live], r[live], J[live] = L_new[better], r_new[better], J_new[better]
    return L


# rows per pass of the batched kernels: a P3P row holds four candidate depth
# triples with their forms and Jacobians, an agreement row a table of pose
# pairs, so this bounds their memory whatever the number of triangles
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
        found = []
        for start in range(0, max(len(lanes), 1), _BATCH_ROWS):
            part = lanes[start:start + _BATCH_ROWS]
            lane, R, t = _p3p_poses(P[part], F[part], sides[part], cos[part])
            found.append((part[lane], R, t))
    row, R, t = (np.concatenate(x) for x in zip(*found))
    counts = np.bincount(row, minlength=n)
    rank = np.arange(len(row)) - np.searchsorted(row, row)
    rotations = np.zeros((n, max(1, int(counts.max(initial=0))), 3, 3))
    translations = np.zeros(rotations.shape[:3])
    rotations[row, rank] = R
    translations[row, rank] = t
    return rotations, translations, counts, degenerate


def _lambda_twist(sides, M) -> np.ndarray:
    """Candidate depth triples of non-degenerate rows, (n, 4, 3); a
    candidate with a nonpositive or NaN depth is no solution.

    With the forms ``M`` of ``_side_forms``, ``L' M[:, k] L = a[:, k]`` for
    the squared sides ``a``, here scaled so that the longest is 1. Two
    homogeneous conics follow, ``L' D1 L = L' D2 L = 0``. A real root ``g``
    of the cubic ``det(D1 + g D2)`` makes ``D0 = D1 + g D2`` singular, so
    ``L' D0 L = 0`` splits into two planes through the origin. On each
    plane ``L' D2 L = 0`` is a quadratic in one ratio, and the longest side
    fixes the scale.
    """
    n = len(sides)
    diam = sides.max(axis=1)
    a = (sides / diam[:, None]) ** 2
    D1 = a[:, 0, None, None] * M[:, 2] - a[:, 2, None, None] * M[:, 0]
    D2 = a[:, 0, None, None] * M[:, 1] - a[:, 1, None, None] * M[:, 0]

    # det(D1 + g D2) = c3 g^3 + c2 g^2 + c1 g + c0: the largest real root,
    # from stacked companion matrices, then Newton steps
    C1, C2 = (np.cross(D[:, [1, 2, 0]], D[:, [2, 0, 1]]) for D in (D1, D2))  # cofactors
    c = np.stack([
        _dot(D2[:, 0], C2[:, 0]),
        _dot(C2.reshape(n, 9), D1.reshape(n, 9)),
        _dot(C1.reshape(n, 9), D2.reshape(n, 9)),
        _dot(D1[:, 0], C1[:, 0]),
    ], axis=1)
    companion = np.zeros((n, 3, 3))
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    companion[:, 0] = -c[:, 1:] / c[:, :1]
    finite = np.isfinite(companion).all(axis=(1, 2))
    roots = np.linalg.eigvals(companion[finite])
    pick = np.argmax(np.where(np.imag(roots) == 0.0, np.abs(roots), -1.0), axis=1)
    g = np.full(n, np.inf)  # det(D2) = 0: D2 itself is singular
    g[finite] = np.real(roots)[np.arange(len(pick)), pick]
    c3, c2, c1, c0 = c.T
    for _ in range(3):
        step = (((c3 * g + c2) * g + c1) * g + c0) / ((3.0 * c3 * g + 2.0 * c2) * g + c1)
        g = np.where(np.isfinite(step), g - step, g)
    # D0 = x D1 + y D2 with (x, y) the unit vector along (1, g). On the
    # planes of D0, L' (x D2 - y D1) L = L' D2 L / x, which does not cancel
    # when g is large and still holds for g = inf
    x, y = np.where(np.isfinite(g), 1.0, 0.0), np.where(np.isfinite(g), g, 1.0)
    x, y = (np.stack([x, y]) / np.hypot(x, y))[:, :, None, None]
    D0, Dq = x * D1 + y * D2, x * D2 - y * D1

    # D0 = sum(s[k] e[k] e[k]'), s[0] the null eigenvalue: L' D0 L = 0 on
    # the planes spanned by e[0] and sqrt|s[2]| e[1] +- sqrt|s[1]| e[2]
    s, E = np.linalg.eigh(D0)
    order = np.argsort(np.abs(s), axis=1)
    s, E = np.take_along_axis(s, order, 1), np.take_along_axis(E, order[:, None, :], 2)
    e1 = np.sqrt(np.abs(s[:, 2, None])) * E[:, :, 1]
    e2 = np.sqrt(np.abs(s[:, 1, None])) * E[:, :, 2]
    U, v = np.stack([e1 + e2, e1 - e2], axis=1), E[:, None, :, 0]
    # L = p U + r v with A p^2 + 2 B p r + C r^2 = 0: (p, r) = (q, A) or (C, q).
    # A discriminant above -1e-8 of its scale is a rounded double root (exact
    # danger-cylinder inputs give down to -1e-10)
    A, B, C = _dot(U @ Dq, U), _dot(U @ Dq, v), _dot(v @ Dq, v)
    disc = B * B - A * C
    disc = np.where((disc < 0.0) & (disc >= -1e-8 * (B * B + np.abs(A * C))), 0.0, disc)
    q = -(B + np.copysign(np.sqrt(disc), B))
    L = np.concatenate([q[..., None] * U + A[..., None] * v, C[..., None] * U + q[..., None] * v], axis=1)

    # scale each triple so that the longest side has its length
    Mk = M[np.arange(n), np.argmax(sides, axis=1)]
    scale = diam[:, None] / np.sqrt(_dot(L @ Mk, L))
    return L * (np.sign(L.sum(axis=2)) * scale)[..., None]


def _p3p_poses(P, F, sides, cos):
    """P3P poses of non-degenerate rows, as ``(row, R, t)`` arrays sorted by
    row and, within a row, in ``p3p_solve`` order."""
    M = _side_forms(cos)
    depths = _lambda_twist(sides, M)
    lane, slot = np.nonzero((depths > 0.0).all(axis=2))
    Pc, Fc = P[lane], F[lane]
    L = _refine_depths(depths[lane, slot], M[lane], sides[lane] ** 2)
    R, t = _kabsch(Pc, L[:, :, None] * Fc)
    X = Pc @ R.transpose(0, 2, 1) + t[:, None, :]
    along = (X * Fc).sum(axis=2)
    lens = np.sqrt((X * X).sum(axis=2))
    reproj = _acos_clamped(along / lens)
    keep = np.nonzero(~(along <= 0.0).any(axis=1) & ~(reproj.max(axis=1) > _REPROJECTION_ATOL))[0]
    lane, R, t = lane[keep], R[keep], t[keep]
    keep = _first_of_duplicates(lane, R, t)
    lane, R, t = lane[keep], R[keep], t[keep]
    trace = np.round(np.trace(R, axis1=1, axis2=2), 12)
    tr = np.round(t, 12)
    order = np.lexsort((tr[:, 2], tr[:, 1], tr[:, 0], trace, lane))
    return lane[order], R[order], t[order]


def _first_of_duplicates(lane, R, t) -> np.ndarray:
    """Indices of the poses (sorted by lane) that repeat no earlier pose of
    their lane within the dedup tolerance, in order.

    Rotations are compared by the chord ``|Ra - Rb|_F / sqrt(2)``, which
    equals their angle to first order; ``acos`` of the trace cannot resolve
    angles below about 1.5e-8, more than the tolerance."""
    start = np.searchsorted(lane, lane)
    rank = np.arange(len(lane)) - start
    keep = np.ones(len(lane), dtype=bool)
    for j in range(1, int(rank.max(initial=0)) + 1):
        late = np.nonzero(rank == j)[0]
        for i in range(j):
            early = start[late] + i
            chord = _norm((R[early] - R[late]).reshape(-1, 9)) / math.sqrt(2.0)
            gap = np.abs(t[early] - t[late]).max(axis=1)
            dup = (chord <= _DEDUP_ATOL) & (
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
        bearings within 1e-6 angular error. An empty list means there is no
        real solution with positive depths (not an error).
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
    """Binary agreement between two P3P solution sets, row by row over
    padded pose tables.

    Row ``i`` compares poses ``rot_a[i, :count_a[i]]``/``trans_a[i, :count_a[i]]``
    with ``rot_b[i, :count_b[i]]``/``trans_b[i, :count_b[i]]``; every count
    is at least 1. The pair (one pose from each set) with the smallest
    rotation geodesic distance is selected (ties toward the smaller l1
    translation gap); it agrees when that rotation distance is at most
    ``eps1`` and the l1 translation gap is at most ``eps2 * max(|t_a|,
    |t_b|)``. Returns a uint8 array of 0/1.
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
