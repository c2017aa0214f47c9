"""Synthetic benchmark instances with known ground truth.

Isometric instances self-match a regular grid mesh against a rigidly moved
copy, re-assigning a seeded fraction of matches to wrong targets. Template
instances bend a planar grid isometrically around a cylinder, apply a rigid
pose and a pinhole projection, and replace a fraction of the image points
with random in-frame pixels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LabelVector, MatchSet
from .errors import InvalidArgument
from .mesh import TriMesh
from .pose import CameraIntrinsics, Pose, random_rotation

KINDS = ("isometric-grid", "template-bend")

DEFAULT_INTRINSICS = CameraIntrinsics(fx=800.0, fy=800.0, cx=320.0, cy=240.0)
IMAGE_SIZE = (640, 480)
MIN_OUTLIER_PIXEL_GAP = 5.0


@dataclass(frozen=True)
class SynthSpec:
    kind: str
    n_points: int
    outlier_ratio: float
    noise: float = 0.0  # pixels (template-bend) or model units (isometric-grid)
    seed: int = 0
    bend_radius: float = 2.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidArgument(f"kind must be one of {KINDS}")
        if self.n_points < 4:
            raise InvalidArgument("need at least 4 points")
        if not (0.0 <= self.outlier_ratio < 1.0):
            raise InvalidArgument("outlier_ratio must lie in [0, 1)")
        # NaN and inf fail these tests too; an infinite radius would make
        # every bent template point NaN
        if not 0.0 <= self.noise < math.inf:
            raise InvalidArgument("noise must be finite and non-negative")
        if self.kind == "template-bend" and not 0.0 < self.bend_radius < math.inf:
            raise InvalidArgument("bend_radius must be finite and positive")

    @property
    def num_outliers(self) -> int:
        return int(round(self.outlier_ratio * self.n_points))


def grid_mesh(n: int, spacing: float = 1.0) -> TriMesh:
    """Regular grid of ``n`` points (row-major, possibly partial last row),
    triangulated cell by cell with a consistent diagonal."""
    rows = int(math.floor(math.sqrt(n)))
    cols = int(math.ceil(n / rows))
    xs, ys = np.meshgrid(np.arange(cols, dtype=np.float64), np.arange(rows, dtype=np.float64))
    pts = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(rows * cols)]) * spacing
    pts = pts[:n]
    tris = []
    for r in range(rows - 1):
        for c in range(cols - 1):
            k00 = r * cols + c
            k01 = k00 + 1
            k10 = k00 + cols
            k11 = k10 + 1
            if k11 < n:
                tris.append((k00, k01, k11))
                tris.append((k00, k11, k10))
            elif k10 < n:
                tris.append((k00, k01, k10))
    return TriMesh(vertices=pts, triangles=np.asarray(tris, dtype=np.int64))


def _reassigned_pairs(n: int, num_outliers: int, rng: np.random.Generator):
    targets = np.arange(n, dtype=np.int64)
    outlier_idx = np.sort(rng.choice(n, size=num_outliers, replace=False))
    for i in outlier_idx:
        j = int(rng.integers(n - 1))
        targets[i] = j + 1 if j >= i else j  # uniform over wrong targets
    pairs = np.column_stack([np.arange(n, dtype=np.int64), targets])
    return pairs, outlier_idx


def synth_isometric_instance(spec: SynthSpec) -> tuple[TriMesh, TriMesh, MatchSet]:
    """Grid mesh, rigidly moved copy, and identity matches with a seeded
    fraction re-assigned to wrong targets (recorded in gt_labels)."""
    if spec.kind != "isometric-grid":
        raise InvalidArgument(f"expected kind 'isometric-grid', got '{spec.kind}'")
    rng = np.random.default_rng(spec.seed)
    source = grid_mesh(spec.n_points)
    R = random_rotation(rng)
    t = rng.uniform(-5.0, 5.0, size=3)
    moved = source.vertices @ R.T + t
    if spec.noise > 0.0:
        moved = moved + rng.normal(scale=spec.noise, size=moved.shape)
    target = TriMesh(vertices=moved, triangles=source.triangles)
    pairs, outlier_idx = _reassigned_pairs(spec.n_points, spec.num_outliers, rng)
    gt = LabelVector.from_outlier_indices(spec.n_points, outlier_idx)
    return source, target, MatchSet(pairs, gt)


def _bend(points: np.ndarray, radius: float) -> np.ndarray:
    """Isometric cylindrical bend of the z=0 plane (arc length preserved).
    A radius so small that ``x / radius`` overflows gives non-finite points,
    without a warning; the caller rejects them."""
    out = np.empty_like(points)
    with np.errstate(over="ignore", invalid="ignore"):
        ang = points[:, 0] / radius
        out[:, 0] = radius * np.sin(ang)
        out[:, 1] = points[:, 1]
        out[:, 2] = radius * (1.0 - np.cos(ang))
    return out


def synth_template_instance(
    spec: SynthSpec,
) -> tuple[np.ndarray, np.ndarray, CameraIntrinsics, MatchSet]:
    """Bent-grid template, its noisy projection, intrinsics, and matches
    with a seeded fraction of image points replaced by random in-frame
    pixels at least 5 px from the true projection."""
    if spec.kind != "template-bend":
        raise InvalidArgument(f"expected kind 'template-bend', got '{spec.kind}'")
    rng = np.random.default_rng(spec.seed)
    K = DEFAULT_INTRINSICS
    w, h = IMAGE_SIZE

    rows = int(math.floor(math.sqrt(spec.n_points)))
    cols = int(math.ceil(spec.n_points / rows))
    spacing = 1.0 / (max(rows, cols) - 1)
    flat = grid_mesh(spec.n_points, spacing=spacing).vertices
    flat = flat - flat.mean(axis=0)
    template = _bend(flat, spec.bend_radius)
    if not np.isfinite(template).all():  # x / radius overflowed
        raise InvalidArgument("bend_radius too small: the bent template is not finite")

    # mild pose jitter; depth keeps the whole grid inside the frame
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-0.15, 0.15)
    K_skew = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    R = (
        np.eye(3)
        + math.sin(angle) * K_skew
        + (1.0 - math.cos(angle)) * (K_skew @ K_skew)
    )
    t = np.array([rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1), rng.uniform(2.2, 2.8)])
    pose = Pose(rotation=R, translation=t)

    # the bent grid has z >= 0 and lies within 2 units of the origin, and a
    # turn of at most 0.15 rad lowers no point by more than 0.3, so every
    # depth is at least 1.9
    cam = pose.apply(template)
    truth = np.column_stack(
        [
            K.fx * cam[:, 0] / cam[:, 2] + K.cx,
            K.fy * cam[:, 1] / cam[:, 2] + K.cy,
        ]
    )
    if (truth[:, 0] < 0).any() or (truth[:, 0] >= w).any() or (truth[:, 1] < 0).any() or (truth[:, 1] >= h).any():
        raise InvalidArgument("projection leaves the frame; reduce n or bend")

    image = truth.copy()
    if spec.noise > 0.0:
        image = image + rng.normal(scale=spec.noise, size=image.shape)
    outlier_idx = np.sort(rng.choice(spec.n_points, size=spec.num_outliers, replace=False))
    for i in outlier_idx:
        while True:
            cand = np.array([rng.uniform(0, w), rng.uniform(0, h)])
            if np.linalg.norm(cand - truth[i]) >= MIN_OUTLIER_PIXEL_GAP:
                image[i] = cand
                break
    gt = LabelVector.from_outlier_indices(spec.n_points, outlier_idx)
    pairs = np.column_stack([np.arange(spec.n_points, dtype=np.int64)] * 2)
    return template, image, K, MatchSet(pairs, gt)
