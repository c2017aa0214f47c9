"""File formats, evaluation metrics, and report emission.

Formats (all ASCII, written canonically so emit-then-parse is the identity):

* matches:       line 1 ``count``, then ``src_idx tgt_idx [gt_flag]`` per
                 line, 0-based; ``gt_flag`` is 0 (inlier) or 1 (outlier)
* points:        line 1 ``count``, then one point per line (2 or 3 floats)
* intrinsics:    JSON with fields fx, fy, cx, cy
* report:        JSON (sorted keys, 2-space indent); timing fields are null
                 unless explicitly requested so identical runs stay
                 byte-identical
* trace:         CSV ``iteration,upper,lower,open_nodes``
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .core import INLIER, OUTLIER, LabelVector, MatchSet
from .errors import LengthMismatch, MalformedInput
from .mesh import read_ascii, save_mesh
from .pose import CameraIntrinsics

emit_mesh = save_mesh


@dataclass
class EvalReport:
    """Confusion counts of inlier classification against ground truth.

    precision = kept / (kept + outliers_missed)  -- over predicted inliers
    recall    = kept / (kept + true_inliers_lost) -- over true inliers
    Both default to 1.0 on an empty denominator. Counts partition the match
    set. ``wall_time`` is seconds (informational), ``trace_path`` points at
    the solver trace CSV when one was written.
    """

    true_inliers_kept: int
    true_inliers_lost: int
    outliers_removed: int
    outliers_missed: int
    precision: float
    recall: float
    wall_time: float = 0.0
    trace_path: Optional[str] = None

    def to_dict(self, include_timing: bool = False) -> dict:
        out = asdict(self)
        if not include_timing:
            out["wall_time"] = None
        out["definitions"] = {
            "precision": "true_inliers_kept / (true_inliers_kept + outliers_missed)",
            "recall": "true_inliers_kept / (true_inliers_kept + true_inliers_lost)",
        }
        return out


def evaluate_labels(predicted: LabelVector, gt: LabelVector) -> EvalReport:
    """Confusion counts and precision/recall of inlier classification."""
    if len(predicted) != len(gt):
        raise LengthMismatch(f"predicted has {len(predicted)} labels, gt has {len(gt)}")
    pz, gz = predicted.z, gt.z
    kept = int(((pz == INLIER) & (gz == INLIER)).sum())
    lost = int(((pz == OUTLIER) & (gz == INLIER)).sum())
    removed = int(((pz == OUTLIER) & (gz == OUTLIER)).sum())
    missed = int(((pz == INLIER) & (gz == OUTLIER)).sum())
    precision = kept / (kept + missed) if kept + missed else 1.0
    recall = kept / (kept + lost) if kept + lost else 1.0
    return EvalReport(
        true_inliers_kept=kept,
        true_inliers_lost=lost,
        outliers_removed=removed,
        outliers_missed=missed,
        precision=precision,
        recall=recall,
    )


# ---------------------------------------------------------------------------
# matches file
# ---------------------------------------------------------------------------

def emit_matches(matches: MatchSet, path) -> None:
    lines = [str(len(matches))]
    gt = matches.gt_labels
    for k, (s, t) in enumerate(matches.pairs.tolist()):
        if gt is not None:
            lines.append(f"{s} {t} {int(gt.z[k])}")
        else:
            lines.append(f"{s} {t}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_matches(path, source_points=None, target_points=None) -> MatchSet:
    """Read a matches file. Point arrays default to placeholders large
    enough for the indices (callers binding real geometry pass their own)."""
    raw = read_ascii(path).splitlines()
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(raw) if ln.strip()]
    if not lines:
        raise MalformedInput("empty matches file", str(path), 1)
    lineno, head = lines[0]
    try:
        count = int(head)
    except ValueError:
        raise MalformedInput("first line must be the match count", str(path), lineno) from None
    if count < 0 or len(lines) - 1 != count:
        raise MalformedInput(
            f"expected {count} match lines, found {len(lines) - 1}", str(path), lineno
        )
    pairs = np.empty((count, 2), dtype=np.int64)
    flags: list[int] = []
    for k, (lineno, ln) in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) not in (2, 3):
            raise MalformedInput("expected 'src tgt [gt_flag]'", str(path), lineno)
        try:
            s, t = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedInput("indices must be integers", str(path), lineno) from None
        if s < 0 or t < 0:
            raise MalformedInput("negative index", str(path), lineno)
        pairs[k] = (s, t)
        if len(parts) == 3:
            if parts[2] not in ("0", "1"):
                raise MalformedInput("gt_flag must be 0 or 1", str(path), lineno)
            flags.append(int(parts[2]))
    if flags and len(flags) != count:
        raise MalformedInput("gt_flag must be present on every line or none", str(path), 1)
    gt = LabelVector(np.asarray(flags, dtype=np.int8)) if flags else None
    if source_points is None:
        n_src = int(pairs[:, 0].max()) + 1 if count else 1
        source_points = np.zeros((n_src, 3))
    if target_points is None:
        n_tgt = int(pairs[:, 1].max()) + 1 if count else 1
        target_points = np.zeros((n_tgt, 3))
    return MatchSet(
        source_points=source_points,
        target_points=target_points,
        pairs=pairs,
        gt_labels=gt,
    )


# ---------------------------------------------------------------------------
# 2-D / 3-D points file
# ---------------------------------------------------------------------------

def emit_points(points, path) -> None:
    pts = np.asarray(points, dtype=np.float64)
    lines = [str(len(pts))]
    for row in pts:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_points(path, dim: Optional[int] = None) -> np.ndarray:
    raw = read_ascii(path).splitlines()
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(raw) if ln.strip()]
    if not lines:
        raise MalformedInput("empty points file", str(path), 1)
    lineno, head = lines[0]
    try:
        count = int(head)
    except ValueError:
        raise MalformedInput("first line must be the point count", str(path), lineno) from None
    if len(lines) - 1 != count:
        raise MalformedInput(f"expected {count} points, found {len(lines) - 1}", str(path), lineno)
    rows = []
    for lineno, ln in lines[1:]:
        parts = ln.split()
        if dim is not None and len(parts) != dim:
            raise MalformedInput(f"expected {dim} coordinates", str(path), lineno)
        try:
            rows.append([float(x) for x in parts])
        except ValueError:
            raise MalformedInput("bad coordinate", str(path), lineno) from None
        if not all(map(math.isfinite, rows[-1])):
            raise MalformedInput("non-finite coordinate", str(path), lineno)
        if rows and len(rows[-1]) != len(rows[0]):
            raise MalformedInput("inconsistent coordinate count", str(path), lineno)
    return np.asarray(rows, dtype=np.float64)


# ---------------------------------------------------------------------------
# intrinsics JSON
# ---------------------------------------------------------------------------

def emit_intrinsics(K: CameraIntrinsics, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(K.to_json())


def parse_intrinsics(path) -> CameraIntrinsics:
    text = read_ascii(path)
    try:
        return CameraIntrinsics.from_json(text)
    except MalformedInput as exc:
        raise MalformedInput(str(exc), str(path)) from None


# ---------------------------------------------------------------------------
# report JSON
# ---------------------------------------------------------------------------

def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def emit_report(report: dict, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(render_report(report))


def build_report(
    labels: LabelVector,
    unconstrained,
    solver_summary: dict,
    config_echo: dict,
    eval_report: Optional[EvalReport] = None,
    include_timing: bool = False,
) -> dict:
    """Canonical result document: per-match labels, solver stats, config
    echo, optional evaluation. Timing fields stay null unless requested so
    reports from identical seeds/configs are byte-identical."""
    unconstrained = np.asarray(unconstrained, dtype=bool)
    per_match = [
        {
            "index": i,
            "label": "outlier" if labels.z[i] == OUTLIER else "inlier",
            "unconstrained": bool(unconstrained[i]),
        }
        for i in range(len(labels))
    ]
    solver = dict(solver_summary)
    if not include_timing:
        solver["wall_time"] = None
    return {
        "config": config_echo,
        "matches": per_match,
        "solver": solver,
        "eval": eval_report.to_dict(include_timing) if eval_report is not None else None,
    }
