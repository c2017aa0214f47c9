"""Every file consmax reads or writes: formats, evaluation and the report.

Formats (all ASCII, written canonically so emit-then-parse is the identity;
floats as ``.17g``; a malformed input raises ``MalformedInput`` with its
path and, where one is to blame, its line):

* meshes:        OBJ (``v``/``f``, 1-based) or PLY (ascii, ``x y z`` vertex
                 properties, triangular faces), chosen by content on read
                 and by the ``.ply`` suffix on write
* matches:       line 1 ``count``, then ``src_idx tgt_idx [gt_flag]`` per
                 line, 0-based; ``gt_flag`` is 0 (inlier) or 1 (outlier).
                 The file holds all of a MatchSet, so reading back what
                 ``emit_matches`` wrote gives the same pairs and labels
* points:        line 1 ``count``, then one point per line (2 or 3 floats)
* intrinsics:    JSON with fields fx, fy, cx, cy
* report:        JSON (sorted keys, 2-space indent); the solver's wall time
                 is null unless requested, so identical runs stay
                 byte-identical
* trace:         CSV ``iteration,upper,lower,open_nodes``, one file per
                 solved cluster
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .core import INLIER, OUTLIER, LabelVector, MatchSet, Registration
from .errors import LengthMismatch, MalformedInput
from .mesh import TriMesh
from .pose import CameraIntrinsics


def read_ascii(path) -> str:
    """The text of an ASCII input file. A file that cannot be read, or that
    holds a non-ASCII byte, raises MalformedInput."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as exc:
        raise MalformedInput(str(exc), str(path)) from None
    except UnicodeDecodeError as exc:
        line = exc.object[: exc.start].count(b"\n") + 1
        raise MalformedInput(f"non-ASCII byte 0x{exc.object[exc.start]:02x}", str(path), line) from None


def _write_lines(path, lines) -> None:
    """Write ``lines`` as ASCII text, each ended by a newline."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def _counted_lines(path, kind: str, unit: str, items: str) -> list:
    """The non-blank lines of a ``kind`` file after its count header, as
    ``(line number, stripped text)``; the header must give their number."""
    raw = read_ascii(path).splitlines()
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(raw) if ln.strip()]
    if not lines:
        raise MalformedInput(f"empty {kind} file", str(path), 1)
    lineno, head = lines[0]
    try:
        count = int(head)
    except ValueError:
        raise MalformedInput(f"first line must be the {unit} count", str(path), lineno) from None
    if len(lines) - 1 != count:
        raise MalformedInput(f"expected {count} {items}, found {len(lines) - 1}", str(path), lineno)
    return lines[1:]


# ---------------------------------------------------------------------------
# OBJ / PLY meshes (ASCII subsets)
# ---------------------------------------------------------------------------

def load_mesh(path) -> TriMesh:
    text = read_ascii(path)
    head = text.lstrip()[:3]
    if head == "ply":
        return _parse_ply(text, str(path))
    return _parse_obj(text, str(path))


def _parse_obj(text: str, path: str) -> TriMesh:
    verts, faces = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "v":
            if len(parts) < 4:
                raise MalformedInput("vertex needs 3 coordinates", path, lineno)
            try:
                verts.append([float(x) for x in parts[1:4]])
            except ValueError:
                raise MalformedInput("bad vertex coordinate", path, lineno) from None
            if not all(map(math.isfinite, verts[-1])):
                raise MalformedInput("non-finite vertex coordinate", path, lineno)
        elif parts[0] == "f":
            if len(parts) != 4:
                raise MalformedInput("only triangular faces supported", path, lineno)
            idx = []
            for tok in parts[1:]:
                tok = tok.split("/")[0]
                try:
                    i = int(tok)
                except ValueError:
                    raise MalformedInput("bad face index", path, lineno) from None
                if i < 1:
                    raise MalformedInput("face indices must be positive (1-based)", path, lineno)
                idx.append(i - 1)
            if len(set(idx)) != 3:
                raise MalformedInput("face repeats a vertex", path, lineno)
            faces.append(idx)
        # other records (vn, vt, o, g, s, usemtl ...) are ignored
    if not verts:
        raise MalformedInput("no vertices", path, 1)
    if faces and max(max(f) for f in faces) >= len(verts):
        raise MalformedInput("face index out of range", path, 1)
    return TriMesh(
        vertices=np.asarray(verts, dtype=np.float64),
        triangles=np.asarray(faces, dtype=np.int64).reshape(-1, 3),
    )


def _parse_ply(text: str, path: str) -> TriMesh:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise MalformedInput("missing ply magic", path, 1)
    n_vert = n_face = None
    vert_props: list[str] = []
    in_vertex_element = False
    body_start = None
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if line == "end_header":
            body_start = lineno
            break
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "format":
            if parts[1:2] != ["ascii"]:
                raise MalformedInput("only ascii PLY supported", path, lineno)
        elif parts[0] == "element":
            try:
                count = int(parts[2])
            except (ValueError, IndexError):
                raise MalformedInput("element needs a name and an integer count", path, lineno) from None
            if count < 0:
                raise MalformedInput("negative element count", path, lineno)
            in_vertex_element = parts[1] == "vertex"
            if parts[1] == "vertex":
                n_vert = count
            elif parts[1] == "face":
                n_face = count
        elif parts[0] == "property" and in_vertex_element and parts[1:2] != ["list"]:
            vert_props.append(parts[-1])
    if body_start is None or n_vert is None:
        raise MalformedInput("incomplete PLY header", path, 1)
    try:
        ix, iy, iz = (vert_props.index(k) for k in ("x", "y", "z"))
    except ValueError:
        raise MalformedInput("vertex element must carry x y z", path, 1) from None
    body = [
        (lineno, ln.strip())
        for lineno, ln in enumerate(lines[body_start:], start=body_start + 1)
        if ln.strip()
    ]
    if len(body) < n_vert + (n_face or 0):
        raise MalformedInput("truncated PLY body", path, body_start)
    verts = np.empty((n_vert, 3))
    for k in range(n_vert):
        lineno, ln = body[k]
        parts = ln.split()
        try:
            xyz = [float(parts[ix]), float(parts[iy]), float(parts[iz])]
        except (ValueError, IndexError):
            raise MalformedInput("bad vertex line", path, lineno) from None
        if not all(map(math.isfinite, xyz)):
            raise MalformedInput("non-finite vertex coordinate", path, lineno)
        verts[k] = xyz
    faces = []
    for k in range(n_face or 0):
        lineno, ln = body[n_vert + k]
        parts = ln.split()
        try:
            cnt = int(parts[0])
            idx = [int(t) for t in parts[1:1 + cnt]]
        except (ValueError, IndexError):
            raise MalformedInput("bad face line", path, lineno) from None
        if len(idx) != cnt:
            raise MalformedInput(f"face line lists {len(idx)} of its {cnt} indices", path, lineno)
        if cnt != 3:
            raise MalformedInput("only triangular faces supported", path, lineno)
        if min(idx) < 0 or max(idx) >= n_vert:
            raise MalformedInput("face index out of range", path, lineno)
        if len(set(idx)) != 3:
            raise MalformedInput("face repeats a vertex", path, lineno)
        faces.append(idx)
    return TriMesh(
        vertices=verts, triangles=np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    )


def emit_mesh(mesh: TriMesh, path) -> None:
    """Write OBJ or PLY depending on the path suffix (ASCII, round-trip safe)."""
    if str(path).endswith(".ply"):
        out = ["ply", "format ascii 1.0", f"element vertex {mesh.num_vertices}"]
        out += [f"property double {ax}" for ax in "xyz"]
        out += [
            f"element face {len(mesh.triangles)}",
            "property list uchar int vertex_indices",
            "end_header",
        ]
        for v in mesh.vertices:
            out.append(" ".join(f"{x:.17g}" for x in v))
        for f in mesh.triangles:
            out.append("3 " + " ".join(str(int(i)) for i in f))
    else:
        out = []
        for v in mesh.vertices:
            out.append("v " + " ".join(f"{x:.17g}" for x in v))
        for f in mesh.triangles:
            out.append("f " + " ".join(str(int(i) + 1) for i in f))
    _write_lines(path, out)


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
    _write_lines(path, lines)


def parse_matches(path) -> MatchSet:
    """Read a matches file; the indices are checked against the shapes by
    the pipeline that receives them."""
    lines = _counted_lines(path, "matches", "match", "match lines")
    count = len(lines)
    pairs = np.empty((count, 2), dtype=np.int64)
    flags: list[int] = []
    for k, (lineno, ln) in enumerate(lines):
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
    return MatchSet(pairs=pairs, gt_labels=gt)


# ---------------------------------------------------------------------------
# 2-D / 3-D points file
# ---------------------------------------------------------------------------

def emit_points(points, path) -> None:
    pts = np.asarray(points, dtype=np.float64)
    lines = [str(len(pts))]
    for row in pts:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    _write_lines(path, lines)


def parse_points(path, dim: Optional[int] = None) -> np.ndarray:
    rows = []
    for lineno, ln in _counted_lines(path, "points", "point", "points"):
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
    _write_lines(path, [_json(asdict(K))])


def parse_intrinsics(path) -> CameraIntrinsics:
    """Read an intrinsics file; a missing or non-finite field, or a bad
    focal length, raises MalformedInput."""
    text = read_ascii(path)
    try:
        doc = json.loads(text)
        return CameraIntrinsics(fx=float(doc["fx"]), fy=float(doc["fy"]),
                                cx=float(doc["cx"]), cy=float(doc["cy"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedInput(f"bad intrinsics JSON: {exc}", str(path)) from None


# ---------------------------------------------------------------------------
# solver trace CSV
# ---------------------------------------------------------------------------

def emit_traces(cluster_reports, path) -> None:
    """Write each solved cluster's solver trace to ``path`` (nothing when
    ``path`` is None): the header, then one ``iteration,upper,lower,open_nodes``
    row per entry, ``lower`` written with ``repr`` so it reads back exactly.
    With more than one cluster the files are numbered by cluster id:
    ``<root>.c<id><ext>``."""
    if path is None:
        return
    root, ext = os.path.splitext(path)
    for c, rep in enumerate(cluster_reports):
        if rep.result is not None and rep.result.trace:
            rows = ["iteration,upper,lower,open_nodes"]
            rows += [f"{e.iteration},{e.upper_bound},{e.lower_bound!r},{e.open_nodes}" for e in rep.result.trace]
            _write_lines(path if len(cluster_reports) == 1 else f"{root}.c{c}{ext or '.csv'}", rows)


# ---------------------------------------------------------------------------
# evaluation and report JSON
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    """Confusion counts of inlier classification against ground truth.

    precision = kept / (kept + outliers_missed)  -- over predicted inliers
    recall    = kept / (kept + true_inliers_lost) -- over true inliers
    Both default to 1.0 on an empty denominator. Counts partition the match
    set.
    """

    true_inliers_kept: int
    true_inliers_lost: int
    outliers_removed: int
    outliers_missed: int
    precision: float
    recall: float

    def to_dict(self) -> dict:
        # wall_time and trace_path are never set; their keys stay, as null,
        # so that reports keep their bytes
        return {
            **asdict(self),
            "wall_time": None,
            "trace_path": None,
            "definitions": {
                "precision": "true_inliers_kept / (true_inliers_kept + outliers_missed)",
                "recall": "true_inliers_kept / (true_inliers_kept + true_inliers_lost)",
            },
        }


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


def build_report(
    labels: LabelVector,
    registration: Registration,
    mode: str,
    config_echo: dict,
    eval_report: Optional[EvalReport] = None,
    include_timing: bool = False,
    **solver_extra,
) -> dict:
    """Canonical result document: per-match labels, solver totals over the
    solved clusters of ``registration`` plus ``solver_extra``, config echo,
    optional evaluation. Without any solver result (local filtering) the
    objective is the number of outlier labels. The solver wall time stays
    null unless requested, so reports from identical seeds and configs are
    byte-identical."""
    results = [r.result for r in registration.cluster_reports if r.result is not None]
    unconstrained = registration.unconstrained
    per_match = [
        {
            "index": i,
            "label": "outlier" if labels.z[i] == OUTLIER else "inlier",
            "unconstrained": bool(unconstrained[i]),
        }
        for i in range(len(labels))
    ]
    solver = {
        "mode": mode,
        "objective": int(sum(r.objective for r in results)) if results else labels.num_outliers,
        "lower_bound": float(sum(r.lower_bound for r in results)),
        "optimal": all(r.optimal for r in results),
        "wall_time": float(sum(r.wall_time for r in results)) if include_timing else None,
        **solver_extra,
    }
    return {
        "config": config_echo,
        "matches": per_match,
        "solver": solver,
        "eval": eval_report.to_dict() if eval_report is not None else None,
    }


def emit_report(report: dict, path=None) -> None:
    """Write the report as canonical JSON to ``path``, or to stdout when no
    path is given."""
    if not path:
        sys.stdout.write(_json(report) + "\n")
    else:
        _write_lines(path, [_json(report)])
