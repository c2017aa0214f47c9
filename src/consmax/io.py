"""Every file consmax reads or writes: formats, evaluation and the report.

Formats (all ASCII, written canonically so emit-then-parse is the identity;
floats as ``.17g``; a malformed input raises ``MalformedInput`` with its
path and, where one is to blame, its line):

* meshes:        OBJ (``v``/``f``, 1-based) or PLY (ascii, ``x y z`` vertex
                 properties, triangular faces; elements in any order, and
                 any but ``vertex`` and ``face`` skipped), chosen by
                 content on read and by the ``.ply`` suffix on write
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


def _records(text: str):
    """``(line number, tokens)`` for every non-blank line of ``text``, one
    line at a time."""
    return ((i, tokens) for i, line in enumerate(text.splitlines(), start=1) if (tokens := line.split()))


def _counted_records(path, kind: str, unit: str, items: str) -> list:
    """The records of a ``kind`` file after its count header; the header
    must give their number."""
    records = list(_records(read_ascii(path)))
    if not records:
        raise MalformedInput(f"empty {kind} file", str(path), 1)
    lineno, head = records[0]
    try:
        [count] = map(int, head)
    except ValueError:
        raise MalformedInput(f"first line must be the {unit} count", str(path), lineno) from None
    if len(records) - 1 != count:
        raise MalformedInput(f"expected {count} {items}, found {len(records) - 1}", str(path), lineno)
    return records[1:]


def _reject(bad, records, message: str, path: str) -> None:
    """Raise ``message`` at the line of the first record that ``bad`` marks."""
    if bad.any():
        raise MalformedInput(message, path, records[int(np.argmax(bad))][0])


def _numbers(records, dtype, what: str, path: str) -> np.ndarray:
    """The tokens of ``records`` as one ``dtype`` array, a row per record,
    each token read as Python's ``float`` or ``int`` reads it. A token that
    is not such a number raises ``bad {what}``, and a value that is not
    finite ``non-finite {what}``, at its record's line."""
    try:
        values = np.array([tokens for _, tokens in records], dtype=dtype)
    except (ValueError, OverflowError):
        for lineno, tokens in records:
            try:
                np.array(tokens, dtype=dtype)
            except (ValueError, OverflowError):
                raise MalformedInput(f"bad {what}", path, lineno) from None
        raise
    _reject(~np.isfinite(values).all(axis=-1), records, f"non-finite {what}", path)
    return values


# ---------------------------------------------------------------------------
# OBJ / PLY meshes (ASCII subsets)
# ---------------------------------------------------------------------------

def load_mesh(path) -> TriMesh:
    text = read_ascii(path)
    parse = _parse_ply if text.lstrip().startswith("ply") else _parse_obj
    return parse(text, str(path))


def _mesh(verts: np.ndarray, faces, first: int, path: str) -> TriMesh:
    """The mesh of ``verts`` and of ``faces``, records of index tokens that
    number the vertices from ``first``; a face that indexes outside them, or
    repeats one, raises MalformedInput at its line."""
    tri = _numbers(faces, np.int64, "face index", path).reshape(-1, 3) - first
    below = "face indices must be positive (1-based)" if first else "face index out of range"
    _reject((tri < 0).any(axis=1), faces, below, path)
    _reject((tri >= len(verts)).any(axis=1), faces, "face index out of range", path)
    tri_sorted = np.sort(tri, axis=1)
    _reject((tri_sorted[:, 1:] == tri_sorted[:, :-1]).any(axis=1), faces, "face repeats a vertex", path)
    return TriMesh(vertices=verts, triangles=tri)


def _parse_obj(text: str, path: str) -> TriMesh:
    # records other than v and f (comments, vn, vt, o, g, s, usemtl ...) are
    # ignored; a face token is v, v/vt, v//vn or v/vt/vn: keep the vertex index
    verts, faces = [], []
    for lineno, tokens in _records(text):
        if tokens[0] == "v":
            verts.append((lineno, tokens[1:4]))
        elif tokens[0] == "f":
            faces.append((lineno, [t.partition("/")[0] for t in tokens[1:]]))
    if not verts:
        raise MalformedInput("no vertices", path, 1)
    for lineno, tokens in verts:
        if len(tokens) < 3:
            raise MalformedInput("vertex needs 3 coordinates", path, lineno)
    verts = _numbers(verts, np.float64, "vertex coordinate", path)
    for lineno, tokens in faces:
        if len(tokens) != 3:
            raise MalformedInput("only triangular faces supported", path, lineno)
    return _mesh(verts, faces, 1, path)


def _parse_ply(text: str, path: str) -> TriMesh:
    records = list(_records(text))
    if not records or records[0] != (1, ["ply"]):
        raise MalformedInput("missing ply magic", path, 1)
    elements = []  # (name, row count, scalar property names), as declared
    for end, (lineno, tokens) in enumerate(records):
        if tokens == ["end_header"]:
            break
        if tokens[0] == "format" and tokens[1:2] != ["ascii"]:
            raise MalformedInput("only ascii PLY supported", path, lineno)
        if tokens[0] == "element":
            try:
                count = int(tokens[2])
            except (ValueError, IndexError):
                raise MalformedInput("element needs a name and an integer count", path, lineno) from None
            if count < 0:
                raise MalformedInput("negative element count", path, lineno)
            elements.append((tokens[1], count, []))
        elif tokens[0] == "property" and elements and tokens[1:2] != ["list"]:
            elements[-1][2].append(tokens[-1])
    else:
        raise MalformedInput("incomplete PLY header", path, 1)
    # the body holds each element's rows in turn, in the order declared
    rows, props, start = {}, {}, end + 1
    for name, count, names in elements:
        rows[name], props[name] = records[start:start + count], names
        start += count
    if "vertex" not in rows:
        raise MalformedInput("incomplete PLY header", path, 1)
    try:
        xyz = [props["vertex"].index(axis) for axis in "xyz"]
    except ValueError:
        raise MalformedInput("vertex element must carry x y z", path, 1) from None
    if start > len(records):
        raise MalformedInput("truncated PLY body", path, records[end][0])
    verts, last = [], max(xyz)
    for lineno, tokens in rows["vertex"]:
        if len(tokens) <= last:
            raise MalformedInput("vertex needs 3 coordinates", path, lineno)
        verts.append((lineno, [tokens[i] for i in xyz]))
    faces = []
    for lineno, tokens in rows.get("face", []):
        try:
            count = int(tokens[0])
        except ValueError:
            raise MalformedInput("bad face line", path, lineno) from None
        if len(tokens) <= count:
            raise MalformedInput(f"face line lists {len(tokens) - 1} of its {count} indices", path, lineno)
        if count != 3:
            raise MalformedInput("only triangular faces supported", path, lineno)
        faces.append((lineno, tokens[1:4]))
    return _mesh(_numbers(verts, np.float64, "vertex coordinate", path).reshape(-1, 3), faces, 0, path)


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
    records = _counted_records(path, "matches", "match", "match lines")
    width = len(records[0][1]) if records else 2
    for lineno, tokens in records:
        if len(tokens) not in (2, 3):
            raise MalformedInput("expected 'src tgt [gt_flag]'", str(path), lineno)
        if len(tokens) != width:
            raise MalformedInput("gt_flag must be present on every line or none", str(path), lineno)
        if width == 3 and tokens[2] not in ("0", "1"):
            raise MalformedInput("gt_flag must be 0 or 1", str(path), lineno)
    table = _numbers(records, np.int64, "match index", str(path)).reshape(-1, width)
    _reject((table < 0).any(axis=1), records, "negative index", str(path))
    gt = LabelVector(table[:, 2].astype(np.int8)) if width == 3 else None
    return MatchSet(pairs=table[:, :2], gt_labels=gt)


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
    records = _counted_records(path, "points", "point", "points")
    for lineno, tokens in records:
        if dim is not None and len(tokens) != dim:
            raise MalformedInput(f"expected {dim} coordinates", str(path), lineno)
        if len(tokens) != len(records[0][1]):
            raise MalformedInput("inconsistent coordinate count", str(path), lineno)
    return _numbers(records, np.float64, "coordinate", str(path))


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
