"""Workloads of the end-to-end benchmark: fixed instances, their set-up, and
the labelling operations one round runs.

Every instance is fixed. The label check of each operation rests on the
proof (``prove.py``) that the generator's ground truth is the unique optimum
of every cluster's program, and that proof holds for one instance at a time.
The run's ``--seed`` therefore orders the operations of a round instead of
drawing new instances; runs on different seeds measure the same work.

This module imports nothing from ``consmax`` itself: ``run.py`` and
``prove.py`` hand it the imported package, so that the import is timed as
part of set-up.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

ISO80_SEEDS = (0, 1, 2, 3)
ISO80 = dict(n_points=100, outlier_ratio=0.8)
ISO_LARGE = dict(n_points=900, outlier_ratio=0.5, seed=0)
TPL = dict(n_points=225, outlier_ratio=0.3, seed=2)
TPL_EDGE_CAP = 100
TPL_CLUSTERS = 4


@dataclass
class Op:
    """One labelling operation: ``call(*prepare())`` is timed, ``check``
    returns the problems it finds in the call's output (empty when correct)."""

    label: str
    matches: int
    prepare: Callable[[], tuple]
    call: Callable
    check: Callable[[object], list]


def _certified(result) -> bool:
    return bool(result.optimal) and float(result.lower_bound) == float(result.objective)


def _label_problems(label, labels, gt) -> list:
    if labels != gt:
        wrong = (labels.z != gt.z).nonzero()[0]
        return [f"{label}: {len(wrong)} labels differ from the ground truth, first {wrong[:8].tolist()}"]
    return []


def iso80_instances(cm):
    return [
        (seed, cm.synth_isometric_instance(cm.SynthSpec("isometric-grid", seed=seed, **ISO80)))
        for seed in ISO80_SEEDS
    ]


def iso80_config(cm):
    return cm.IsometryConfig(mode="exact", clusters=1)


def iso_large_instance(cm):
    return cm.synth_isometric_instance(cm.SynthSpec("isometric-grid", **ISO_LARGE))


def tpl_instance(cm):
    return cm.synth_template_instance(cm.SynthSpec("template-bend", **TPL))


def tpl_config(cm):
    return cm.TemplateMatchConfig(
        mode="exact", edges_per_point_cap=TPL_EDGE_CAP, clusters=TPL_CLUSTERS
    )


def _iso80_ops(cm, out_dir):
    config = iso80_config(cm)
    ops = []
    for seed, (source, target, matches) in iso80_instances(cm):
        label = f"iso-100-0.8-s{seed}"

        def prepare(source=source, target=target):
            # fresh meshes, so that each call builds its own edge graph
            return (
                cm.TriMesh(source.vertices, source.triangles),
                cm.TriMesh(target.vertices, target.triangles),
            )

        def call(src, tgt, matches=matches):
            return cm.shape_registration(src, tgt, matches, config)

        def check(out, label=label, gt=matches.gt_labels):
            labels, results = out
            problems = _label_problems(label, labels, gt)
            problems += [f"{label}: cluster {c} not certified" for c, r in enumerate(results) if not _certified(r)]
            return problems

        ops.append(Op(label, len(matches), prepare, call, check))
    return ops


def _tpl_ops(cm, out_dir):
    template, image, K, matches = tpl_instance(cm)
    config = tpl_config(cm)
    label = "tpl-225-0.3-s2"

    def call():
        return cm.template_image_registration(template, image, matches, K, config)

    def check(out):
        labels, diag = out
        problems = _label_problems(label, labels, matches.gt_labels)
        for c, rep in enumerate(diag.cluster_reports):
            if rep.skipped or rep.result is None:
                problems.append(f"{label}: cluster {c} skipped")
            elif not _certified(rep.result):
                problems.append(f"{label}: cluster {c} not certified")
        return problems

    return [Op(label, len(matches), lambda: (), call, check)]


def cli_instance(cm, out_dir):
    """Write the ``iso-large-cli`` instance files under ``out_dir``; return
    its matches, the paths of the files and the ``match-shapes`` argv."""
    source, target, matches = iso_large_instance(cm)
    paths = {name: os.path.join(out_dir, name) for name in ("source.obj", "target.obj", "matches.txt", "report.json")}
    cm.io.emit_mesh(source, paths["source.obj"])
    cm.io.emit_mesh(target, paths["target.obj"])
    cm.io.emit_matches(matches, paths["matches.txt"])
    argv = [
        "match-shapes", "--source", paths["source.obj"], "--target", paths["target.obj"],
        "--matches", paths["matches.txt"], "--mode", "exact", "--report-out", paths["report.json"],
    ]
    return matches, paths, argv


def _cli_ops(cm, out_dir):
    matches, paths, argv = cli_instance(cm, out_dir)
    label = "iso-900-0.5-s0-cli"
    gt = matches.gt_labels
    first_report = []

    def prepare():
        if os.path.exists(paths["report.json"]):
            os.remove(paths["report.json"])
        return ()

    def call():
        return cm.cli.main(argv)

    def check(code):
        if code != 0:
            return [f"{label}: exit code {code}"]
        with open(paths["report.json"], "rb") as fh:
            raw = fh.read()
        if not first_report:
            first_report.append(raw)
        problems = [] if raw == first_report[0] else [f"{label}: report differs from the first repeat"]
        report = json.loads(raw)
        ev, solver = report["eval"], report["solver"]
        if ev["precision"] != 1.0 or ev["outliers_missed"] != 0:
            problems.append(f"{label}: precision {ev['precision']}, outliers missed {ev['outliers_missed']}")
        if not solver["optimal"] or float(solver["lower_bound"]) != float(solver["objective"]):
            problems.append(f"{label}: solve not certified ({solver['lower_bound']} < {solver['objective']})")
        z = [1 if m["label"] == "outlier" else 0 for m in report["matches"]]
        if z != gt.z.tolist():
            problems.append(f"{label}: report labels differ from the ground truth")
        return problems

    return [Op(label, len(matches), prepare, call, check)]


# workload -> set-up: ``setup(consmax, out_dir)`` synthesises the instances,
# writes the instance files the workload reads under ``out_dir``, and returns
# one round of operations
WORKLOADS = {"iso-outlier80": _iso80_ops, "iso-large-cli": _cli_ops, "tpl-bend-c4": _tpl_ops}
