"""Command-line interface.

Subcommands: ``synth`` (generate benchmark instances), ``match-shapes``
(isometric shape-to-shape filtering), ``match-template`` (template-to-image
filtering), ``bench`` (seed/ratio sweeps). Exit codes: 0 success, 1 any
other consmax error (for example every cluster skipped, or matches outside
the shapes), 2 malformed input, 3 budget exhausted without an optimality
certificate.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

import numpy as np

from . import io as cio
from .errors import ConsmaxError, MalformedInput
from .isometric import IsometryConfig, shape_registration_detailed
from .mesh import load_mesh
from .solver import SolverConfig, save_trace
from .synth import SynthSpec, synth_isometric_instance, synth_template_instance
from .template import TemplateMatchConfig, template_image_registration

logger = logging.getLogger("consmax")

EXIT_OK = 0
EXIT_MALFORMED = 2
EXIT_BUDGET = 3


def _solver_config(args) -> SolverConfig:
    return SolverConfig(time_budget=args.time_budget, node_budget=args.node_budget)


def _write_traces(reports, path) -> None:
    """Write each solved cluster's trace; with more than one cluster the
    files are numbered by cluster id: ``<root>.c<id><ext>``."""
    if path is None:
        return
    root, ext = os.path.splitext(path)
    for c, rep in enumerate(reports):
        if rep.result is not None and rep.result.trace:
            save_trace(rep.result.trace, path if len(reports) == 1 else f"{root}.c{c}{ext or '.csv'}")


def _solver_summary(mode, labels, registration) -> dict:
    """Report keys every command shares: totals over the solved clusters.
    Without any solver result (local filtering) the objective is the number
    of outlier labels."""
    results = [r.result for r in registration.cluster_reports if r.result is not None]
    return {
        "mode": mode,
        "objective": int(sum(r.objective for r in results)) if results else labels.num_outliers,
        "lower_bound": float(sum(r.lower_bound for r in results)),
        "optimal": all(r.optimal for r in results),
        "wall_time": float(sum(r.wall_time for r in results)),
    }


def _emit(args, labels, unconstrained, solver_summary, config_echo, gt):
    eval_report = cio.evaluate_labels(labels, gt) if gt is not None else None
    report = cio.build_report(
        labels, unconstrained, solver_summary, config_echo, eval_report,
        include_timing=args.timing,
    )
    if args.report_out:
        cio.emit_report(report, args.report_out)
    else:
        sys.stdout.write(cio.render_report(report))


def cmd_match_shapes(args) -> int:
    source = load_mesh(args.source)
    target = load_mesh(args.target)
    matches = cio.parse_matches(args.matches, source.vertices, target.vertices)
    config = IsometryConfig(
        eps_rel=args.eps_rel,
        clusters=args.clusters,
        solver=_solver_config(args),
        mode=args.mode,
        seed=args.seed,
    )
    labels, registration = shape_registration_detailed(source, target, matches, config)
    reports = registration.cluster_reports
    solver_summary = _solver_summary(args.mode, labels, registration)
    solver_summary["clusters"] = len(reports)
    solver_summary["violated_constraints"] = int(sum(r.result.violated_constraints for r in reports))
    config_echo = {
        "command": "match-shapes",
        "eps_rel": config.eps_rel,
        "eps_abs_frac": config.eps_abs_frac,
        "clusters": config.effective_clusters(len(matches)),
        "mode": config.mode,
        "seed": config.seed,
    }
    _write_traces(reports, args.trace_out)
    _emit(args, labels, registration.unconstrained, solver_summary, config_echo, matches.gt_labels)
    if args.mode == "exact" and not solver_summary["optimal"]:
        return EXIT_BUDGET
    return EXIT_OK


def cmd_match_template(args) -> int:
    template = load_mesh(args.template).vertices
    image_points = cio.parse_points(args.image_points, dim=2)
    K = cio.parse_intrinsics(args.intrinsics)
    matches = cio.parse_matches(args.matches, template, np.column_stack([image_points, np.zeros(len(image_points))]))
    config = TemplateMatchConfig(
        eps1=math.radians(args.eps1_deg),
        eps2=args.eps2,
        q=args.q,
        edges_per_point_cap=args.edge_cap,
        clusters=args.clusters,
        tau=args.tau,
        solver=_solver_config(args),
        mode=args.mode,
        seed=args.seed,
    )
    labels, registration = template_image_registration(template, image_points, matches, K, config)
    reports = registration.cluster_reports
    solver_summary = _solver_summary(args.mode, labels, registration)
    solver_summary["clusters"] = len(reports)
    solver_summary["skipped_clusters"] = sum(1 for r in reports if r.skipped)
    config_echo = {
        "command": "match-template",
        "eps1_deg": args.eps1_deg,
        "eps2": config.eps2,
        "q": config.q,
        "edges_per_point_cap": config.edges_per_point_cap,
        "clusters": config.clusters,
        "tau": config.tau,
        "mode": config.mode,
        "seed": config.seed,
    }
    _write_traces(reports, args.trace_out)
    _emit(args, labels, registration.unconstrained, solver_summary, config_echo, matches.gt_labels)
    if args.mode == "exact" and not solver_summary["optimal"]:
        return EXIT_BUDGET
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = SynthSpec(
        kind=args.kind,
        n_points=args.n,
        outlier_ratio=args.outlier_ratio,
        noise=args.noise,
        seed=args.seed,
        bend_radius=args.bend_radius,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    if spec.kind == "isometric-grid":
        source, target, matches = synth_isometric_instance(spec)
        cio.emit_mesh(source, os.path.join(args.out_dir, "source.obj"))
        cio.emit_mesh(target, os.path.join(args.out_dir, "target.obj"))
        cio.emit_matches(matches, os.path.join(args.out_dir, "matches.txt"))
    else:
        template, image, K, matches = synth_template_instance(spec)
        from .mesh import TriMesh

        cio.emit_mesh(
            TriMesh(vertices=template, triangles=np.empty((0, 3), dtype=np.int64)),
            os.path.join(args.out_dir, "template.obj"),
        )
        cio.emit_points(image, os.path.join(args.out_dir, "image_points.txt"))
        cio.emit_intrinsics(K, os.path.join(args.out_dir, "intrinsics.json"))
        cio.emit_matches(matches, os.path.join(args.out_dir, "matches.txt"))
    logger.info("instance written to %s", args.out_dir)
    return EXIT_OK


def cmd_bench(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    ratios = [float(r) for r in args.ratios.split(",")]
    modes = args.modes.split(",")
    summary = []
    for ratio in ratios:
        for seed in range(args.seeds):
            spec = SynthSpec(
                kind="isometric-grid", n_points=args.n, outlier_ratio=ratio, seed=seed
            )
            source, target, matches = synth_isometric_instance(spec)
            for mode in modes:
                config = IsometryConfig(
                    mode=mode, seed=seed, solver=_solver_config(args)
                )
                labels, registration = shape_registration_detailed(source, target, matches, config)
                solver_summary = _solver_summary(mode, labels, registration)
                ev = cio.evaluate_labels(labels, matches.gt_labels)
                row = {
                    "ratio": ratio,
                    "seed": seed,
                    "mode": mode,
                    "precision": ev.precision,
                    "recall": ev.recall,
                    "outliers_removed": ev.outliers_removed,
                    "outliers_missed": ev.outliers_missed,
                    "optimal": solver_summary["optimal"],
                }
                summary.append(row)
                report = cio.build_report(
                    labels,
                    registration.unconstrained,
                    solver_summary,
                    {"command": "bench", "ratio": ratio, "seed": seed, "mode": mode, "n": args.n},
                    ev,
                    include_timing=args.timing,
                )
                cio.emit_report(
                    report,
                    os.path.join(args.out_dir, f"report_r{int(round(100 * ratio)):03d}_s{seed}_{mode}.json"),
                )
    cio.emit_report({"rows": summary}, os.path.join(args.out_dir, "summary.json"))
    sys.stdout.write(f"wrote {len(summary)} runs to {args.out_dir}\n")
    return EXIT_OK


def _common_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--time-budget", type=float, default=300.0, help="solver seconds per cluster")
    p.add_argument("--node-budget", type=int, default=10_000_000)
    p.add_argument("--trace-out", default=None, help="write solver trace CSV here")
    p.add_argument("--report-out", default=None, help="write report JSON here (default: stdout)")
    p.add_argument("--timing", action="store_true", help="include wall times in the report (breaks byte-identical reruns)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="consmax", description=__doc__)
    ap.add_argument("-v", "--verbose", action="store_true")
    sub = ap.add_subparsers(dest="command", required=True)

    ms = sub.add_parser("match-shapes", help="isometric shape-to-shape outlier removal")
    ms.add_argument("--source", required=True, help="OBJ/PLY mesh")
    ms.add_argument("--target", required=True, help="OBJ/PLY mesh")
    ms.add_argument("--matches", required=True)
    ms.add_argument("--mode", choices=("exact", "relaxed"), default="exact")
    ms.add_argument("--eps-rel", type=float, default=0.20)
    ms.add_argument("--clusters", type=int, default=None)
    _common_solver_flags(ms)
    ms.set_defaults(func=cmd_match_shapes)

    mt = sub.add_parser("match-template", help="template-to-image outlier removal")
    mt.add_argument("--template", required=True, help="OBJ/PLY with template points")
    mt.add_argument("--image-points", required=True, help="2-D points file")
    mt.add_argument("--intrinsics", required=True, help="JSON with fx fy cx cy")
    mt.add_argument("--matches", required=True)
    mt.add_argument("--mode", choices=("exact", "relaxed", "local-filter"), default="exact")
    mt.add_argument("--eps1-deg", type=float, default=10.0)
    mt.add_argument("--eps2", type=float, default=0.40)
    mt.add_argument("--q", type=int, default=15)
    mt.add_argument("--edge-cap", type=int, default=30)
    mt.add_argument("--tau", type=float, default=0.5)
    mt.add_argument("--clusters", type=int, default=1)
    _common_solver_flags(mt)
    mt.set_defaults(func=cmd_match_template)

    sy = sub.add_parser("synth", help="generate a synthetic instance")
    sy.add_argument("--kind", choices=("isometric-grid", "template-bend"), required=True)
    sy.add_argument("--n", type=int, default=100)
    sy.add_argument("--outlier-ratio", type=float, default=0.5)
    sy.add_argument("--noise", type=float, default=0.0)
    sy.add_argument("--seed", type=int, default=0)
    sy.add_argument("--bend-radius", type=float, default=2.0)
    sy.add_argument("--out-dir", required=True)
    sy.set_defaults(func=cmd_synth)

    be = sub.add_parser("bench", help="sweep outlier ratios and seeds (isometric)")
    be.add_argument("--n", type=int, default=100)
    be.add_argument("--ratios", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8")
    be.add_argument("--seeds", type=int, default=5)
    be.add_argument("--modes", default="exact,relaxed")
    be.add_argument("--out-dir", required=True)
    _common_solver_flags(be)
    be.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except MalformedInput as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_MALFORMED
    except ConsmaxError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
