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
from .io import load_mesh
from .mesh import TriMesh
from .solver import SolverConfig
from .synth import SynthSpec, synth_isometric_instance, synth_template_instance
from .template import TemplateMatchConfig, template_image_registration

logger = logging.getLogger("consmax")

EXIT_OK = 0
EXIT_MALFORMED = 2
EXIT_BUDGET = 3


def _solver_config(args) -> SolverConfig:
    return SolverConfig(time_budget=args.time_budget, node_budget=args.node_budget)


def _report(mode, labels, registration, config_echo, gt, timing, path, **solver_extra) -> dict:
    """Evaluate one run against ``gt`` (when given), write its report to
    ``path`` (stdout when None) and return the report."""
    eval_report = cio.evaluate_labels(labels, gt) if gt is not None else None
    report = cio.build_report(labels, registration, mode, config_echo, eval_report, timing, **solver_extra)
    cio.emit_report(report, path)
    return report


def _emit(args, labels, registration, config_echo, gt, **solver_extra) -> int:
    """Write the traces and the report of a ``match-*`` run; return its exit code."""
    cio.emit_traces(registration.cluster_reports, args.trace_out)
    report = _report(args.mode, labels, registration, config_echo, gt, args.timing, args.report_out, **solver_extra)
    return EXIT_BUDGET if args.mode == "exact" and not report["solver"]["optimal"] else EXIT_OK


def cmd_match_shapes(args) -> int:
    source = load_mesh(args.source)
    target = load_mesh(args.target)
    matches = cio.parse_matches(args.matches)
    config = IsometryConfig(
        eps_rel=args.eps_rel,
        clusters=args.clusters,
        solver=_solver_config(args),
        mode=args.mode,
        seed=args.seed,
    )
    labels, registration = shape_registration_detailed(source, target, matches, config)
    reports = registration.cluster_reports
    config_echo = {
        "command": "match-shapes",
        "eps_rel": config.eps_rel,
        "eps_abs_frac": config.eps_abs_frac,
        "clusters": config.effective_clusters(len(matches)),
        "mode": config.mode,
        "seed": config.seed,
    }
    return _emit(
        args, labels, registration, config_echo, matches.gt_labels,
        clusters=len(reports), violated_constraints=int(sum(r.result.violated_constraints for r in reports)),
    )


def cmd_match_template(args) -> int:
    template = load_mesh(args.template).vertices
    image_points = cio.parse_points(args.image_points, dim=2)
    K = cio.parse_intrinsics(args.intrinsics)
    matches = cio.parse_matches(args.matches)
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
    return _emit(
        args, labels, registration, config_echo, matches.gt_labels,
        clusters=len(reports), skipped_clusters=sum(1 for r in reports if r.skipped),
    )


def cmd_synth(args) -> int:
    spec = SynthSpec(
        kind=args.kind,
        n_points=args.n,
        outlier_ratio=args.outlier_ratio,
        noise=args.noise,
        seed=args.seed,
        bend_radius=args.bend_radius,
    )
    # built before the directory is made, so a rejected instance leaves nothing
    if spec.kind == "isometric-grid":
        source, target, matches = synth_isometric_instance(spec)
        os.makedirs(args.out_dir, exist_ok=True)
        cio.emit_mesh(source, os.path.join(args.out_dir, "source.obj"))
        cio.emit_mesh(target, os.path.join(args.out_dir, "target.obj"))
        cio.emit_matches(matches, os.path.join(args.out_dir, "matches.txt"))
    else:
        template, image, K, matches = synth_template_instance(spec)
        os.makedirs(args.out_dir, exist_ok=True)
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
    # built before the directory is made, so a rejected value leaves nothing
    specs = [SynthSpec(kind="isometric-grid", n_points=args.n, outlier_ratio=ratio, seed=seed)
             for ratio in args.ratios for seed in range(args.seeds)]
    solver = _solver_config(args)
    os.makedirs(args.out_dir, exist_ok=True)
    summary = []
    for spec in specs:
        ratio, seed = spec.outlier_ratio, spec.seed
        source, target, matches = synth_isometric_instance(spec)
        for mode in args.modes:
            config = IsometryConfig(mode=mode, seed=seed, solver=solver)
            labels, registration = shape_registration_detailed(source, target, matches, config)
            name = f"report_r{int(round(100 * ratio)):03d}_s{seed}_{mode}.json"
            report = _report(
                mode, labels, registration,
                {"command": "bench", "ratio": ratio, "seed": seed, "mode": mode, "n": args.n},
                matches.gt_labels, args.timing, os.path.join(args.out_dir, name),
            )
            ev = report["eval"]
            summary.append({
                "ratio": ratio,
                "seed": seed,
                "mode": mode,
                "precision": ev["precision"],
                "recall": ev["recall"],
                "outliers_removed": ev["outliers_removed"],
                "outliers_missed": ev["outliers_missed"],
                "optimal": report["solver"]["optimal"],
            })
    cio.emit_report({"rows": summary}, os.path.join(args.out_dir, "summary.json"))
    sys.stdout.write(f"wrote {len(summary)} runs to {args.out_dir}\n")
    return EXIT_OK


def _checked(parse, ok, what):
    """An argparse ``type``: ``parse(text)``, refused (exit 2) unless ``ok`` accepts it."""
    def convert(text):
        try:
            if ok(value := parse(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return convert


def _run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--time-budget", type=float, default=300.0, help="solver seconds per cluster")
    p.add_argument("--node-budget", type=int, default=10_000_000)
    p.add_argument("--timing", action="store_true", help="include wall times in the report (breaks byte-identical reruns)")


def _match_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace-out", default=None, help="write solver trace CSV here")
    p.add_argument("--report-out", default=None, help="write report JSON here (default: stdout)")
    _run_flags(p)


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
    _match_flags(ms)
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
    _match_flags(mt)
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

    # no abbreviations: "--seed" would otherwise be read as "--seeds"
    be = sub.add_parser("bench", help="sweep outlier ratios and seeds (isometric)", allow_abbrev=False)
    be.add_argument("--n", type=int, default=100)
    ratios = _checked(lambda t: [float(r) for r in t.split(",")], lambda rs: all(0 <= r < 1 for r in rs),
                      "comma-separated outlier ratios in [0, 1)")
    be.add_argument("--ratios", type=ratios, default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8")
    be.add_argument("--seeds", type=_checked(int, lambda n: n >= 1, "a count of at least 1"), default=5)
    modes = _checked(lambda t: t.split(","), lambda ms: set(ms) <= {"exact", "relaxed"},
                     "comma-separated modes exact, relaxed")
    be.add_argument("--modes", type=modes, default="exact,relaxed")
    be.add_argument("--out-dir", required=True)
    _run_flags(be)
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
