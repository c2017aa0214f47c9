#!/usr/bin/env python3
"""Prove that the ground truth of every benchmark instance is the unique
optimum of the programs the pipelines solve.

    python3 e2ebench/prove.py [--workload NAME ...]

For every instance of the chosen workloads (all by default) the pipeline
runs once as the benchmark runs it, with ``kmeans_partition`` and
``build_covering_program`` wrapped under the names the pipeline looks up,
so that the clusters and the compiled programs are captured. Then, per
cluster:

* isometric instances: the program is recomputed apart from the program
  code. Geodesics come from ``scipy.sparse.csgraph.dijkstra`` on the mesh
  edge graph and the conflict rule ``|g_s - g_t| > max(eps_rel g_s,
  eps_abs)`` is applied again. Grid instances have pairs exactly at the
  threshold (``g_s = 5``, ``g_t = 6``), which rounding decides either way,
  so the recomputation yields the sure conflicts ``P_min`` and the pairs at
  the threshold; ``P_max`` adds those pairs. The compiled program must lie
  between the two. ``consmax.geodesic_distances`` is cross-checked against
  scipy.
* template instances: the captured program is used as compiled, as both
  ``P_min`` and ``P_max``.
* the ground truth must cover every constraint of ``P_max``, and
  ``scipy.optimize.milp`` (HiGHS) solves ``P_min``: its optimum must equal
  the ground truth's outlier count and, with the ground truth cut off by a
  no-good constraint, rise by 1. Every program between ``P_min`` and
  ``P_max`` then has the ground truth as its only optimum: it is feasible
  there, no cover is cheaper than ``P_min``'s optimum, and another cover
  of that size would also be an optimum of ``P_min``.

Exit code 0 when every instance is proven, 1 otherwise. Takes about three
minutes; rerun it whenever an instance of ``workloads.py`` changes.
"""

import argparse
import os
import shutil
import sys
import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

HERE = os.path.dirname(os.path.abspath(__file__))
TIE_REL = 1e-9
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import consmax  # noqa: E402
import consmax.cli  # noqa: E402
import consmax.isometric  # noqa: E402
import consmax.template  # noqa: E402

import workloads  # noqa: E402


class Capture:
    """Records the partitions and programs a pipeline produces."""

    def __init__(self, module):
        self.module = module
        self.partitions = []
        self.programs = []
        self._saved = {}

    def __enter__(self):
        for attr, sink in (("kmeans_partition", self.partitions), ("build_covering_program", self.programs)):
            original = getattr(self.module, attr)
            self._saved[attr] = original

            def wrapper(*args, _original=original, _sink=sink, **kwargs):
                out = _original(*args, **kwargs)
                _sink.append(out)
                return out

            setattr(self.module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for attr, original in self._saved.items():
            setattr(self.module, attr, original)


def milp_optimum(num_vars, constraints, cut=None):
    """Optimum of ``min sum z`` s.t. each constraint covered, z binary; ``cut``
    is an optional extra row ``(coefficients, lower bound)``."""
    rows = np.repeat(np.arange(len(constraints)), [len(c) for c in constraints])
    cols = np.fromiter((i for c in constraints for i in c), dtype=np.int64, count=len(rows))
    A = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(constraints), num_vars))
    rows_ = [LinearConstraint(A, lb=1, ub=np.inf)]
    if cut is not None:
        rows_.append(LinearConstraint(cut[0][None, :], lb=cut[1], ub=np.inf))
    res = milp(
        c=np.ones(num_vars), constraints=rows_, integrality=np.ones(num_vars),
        bounds=Bounds(0, 1), options={"disp": False},
    )
    if res.status != 0:
        raise RuntimeError(f"milp status {res.status}: {res.message}")
    return int(round(res.fun))


def prove_unique(name, num_vars, constraints, gt_z, cover=None):
    """Print and return the problems found: the ground truth ``gt_z`` must be
    optimal and the only optimum of ``constraints``, and must cover every
    constraint of ``cover`` (default: ``constraints``)."""
    problems = []
    gt_out = gt_z.astype(bool)
    uncovered = sum(1 for c in (constraints if cover is None else cover) if not gt_out[list(c)].any())
    if uncovered:
        problems.append(f"{name}: ground truth leaves {uncovered} constraints uncovered")
    t = time.perf_counter()
    opt = milp_optimum(num_vars, constraints)
    # no-good cut: sum_{i in O} (1 - z_i) + sum_{i not in O} z_i >= 1
    coef = np.where(gt_out, -1.0, 1.0)
    second = milp_optimum(num_vars, constraints, (coef, 1.0 - gt_out.sum()))
    k = int(gt_out.sum())
    if opt != k:
        problems.append(f"{name}: MILP optimum {opt} differs from the {k} ground-truth outliers")
    if second <= opt:
        problems.append(f"{name}: another optimum exists (objective {second} without the ground truth)")
    print(f"  {name}: {num_vars} vars, {len(constraints)} constraints, optimum {opt}, "
          f"ground truth {k}, best without the ground truth {second} ({time.perf_counter() - t:.1f} s)")
    return problems


def scipy_geodesics(mesh, ids):
    tri = np.asarray(mesh.triangles)
    e = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [0, 2]]])
    e = np.unique(np.sort(e, axis=1), axis=0)
    w = np.linalg.norm(mesh.vertices[e[:, 0]] - mesh.vertices[e[:, 1]], axis=1)
    n = mesh.num_vertices
    graph = csr_matrix((w, (e[:, 0], e[:, 1])), shape=(n, n))
    return dijkstra(graph, directed=False, indices=ids)[:, ids]


def prove_isometric(name, source, target, matches, capture, config):
    """Recompute each cluster's program from scipy geodesics and prove it."""
    problems = []
    src_ids, tgt_ids = matches.pairs[:, 0], matches.pairs[:, 1]
    src_u, tgt_u = np.unique(src_ids), np.unique(tgt_ids)
    g_src, g_tgt = scipy_geodesics(source, src_u), scipy_geodesics(target, tgt_u)
    for side, mesh, ids, ref in (("source", source, src_u, g_src), ("target", target, tgt_u, g_tgt)):
        ours = consmax.geodesic_distances(mesh, ids).distances
        err = float(np.max(np.abs(ours - ref)))
        if not err <= 1e-9 * max(1.0, float(ref.max())):
            problems.append(f"{name}: consmax.geodesic_distances differs from scipy by {err:.3g} on the {side}")
        print(f"  {name}: {side} geodesics of {len(ids)} sources, largest difference from scipy {err:.3g}")
    gs_full = g_src[np.ix_(np.searchsorted(src_u, src_ids), np.searchsorted(src_u, src_ids))]
    gt_full = g_tgt[np.ix_(np.searchsorted(tgt_u, tgt_ids), np.searchsorted(tgt_u, tgt_ids))]
    eps_abs = config.eps_abs_frac * float(g_src[np.isfinite(g_src)].max())

    (partition,) = capture.partitions
    if len(capture.programs) != partition.m:
        problems.append(f"{name}: {len(capture.programs)} programs for {partition.m} clusters")
        return problems
    for c, program in enumerate(capture.programs):
        idx = partition.members(c)
        iu, ju = np.triu_indices(len(idx), 1)
        gs, gt = gs_full[idx[iu], idx[ju]], gt_full[idx[iu], idx[ju]]
        valid = np.isfinite(gs) & np.isfinite(gt)
        dev = np.abs(gs - gt)
        thr = np.maximum(config.eps_rel * gs, eps_abs)
        # pairs this close to the threshold are decided by rounding
        tie = valid & (np.abs(dev - thr) <= TIE_REL * thr)
        sure = valid & (dev > thr) & ~tie
        p_min = set(zip(iu[sure].tolist(), ju[sure].tolist()))
        p_max = p_min | set(zip(iu[tie].tolist(), ju[tie].tolist()))
        compiled = set(program.constraints)
        cname = f"{name} cluster {c}"
        if not p_min <= compiled <= p_max:
            problems.append(f"{cname}: compiled program is not the recomputed one up to threshold ties "
                            f"({len(compiled - p_max)} extra, {len(p_min - compiled)} missing)")
        print(f"  {cname}: {len(p_min)} sure conflicts, {int(tie.sum())} pairs at the threshold "
              f"({len(compiled - p_min)} of them compiled as conflicts)")
        problems += prove_unique(cname, len(idx), sorted(p_min), matches.gt_labels.z[idx], cover=p_max)
    return problems


def prove_iso80():
    problems = []
    config = workloads.iso80_config(consmax)
    for seed, (source, target, matches) in workloads.iso80_instances(consmax):
        with Capture(consmax.isometric) as cap:
            consmax.shape_registration(source, target, matches, config)
        problems += prove_isometric(f"iso-100-0.8-s{seed}", source, target, matches, cap, config)
    return problems


def prove_iso_large():
    out_dir = os.path.join(HERE, "out", f"prove-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    try:
        matches, paths, argv = workloads.cli_instance(consmax, out_dir)
        with Capture(consmax.isometric) as cap:
            code = consmax.cli.main(argv)
        if code != 0:
            return [f"iso-900-0.5-s0-cli: exit code {code}"]
        loaded = [consmax.load_mesh(paths[f]) for f in ("source.obj", "target.obj")]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    # the CLI runs with the default isometric configuration
    return prove_isometric("iso-900-0.5-s0-cli", *loaded, matches, cap, consmax.IsometryConfig())


def prove_tpl():
    template, image, K, matches = workloads.tpl_instance(consmax)
    with Capture(consmax.template) as cap:
        _, diag = consmax.template_image_registration(template, image, matches, K, workloads.tpl_config(consmax))
    solved = [r for r in diag.cluster_reports if not r.skipped]
    if len(solved) != len(cap.programs):
        return [f"tpl-225-0.3-s2: {len(cap.programs)} programs for {len(solved)} clusters"]
    problems = []
    for c, (rep, program) in enumerate(zip(solved, cap.programs)):
        z = matches.gt_labels.z[rep.indices]
        if z[program.num_vars:].any():
            problems.append(f"tpl cluster {c}: a ground-truth outlier lies outside the program's variables")
        problems += prove_unique(
            f"tpl-225-0.3-s2 cluster {c}", program.num_vars, list(program.constraints), z[: program.num_vars]
        )
    return problems


PROOFS = {"iso-outlier80": prove_iso80, "iso-large-cli": prove_iso_large, "tpl-bend-c4": prove_tpl}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(PROOFS), help="default: every workload")
    args = ap.parse_args(argv)
    problems = []
    for name in args.workload or list(PROOFS):
        print(f"{name}:", flush=True)
        problems += PROOFS[name]()
    for p in problems:
        print(f"NOT PROVEN: {p}")
    print("every instance proven" if not problems else f"{len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
