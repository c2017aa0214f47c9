"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Criteria 4 and 5 re-check the instances generated for criteria 1-3, so the
expensive sweeps run once via module-scoped fixtures.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from consmax.cli import main as cli_main
from consmax.core import CoveringProgram
from consmax.errors import DegenerateConfiguration
from consmax.io import evaluate_labels
from consmax.isometric import IsometryConfig, shape_registration
from consmax.pose import p3p_solve, random_rotation, rotation_geodesic_distance
from consmax.solver import (
    SolverConfig,
    brute_force_oracle,
    lp_lower_bound,
    solve_exact,
)
from consmax.synth import SynthSpec, synth_isometric_instance, synth_template_instance
from consmax.template import TemplateMatchConfig, template_image_registration

LP_TOL = 1e-7


def record(criterion: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{criterion} failed: {detail}"


def random_program(rng) -> CoveringProgram:
    p = int(rng.integers(2, 19))  # <= 18 variables
    cons = set()
    for _ in range(int(rng.integers(0, 41))):  # <= 40 constraints
        size = min(int(rng.choice([1, 2, 4])), p)
        cons.add(tuple(sorted(rng.choice(p, size, replace=False).tolist())))
    return CoveringProgram.from_constraints(p, sorted(cons))


@pytest.fixture(scope="module")
def random_suite():
    rng = np.random.default_rng(20240501)
    entries = []
    solve_time = 0.0
    for _ in range(200):
        program = random_program(rng)
        t0 = time.perf_counter()
        res = solve_exact(program, SolverConfig())
        solve_time += time.perf_counter() - t0
        oracle_obj, _ = brute_force_oracle(program)
        lp = lp_lower_bound(program)
        entries.append(
            {"program": program, "result": res, "oracle": oracle_obj, "lp": lp}
        )
    return {"entries": entries, "solve_time": solve_time}


@pytest.fixture(scope="module")
def grid_sweep():
    ratios = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
    seeds = (0, 1, 2, 3, 4)
    rows = []
    for ratio in ratios:
        for seed in seeds:
            spec = SynthSpec(
                kind="isometric-grid", n_points=100, outlier_ratio=ratio, seed=seed
            )
            source, target, matches = synth_isometric_instance(spec)
            gt = matches.gt_labels
            t0 = time.perf_counter()
            exact_labels, exact_results = shape_registration(
                source, target, matches, IsometryConfig(mode="exact")
            )
            t_exact = time.perf_counter() - t0
            relaxed_labels, relaxed_results = shape_registration(
                source, target, matches, IsometryConfig(mode="relaxed")
            )
            ev_exact = evaluate_labels(exact_labels, gt)
            ev_relaxed = evaluate_labels(relaxed_labels, gt)
            rows.append(
                {
                    "ratio": ratio,
                    "seed": seed,
                    "exact": ev_exact,
                    "relaxed": ev_relaxed,
                    "exact_results": exact_results,
                    "relaxed_results": relaxed_results,
                    "exact_seconds": t_exact,
                }
            )
    return rows


def test_criterion_1_solver_oracle_equivalence(random_suite):
    bad = []
    for k, e in enumerate(random_suite["entries"]):
        res, program = e["result"], e["program"]
        if not res.optimal or res.objective != e["oracle"]:
            bad.append((k, res.objective, e["oracle"]))
            continue
        for c in program.constraints:
            if not any(res.labels.z[i] == 1 for i in c):
                bad.append((k, "infeasible", c))
                break
    ok = not bad and random_suite["solve_time"] < 60.0
    record(
        "criterion 1 (solver oracle equivalence, 200 programs)",
        ok,
        f"mismatches={bad[:3]} solve_time={random_suite['solve_time']:.1f}s",
    )


def test_criterion_2_exact_high_outlier_ratios(grid_sweep):
    bad = []
    for row in grid_sweep:
        ev = row["exact"]
        recall = ev.recall
        if ev.outliers_missed != 0 or recall < 0.95:
            bad.append((row["ratio"], row["seed"], ev.outliers_missed, round(recall, 3)))
        if row["exact_seconds"] >= 30.0:
            bad.append((row["ratio"], row["seed"], "slow", row["exact_seconds"]))
    record(
        "criterion 2 (exact sweep 0.1-0.8, 5 seeds)",
        not bad,
        f"violations={bad[:4]}",
    )


def test_criterion_3_relaxed_breakdown(grid_sweep):
    bad = []
    for row in grid_sweep:
        if row["ratio"] <= 0.4 and row["relaxed"].recall < 0.95:
            bad.append(("low-ratio", row["ratio"], row["seed"], round(row["relaxed"].recall, 3)))
        if row["ratio"] == 0.7:
            gap = row["exact"].recall - row["relaxed"].recall
            if gap < 0.2:
                bad.append(("breakdown", row["seed"], round(gap, 3)))
    record("criterion 3 (relaxed breakdown beyond 50%)", not bad, f"violations={bad[:4]}")


def _check_trace(trace, optimal, is_exact, tol=LP_TOL):
    uppers = [e.upper_bound for e in trace]
    lowers = [e.lower_bound for e in trace]
    opens = [e.open_nodes for e in trace]
    if any(u2 > u1 for u1, u2 in zip(uppers, uppers[1:])):
        return "upper increased"
    if any(l2 < l1 - 1e-12 for l1, l2 in zip(lowers, lowers[1:])):
        return "lower decreased"
    if any(o < 0 for o in opens):
        return "negative open nodes"
    if optimal and is_exact and trace:
        final = trace[-1]
        if final.upper_bound != math.ceil(final.lower_bound - tol):
            return f"certificate gap: UB={final.upper_bound} LB={final.lower_bound}"
    return None


def test_criterion_4_trace_properties(random_suite, grid_sweep):
    bad = []
    for k, e in enumerate(random_suite["entries"]):
        err = _check_trace(e["result"].trace, e["result"].optimal, is_exact=True)
        if err:
            bad.append(("random", k, err))
    for row in grid_sweep:
        for r in row["exact_results"]:
            err = _check_trace(r.trace, r.optimal, is_exact=True)
            if err:
                bad.append(("grid-exact", row["ratio"], row["seed"], err))
        for r in row["relaxed_results"]:
            err = _check_trace(r.trace, r.optimal, is_exact=False)
            if err:
                bad.append(("grid-relaxed", row["ratio"], row["seed"], err))
    record("criterion 4 (BnB trace properties)", not bad, f"violations={bad[:3]}")


def test_criterion_5_lp_bound_sanity(random_suite):
    bad = []
    for k, e in enumerate(random_suite["entries"]):
        if e["lp"] > e["oracle"] + 1e-6:
            bad.append((k, e["lp"], e["oracle"]))
    odd = CoveringProgram.from_constraints(3, ((0, 1), (1, 2), (0, 2)))
    lp = lp_lower_bound(odd)
    ilp, _ = brute_force_oracle(odd)
    if abs(lp - 1.5) > 1e-7:
        bad.append(("odd-cycle-lp", lp))
    if ilp != 2:
        bad.append(("odd-cycle-ilp", ilp))
    record("criterion 5 (LP bound sanity + odd cycle)", not bad, f"violations={bad[:3]}")


def test_criterion_6_p3p_correctness():
    rng = np.random.default_rng(777)
    recovered = 0
    for _ in range(1000):
        while True:
            cam = np.column_stack(
                [rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 3), rng.uniform(2.0, 4.0, 3)]
            )
            sides = [
                np.linalg.norm(cam[1] - cam[2]),
                np.linalg.norm(cam[0] - cam[2]),
                np.linalg.norm(cam[0] - cam[1]),
            ]
            area = np.linalg.norm(np.cross(cam[1] - cam[0], cam[2] - cam[0]))
            if area / max(sides) > 1e-3 * max(sides):
                break
        bearings = cam / np.linalg.norm(cam, axis=1, keepdims=True)
        R = random_rotation(rng)
        t = rng.uniform(-2.0, 2.0, 3)
        world = (cam - t) @ R
        sols = p3p_solve(world, bearings)
        for s in sols:
            rot_err = rotation_geodesic_distance(s.rotation, R)
            t_err = np.linalg.norm(s.translation - t) / max(1.0, np.linalg.norm(t))
            if rot_err < 1e-6 and t_err < 1e-6:
                recovered += 1
                break

    collinear_ok = True
    for k in range(100):
        crng = np.random.default_rng(1000 + k)
        direction = crng.normal(size=3)
        direction /= np.linalg.norm(direction)
        base = crng.normal(size=3) + np.array([0.0, 0.0, 3.0])
        pts = np.array([base, base + 0.7 * direction, base + 1.9 * direction])
        views = np.array([[0.0, 0, 1], [0.6, 0, 0.8], [0, 0.6, 0.8]])
        try:
            p3p_solve(pts, views)
            collinear_ok = False
        except DegenerateConfiguration:
            pass
    ok = recovered >= 999 and collinear_ok
    record(
        "criterion 6 (P3P 1000 roundtrips + collinear)",
        ok,
        f"recovered={recovered}/1000 collinear_always_raises={collinear_ok}",
    )


def test_criterion_7_template_pipeline():
    spec = SynthSpec(
        kind="template-bend", n_points=225, outlier_ratio=0.3, noise=0.0,
        seed=2, bend_radius=2.0,
    )
    template, image, K, matches = synth_template_instance(spec)
    gt = matches.gt_labels
    # the per-point edge budget is raised above the default 30 so that the
    # injected set is the unique optimum at desk scale; thresholds stay at
    # their defaults (eps1=10 deg, eps2=40%, q=15)
    exact_cfg = TemplateMatchConfig(
        edges_per_point_cap=100,
        solver=SolverConfig(time_budget=10.0, node_budget=100_000),
    )
    t0 = time.perf_counter()
    exact_labels, _ = template_image_registration(template, image, matches, K, exact_cfg)
    lf_cfg = TemplateMatchConfig(edges_per_point_cap=100, mode="local-filter")
    lf_labels, _ = template_image_registration(template, image, matches, K, lf_cfg)
    elapsed = time.perf_counter() - t0
    ev = evaluate_labels(exact_labels, gt)
    ev_lf = evaluate_labels(lf_labels, gt)
    outlier_recall = ev.outliers_removed / max(1, ev.outliers_removed + ev.outliers_missed)
    ok = (
        ev.precision >= 0.95
        and outlier_recall >= 0.90
        and ev_lf.recall < ev.recall
        and elapsed < 30.0
    )
    record(
        "criterion 7 (template pipeline vs local filtering)",
        ok,
        f"precision={ev.precision:.3f} outlier_recall={outlier_recall:.3f} "
        f"inlier_recall={ev.recall:.3f} local_filter_recall={ev_lf.recall:.3f} "
        f"time={elapsed:.1f}s",
    )


def test_criterion_8_scaling_sanity():
    times = []
    final = None
    for n in (50, 100, 150, 200):
        spec = SynthSpec(kind="isometric-grid", n_points=n, outlier_ratio=0.5, seed=0)
        source, target, matches = synth_isometric_instance(spec)
        config = IsometryConfig(clusters=1, mode="exact")
        t0 = time.perf_counter()
        labels, results = shape_registration(source, target, matches, config)
        times.append(time.perf_counter() - t0)
        if n == 200:
            final = (labels, results)
    labels, results = final
    monotone = all(a <= b for a, b in zip(times, times[1:]))
    solved = all(r.optimal for r in results) and times[-1] < 120.0
    record(
        "criterion 8 (scaling sanity, 200 points / 50% outliers)",
        monotone and solved,
        f"times={[round(t, 3) for t in times]} optimal={solved}",
    )


def test_criterion_9_byte_identical_reports(tmp_path):
    iso = tmp_path / "inst"
    code = cli_main(
        [
            "synth", "--kind", "isometric-grid", "--n", "81",
            "--outlier-ratio", "0.3", "--seed", "12", "--out-dir", str(iso),
        ]
    )
    assert code == 0
    outputs = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        # separate processes guard against interpreter-level nondeterminism
        proc = subprocess.run(
            [
                sys.executable, "-m", "consmax.cli", "match-shapes",
                "--source", str(iso / "source.obj"),
                "--target", str(iso / "target.obj"),
                "--matches", str(iso / "matches.txt"),
                "--mode", "exact",
                "--seed", "5",
                "--report-out", str(out),
            ],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1]
    sane = json.loads(outputs[0])["eval"]["precision"] == 1.0
    record(
        "criterion 9 (byte-identical reports)",
        identical and sane,
        f"identical={identical}",
    )
