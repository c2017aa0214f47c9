import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from consmax import io as cio
from consmax.cli import main
from consmax.mesh import TriMesh
from consmax.synth import SynthSpec, synth_isometric_instance


def run_cli(args):
    return main(list(args))


@pytest.fixture(scope="module")
def iso_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("iso")
    code = run_cli(
        [
            "synth", "--kind", "isometric-grid", "--n", "64",
            "--outlier-ratio", "0.4", "--seed", "5", "--out-dir", str(d),
        ]
    )
    assert code == 0
    return d


@pytest.fixture(scope="module")
def tpl_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("tpl")
    code = run_cli(
        [
            "synth", "--kind", "template-bend", "--n", "49",
            "--outlier-ratio", "0.2", "--seed", "5", "--out-dir", str(d),
        ]
    )
    assert code == 0
    return d


@pytest.fixture(scope="module")
def tpl36_dir(tmp_path_factory):
    # with --clusters 10, k-means leaves clusters 4, 5 and 9 below 4 matches
    d = tmp_path_factory.mktemp("tpl36")
    code = run_cli(
        [
            "synth", "--kind", "template-bend", "--n", "36",
            "--outlier-ratio", "0.2", "--seed", "1", "--out-dir", str(d),
        ]
    )
    assert code == 0
    return d


# a three-vertex, one-face PLY header; the body starts on line 10
PLY_HEADER = (
    "ply\nformat ascii 1.0\nelement vertex 3\nproperty double x\nproperty double y\n"
    "property double z\nelement face 1\nproperty list uchar int vertex_indices\nend_header\n"
)


def template_args(d, *extra):
    return [
        "match-template",
        "--template", str(d / "template.obj"),
        "--image-points", str(d / "image_points.txt"),
        "--intrinsics", str(d / "intrinsics.json"),
        "--matches", str(d / "matches.txt"),
        *extra,
    ]


def replace_file(args, old, new):
    return [str(new) if a == str(old) else a for a in args]


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSynth:
    @pytest.mark.parametrize(
        "args,message",
        [
            (["--n", "36", "--outlier-ratio", "0.3", "--bend-radius", "inf"], "bend_radius"),
            (["--n", "36", "--outlier-ratio", "0.3", "--noise", "inf"], "noise"),
            # a finite spec can be refused too: this seed's pose puts a
            # corner of the (all but flat) 4-point grid past the frame
            (["--n", "4", "--outlier-ratio", "0", "--seed", "149995", "--bend-radius", "1e6"], "leaves the frame"),
        ],
        ids=["--bend-radius", "--noise", "outside-the-frame"],
    )
    def test_infinite_value_exits_1(self, tmp_path, args, message, capsys):
        out = tmp_path / "x"
        code = run_cli(["synth", "--kind", "template-bend", *args, "--out-dir", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_tiny_bend_radius_exits_1(self, tmp_path, capsys):
        # x / radius overflows to inf, so the bent template would be NaN; the
        # instance is refused before its directory is made, and quietly
        # (a RuntimeWarning would fail the suite)
        out = tmp_path / "x"
        code = run_cli(
            [
                "synth", "--kind", "template-bend", "--n", "36", "--outlier-ratio", "0.3",
                "--bend-radius", "1e-320", "--out-dir", str(out),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "bend_radius" in err
        assert "RuntimeWarning" not in err
        assert not out.exists()


class TestMatchShapes:
    def test_exact_run(self, iso_dir, tmp_path):
        report_path = tmp_path / "report.json"
        trace_path = tmp_path / "trace.csv"
        code = run_cli(
            [
                "match-shapes",
                "--source", str(iso_dir / "source.obj"),
                "--target", str(iso_dir / "target.obj"),
                "--matches", str(iso_dir / "matches.txt"),
                "--mode", "exact",
                "--report-out", str(report_path),
                "--trace-out", str(trace_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["solver"]["optimal"] is True
        assert report["solver"]["objective"] == 26  # round(0.4 * 64)
        assert report["eval"]["precision"] == 1.0
        assert report["eval"]["recall"] == 1.0
        assert report["solver"]["wall_time"] is None
        assert trace_path.read_text().startswith("iteration,upper,lower,open_nodes")

    def test_relaxed_run(self, iso_dir, tmp_path):
        report_path = tmp_path / "relaxed.json"
        code = run_cli(
            [
                "match-shapes",
                "--source", str(iso_dir / "source.obj"),
                "--target", str(iso_dir / "target.obj"),
                "--matches", str(iso_dir / "matches.txt"),
                "--mode", "relaxed",
                "--report-out", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["solver"]["mode"] == "relaxed"

    def test_malformed_matches_exit_2(self, iso_dir, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a count\n")
        code = run_cli(
            [
                "match-shapes",
                "--source", str(iso_dir / "source.obj"),
                "--target", str(iso_dir / "target.obj"),
                "--matches", str(bad),
            ]
        )
        assert code == 2

    def test_match_past_last_vertex_exits_1(self, iso_dir, tmp_path, capsys):
        # 64 vertices on each shape: index 64 is one past the last
        bad = tmp_path / "matches.txt"
        bad.write_text("2\n0 0\n64 1\n")
        report_path = tmp_path / "r.json"
        code = run_cli(
            [
                "match-shapes",
                "--source", str(iso_dir / "source.obj"),
                "--target", str(iso_dir / "target.obj"),
                "--matches", str(bad),
                "--report-out", str(report_path),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not report_path.exists()

    def test_point_cloud_objs(self, tmp_path):
        # OBJs without faces: geodesics run on the k-NN graph, as for raw
        # point arrays, and find the 15 reassigned matches
        source, target, matches = synth_isometric_instance(
            SynthSpec(kind="isometric-grid", n_points=49, outlier_ratio=0.3, seed=9)
        )
        for name, mesh in (("source.obj", source), ("target.obj", target)):
            cio.emit_mesh(TriMesh(mesh.vertices, np.empty((0, 3), dtype=np.int64)), tmp_path / name)
        cio.emit_matches(matches, tmp_path / "matches.txt")
        report_path = tmp_path / "r.json"
        code = run_cli(
            [
                "match-shapes",
                "--source", str(tmp_path / "source.obj"),
                "--target", str(tmp_path / "target.obj"),
                "--matches", str(tmp_path / "matches.txt"),
                "--report-out", str(report_path),
            ]
        )
        assert code == 0
        ev = json.loads(report_path.read_text())["eval"]
        assert (ev["outliers_removed"], ev["outliers_missed"], ev["true_inliers_lost"]) == (15, 0, 0)

    def test_malformed_ply_exit_2(self, iso_dir, tmp_path, capsys):
        bad = tmp_path / "bad.ply"
        bad.write_text("ply\nformat ascii 1.0\nelement vertex -2\nend_header\n")
        code = run_cli(
            [
                "match-shapes",
                "--source", str(bad),
                "--target", str(iso_dir / "target.obj"),
                "--matches", str(iso_dir / "matches.txt"),
            ]
        )
        assert code == 2
        assert f"{bad}:3: negative element count" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,body,line,message",
        [
            ("nan.obj", "v 0 0 0\nv nan 0 0\nv 0 1 0\nf 1 2 3\n", 2, "non-finite vertex coordinate"),
            ("repeat.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 1 3\n", 4, "face repeats a vertex"),
            ("range.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n", 4, "face index out of range"),
            ("inf.ply", PLY_HEADER + "0 0 0\ninf 0 0\n0 1 0\n3 0 1 2\n", 11, "non-finite vertex coordinate"),
            ("repeat.ply", PLY_HEADER + "0 0 0\n1 0 0\n0 1 0\n3 0 1 1\n", 13, "face repeats a vertex"),
        ],
        ids=["nan-obj", "repeat-obj", "range-obj", "inf-ply", "repeat-ply"],
    )
    def test_bad_mesh_values_exit_2(self, iso_dir, tmp_path, capsys, name, body, line, message):
        bad = tmp_path / name
        bad.write_text(body)
        code = run_cli(
            [
                "match-shapes",
                "--source", str(bad),
                "--target", str(iso_dir / "target.obj"),
                "--matches", str(iso_dir / "matches.txt"),
            ]
        )
        assert code == 2
        assert f"{bad}:{line}: {message}" in capsys.readouterr().err

    def test_missing_source_exit_2(self, iso_dir, tmp_path, capsys):
        missing = tmp_path / "absent.obj"
        code = run_cli(
            [
                "match-shapes",
                "--source", str(missing),
                "--target", str(iso_dir / "target.obj"),
                "--matches", str(iso_dir / "matches.txt"),
            ]
        )
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_non_ascii_obj_exit_2(self, iso_dir, tmp_path, capsys):
        bad = tmp_path / "accent.obj"
        bad.write_bytes(b"# mesh\nv 0 0 0\n# caf\xe9\nv 1 0 0\n")
        code = run_cli(
            [
                "match-shapes",
                "--source", str(bad),
                "--target", str(iso_dir / "target.obj"),
                "--matches", str(iso_dir / "matches.txt"),
            ]
        )
        assert code == 2
        assert f"{bad}:3: non-ASCII byte 0xe9" in capsys.readouterr().err

    def test_byte_identical_reports(self, iso_dir, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code = run_cli(
                [
                    "match-shapes",
                    "--source", str(iso_dir / "source.obj"),
                    "--target", str(iso_dir / "target.obj"),
                    "--matches", str(iso_dir / "matches.txt"),
                    "--seed", "3",
                    "--report-out", str(p),
                ]
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_timing_flag_breaks_nothing(self, iso_dir, tmp_path):
        p = tmp_path / "timed.json"
        code = run_cli(
            [
                "match-shapes",
                "--source", str(iso_dir / "source.obj"),
                "--target", str(iso_dir / "target.obj"),
                "--matches", str(iso_dir / "matches.txt"),
                "--timing",
                "--report-out", str(p),
            ]
        )
        assert code == 0
        report = json.loads(p.read_text())
        assert report["solver"]["wall_time"] > 0
        # the evaluation has no clock of its own: its key stays null
        assert report["eval"]["wall_time"] is None


class TestMatchTemplate:
    def test_exact_run(self, tpl_dir, tmp_path):
        report_path = tmp_path / "report.json"
        code = run_cli(
            [
                "match-template",
                "--template", str(tpl_dir / "template.obj"),
                "--image-points", str(tpl_dir / "image_points.txt"),
                "--intrinsics", str(tpl_dir / "intrinsics.json"),
                "--matches", str(tpl_dir / "matches.txt"),
                "--mode", "exact",
                "--edge-cap", "100",
                "--time-budget", "15",
                "--report-out", str(report_path),
            ]
        )
        report = json.loads(report_path.read_text())
        assert code in (0, 3)  # 3 when the budget ran out without certificate
        assert report["eval"]["recall"] >= 0.9

    def test_local_filter_run(self, tpl_dir, tmp_path):
        report_path = tmp_path / "lf.json"
        code = run_cli(
            [
                "match-template",
                "--template", str(tpl_dir / "template.obj"),
                "--image-points", str(tpl_dir / "image_points.txt"),
                "--intrinsics", str(tpl_dir / "intrinsics.json"),
                "--matches", str(tpl_dir / "matches.txt"),
                "--mode", "local-filter",
                "--report-out", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["solver"]["mode"] == "local-filter"

    def test_traces_numbered_by_cluster_id(self, tpl36_dir, tmp_path):
        code = run_cli(
            template_args(
                tpl36_dir, "--clusters", "10",
                "--report-out", str(tmp_path / "r.json"), "--trace-out", str(tmp_path / "tr.csv"),
            )
        )
        assert code == 0
        traces = sorted(p.name for p in tmp_path.glob("tr*"))
        assert traces == [f"tr.c{c}.csv" for c in (0, 1, 2, 3, 6, 7, 8)]

    def test_zero_clusters_rejected(self, tpl36_dir, tmp_path, capsys):
        code = run_cli(template_args(tpl36_dir, "--clusters", "0", "--report-out", str(tmp_path / "r.json")))
        assert code == 1
        assert "clusters must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_edge_cap_below_one_rejected(self, tpl36_dir, tmp_path, capsys):
        code = run_cli(template_args(tpl36_dir, "--edge-cap", "0", "--report-out", str(tmp_path / "r.json")))
        assert code == 1
        assert "edges_per_point_cap must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_match_past_last_point_exits_1(self, tpl36_dir, tmp_path, capsys):
        # 36 template and image points: index 36 is one past the last
        bad = tmp_path / "matches.txt"
        bad.write_text("5\n0 0\n1 1\n2 2\n3 3\n4 36\n")
        args = replace_file(template_args(tpl36_dir), tpl36_dir / "matches.txt", bad)
        code = run_cli([*args, "--report-out", str(tmp_path / "r.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_bad_intrinsics_exit_2(self, tpl_dir, tmp_path):
        bad = tmp_path / "K.json"
        bad.write_text("{\"fx\": 1.0}")
        code = run_cli(
            [
                "match-template",
                "--template", str(tpl_dir / "template.obj"),
                "--image-points", str(tpl_dir / "image_points.txt"),
                "--intrinsics", str(bad),
                "--matches", str(tpl_dir / "matches.txt"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        ['{"fx": 800, "fy": 800, "cx": Infinity, "cy": 240}', '{"fx": Infinity, "fy": 800, "cx": 320, "cy": 240}'],
        ids=["cx", "fx"],
    )
    def test_non_finite_intrinsics_exit_2(self, tpl_dir, tmp_path, capsys, text):
        # json.loads accepts Infinity and NaN
        bad = tmp_path / "K.json"
        bad.write_text(text)
        code = run_cli(replace_file(template_args(tpl_dir), tpl_dir / "intrinsics.json", bad))
        assert code == 2
        assert "intrinsics must be finite" in capsys.readouterr().err

    def test_non_finite_image_point_exit_2(self, tpl_dir, tmp_path, capsys):
        lines = (tpl_dir / "image_points.txt").read_text().splitlines()
        lines[2] = "inf 240"
        bad = tmp_path / "image_points.txt"
        bad.write_text("\n".join(lines) + "\n")
        code = run_cli(replace_file(template_args(tpl_dir), tpl_dir / "image_points.txt", bad))
        assert code == 2
        assert f"{bad}:3: non-finite coordinate" in capsys.readouterr().err


class TestBench:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "bench"
        code = run_cli(
            [
                "bench", "--n", "36", "--ratios", "0.2,0.5", "--seeds", "1",
                "--modes", "exact", "--out-dir", str(out),
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["rows"]) == 2
        assert all(row["optimal"] for row in summary["rows"])

    @pytest.mark.parametrize("flag,value", [("--seed", "9"), ("--trace-out", "t.csv"), ("--report-out", "r.json")])
    def test_rejects_flags_it_would_ignore(self, tmp_path, flag, value):
        # the sweep draws its own seeds and writes into --out-dir
        with pytest.raises(SystemExit) as exc:
            run_cli(["bench", "--n", "36", "--seeds", "1", "--out-dir", str(tmp_path), flag, value])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag,value",
        [("--ratios", "0.1,abc"), ("--ratios", "0.2,1.5"), ("--seeds", "-1"), ("--seeds", "0"),
         ("--seeds", "two"), ("--modes", "exact,bogus")],
    )
    def test_rejects_bad_sweep_values(self, tmp_path, flag, value, capsys):
        # refused while parsing: nothing is synthesised or written
        out = tmp_path / "bench"
        with pytest.raises(SystemExit) as exc:
            run_cli(["bench", "--n", "36", "--seeds", "1", "--modes", "exact", "--out-dir", str(out), flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args,message",
        [(["--n", "3"], "need at least 4 points"), (["--time-budget", "0"], "budgets must be positive")],
        ids=["--n", "--time-budget"],
    )
    def test_rejected_values_leave_no_out_dir(self, tmp_path, args, message, capsys):
        # refused once parsed, before the directory is made
        out = tmp_path / "bench"
        code = run_cli(["bench", "--n", "36", "--seeds", "1", "--modes", "exact", "--out-dir", str(out), *args])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestGoldenReports:
    """sha256 of default-flag reports, recorded before the per-cluster loop
    of both pipelines was shared: labels, certificates, unconstrained flags
    and solver summaries must keep every byte."""

    def test_match_shapes(self, iso_dir, tmp_path):
        report = tmp_path / "r.json"
        code = run_cli(
            [
                "match-shapes",
                "--source", str(iso_dir / "source.obj"),
                "--target", str(iso_dir / "target.obj"),
                "--matches", str(iso_dir / "matches.txt"),
                "--report-out", str(report),
            ]
        )
        assert code == 0
        assert sha256(report) == "3392e76401ce3cf71c6b54a7c0180993de9d8ae4d31711848404a23b5a04a767"

    def test_match_template_with_skipped_clusters(self, tpl36_dir, tmp_path):
        report = tmp_path / "r.json"
        code = run_cli(template_args(tpl36_dir, "--clusters", "10", "--report-out", str(report)))
        assert code == 0
        assert json.loads(report.read_text())["solver"]["skipped_clusters"] == 3
        assert sha256(report) == "6672a8603189bc3ddd79bcfa4087296b8dd86986a394594ace242fa504eac5da"

    def test_iso_large_cli(self, tmp_path):
        # the instance and command of the iso-large-cli benchmark workload
        code = run_cli(
            [
                "synth", "--kind", "isometric-grid", "--n", "900",
                "--outlier-ratio", "0.5", "--seed", "0", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        report = tmp_path / "r.json"
        code = run_cli(
            [
                "match-shapes",
                "--source", str(tmp_path / "source.obj"),
                "--target", str(tmp_path / "target.obj"),
                "--matches", str(tmp_path / "matches.txt"),
                "--mode", "exact",
                "--report-out", str(report),
            ]
        )
        assert code == 0
        assert report.stat().st_size == 79396
        assert sha256(report) == "14aa24daf76a89322256311391de501833d74a56e792461f6f5159d4fcffd7b3"

    # relaxed mode reports the LP optimum as its lower bound: instances
    # whose bound is not an integer pin the LP's last bits and, through the
    # 0.5 rounding, its solution
    def test_match_shapes_relaxed(self, tmp_path):
        code = run_cli(
            [
                "synth", "--kind", "isometric-grid", "--n", "100",
                "--outlier-ratio", "0.5", "--seed", "0", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        report = tmp_path / "r.json"
        code = run_cli(
            [
                "match-shapes",
                "--source", str(tmp_path / "source.obj"),
                "--target", str(tmp_path / "target.obj"),
                "--matches", str(tmp_path / "matches.txt"),
                "--mode", "relaxed", "--clusters", "3",
                "--report-out", str(report),
            ]
        )
        assert code == 0
        assert json.loads(report.read_text())["solver"]["lower_bound"] == 48.5
        assert sha256(report) == "4734e4d316d5a03bf1588dc3dcef112137099140c422e73cc7a2e9dd803e34db"

    def test_match_template_relaxed(self, tpl_dir, tmp_path):
        report = tmp_path / "r.json"
        code = run_cli(template_args(tpl_dir, "--mode", "relaxed", "--report-out", str(report)))
        assert code == 0
        assert json.loads(report.read_text())["solver"]["lower_bound"] == 9.86666666666667
        assert sha256(report) == "0fdfdfd039f3fb169eede5644511f2c84ba37e2089ae106febf9df6cf71d0ed4"

    def test_bench(self, tmp_path):
        code = run_cli(
            [
                "bench", "--n", "36", "--ratios", "0.2,0.5", "--seeds", "1",
                "--modes", "exact", "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        assert {p.name: sha256(p) for p in tmp_path.iterdir()} == {
            "report_r020_s0_exact.json": "b1b1e21121079e46b2edcd2a6e0e5aa74e99132e7f452c140176281c644d2cbd",
            "report_r050_s0_exact.json": "a0738377177e429a884e19da7979edbc7fbfb8431e97c2238a8bf35c79593aaa",
            "summary.json": "a26210ba179ea40de12fb81a285e95f74f584d4493b835c6bf0a092766de25ff",
        }


class TestGoldenFiles:
    """sha256 of every file ``synth`` writes, of one ``--trace-out`` run and
    of one PLY from the mesh writer, recorded before the file formats were
    moved into one module: each writer must keep every byte."""

    def test_synth_isometric(self, iso_dir):
        assert {p.name: sha256(p) for p in iso_dir.iterdir()} == {
            "source.obj": "2794fa08602ab93334efefb9fc786847ed2111984335454f8bd7dc3234c23877",
            "target.obj": "ec5d4918e80b6943173609e0cd8968f7fd57f9e4b0fa3cc78f87a8441e5aae05",
            "matches.txt": "b05286dba46c6a1b73c2b1454af6f41f23da5e6e1e9d287cce5bfbd18ba35808",
        }

    def test_synth_template(self, tpl_dir):
        assert {p.name: sha256(p) for p in tpl_dir.iterdir()} == {
            "template.obj": "04d198a6a96f623a4da6e3064dbd8774e830976367e733612de560ca43fcb92d",
            "image_points.txt": "e5d49ae708e32919a0f8fcbf0887738f88240e88af33636fa8feed42e9b5cb27",
            "intrinsics.json": "5142bef47a9c5c8c7bc3756d528b0eb0794b9094d1d0f0e279f8dd7fbeaafe69",
            "matches.txt": "e2e956a686780257bb2bd518229ef0c5fd0d10611b4efa6d5dc77ab16f0a48d8",
        }

    def test_trace_out(self, tpl36_dir, tmp_path):
        code = run_cli(
            template_args(
                tpl36_dir, "--clusters", "4",
                "--report-out", str(tmp_path / "r.json"), "--trace-out", str(tmp_path / "tr.csv"),
            )
        )
        assert code == 0
        assert {p.name: sha256(p) for p in tmp_path.glob("tr*")} == {
            "tr.c0.csv": "887d464d946922fb1fe270012f55bcb0e42262326e2dead146764879c7124355",
            "tr.c1.csv": "e6d23c1572f32a98c9b05878c1669402a3aa5447b09f750475737a01ba41bf0a",
            # the one cluster whose plain root LP does not certify: its root
            # row has the bound 2.5, and the cut LP certifies it at the root
            # (2 rows)
            "tr.c2.csv": "f5f9241a2e652207b1b52f2d56b1a2d9244f32ec8178ae62c12ed2c1c5917c58",
            "tr.c3.csv": "245d3fb07f20fe6cdef058a385072f565a96cba72033e2762abaf6ede6a4bd2f",
        }

    def test_ply(self, tmp_path):
        _, target, _ = synth_isometric_instance(
            SynthSpec(kind="isometric-grid", n_points=12, outlier_ratio=0.0, seed=3)
        )
        path = tmp_path / "target.ply"
        cio.emit_mesh(target, path)
        assert sha256(path) == "7ea9e6c6e7c622da11140279a87c9eac3ff5b5e3f933aaa6fbd6eab0830ac708"


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "consmax.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "match-shapes" in proc.stdout
