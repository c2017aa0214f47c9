import hashlib

import numpy as np
import pytest

from consmax.core import ConsensusGraph, MatchSet, build_covering_program, kmeans_partition
from consmax.errors import AllClustersSkipped, EmptyMatches, InvalidArgument, TooFewMatches
from consmax.solver import SolverConfig
from consmax.synth import SynthSpec, synth_template_instance
from consmax.template import (
    TemplateMatchConfig,
    build_triangle_graph,
    local_filtering,
    template_image_registration,
)

BUDGET = SolverConfig(time_budget=10.0, node_budget=50_000)


@pytest.fixture(scope="module")
def tpl_bend_c4_graphs():
    """The four cluster graphs of the tpl-bend-c4 benchmark instance."""
    template, image, K, matches = bent_instance(ratio=0.3, seed=2, n=225)
    cfg = TemplateMatchConfig(edges_per_point_cap=100, clusters=4)
    mt, mi = template[matches.pairs[:, 0]], image[matches.pairs[:, 1]]
    partition = kmeans_partition(mt, cfg.clusters, cfg.seed)
    return [
        (build_triangle_graph(mt[idx], mi[idx], K, cfg), len(idx))
        for idx in map(partition.members, range(cfg.clusters))
    ]


def misshapen(side, template, image):
    """The (template, image) points with one side given the other's shape."""
    if side == "template":
        return template[:, :2], image
    return template, np.column_stack([image, np.ones(len(image))])


def bent_instance(ratio=0.3, seed=2, n=100, noise=0.0):
    spec = SynthSpec(
        kind="template-bend", n_points=n, outlier_ratio=ratio, noise=noise,
        seed=seed, bend_radius=2.0,
    )
    return synth_template_instance(spec)


class TestConfigValidation:
    def test_ranges(self):
        with pytest.raises(InvalidArgument):
            TemplateMatchConfig(eps1=0.0)
        with pytest.raises(InvalidArgument):
            TemplateMatchConfig(eps2=0.0)
        with pytest.raises(InvalidArgument, match="eps2"):
            TemplateMatchConfig(eps2=float("nan"))
        with pytest.raises(InvalidArgument):
            TemplateMatchConfig(q=3)
        with pytest.raises(InvalidArgument):
            TemplateMatchConfig(tau=0.0)
        with pytest.raises(InvalidArgument):
            TemplateMatchConfig(mode="vote")

    @pytest.mark.parametrize("cap", [0, -5])
    def test_edge_cap_below_one(self, cap):
        with pytest.raises(InvalidArgument, match="edges_per_point_cap"):
            TemplateMatchConfig(edges_per_point_cap=cap)


class TestBuildTriangleGraph:
    def test_rigid_scene_all_agree(self):
        template, image, K, _ = bent_instance(ratio=0.0, seed=1, n=49)
        graph = build_triangle_graph(template, image, K)
        assert graph.num_edges > 0
        assert (graph.theta == 1).all()
        assert build_covering_program(graph).num_constraints == 0

    def test_four_matches_full_adjacency(self):
        # four non-collinear matches: all four triangles form, every pair
        # shares exactly two matches
        template, image, K, _ = bent_instance(ratio=0.0, seed=1, n=49)
        idx = [0, 1, 8, 9]
        graph = build_triangle_graph(template[idx], image[idx], K)
        assert graph.num_vertices == 4
        assert graph.num_edges == 6
        assert (graph.theta == 1).all()

    def test_constraints_have_four_variables(self):
        template, image, K, _ = bent_instance(ratio=0.4, seed=5, n=81)
        graph = build_triangle_graph(template, image, K)
        prog = build_covering_program(graph)
        assert prog.num_constraints > 0
        for c in prog.constraints:
            assert len(c) == 4

    def test_too_few_matches(self):
        template, image, K, _ = bent_instance(ratio=0.0, seed=1, n=49)
        with pytest.raises(TooFewMatches):
            build_triangle_graph(template[:3], image[:3], K)

    def test_point_counts_differ(self):
        template, image, K, _ = bent_instance(ratio=0.0, seed=1, n=49)
        with pytest.raises(InvalidArgument, match="counts differ"):
            build_triangle_graph(template, image[:-1], K)

    @pytest.mark.parametrize("side", ["template", "image"])
    def test_wrongly_shaped_points_rejected(self, side):
        template, image, K, _ = bent_instance(ratio=0.2, seed=1, n=36)
        with pytest.raises(InvalidArgument, match=r"\(n, 3\).*\(m, 2\)"):
            build_triangle_graph(*misshapen(side, template, image), K)

    def test_deterministic_under_seed(self):
        template, image, K, _ = bent_instance(ratio=0.3, seed=4, n=81)
        cfg = TemplateMatchConfig(seed=11)
        g1 = build_triangle_graph(template, image, K, cfg)
        g2 = build_triangle_graph(template, image, K, cfg)
        assert np.array_equal(g1.vertices, g2.vertices)
        assert np.array_equal(g1.edges, g2.edges)
        assert np.array_equal(g1.theta, g2.theta)

    def test_edge_cap_respected(self):
        template, image, K, _ = bent_instance(ratio=0.2, seed=6, n=81)
        cfg = TemplateMatchConfig(edges_per_point_cap=5)
        graph = build_triangle_graph(template, image, K, cfg)
        incident = np.zeros(81, dtype=int)
        for a, b in graph.edges.tolist():
            for v in set(graph.vertices[a].tolist()) | set(graph.vertices[b].tolist()):
                incident[v] += 1
        # theta evaluation may drop capped edges but never adds any
        assert incident.max() <= 5


class TestGraphDigests:
    # sha256 of the (vertices, edges, theta) bytes of every cluster's graph
    # on the tpl-bend-c4 benchmark instance, with (triangles, edges), as the
    # one-triangle P3P and pose-pair loop built them
    PINNED = [
        (1853, 1239, "69681ddd3bab278d252492b2486b4e4b0dd56c2ed348be414e0d8688d0f7051e"),
        (1734, 1158, "9aac097c2eff6dd1f6f053feef9a60b420ebc97e7621a0af25e6c06e43097f64"),
        (1744, 1219, "f19a3dda0fb13334b1d13b2d502bfcba40c0aaeb9a954af446507968a4e0215f"),
        (1752, 1116, "91fa7c6df3728fcf931f7dce921bd133b82aea4b1cca6a91a337ffc097143264"),
    ]

    def test_tpl_bend_c4_clusters(self, tpl_bend_c4_graphs):
        for (graph, _), (triangles, edges, digest) in zip(tpl_bend_c4_graphs, self.PINNED, strict=True):
            h = hashlib.sha256()
            for part in (graph.vertices, graph.edges, graph.theta):
                h.update(np.ascontiguousarray(part).tobytes())
            assert (graph.num_vertices, graph.num_edges, h.hexdigest()) == (triangles, edges, digest)

    # criterion 7's instance as one cluster, at its edge cap and the default
    PINNED_ONE_CLUSTER = [
        (100, 5499, 4849, "603ed041cfefe5e8868f9bd90e534e64a960aaac360676fe681f2f665c855e82"),
        (30, 5499, 1443, "620c36914d9a4a5c5af3acbe43031adfb79d2e4c0b8390280340e55276b57195"),
    ]

    @pytest.mark.parametrize("cap,triangles,edges,digest", PINNED_ONE_CLUSTER)
    def test_criterion_7_one_cluster(self, cap, triangles, edges, digest):
        template, image, K, matches = bent_instance(ratio=0.3, seed=2, n=225)
        mt, mi = template[matches.pairs[:, 0]], image[matches.pairs[:, 1]]
        cfg = TemplateMatchConfig(edges_per_point_cap=cap)
        graph = build_triangle_graph(mt, mi, K, cfg)
        h = hashlib.sha256()
        for part in (graph.vertices, graph.edges, graph.theta):
            h.update(np.ascontiguousarray(part).tobytes())
        assert (graph.num_vertices, graph.num_edges, h.hexdigest()) == (triangles, edges, digest)


class TestLocalFiltering:
    def graph(self):
        # two triangles sharing an edge, one agreeing, one isolated vertex
        return ConsensusGraph(
            vertices=np.array([[0, 1, 2], [0, 1, 3], [4, 5, 6]]),
            edges=np.array([[0, 1]]),
            theta=np.array([1], dtype=np.uint8),
            s=3,
        )

    def test_agreeing_matches_are_inliers(self):
        labels = local_filtering(self.graph(), tau=0.5, min_incident=1, num_matches=7)
        assert labels.z[:4].tolist() == [0, 0, 0, 0]

    def test_isolated_matches_are_outliers(self):
        labels = local_filtering(self.graph(), tau=0.5, min_incident=1, num_matches=7)
        assert labels.z[4:].tolist() == [1, 1, 1]

    def test_all_disagreeing_is_outlier(self):
        g = ConsensusGraph(
            vertices=np.array([[0, 1, 2], [0, 1, 3]]),
            edges=np.array([[0, 1]]),
            theta=np.array([0], dtype=np.uint8),
            s=3,
        )
        labels = local_filtering(g, tau=0.5, min_incident=1, num_matches=4)
        assert labels.z.tolist() == [1, 1, 1, 1]

    def test_min_incident_threshold(self):
        labels = local_filtering(self.graph(), tau=0.5, min_incident=2, num_matches=7)
        assert (labels.z == 1).all()

    def test_wrong_s_rejected(self):
        g = ConsensusGraph(
            vertices=np.array([[0], [1]]),
            edges=np.array([[0, 1]]),
            theta=np.array([1], dtype=np.uint8),
            s=1,
        )
        with pytest.raises(InvalidArgument):
            local_filtering(g, 0.5, 1, num_matches=2)


def ref_local_filtering(graph, tau, min_incident, num_matches):
    """The per-edge loop form of ``local_filtering``."""
    p = int(num_matches)
    agree = np.zeros(p, dtype=np.int64)
    total = np.zeros(p, dtype=np.int64)
    for (a, b), th in zip(graph.edges.tolist(), graph.theta.tolist()):
        union = set(graph.vertices[a].tolist()) | set(graph.vertices[b].tolist())
        for v in union:
            total[v] += 1
            agree[v] += th
    z = np.ones(p, dtype=np.int8)
    ok = total >= min_incident
    frac = np.divide(agree, total, out=np.zeros(p, dtype=np.float64), where=total > 0)
    z[ok & (frac >= tau)] = 0
    return z


class TestVectorisedLocalFiltering:
    """The tally over ``core``'s union rows gives the loop's labels."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_triangle_graphs(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(4, 12))  # few matches, so triangles overlap
        verts = np.array([rng.choice(p, 3, replace=False) for _ in range(int(rng.integers(2, 30)))])
        iu, ju = np.triu_indices(len(verts), 1)
        keep = rng.random(len(iu)) < 0.5
        edges = np.column_stack([iu[keep], ju[keep]])
        edges[::2] = edges[::2, ::-1]
        theta = (rng.random(len(edges)) < 0.6).astype(np.uint8)
        graph = ConsensusGraph(vertices=verts, edges=edges, theta=theta, s=3)
        for tau, min_incident in ((0.5, 1), (0.3, 3), (0.8, 0)):
            got = local_filtering(graph, tau, min_incident, num_matches=p + 2)
            assert got.z.tolist() == ref_local_filtering(graph, tau, min_incident, p + 2).tolist()

    def test_tpl_bend_c4_clusters(self, tpl_bend_c4_graphs):
        for graph, k in tpl_bend_c4_graphs:
            outliers = []
            for tau in (0.5, 0.3, 0.1):
                got = local_filtering(graph, tau, 3, num_matches=k)
                want = ref_local_filtering(graph, tau, 3, k)
                assert got.z.tolist() == want.tolist()
                outliers.append(int(want.sum()))
            assert min(outliers) < k  # some match is an inlier


class TestTemplatePipeline:
    def test_rigid_no_outliers_all_inliers(self):
        template, image, K, matches = bent_instance(ratio=0.0, seed=1, n=100)
        cfg = TemplateMatchConfig(solver=BUDGET)
        labels, diag = template_image_registration(template, image, matches, K, cfg)
        assert labels.num_outliers == 0
        assert not diag.cluster_reports[0].skipped

    def test_bent_with_outliers_quality(self):
        template, image, K, matches = bent_instance(ratio=0.25, seed=2, n=100)
        cfg = TemplateMatchConfig(edges_per_point_cap=100, solver=BUDGET)
        labels, _ = template_image_registration(template, image, matches, K, cfg)
        gt = matches.gt_labels
        kept = int(((labels.z == 0) & (gt.z == 0)).sum())
        missed = int(((labels.z == 0) & (gt.z == 1)).sum())
        removed = int(((labels.z == 1) & (gt.z == 1)).sum())
        assert kept / (kept + missed) >= 0.9
        assert removed / (removed + missed) >= 0.85

    def test_three_matches_all_clusters_skipped(self):
        template, image, K, matches = bent_instance(ratio=0.0, seed=1, n=49)
        small = MatchSet(np.column_stack([np.arange(3)] * 2))
        with pytest.raises(AllClustersSkipped):
            template_image_registration(template, image, small, K)

    def test_empty_matches(self):
        template, image, K, _ = bent_instance(ratio=0.0, seed=1, n=49)
        with pytest.raises(EmptyMatches):
            template_image_registration(template, image, MatchSet(np.empty((0, 2), dtype=np.int64)), K)

    @pytest.mark.parametrize("bad", [[49, 0], [0, 49]], ids=["template", "image"])
    def test_out_of_range_matches(self, bad):
        # 49 template and image points: index 49 is one past the last
        template, image, K, _ = bent_instance(ratio=0.0, seed=1, n=49)
        matches = MatchSet(np.array([[0, 0], [1, 1], [2, 2], bad]))
        with pytest.raises(EmptyMatches):
            template_image_registration(template, image, matches, K)

    @pytest.mark.parametrize("side", ["template", "image"])
    def test_non_finite_points_rejected(self, side):
        template, image, K, matches = bent_instance(ratio=0.0, seed=1, n=49)
        points = {"template": template.copy(), "image": image.copy()}
        points[side][5, 0] = np.nan
        with pytest.raises(InvalidArgument):
            template_image_registration(points["template"], points["image"], matches, K)

    @pytest.mark.parametrize("side", ["template", "image"])
    def test_wrongly_shaped_points_rejected(self, side):
        # a reshape would split (n, 3) image points into rows of two and an
        # (n, 2) template into rows of three, and label the wrong points
        template, image, K, matches = bent_instance(ratio=0.2, seed=1, n=36)
        with pytest.raises(InvalidArgument, match=r"\(n, 3\).*\(m, 2\)"):
            template_image_registration(*misshapen(side, template, image), matches, K)

    def test_local_filter_mode_runs(self):
        template, image, K, matches = bent_instance(ratio=0.25, seed=2, n=100)
        cfg = TemplateMatchConfig(mode="local-filter")
        labels, diag = template_image_registration(template, image, matches, K, cfg)
        assert diag.cluster_reports[0].result is None
        assert 0 < labels.num_outliers < len(matches)

    def test_unconstrained_reporting(self):
        template, image, K, matches = bent_instance(ratio=0.0, seed=1, n=49)
        labels, diag = template_image_registration(template, image, matches, K)
        # rigid scene: no constraints anywhere, everything unconstrained
        assert diag.unconstrained.all()
        assert labels.num_outliers == 0

    def test_criterion_7_one_cluster_certifies_at_the_root(self):
        # one 225-variable program of 2989 constraints: the root LP is 56.25,
        # the cut LP 67.48, and the cover in cut-LP order has 68 outliers;
        # the node budget makes a solve that needed branching stop
        # deterministically
        template, image, K, matches = bent_instance(ratio=0.3, seed=2, n=225)
        cfg = TemplateMatchConfig(edges_per_point_cap=100, clusters=1, solver=SolverConfig(node_budget=5))
        labels, diag = template_image_registration(template, image, matches, K, cfg)
        res = diag.cluster_reports[0].result
        assert res.optimal
        assert res.lower_bound == res.objective == 68
        mt, mi = template[matches.pairs[:, 0]], image[matches.pairs[:, 1]]
        program = build_covering_program(build_triangle_graph(mt, mi, K, cfg))
        indptr, indices = program.cons_csr
        assert np.maximum.reduceat(res.labels.z[indices], indptr[:-1]).all()
        assert labels == matches.gt_labels

    def test_relaxed_mode_runs(self):
        template, image, K, matches = bent_instance(ratio=0.25, seed=2, n=81)
        cfg = TemplateMatchConfig(mode="relaxed", edges_per_point_cap=100)
        labels, diag = template_image_registration(template, image, matches, K, cfg)
        assert diag.cluster_reports[0].result is not None
        assert diag.cluster_reports[0].result.lower_bound <= labels.num_outliers + 1e-6
