"""The fast kernels against the plain loops they replace.

Each ``ref_*`` function below is the straightforward loop form of a kernel in
``consmax._kernels``. The kernels promise bit-identical outputs, so every
comparison here is on the raw bytes, not within a tolerance.
"""

import heapq

import numpy as np
import pytest

from consmax import _kernels
from consmax.core import CoveringProgram
from consmax.mesh import TriMesh, knn_graph
from consmax.solver import LP_TOLERANCE, _lp_max_iter
from consmax.synth import grid_mesh
from test_mesh import jittered_grid


def ref_dijkstra_table(indptr, indices, weights, sources, n):
    out = np.full((len(sources), n), np.inf)
    for si, src in enumerate(sources):
        dist = out[si]
        dist[src] = 0.0
        done = np.zeros(n, dtype=bool)
        heap = [(0.0, int(src))]
        while heap:
            d, u = heapq.heappop(heap)
            if done[u]:
                continue
            done[u] = True
            for k in range(indptr[u], indptr[u + 1]):
                v = indices[k]
                nd = d + weights[k]
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, int(v)))
    return out


def ref_greedy_pick(num_vars, cons_indptr, cons_indices):
    cons = [cons_indices[cons_indptr[l]:cons_indptr[l + 1]] for l in range(len(cons_indptr) - 1)]
    var_cons = [[] for _ in range(num_vars)]
    for l, members in enumerate(cons):
        for v in members:
            var_cons[v].append(l)
    picked = np.zeros(num_vars, dtype=np.int8)
    counts = np.array([len(ls) for ls in var_cons], dtype=np.int64)
    unsat = [True] * len(cons)
    remaining = len(cons)
    while remaining > 0:
        v = int(np.argmax(counts))
        picked[v] = 1
        for l in var_cons[v]:
            if unsat[l]:
                unsat[l] = False
                remaining -= 1
                counts[cons[l]] -= 1
    cover = [int(picked[members].sum()) for members in cons]
    for v in range(num_vars):
        if picked[v] and all(cover[l] >= 2 for l in var_cons[v]):
            picked[v] = 0
            for l in var_cons[v]:
                cover[l] -= 1
    return picked


def ref_packing_simplex(n_rows, n_cols, col_indptr, col_indices, cost, tol, max_iter):
    """The revised simplex, pricing every pivot with ``np.add.reduceat``."""
    basis = np.arange(n_cols, n_cols + n_rows, dtype=np.int64)
    cb = np.zeros(n_rows)
    binv = np.eye(n_rows)
    xb = np.ones(n_rows)
    seg_starts = col_indptr[:-1]
    degenerate_run = 0
    bland = False
    it = 0
    pi = np.zeros(n_rows)
    while it < max_iter:
        pi = cb @ binv
        col_sums = np.add.reduceat(pi[col_indices], seg_starts) if len(col_indices) else np.zeros(n_cols)
        d = np.concatenate((cost - col_sums, -pi))
        if bland:
            pos = np.nonzero(d > tol)[0]
            if len(pos) == 0:
                return _kernels.LP_OPTIMAL, float(cb @ xb), np.clip(pi, 0.0, 1.0), it
            j = int(pos[0])
        else:
            j = int(np.argmax(d))
            if d[j] <= tol:
                return _kernels.LP_OPTIMAL, float(cb @ xb), np.clip(pi, 0.0, 1.0), it
        if j < n_cols:
            rows = col_indices[col_indptr[j]:col_indptr[j + 1]]
            u = binv[:, rows].sum(axis=1)
            enter_cost = cost[j]
        else:
            u = binv[:, j - n_cols].copy()
            enter_cost = 0.0
        ratios = np.where(u > 1e-10, xb / np.where(u > 1e-10, u, 1.0), np.inf)
        k = int(np.argmin(ratios))
        theta = ratios[k]
        if not np.isfinite(theta):
            return _kernels.LP_UNBOUNDED, float(cb @ xb), np.clip(pi, 0.0, 1.0), it
        ties = np.nonzero(ratios <= theta + 1e-12)[0]
        if len(ties) > 1:
            k = int(ties[np.argmin(basis[ties])])
            theta = ratios[k]
        row = binv[k] / u[k]
        binv -= np.outer(u, row)
        binv[k] = row
        xb -= theta * u
        xb[k] = theta
        np.clip(xb, 0.0, None, out=xb)
        basis[k] = j
        cb[k] = enter_cost
        degenerate_run = degenerate_run + 1 if theta <= 1e-12 else 0
        if degenerate_run > _kernels._BLAND_AFTER:
            bland = True
        it += 1
        if it % _kernels._REFACTOR_EVERY == 0:
            binv, xb = _kernels._rebuild_basis(basis, n_rows, n_cols, col_indptr, col_indices)
    return _kernels.LP_ITERATION_LIMIT, float(cb @ xb), np.clip(pi, 0.0, 1.0), it


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def two_component_graph():
    """Two jittered grids side by side with no edge between them."""
    a, b = jittered_grid(30, seed=1), jittered_grid(20, seed=2)
    tris = np.vstack([a.triangles, b.triangles + a.num_vertices])
    mesh = TriMesh(np.vstack([a.vertices, b.vertices + [50.0, 0.0, 0.0]]), tris)
    return mesh.edge_graph, mesh.num_vertices


def random_program(rng, sizes, p, n_cons):
    cons = set()
    while len(cons) < n_cons:
        size = min(int(rng.choice(sizes)), p)
        cons.add(tuple(sorted(rng.choice(p, size, replace=False).tolist())))
    return CoveringProgram.from_constraints(p, sorted(cons))


def check_dijkstra(graph, sources, n):
    indptr, indices, weights = graph
    got = _kernels.dijkstra_table(indptr, indices, weights, sources, n)
    assert_same_bits(got, ref_dijkstra_table(indptr, indices, weights, sources, n))
    return got


class TestDijkstra:
    @pytest.mark.parametrize("n,seed", [(49, 0), (120, 1), (300, 2)])
    def test_jittered_grid(self, n, seed):
        sources = np.random.default_rng(seed).choice(n, size=min(n, 40), replace=False)
        check_dijkstra(jittered_grid(n, seed).edge_graph, sources, n)

    @pytest.mark.parametrize("n_sources", [64, 65, 150])
    def test_sources_across_chunks(self, n_sources):
        # one full chunk, one source past it, and a partial third chunk
        sources = np.random.default_rng(n_sources).choice(300, size=n_sources, replace=False)
        check_dijkstra(jittered_grid(300, 5).edge_graph, sources, 300)

    def test_unit_grid_ties(self):
        # on an unjittered grid many paths have equal lengths
        check_dijkstra(grid_mesh(300).edge_graph, np.arange(0, 300, 4), 300)

    def test_zero_weight_edge(self):
        grid = jittered_grid(100, 6)
        verts = grid.vertices.copy()
        verts[45] = verts[44]  # coincident neighbours: a zero-weight edge
        mesh = TriMesh(verts, grid.triangles)
        indptr, indices, weights = mesh.edge_graph
        assert (weights[indptr[44]:indptr[45]] == 0.0).any()
        got = check_dijkstra(mesh.edge_graph, np.array([0, 44, 45, 99]), 100)
        assert_same_bits(got[1], got[2])

    def test_repeated_source(self):
        got = check_dijkstra(jittered_grid(120, 7).edge_graph, np.array([3, 50, 3, 119]), 120)
        assert_same_bits(got[0], got[2])

    def test_no_sources(self):
        got = check_dijkstra(jittered_grid(49, 8).edge_graph, np.array([], dtype=np.int64), 49)
        assert got.shape == (0, 49)

    def test_knn_graph(self):
        pts = np.random.default_rng(3).uniform(0.0, 10.0, size=(150, 3))
        check_dijkstra(knn_graph(pts), np.arange(0, 150, 3), 150)

    def test_gaussian_knn_graph(self):
        pts = np.random.default_rng(4).normal(size=(900, 3))
        check_dijkstra(knn_graph(pts), np.arange(0, 900, 9), 900)

    def test_two_components(self):
        graph, n = two_component_graph()
        got = check_dijkstra(graph, np.array([0, 7, 29, 30, 49]), n)
        assert np.isinf(got).any()


class TestGreedyPick:
    @pytest.mark.parametrize("seed", range(8))
    def test_identical_picks(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(6, 60))
        program = random_program(rng, range(1, 7), p, int(rng.integers(1, 4 * p)))
        args = (p, *program.cons_csr)
        assert_same_bits(_kernels.greedy_pick(*args), ref_greedy_pick(*args))

    def test_redundant_pick_dropped(self):
        # greedy picks 0 first, then 1 and 2, which cover both of 0's
        # constraints
        program = CoveringProgram.from_constraints(3, [(0, 1), (0, 2), (1,), (2,)])
        assert _kernels.greedy_pick(3, *program.cons_csr).tolist() == [0, 1, 1]

    def test_empty_program(self):
        program = CoveringProgram.from_constraints(4, [])
        assert_same_bits(_kernels.greedy_pick(4, *program.cons_csr), np.zeros(4, dtype=np.int8))


class TestPackingSimplex:
    @pytest.mark.parametrize(
        "max_size,seed", [(2, s) for s in range(5)] + [(4, s) for s in range(5)] + [(8, 0)]
    )
    def test_identical_solves(self, max_size, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(10, 40))
        program = random_program(rng, range(1, max_size + 1), p, int(rng.integers(p, 5 * p)))
        self.check(program)

    def test_long_constraint_takes_reduceat_path(self):
        # a 10-row column: from 9 rows on, reduceat's sum is pairwise, not a
        # left fold, and the kernel must still price it as the reference does
        rng = np.random.default_rng(7)
        program = random_program(rng, [2, 3], 30, 60)
        long = tuple(range(0, 30, 3))
        assert len(long) == 10
        self.check(CoveringProgram.from_constraints(30, program.constraints + (long,)))

    @pytest.mark.parametrize("seed", range(5))
    def test_bland_rule(self, seed, monkeypatch):
        # Bland's rule from the first degenerate pivot on, in the kernel and
        # the reference alike: the same optimum by another pivot path
        rng = np.random.default_rng(seed)
        program = random_program(rng, range(1, 5), 30, 90)
        _, dantzig, _ = self.check(program)
        monkeypatch.setattr(_kernels, "_BLAND_AFTER", 0)
        status, bland, _ = self.check(program)
        assert status == _kernels.LP_OPTIMAL
        assert abs(bland - dantzig) <= 1e-13

    def test_iteration_limit(self):
        program = random_program(np.random.default_rng(0), range(1, 5), 30, 90)
        status, _, its = self.check(program, max_iter=3)
        assert (status, its) == (_kernels.LP_ITERATION_LIMIT, 3)

    @pytest.mark.parametrize("seed", range(6))
    def test_integer_costs(self, seed):
        # right-hand sides 1 to 3 on columns of up to 7 rows, as the solver's
        # cut rows give them
        rng = np.random.default_rng(100 + seed)
        p = int(rng.integers(10, 40))
        program = random_program(rng, range(1, 8), p, int(rng.integers(p, 4 * p)))
        cost = rng.integers(1, 4, size=program.num_constraints).astype(np.float64)
        status, _, _ = self.check(program, cost=cost)
        assert status == _kernels.LP_OPTIMAL

    @staticmethod
    def check(program, max_iter=None, cost=None):
        """Run the kernel and the reference; return the kernel's (status,
        objective, iterations) once every output matches bit for bit. Costs
        default to all ones, the plain covering LP."""
        indptr, indices = program.cons_csr
        if max_iter is None:
            max_iter = _lp_max_iter(program.num_vars, program.num_constraints)
        if cost is None:
            cost = np.ones(program.num_constraints)
        args = (program.num_vars, program.num_constraints, indptr, indices, cost, LP_TOLERANCE, max_iter)
        status, obj, z, its = _kernels.packing_simplex(*args)
        r_status, r_obj, r_z, r_its = ref_packing_simplex(*args)
        assert r_its > 0
        assert (status, its) == (r_status, r_its)
        assert obj.hex() == r_obj.hex()
        assert_same_bits(z, r_z)
        return status, obj, its
