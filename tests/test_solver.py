import itertools
import math

import numpy as np
import pytest

from consmax import _kernels
from consmax.core import CoveringProgram
from consmax.errors import InfeasibleNode, InvalidArgument, TooLarge
from consmax.solver import (
    SolverConfig,
    brute_force_oracle,
    greedy_cover,
    load_program,
    load_trace,
    lp_lower_bound,
    save_program,
    save_trace,
    solve_exact,
    solve_relaxed,
)


def prog(num_vars, *constraints):
    return CoveringProgram(num_vars, tuple(tuple(c) for c in constraints))


def random_program(rng, max_vars=15, max_cons=25):
    p = int(rng.integers(2, max_vars))
    cons = set()
    for _ in range(int(rng.integers(0, max_cons))):
        size = min(int(rng.choice([1, 2, 4])), p)
        cons.add(tuple(sorted(rng.choice(p, size, replace=False).tolist())))
    return prog(p, *sorted(cons))


def check_feasible(program, labels):
    for c in program.constraints:
        assert any(labels.z[i] == 1 for i in c), (c, labels.z)


class TestBruteForce:
    def test_two_overlapping_pairs(self):
        objective, labels = brute_force_oracle(prog(3, (0, 1), (1, 2)))
        assert objective == 1
        assert labels.z.tolist() == [0, 1, 0]

    def test_empty(self):
        objective, labels = brute_force_oracle(prog(3))
        assert objective == 0
        assert labels.num_outliers == 0

    def test_too_large(self):
        with pytest.raises(TooLarge):
            brute_force_oracle(prog(25, (0, 1)))

    def test_lexicographically_smallest(self):
        # both {0} and {1} are optimal; z with earliest zero... the smaller
        # sequence (0,1) loses to (1,0)? lexicographic on (z_0, z_1): (0,1) < (1,0)
        objective, labels = brute_force_oracle(prog(2, (0, 1)))
        assert objective == 1
        assert labels.z.tolist() == [0, 1]


class TestGreedyCover:
    def test_picks_middle(self):
        labels = greedy_cover(prog(3, (0, 1), (1, 2)))
        assert labels.z.tolist() == [0, 1, 0]

    def test_respects_fixed_inlier(self):
        labels = greedy_cover(prog(2, (0, 1)), fixed={1: 0})
        assert labels.z.tolist() == [1, 0]

    def test_infeasible_node(self):
        with pytest.raises(InfeasibleNode):
            greedy_cover(prog(1, (0,)), fixed={0: 0})


class TestLpLowerBound:
    def test_odd_cycle_is_three_halves(self):
        assert lp_lower_bound(prog(3, (0, 1), (1, 2), (0, 2))) == pytest.approx(1.5, abs=1e-9)

    def test_empty_program(self):
        assert lp_lower_bound(prog(4)) == 0.0

    def test_fixed_outlier_counts(self):
        assert lp_lower_bound(prog(2, (0, 1)), fixed={0: 1}) == pytest.approx(1.0, abs=1e-12)

    def test_infeasible(self):
        with pytest.raises(InfeasibleNode):
            lp_lower_bound(prog(1, (0,)), fixed={0: 0})

    def test_never_exceeds_ilp(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            program = random_program(rng)
            bound = lp_lower_bound(program)
            objective, _ = brute_force_oracle(program)
            assert bound <= objective + 1e-6


def lp_vertex_oracle(program):
    """Independent covering-LP oracle: enumerate vertices of the polytope
    {A z >= 1, 0 <= z <= 1} as intersections of n tight constraints."""
    n = program.num_vars
    rows = [np.array([1.0 if i in c else 0.0 for i in range(n)]) for c in program.constraints]
    rhs_rows = [1.0] * len(rows)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows.append(e.copy())
        rhs_rows.append(0.0)
        rows.append(e)
        rhs_rows.append(1.0)
    best = math.inf
    for combo in itertools.combinations(range(len(rows)), n):
        A = np.array([rows[k] for k in combo])
        b = np.array([rhs_rows[k] for k in combo])
        if abs(np.linalg.det(A)) < 1e-9:
            continue
        z = np.linalg.solve(A, b)
        if (z < -1e-9).any() or (z > 1 + 1e-9).any():
            continue
        feasible = all(
            sum(z[i] for i in c) >= 1 - 1e-9 for c in program.constraints
        )
        if feasible:
            best = min(best, z.sum())
    return best


class TestLpAgainstVertexEnumeration:
    def test_small_random_programs(self):
        # sizes 1-2 as in isometric programs; 4 as in template programs
        for sizes in ([1, 2], [1, 2, 4]):
            rng = np.random.default_rng(11)
            checked = 0
            while checked < 25:
                p = int(rng.integers(2, 6))
                cons = set()
                for _ in range(int(rng.integers(1, 6))):
                    size = min(int(rng.choice(sizes)), p)
                    cons.add(tuple(sorted(rng.choice(p, size, replace=False).tolist())))
                program = prog(p, *sorted(cons))
                expected = lp_vertex_oracle(program)
                got = lp_lower_bound(program)
                assert got == pytest.approx(expected, abs=1e-7), program.constraints
                checked += 1


class TestSolveExact:
    def test_two_pairs(self):
        res = solve_exact(prog(3, (0, 1), (1, 2)))
        assert res.objective == 1
        assert res.optimal
        assert res.labels.z.tolist() == [0, 1, 0]

    def test_empty(self):
        res = solve_exact(prog(3))
        assert res.objective == 0 and res.optimal
        assert res.labels.num_outliers == 0

    def test_singletons(self):
        res = solve_exact(prog(3, (0,), (1,), (2,)))
        assert res.objective == 3

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(23)
        for _ in range(120):
            program = random_program(rng)
            res = solve_exact(program)
            objective, _ = brute_force_oracle(program)
            assert res.optimal
            assert res.objective == objective
            check_feasible(program, res.labels)

    def test_bound_sandwich(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            program = random_program(rng)
            res = solve_exact(program)
            lo = lp_lower_bound(program)
            hi = int(greedy_cover(program).z.sum())
            assert lo - 1e-6 <= res.objective <= hi

    def test_determinism(self):
        rng = np.random.default_rng(31)
        program = random_program(rng, max_vars=14, max_cons=25)
        cfg = SolverConfig(trace_enabled=True)
        a = solve_exact(program, cfg)
        b = solve_exact(program, cfg)
        assert a.objective == b.objective
        assert a.labels == b.labels
        assert [
            (e.iteration, e.upper_bound, e.lower_bound, e.open_nodes) for e in a.trace
        ] == [(e.iteration, e.upper_bound, e.lower_bound, e.open_nodes) for e in b.trace]

    def test_trace_monotone_and_certificate(self):
        # two disjoint odd cycles: LP 3.0 vs ILP 4 forces real branching
        program = prog(6, (0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))
        res = solve_exact(program)
        assert res.objective == 4 and res.optimal
        uppers = [e.upper_bound for e in res.trace]
        lowers = [e.lower_bound for e in res.trace]
        assert all(a >= b for a, b in zip(uppers, uppers[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(lowers, lowers[1:]))
        final = res.trace[-1]
        assert final.upper_bound == math.ceil(final.lower_bound - 1e-7)

    def test_node_budget_returns_incumbent(self):
        # three disjoint odd cycles: LP 4.5 vs ILP 6 needs several nodes
        program = prog(
            9,
            (0, 1), (1, 2), (0, 2),
            (3, 4), (4, 5), (3, 5),
            (6, 7), (7, 8), (6, 8),
        )
        res = solve_exact(program, SolverConfig(node_budget=1))
        assert not res.optimal
        check_feasible(program, res.labels)
        assert res.lower_bound <= res.objective
        assert res.objective >= 6  # incumbent is feasible, optimum is 6

    def test_failed_node_lp_does_not_abort(self, monkeypatch):
        # every LP after the root stops at its iteration cap: those nodes
        # keep their parent's bound and the search still certifies
        real = _kernels.packing_simplex
        calls = []

        def flaky(n_rows, n_cols, indptr, indices, tol, max_iter):
            calls.append(n_cols)
            status, obj, z, it = real(n_rows, n_cols, indptr, indices, tol, max_iter)
            return (status if len(calls) == 1 else _kernels.LP_ITERATION_LIMIT), obj, z, it

        monkeypatch.setattr(_kernels, "packing_simplex", flaky)
        program = prog(
            9,
            (0, 1), (1, 2), (0, 2),
            (3, 4), (4, 5), (3, 5),
            (6, 7), (7, 8), (6, 8),
        )
        res = solve_exact(program)
        assert len(calls) > 1
        assert res.optimal
        assert res.objective == 6
        assert res.lower_bound == 6
        check_feasible(program, res.labels)


class TestSolveRelaxed:
    def test_empty(self):
        res = solve_relaxed(prog(3))
        assert res.objective == 0 and res.labels.num_outliers == 0

    def test_odd_cycle_rounds_everything(self):
        res = solve_relaxed(prog(3, (0, 1), (1, 2), (0, 2)))
        assert res.lower_bound == pytest.approx(1.5, abs=1e-9)
        assert res.labels.z.tolist() == [1, 1, 1]
        assert res.objective == 3
        assert res.optimal
        assert res.violated_constraints == 0

    def test_single_pair_fractional_optimum_exact(self):
        res = solve_relaxed(prog(2, (0, 1)))
        assert res.lower_bound == 1.0
        assert res.labels.num_outliers >= 1

    def test_lp_below_ilp(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            program = random_program(rng)
            res = solve_relaxed(program)
            objective, _ = brute_force_oracle(program)
            assert res.lower_bound <= objective + 1e-6

    def test_violated_constraints_reported(self):
        # all four 3-subsets of 4 variables: the unique LP optimum is 1/3
        # everywhere, so rounding at 0.5 keeps every label inlier and leaves
        # every constraint uncovered
        program = prog(4, (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
        res = solve_relaxed(program)
        assert res.lower_bound == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert res.labels.num_outliers == 0
        assert res.violated_constraints == 4


class TestSolverConfigValidation:
    def test_budgets(self):
        with pytest.raises(InvalidArgument):
            SolverConfig(time_budget=0)
        with pytest.raises(InvalidArgument):
            SolverConfig(node_budget=0)
        with pytest.raises(InvalidArgument):
            SolverConfig(lp_tolerance=1e-2)


class TestInstanceFormat:
    def test_round_trip(self, tmp_path):
        program = prog(5, (0, 1), (2, 3, 4), (1,))
        path = tmp_path / "inst.txt"
        save_program(program, path)
        text = path.read_text()
        assert text.splitlines()[0] == "5 3"
        assert "1 2" in text  # 1-based indices on disk
        back = load_program(path)
        assert back.num_vars == 5
        assert back.constraints == program.constraints

    def test_malformed(self, tmp_path):
        from consmax.errors import MalformedInput

        path = tmp_path / "bad.txt"
        path.write_text("2 1\n0 7\n")
        with pytest.raises(MalformedInput):
            load_program(path)

    def test_trace_round_trip(self, tmp_path):
        res = solve_exact(prog(3, (0, 1), (1, 2)))
        path = tmp_path / "trace.csv"
        save_trace(res.trace, path)
        assert path.read_text().splitlines()[0] == "iteration,upper,lower,open_nodes"
        back = load_trace(path)
        assert [(e.iteration, e.upper_bound, e.lower_bound, e.open_nodes) for e in back] == [
            (e.iteration, e.upper_bound, e.lower_bound, e.open_nodes) for e in res.trace
        ]
