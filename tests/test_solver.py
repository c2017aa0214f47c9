import csv
import hashlib
import itertools
import math

import numpy as np
import pytest

from consmax import _kernels, solver
from consmax.core import ClusterReport, CoveringProgram
from consmax.errors import InvalidArgument, TooLarge
from consmax.io import emit_traces
from consmax.solver import (
    SolverConfig,
    _cut_candidates,
    _cut_rounds,
    _lp,
    _residual,
    _solve_lp_bnb,
    brute_force_oracle,
    lp_lower_bound,
    solve_exact,
    solve_relaxed,
)


def prog(num_vars, *constraints):
    return CoveringProgram.from_constraints(num_vars, constraints)


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


class TestLpLowerBound:
    def test_odd_cycle_is_three_halves(self):
        assert lp_lower_bound(prog(3, (0, 1), (1, 2), (0, 2))) == pytest.approx(1.5, abs=1e-9)

    def test_empty_program(self):
        assert lp_lower_bound(prog(4)) == 0.0

    def test_never_exceeds_ilp(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            program = random_program(rng)
            bound = lp_lower_bound(program)
            objective, _ = brute_force_oracle(program)
            assert bound <= objective + 1e-6


def lp_vertex_oracle(program, rhs=None, upper=True):
    """Independent covering-LP oracle: enumerate vertices of the polytope
    {A z >= rhs, 0 <= z (<= 1 with ``upper``)} as intersections of n tight
    constraints. ``rhs`` defaults to all ones."""
    n = program.num_vars
    rhs = [1.0] * program.num_constraints if rhs is None else [float(b) for b in rhs]
    rows = [np.array([1.0 if i in c else 0.0 for i in range(n)]) for c in program.constraints]
    rhs_rows = list(rhs)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows.append(e.copy())
        rhs_rows.append(0.0)
        if upper:
            rows.append(e)
            rhs_rows.append(1.0)
    best = math.inf
    for combo in itertools.combinations(range(len(rows)), n):
        A = np.array([rows[k] for k in combo])
        b = np.array([rhs_rows[k] for k in combo])
        if abs(np.linalg.det(A)) < 1e-9:
            continue
        z = np.linalg.solve(A, b)
        if (z < -1e-9).any() or (upper and (z > 1 + 1e-9).any()):
            continue
        feasible = all(
            sum(z[i] for i in c) >= b_c - 1e-9 for c, b_c in zip(program.constraints, rhs)
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

    def test_weighted_right_hand_sides(self):
        # right-hand sides 1 to 3, as cut rows carry them; the kernel drops
        # z <= 1, which only relaxes the LP
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 25:
            p = int(rng.integers(2, 6))
            cons = sorted({
                tuple(sorted(rng.choice(p, int(rng.integers(1, p + 1)), replace=False).tolist()))
                for _ in range(int(rng.integers(1, 5)))
            })
            program = prog(p, *cons)
            rhs = rng.integers(1, 4, size=len(cons))
            rhs = np.minimum(rhs, [len(c) for c in cons])  # every row stays satisfiable
            got, _ = _lp(p, *program.cons_csr, rhs)
            assert got == pytest.approx(lp_vertex_oracle(program, rhs, upper=False), abs=1e-7), (cons, rhs)
            assert got <= lp_vertex_oracle(program, rhs) + 1e-7
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
            assert lp_lower_bound(program) - 1e-6 <= res.objective

    def test_determinism(self):
        rng = np.random.default_rng(31)
        program = random_program(rng, max_vars=14, max_cons=25)
        a = solve_exact(program)
        b = solve_exact(program)
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
        # three disjoint odd cycles: LP 4.5 vs ILP 6 needs several nodes; the
        # implied four-variable constraint keeps the program on the LP path
        program = prog(
            9,
            (0, 1), (1, 2), (0, 2),
            (3, 4), (4, 5), (3, 5),
            (6, 7), (7, 8), (6, 8),
            (0, 1, 2, 3),
        )
        res = solve_exact(program, SolverConfig(node_budget=1))
        assert not res.optimal
        check_feasible(program, res.labels)
        assert res.lower_bound <= res.objective
        assert res.objective >= 6  # incumbent is feasible, optimum is 6

    def test_failed_node_lp_does_not_abort(self, monkeypatch):
        # every LP after the root stops at its iteration cap: the first cut
        # round's LP (root gap 1.5; {0, 1, 2, 3, 4} has h = 3) ends the cut
        # rounds, the nodes keep their parent's bound and the search still
        # certifies
        real = _kernels.packing_simplex
        calls = []

        def flaky(n_rows, n_cols, indptr, indices, cost, tol, max_iter):
            calls.append(n_cols)
            status, obj, z, it = real(n_rows, n_cols, indptr, indices, cost, tol, max_iter)
            return (status if len(calls) == 1 else _kernels.LP_ITERATION_LIMIT), obj, z, it

        monkeypatch.setattr(_kernels, "packing_simplex", flaky)
        program = prog(
            9,
            (0, 1), (1, 2), (0, 2),
            (3, 4), (4, 5), (3, 5),
            (6, 7), (7, 8), (6, 8),
            (0, 1, 2, 3),
        )
        res = solve_exact(program)
        assert len(calls) > 1
        assert calls[1] > calls[0]  # the cut round's LP, with its cut columns
        assert res.optimal
        assert res.objective == 6
        assert res.lower_bound == 6
        check_feasible(program, res.labels)


def ref_cut_candidates(program):
    """``{U: h(U)}`` over every union ``U`` of two constraints sharing a
    variable with 5 to 7 members and ``h(U) >= 2``, by plain enumeration:
    ``h(U)`` is the size of the smallest subset of ``U`` meeting every
    constraint inside ``U``."""
    cons = [frozenset(c) for c in program.constraints]
    out = {}
    for c, d in itertools.permutations(cons, 2):
        u = c | d
        if not (c & d and 5 <= len(u) <= 7):
            continue
        inside = [e for e in cons if e <= u]
        h = next(k for k in range(len(u) + 1) for t in itertools.combinations(sorted(u), k)
                 if all(e & set(t) for e in inside))
        if h >= 2:
            out[tuple(sorted(u))] = h
    return out


def all_covers(program):
    """Every 0-1 cover of a program, one row per cover."""
    p = program.num_vars
    z = (np.arange(1 << p)[:, None] >> np.arange(p)) & 1
    feasible = np.ones(len(z), dtype=bool)
    for c in program.constraints:
        feasible &= z[:, list(c)].any(axis=1)
    return z[feasible]


def cut_programs():
    """Thirty seeded {1, 2, 4}-programs of 8 to 14 variables with cut
    candidates, mostly of four-variable constraints, as template programs
    are."""
    rng = np.random.default_rng(2027)
    programs = []
    while len(programs) < 30:
        p = int(rng.integers(8, 15))
        cons = set()
        for _ in range(int(rng.integers(p, 4 * p))):
            size = int(rng.choice([1, 2, 4, 4, 4, 4, 4, 4]))
            cons.add(tuple(sorted(rng.choice(p, size, replace=False).tolist())))
        program = prog(p, *sorted(cons))
        if len(_cut_candidates(program)[1]):
            programs.append(program)
    return programs


def cut_list(program):
    sets, h = _cut_candidates(program)
    return [(tuple(int(v) for v in row if v != program.num_vars), int(k)) for row, k in zip(sets, h)]


class TestCuts:
    def test_candidates_match_enumeration(self):
        for program in cut_programs():
            got = cut_list(program)
            assert dict(got) == ref_cut_candidates(program), program.constraints
            assert len(dict(got)) == len(got)  # each set once

    def test_candidates_past_255_variables(self):
        # uint16 rows, and a nine-member constraint that no set can hold
        for program in cut_programs()[:10]:
            shifted = [tuple(v + 290 for v in c) for c in program.constraints]
            wide = prog(program.num_vars + 290, tuple(range(285, 294)), *shifted)
            assert _cut_candidates(wide)[0].dtype == np.uint16
            got = cut_list(wide)
            assert dict(got) == ref_cut_candidates(wide), program.constraints
            assert len(dict(got)) == len(got)

    def test_every_cover_satisfies_every_cut(self):
        for program in cut_programs():
            covers = all_covers(program)
            for u, h in cut_list(program):
                assert (covers[:, list(u)].sum(axis=1) >= h).all(), (program.constraints, u, h)

    def test_cut_lp_between_plain_lp_and_optimum(self):
        raised = 0
        for program in cut_programs():
            rows = (*program.cons_csr, np.ones(program.num_constraints, dtype=np.int64))
            plain, z = _lp(program.num_vars, *rows)
            # an incumbent above every bound keeps the rounds from stopping early
            _, bound, _ = _cut_rounds(program, rows, plain, z, program.num_vars + 1)
            optimum, _ = brute_force_oracle(program)
            assert plain <= bound <= optimum + 1e-6
            raised += bound > plain + 1e-6
        assert raised >= 5

    def test_residual_of_a_cut(self):
        # the constraint (0, 1) with rhs 1, then the cut z0 + ... + z4 >= 3
        rows = (np.array([0, 2, 7]), np.array([0, 1, 0, 1, 2, 3, 4]), np.array([1, 3]))

        def residual(ones=(), zeros=()):
            masks = np.zeros((2, 6), dtype=bool)
            masks[0, list(ones)] = masks[1, list(zeros)] = True
            return _residual(rows, 1, *masks)

        # a fixed outlier covers the constraint and lowers the cut's rhs
        free_ids, indptr, indices, rhs, n = residual(ones=[0])
        assert (free_ids.tolist(), indptr.tolist(), indices.tolist(), rhs.tolist(), n) == (
            [1, 2, 3, 4, 5], [0, 4], [0, 1, 2, 3], [2], 0
        )
        # a fixed inlier leaves both rows, without itself
        free_ids, indptr, indices, rhs, n = residual(zeros=[2])
        assert (free_ids.tolist(), indptr.tolist(), indices.tolist(), rhs.tolist(), n) == (
            [0, 1, 3, 4, 5], [0, 2, 6], [0, 1, 0, 1, 2, 3], [1, 3], 1
        )
        # three fixed outliers meet the cut: it is dropped
        free_ids, indptr, indices, rhs, n = residual(ones=[0, 2, 4])
        assert (indptr.tolist(), indices.tolist(), rhs.tolist(), n) == ([0], [], [], 0)
        # three fixed inliers leave two free members for an rhs of 3
        assert residual(zeros=[1, 2, 3]) is None


def random_pair_program(rng, min_vars, max_vars, pairs_per_var):
    """Constraint sizes {1, 2}, as the isometric path compiles them."""
    p = int(rng.integers(min_vars, max_vars + 1))
    cons = set()
    for _ in range(int(rng.integers(1, int(pairs_per_var * p) + 2))):
        cons.add(tuple(sorted(rng.choice(p, 2, replace=False).tolist())))
    for _ in range(int(rng.integers(0, 3))):
        cons.add((int(rng.integers(p)),))
    return prog(p, *sorted(cons))


def optimal_cover_count(program, objective):
    """Number of feasible label vectors with ``objective`` outliers."""
    p = program.num_vars
    z = (np.arange(1 << p)[:, None] >> np.arange(p)) & 1
    feasible = np.ones(len(z), dtype=bool)
    for c in program.constraints:
        feasible &= z[:, list(c)].any(axis=1)
    return int((feasible & (z.sum(axis=1) == objective)).sum())


def check_trace(trace, optimal):
    """Criterion 4's checks: upper never rises, lower never falls, open
    counts are non-negative, and a certified solve closes the unit gap."""
    uppers = [e.upper_bound for e in trace]
    lowers = [e.lower_bound for e in trace]
    assert all(a >= b for a, b in zip(uppers, uppers[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(lowers, lowers[1:]))
    assert all(e.open_nodes >= 0 for e in trace)
    if optimal:
        assert trace[-1].upper_bound == math.ceil(trace[-1].lower_bound - 1e-7)


class TestCliquePath:
    def test_labels_equal_oracle(self):
        # lexicographically smallest optimum, also where optima tie
        rng = np.random.default_rng(41)
        ties = 0
        for _ in range(240):
            program = random_pair_program(rng, 2, 12, 1.5)
            objective, labels = brute_force_oracle(program)
            res = solve_exact(program)
            assert res.optimal and res.objective == objective
            assert res.lower_bound == objective
            assert res.labels == labels, program.constraints
            check_trace(res.trace, res.optimal)
            ties += optimal_cover_count(program, objective) > 1
        assert ties >= 100

    def test_matches_lp_bnb(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            program = random_pair_program(rng, 40, 80, 1.5)
            clique = solve_exact(program)
            lp = _solve_lp_bnb(program)
            assert (clique.objective, clique.lower_bound, clique.optimal) == (
                lp.objective, lp.lower_bound, lp.optimal
            )
            assert lp.optimal
            check_feasible(program, clique.labels)

    def test_node_budget_on_five_cycles(self):
        # conflicts on three disjoint 5-cycles: every 5-cycle needs three
        # colours but holds no clique of three compatible matches, so the
        # colouring bound is not tight (root bound 6, optimum 9)
        cycles = [(b + i, b + (i + 1) % 5) for b in (0, 5, 10) for i in range(5)]
        program = prog(15, *sorted(tuple(sorted(c)) for c in cycles))
        full = solve_exact(program)
        assert full.optimal and full.objective == 9
        assert full.trace[0].lower_bound == 6
        res = solve_exact(program, SolverConfig(node_budget=1))
        assert not res.optimal
        check_feasible(program, res.labels)
        assert res.lower_bound <= res.objective
        assert res.objective == res.labels.num_outliers
        check_trace(res.trace, res.optimal)

    def test_isometric_exact_makes_no_lp_calls(self, monkeypatch):
        from consmax.isometric import IsometryConfig, shape_registration
        from consmax.synth import SynthSpec, synth_isometric_instance

        real = _kernels.packing_simplex
        calls = []

        def counted(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(_kernels, "packing_simplex", counted)
        spec = SynthSpec(kind="isometric-grid", n_points=64, outlier_ratio=0.5, seed=3)
        source, target, matches = synth_isometric_instance(spec)
        labels, results = shape_registration(source, target, matches, IsometryConfig(mode="exact"))
        assert calls == []
        assert all(r.optimal for r in results)
        assert labels == matches.gt_labels
        shape_registration(source, target, matches, IsometryConfig(mode="relaxed"))
        assert calls


def pinned_lp_bnb_programs():
    """Forty seeded programs of constraint sizes {1, 2, 4}, biased towards
    pairs so that many of them branch, plus the odd-cycle programs above."""
    rng = np.random.default_rng(2024)
    programs = []
    for _ in range(40):
        p = int(rng.integers(8, 33))
        cons = set()
        for _ in range(int(rng.integers(p, 3 * p))):
            size = min(int(rng.choice([1, 2, 2, 2, 2, 2, 2, 2, 4, 4, 4, 4])), p)
            cons.add(tuple(sorted(rng.choice(p, size, replace=False).tolist())))
        programs.append(prog(p, *sorted(cons)))
    programs.append(prog(6, (0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    programs.append(
        prog(
            9,
            (0, 1), (1, 2), (0, 2),
            (3, 4), (4, 5), (3, 5),
            (6, 7), (7, 8), (6, 8),
            (0, 1, 2, 3),
        )
    )
    return programs


class TestLpBnbPinned:
    # sha256 over every _solve_lp_bnb result on pinned_lp_bnb_programs():
    # labels, objective, repr(lower_bound), optimal and each trace row, then
    # the same for a node_budget=2 stop on the last program. It pins node
    # order, bounds and incumbents; re-record it only for a deliberate change
    # of the search.
    DIGEST = "1b54de520ba38acf9a1ebd9c587567f95782f04088ebc56407a5e9b2bd44a566"

    def test_results_unchanged(self):
        programs = pinned_lp_bnb_programs()
        runs = [(program, SolverConfig()) for program in programs]
        runs.append((programs[-1], SolverConfig(node_budget=2)))
        h = hashlib.sha256()
        for program, config in runs:
            res = _solve_lp_bnb(program, config)
            h.update(res.labels.z.tobytes())
            h.update(f"|{res.objective}|{res.lower_bound!r}|{res.optimal}\n".encode())
            for e in res.trace:
                h.update(f"{e.iteration},{e.upper_bound},{e.lower_bound!r},{e.open_nodes}\n".encode())
        assert h.hexdigest() == self.DIGEST

    def test_one_residual_per_evaluated_node(self, monkeypatch):
        # the root, then two children per expanded node: one residual each
        calls = []

        def counted(*args):
            calls.append(1)
            return _residual(*args)

        monkeypatch.setattr(solver, "_residual", counted)
        deepest = 0
        for program in pinned_lp_bnb_programs():
            calls.clear()
            expanded = len(_solve_lp_bnb(program).trace) - 2  # less the root and final rows
            assert len(calls) == 1 + 2 * expanded
            deepest = max(deepest, expanded)
        assert deepest >= 2


class TestSolveRoutesPinned:
    # sha256 over every result of the other routes: solve_exact on forty
    # seeded {1, 2}-programs (the clique route), the same programs stopped
    # by node_budget 1, 2 and 5, solve_relaxed on twenty seeded
    # {1, 2, 4}-programs, and the empty program through both solvers. Each
    # result adds its labels, objective, repr(lower_bound), optimal,
    # violated_constraints and every trace row. Re-record it only for a
    # deliberate change of a route's output.
    DIGEST = "7b4cb1834ad7b7929a2f00696bab8f0a21ae911859811d38eab1cd3a60278950"

    def test_results_unchanged(self):
        rng = np.random.default_rng(2026)
        pair_programs = [random_pair_program(rng, 10, 40, 1.5) for _ in range(40)]
        runs = [(solve_exact, program, SolverConfig()) for program in pair_programs]
        for budget in (1, 2, 5):
            runs += [(solve_exact, program, SolverConfig(node_budget=budget)) for program in pair_programs]
        runs += [(solve_relaxed, random_program(rng), SolverConfig()) for _ in range(20)]
        runs += [(solve, prog(5), SolverConfig()) for solve in (solve_exact, solve_relaxed)]
        h = hashlib.sha256()
        for solve, program, config in runs:
            res = solve(program, config)
            h.update(res.labels.z.tobytes())
            h.update(
                f"|{res.objective}|{res.lower_bound!r}|{res.optimal}|{res.violated_constraints}\n".encode()
            )
            for e in res.trace:
                h.update(f"{e.iteration},{e.upper_bound},{e.lower_bound!r},{e.open_nodes}\n".encode())
        assert h.hexdigest() == self.DIGEST


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
            SolverConfig(time_budget=float("nan"))


class TestInstanceFormat:
    def test_trace_round_trip(self, tmp_path):
        res = solve_exact(prog(3, (0, 1), (1, 2)))
        path = tmp_path / "trace.csv"
        emit_traces([ClusterReport(np.arange(3), False, res)], path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "upper", "lower", "open_nodes"]
        back = [(int(i), int(u), float(lo), int(n)) for i, u, lo, n in rows[1:]]
        assert back == [
            (e.iteration, e.upper_bound, e.lower_bound, e.open_nodes) for e in res.trace
        ]
