import csv
import hashlib
import itertools
import math

import numpy as np
import pytest

from consmax import _kernels, solver
from consmax.core import ClusterReport, CoveringProgram, build_covering_program, kmeans_partition
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
from consmax.synth import SynthSpec, synth_template_instance
from consmax.template import TemplateMatchConfig, build_triangle_graph


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

    def test_time_budget_stops_before_root_cuts(self, monkeypatch):
        # the plain LP (4.5) does not certify the greedy incumbent, so the
        # root would build the cut table; a spent clock stops it first and
        # keeps the greedy cover and the plain LP bound
        program = prog(
            9,
            (0, 1), (1, 2), (0, 2),
            (3, 4), (4, 5), (3, 5),
            (6, 7), (7, 8), (6, 8),
            (0, 1, 2, 3),
        )
        assert len(_cut_candidates(program, stop=lambda: True)[1]) == 0

        def no_table(*args, **kwargs):
            raise AssertionError("cut table built past the time budget")

        monkeypatch.setattr(solver, "_cut_candidates", no_table)
        res = solve_exact(program, SolverConfig(time_budget=1e-9))
        assert not res.optimal
        assert res.lower_bound == lp_lower_bound(program) == 4.5
        assert res.objective >= 6
        check_feasible(program, res.labels)

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


def ref_cut_candidates(program, fewest=5, most=7):
    """``{U: h(U)}`` over every union ``U`` of two constraints sharing a
    variable with ``fewest`` to ``most`` members and ``h(U) >= 2``, by plain
    enumeration of every pair: ``h(U)`` is the size of the smallest subset
    of ``U`` meeting every constraint inside ``U``."""
    cons = [frozenset(c) for c in program.constraints]
    out = {}
    for c, d in itertools.permutations(cons, 2):
        u = c | d
        if not (c & d and fewest <= len(u) <= most):
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


def mixed_cut_programs():
    """Ten seeded programs of 9 to 12 variables with constraints of 1 to 7
    members, so that pairs of five- and six-member constraints reach the
    sets through their shared member pairs in both phases."""
    rng = np.random.default_rng(2028)
    programs = []
    for _ in range(10):
        p = int(rng.integers(9, 13))
        cons = {tuple(sorted(rng.choice(p, int(rng.integers(1, 8)), replace=False).tolist()))
                for _ in range(int(rng.integers(p, 3 * p)))}
        programs.append(prog(p, *sorted(cons)))
    return programs


# the whole table, phase 1 and phase 2
CUT_CALLS = (dict(), dict(most=6), dict(fewest=7))


def cut_list(program, **sizes):
    sets, h = _cut_candidates(program, **sizes)
    return [(tuple(int(v) for v in row if v != program.num_vars), int(k)) for row, k in zip(sets, h)]


def check_phases(program):
    """Each phase's table, and the whole table, against the enumeration
    restricted to its set sizes; the two phases make up the whole table."""
    whole = ref_cut_candidates(program)
    phases = [(dict(most=6), ref_cut_candidates(program, 5, 6)), (dict(fewest=7), ref_cut_candidates(program, 7, 7))]
    for sizes, ref in [(dict(), whole), *phases]:
        sets = _cut_candidates(program, **sizes)[0]
        assert sets.shape[1:] == (7,) and sets.dtype == np.min_scalar_type(program.num_vars)
        got = cut_list(program, **sizes)
        assert dict(got) == ref, (sizes, program.constraints)
        assert len(dict(got)) == len(got)  # each set once
        assert got == sorted(got, key=lambda row: row[0] + (program.num_vars,) * (7 - len(row[0])))
    assert phases[0][1] | phases[1][1] == whole


class TestCuts:
    def test_candidates_match_enumeration(self):
        # sets on fewer than 7 variables, then a program with no constraint
        # a set can hold: empty tables
        five = prog(5, (0, 1), (2, 3), (0, 2, 4), (1, 3, 4))
        six = prog(6, (0, 1, 2, 3), (1, 2, 3, 4), (0, 2, 3, 4), (0, 1, 3, 4), (2, 3, 4, 5), (0, 1, 4, 5))
        eight = prog(12, *(tuple(range(k, k + 8)) for k in range(5)))
        for program in cut_programs() + mixed_cut_programs() + [five, six, eight]:
            check_phases(program)
        assert [len(_cut_candidates(program)[1]) for program in (five, six, eight)] == [1, 1, 0]

    def test_candidates_past_255_variables(self):
        # uint16 rows, and a nine-member constraint that no set can hold
        for program in cut_programs()[:10]:
            shifted = [tuple(v + 290 for v in c) for c in program.constraints]
            wide = prog(program.num_vars + 290, tuple(range(285, 294)), *shifted)
            for sizes in (dict(), dict(most=6), dict(fewest=7)):
                assert _cut_candidates(wide, **sizes)[0].dtype == np.uint16
            check_phases(wide)

    def test_table_does_not_depend_on_block_or_chunk_size(self, monkeypatch, tpl_bend_c4_programs):
        # one-row blocks and one-pair chunks, then one block and one chunk
        # for the whole program. The tpl-bend-c4 programs list some 10^5
        # pairs, so with one-row blocks they take chunks of 97 pairs (a
        # prime, so that chunks straddle blocks) in place of one-pair chunks
        small, large = cut_programs() + mixed_cut_programs(), list(tpl_bend_c4_programs.values())
        tables = [[_cut_candidates(program, **sizes) for sizes in CUT_CALLS] for program in small + large]
        for block, chunks in ((1, [1] * len(small) + [97] * len(large)), (1 << 30, [1 << 30] * len(small + large))):
            monkeypatch.setattr(solver, "_BLOCK", block)
            for program, chunk, table in zip(small + large, chunks, tables):
                monkeypatch.setattr(solver, "_PAIR_CHUNK", chunk)
                for sizes, (sets, h) in zip(CUT_CALLS, table):
                    got_sets, got_h = _cut_candidates(program, **sizes)
                    assert got_sets.dtype == sets.dtype and np.array_equal(got_sets, sets), (block, sizes)
                    assert got_h.dtype == h.dtype and np.array_equal(got_h, h), (block, sizes)

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


@pytest.fixture(scope="module")
def tpl_bend_c4_programs():
    """The programs of the tpl-bend-c4 benchmark's clusters 0 and 3, the two
    whose root LP does not certify the greedy cover."""
    spec = SynthSpec(kind="template-bend", n_points=225, outlier_ratio=0.3, seed=2, bend_radius=2.0)
    template, image, K, matches = synth_template_instance(spec)
    cfg = TemplateMatchConfig(edges_per_point_cap=100, clusters=4)
    mt, mi = template[matches.pairs[:, 0]], image[matches.pairs[:, 1]]
    partition = kmeans_partition(mt, cfg.clusters, cfg.seed)
    return {
        c: build_covering_program(build_triangle_graph(mt[idx], mi[idx], K, cfg))
        for c, idx in ((c, partition.members(c)) for c in (0, 3))
    }


class TestCutPhases:
    @staticmethod
    def record(monkeypatch):
        """Wrap the table and the LP. Returns the event list: ``[fewest,
        most, sets found]`` per table, from the moment it starts (sets found
        None until it returns), and ``"lp"`` per LP."""
        events = []

        def table(program, **sizes):
            event = [sizes.get("fewest", 5), sizes.get("most", 7), None]
            events.append(event)
            sets, h = _cut_candidates(program, **sizes)
            event[2] = len(h)
            return sets, h

        def lp(*args):
            events.append("lp")
            return _lp(*args)

        monkeypatch.setattr(solver, "_cut_candidates", table)
        monkeypatch.setattr(solver, "_lp", lp)
        return events

    def test_cluster_0_certifies_without_phase_2(self, monkeypatch, tpl_bend_c4_programs):
        events = self.record(monkeypatch)
        res = solve_exact(tpl_bend_c4_programs[0])
        assert res.optimal and res.objective == 21
        assert len(res.trace) == 2  # the root row and the final row
        assert [e[:2] for e in events if e != "lp"] == [[5, 6]]

    def test_small_programs_build_phase_2_before_the_first_round(self, monkeypatch):
        # phase 1 offers fewer than _CUTS_PER_ROUND candidates at once
        rounds = 0
        for program in cut_programs():
            rows = (*program.cons_csr, np.ones(program.num_constraints, dtype=np.int64))
            plain, z = _lp(program.num_vars, *rows)
            events = self.record(monkeypatch)
            _cut_rounds(program, rows, plain, z, program.num_vars + 1)
            if "lp" in events:
                assert [e if e == "lp" else e[:2] for e in events[:3]] == [[5, 6], [7, 7], "lp"]
                rounds += 1
        assert rounds >= 5

    def test_stop_after_phase_1(self, monkeypatch, tpl_bend_c4_programs):
        # cluster 3 runs phase-1 rounds, then builds phase 2. A stop that
        # turns true before phase 2, at its first chunk or after that chunk
        # returns phase 1's rows, bound and z
        program = tpl_bend_c4_programs[3]
        rows = (*program.cons_csr, np.ones(program.num_constraints, dtype=np.int64))
        plain, z = _lp(program.num_vars, *rows)
        upper = program.num_vars + 1
        events = self.record(monkeypatch)
        _cut_rounds(program, rows, plain, z, upper)
        phase_2 = next(e for e in events if e != "lp" and e[0] == 7)
        k = events[:events.index(phase_2)].count("lp")
        assert k >= 1 and phase_2[2] > 0

        events = self.record(monkeypatch)
        first = _cut_rounds(program, rows, plain, z, upper, lambda: events.count("lp") >= k)
        assert events.count("lp") == k and [e[:2] for e in events if e != "lp"] == [[5, 6]]
        assert first[1] > plain
        for turn in (1, 2):
            events = self.record(monkeypatch)
            checks = []

            def stop():
                # true from the turn-th check once phase 2 has started
                checks.extend([1] if [7, 7] in [e[:2] for e in events if e != "lp"] else [])
                return len(checks) >= turn

            again = _cut_rounds(program, rows, plain, z, upper, stop)
            found = [e[2] for e in events if e != "lp" and e[0] == 7]
            assert events.count("lp") == k and len(found) == 1
            assert found[0] == 0 if turn == 1 else 0 < found[0] < phase_2[2]
            assert all(np.array_equal(a, b) for a, b in zip(again[0], first[0]))
            assert again[1] == first[1] and np.array_equal(again[2], first[2])


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
