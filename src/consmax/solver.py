"""Exact and relaxed solvers for the 0-1 covering program.

``solve_exact`` runs Branch and Bound: best-first search on LP lower bounds,
greedy-cover incumbents, branching on the variable hitting the most
unsatisfied constraints, and a unit-gap optimality certificate (the objective
is integral, so ``UB - LB < 1 - tol`` proves optimality). ``solve_relaxed``
solves the LP relaxation once and rounds at 0.5.

The LP sub-solver lives in :mod:`consmax._kernels` (revised simplex on the
packing dual); this module owns search, bookkeeping and the instance/trace
file formats.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from . import _kernels
from .core import INLIER, OUTLIER, CoveringProgram, LabelVector, var_incidence
from .errors import InfeasibleNode, InvalidArgument, LpNotConverged, TooLarge

_BRUTE_FORCE_LIMIT = 24
_BRUTE_FORCE_CHUNK = 1 << 20


@dataclass(frozen=True)
class SolverConfig:
    time_budget: float = 300.0
    node_budget: int = 10_000_000
    lp_tolerance: float = 1e-7
    trace_enabled: bool = True

    def __post_init__(self):
        if self.time_budget <= 0 or self.node_budget <= 0:
            raise InvalidArgument("budgets must be positive")
        if not (0.0 < self.lp_tolerance < 1e-3):
            raise InvalidArgument("lp_tolerance must lie in (0, 1e-3)")


@dataclass(frozen=True)
class TraceEntry:
    iteration: int
    upper_bound: int
    lower_bound: float
    open_nodes: int


@dataclass
class SolverResult:
    labels: LabelVector
    objective: int
    lower_bound: float
    optimal: bool
    trace: list
    wall_time: float
    violated_constraints: int = 0


def _lp_max_iter(n_rows: int, n_cols: int) -> int:
    return 10_000 + 40 * n_rows + 4 * n_cols


class _Instance:
    """Residual-program views over one CoveringProgram."""

    def __init__(self, program: CoveringProgram):
        self.program = program
        self.p = program.num_vars
        self.cons_indptr, self.cons_indices = program.cons_csr
        self.n_cons = program.num_constraints
        self.seg = self.cons_indptr[:-1]

    def residual(self, ones_mask: np.ndarray, zeros_mask: np.ndarray):
        """Restrict to constraints not covered by fixed outliers, dropping
        fixed-inlier variables. Returns None when some constraint has every
        variable fixed to inlier (infeasible node), otherwise a dict with
        local CSR arrays over the remaining free variables.
        """
        idx = self.cons_indices
        if self.n_cons == 0:
            free_ids = np.nonzero(~(ones_mask | zeros_mask))[0]
            return {
                "free_ids": free_ids,
                "cons_indptr": np.zeros(1, dtype=np.int64),
                "cons_indices": np.empty(0, dtype=np.int64),
                "n_cons": 0,
            }
        covered = np.add.reduceat(ones_mask[idx].astype(np.int64), self.seg) > 0
        keep_cons = ~covered
        elem_cons = np.repeat(keep_cons, np.diff(self.cons_indptr))
        elem_free = ~(ones_mask[idx] | zeros_mask[idx])
        elem_keep = elem_cons & elem_free
        sizes = np.add.reduceat(elem_keep.astype(np.int64), self.seg)
        if (sizes[keep_cons] == 0).any():
            return None
        kept_sizes = sizes[keep_cons]
        n_kept = int(keep_cons.sum())
        new_indptr = np.zeros(n_kept + 1, dtype=np.int64)
        np.cumsum(kept_sizes, out=new_indptr[1:])
        kept_vars = idx[elem_keep]
        free_mask = ~(ones_mask | zeros_mask)
        free_ids = np.nonzero(free_mask)[0]
        remap = np.full(self.p, -1, dtype=np.int64)
        remap[free_ids] = np.arange(len(free_ids), dtype=np.int64)
        return {
            "free_ids": free_ids,
            "cons_indptr": new_indptr,
            "cons_indices": remap[kept_vars],
            "n_cons": n_kept,
        }


def _residual_lp(res, tolerance):
    n_rows = len(res["free_ids"])
    n_cols = res["n_cons"]
    if n_cols == 0:
        return 0.0, np.zeros(n_rows)
    status, obj, z, _ = _kernels.packing_simplex(
        n_rows, n_cols, res["cons_indptr"], res["cons_indices"],
        tolerance, _lp_max_iter(n_rows, n_cols),
    )
    if status != _kernels.LP_OPTIMAL:
        raise LpNotConverged(f"LP sub-solver status {status}")
    return float(obj), z


def _residual_greedy(res, polish: bool = False):
    n_free = len(res["free_ids"])
    if res["n_cons"] == 0:
        return np.zeros(n_free, dtype=np.int8)
    var_indptr, var_cons = var_incidence(n_free, res["cons_indptr"], res["cons_indices"])
    picks = _kernels.greedy_pick(
        n_free, res["cons_indptr"], res["cons_indices"], var_indptr, var_cons
    )
    if polish:
        _drop_redundant_picks(picks, res["cons_indptr"], res["cons_indices"], var_indptr, var_cons)
    return picks


def _drop_redundant_picks(picks, cons_indptr, cons_indices, var_indptr, var_cons):
    """Remove picks whose constraints are all covered twice over (greedy
    covers often carry a few); scan order is ascending variable index."""
    cover = np.zeros(len(cons_indptr) - 1, dtype=np.int64)
    picked_elem = picks[cons_indices] == 1
    np.add.at(cover, np.repeat(np.arange(len(cons_indptr) - 1), np.diff(cons_indptr)), picked_elem)
    for v in np.nonzero(picks == 1)[0]:
        cons = var_cons[var_indptr[v]:var_indptr[v + 1]]
        if (cover[cons] >= 2).all():
            picks[v] = 0
            cover[cons] -= 1


def _masks_from_fixed(p: int, fixed: Optional[Mapping[int, int]]):
    ones = np.zeros(p, dtype=bool)
    zeros = np.zeros(p, dtype=bool)
    if fixed:
        for k, v in fixed.items():
            if not 0 <= int(k) < p:
                raise InvalidArgument(f"fixed index {k} out of range")
            if v == OUTLIER:
                ones[int(k)] = True
            elif v == INLIER:
                zeros[int(k)] = True
            else:
                raise InvalidArgument("fixed values must be 0 or 1")
    return ones, zeros


def greedy_cover(program: CoveringProgram, fixed: Optional[Mapping[int, int]] = None) -> LabelVector:
    """Feasible cover: repeatedly mark as outlier the free variable hitting
    the most unsatisfied constraints (ties toward the lowest index),
    respecting the partial assignment in ``fixed``.
    """
    ones, zeros = _masks_from_fixed(program.num_vars, fixed)
    res = _Instance(program).residual(ones, zeros)
    if res is None:
        raise InfeasibleNode("a constraint has all variables fixed to inlier")
    picks = _residual_greedy(res)
    z = np.zeros(program.num_vars, dtype=np.int8)
    z[ones] = OUTLIER
    z[res["free_ids"][picks == 1]] = OUTLIER
    return LabelVector(z)


def lp_lower_bound(
    program: CoveringProgram,
    fixed: Optional[Mapping[int, int]] = None,
    tolerance: float = 1e-7,
) -> float:
    """Optimum of the residual LP relaxation plus the count of variables
    already fixed to outlier; never exceeds the residual integer optimum.
    """
    ones, zeros = _masks_from_fixed(program.num_vars, fixed)
    res = _Instance(program).residual(ones, zeros)
    if res is None:
        raise InfeasibleNode("a constraint has all variables fixed to inlier")
    obj, _ = _residual_lp(res, tolerance)
    return float(ones.sum()) + obj


def brute_force_oracle(program: CoveringProgram) -> tuple[int, LabelVector]:
    """Exhaustive minimum over all 2^p assignments (p <= 24).

    Returns the optimal objective and the lexicographically smallest optimal
    label vector (z[0] is the most significant position).
    """
    p = program.num_vars
    if p > _BRUTE_FORCE_LIMIT:
        raise TooLarge(f"brute force limited to {_BRUTE_FORCE_LIMIT} variables, got {p}")
    # bit (p-1-i) encodes z[i], so numeric order equals lexicographic order
    masks = np.array(
        [sum(1 << (p - 1 - i) for i in c) for c in program.constraints],
        dtype=np.uint32,
    )
    best_count, best_key = p + 1, None
    for lo in range(0, 1 << p, _BRUTE_FORCE_CHUNK):
        hi = min(lo + _BRUTE_FORCE_CHUNK, 1 << p)
        arr = np.arange(lo, hi, dtype=np.uint32)
        feasible = np.ones(arr.shape, dtype=bool)
        for m in masks:
            feasible &= (arr & m) != 0
        if not feasible.any():
            continue
        cand = arr[feasible]
        counts = np.bitwise_count(cand)
        cmin = int(counts.min())
        if cmin < best_count:
            best_count = cmin
            best_key = int(cand[counts == cmin].min())
        elif cmin == best_count:
            key = int(cand[counts == cmin].min())
            if key < best_key:
                best_key = key
    z = np.array([(best_key >> (p - 1 - i)) & 1 for i in range(p)], dtype=np.int8)
    return best_count, LabelVector(z)


def _trivial_result(p: int, trace_enabled: bool, t0: float) -> SolverResult:
    trace = [TraceEntry(0, 0, 0.0, 0)] if trace_enabled else []
    return SolverResult(
        labels=LabelVector.all_inlier(p),
        objective=0,
        lower_bound=0.0,
        optimal=True,
        trace=trace,
        wall_time=time.perf_counter() - t0,
    )


def solve_exact(program: CoveringProgram, config: SolverConfig = SolverConfig()) -> SolverResult:
    """Globally optimal solution of the covering program by Branch and Bound.

    Best-first on lower bounds; the branch variable is the free variable in
    the most unsatisfied constraints (ties toward the lowest index), with the
    z=1 child queued before the z=0 child. Node bounds come from the residual
    LP relaxation; incumbents from greedy covers. A child whose LP does not
    converge keeps its parent's bound, or its count of fixed outliers when
    that is larger; a root LP that does not converge gives the bound 0.
    Returns the best incumbent with ``optimal=False`` when a budget runs out
    first.
    """
    t0 = time.perf_counter()
    tol = config.lp_tolerance
    p = program.num_vars
    if program.num_constraints == 0:
        return _trivial_result(p, config.trace_enabled, t0)
    inst = _Instance(program)
    trace: list[TraceEntry] = []

    def full_labels(ones_mask, res, picks):
        z = np.zeros(p, dtype=np.int8)
        z[ones_mask] = OUTLIER
        z[res["free_ids"][picks == 1]] = OUTLIER
        return z

    def lp_bound(res):
        # a node whose LP stops without an optimum keeps the trivial residual
        # bound 0, so one bad LP weakens a bound instead of aborting the solve
        try:
            return _residual_lp(res, tol)[0]
        except LpNotConverged:
            return 0.0

    ones0 = np.zeros(p, dtype=bool)
    zeros0 = np.zeros(p, dtype=bool)
    res0 = inst.residual(ones0, zeros0)
    picks0 = _residual_greedy(res0, polish=True)
    incumbent = full_labels(ones0, res0, picks0)
    upper = int(incumbent.sum())
    root_lb = lp_bound(res0)
    global_lb = min(root_lb, float(upper))
    if config.trace_enabled:
        trace.append(TraceEntry(0, upper, global_lb, 1))

    optimal = False
    budget_hit = False
    heap: list = []
    if upper - global_lb < 1.0 - tol:
        optimal = True
    else:
        # heap entries: (bound, insertion counter, ones tuple, zeros tuple)
        heap = [(root_lb, 0, (), ())]
        counter = 1
        iteration = 0
        while heap:
            bound, _, ones_t, zeros_t = heapq.heappop(heap)
            iteration += 1
            global_lb = max(global_lb, min(bound, float(upper)))
            if bound >= upper - 1.0 + tol:
                optimal = True  # best-first: every open node is at least this bound
                break
            if iteration > config.node_budget or time.perf_counter() - t0 > config.time_budget:
                budget_hit = True
                heapq.heappush(heap, (bound, -1, ones_t, zeros_t))
                break
            ones_mask = ones0.copy()
            zeros_mask = zeros0.copy()
            if ones_t:
                ones_mask[list(ones_t)] = True
            if zeros_t:
                zeros_mask[list(zeros_t)] = True
            res = inst.residual(ones_mask, zeros_mask)
            if res is None or res["n_cons"] == 0:
                # leaf or infeasible; both were handled when the node was queued
                continue
            counts = np.bincount(res["cons_indices"], minlength=len(res["free_ids"]))
            branch_local = int(np.argmax(counts))
            branch_var = int(res["free_ids"][branch_local])
            for child_val in (OUTLIER, INLIER):
                if child_val == OUTLIER:
                    c_ones, c_zeros = ones_t + (branch_var,), zeros_t
                    ones_mask[branch_var] = True
                    c_res = inst.residual(ones_mask, zeros_mask)
                    ones_mask[branch_var] = False
                else:
                    c_ones, c_zeros = ones_t, zeros_t + (branch_var,)
                    zeros_mask[branch_var] = True
                    c_res = inst.residual(ones_mask, zeros_mask)
                    zeros_mask[branch_var] = False
                if c_res is None:
                    continue
                n_fixed_out = len(c_ones)
                if c_res["n_cons"] == 0:
                    if n_fixed_out < upper:
                        z = np.zeros(p, dtype=np.int8)
                        z[list(c_ones)] = OUTLIER
                        incumbent, upper = z, n_fixed_out
                    continue
                picks = _residual_greedy(c_res, polish=True)
                cand = n_fixed_out + int(picks.sum())
                if cand < upper:
                    om = ones0.copy()
                    om[list(c_ones)] = True
                    incumbent = full_labels(om, c_res, picks)
                    upper = cand
                child_bound = max(bound, n_fixed_out + lp_bound(c_res))
                if child_bound < upper - 1.0 + tol:
                    heapq.heappush(heap, (child_bound, counter, c_ones, c_zeros))
                    counter += 1
            if config.trace_enabled:
                trace.append(TraceEntry(iteration, upper, global_lb, len(heap)))
        else:
            optimal = True  # queue exhausted: incumbent proven optimal
        if budget_hit:
            optimal = False

    if optimal:
        # the proven bound equals the optimum; report it so that
        # ceil(lower_bound - tol) == objective holds exactly
        global_lb = float(upper)
    if config.trace_enabled:
        trace.append(
            TraceEntry(
                (trace[-1].iteration + 1) if trace else 0,
                upper,
                global_lb,
                0 if optimal else len(heap),
            )
        )
    return SolverResult(
        labels=LabelVector(incumbent),
        objective=upper,
        lower_bound=global_lb,
        optimal=optimal,
        trace=trace,
        wall_time=time.perf_counter() - t0,
    )


def solve_relaxed(program: CoveringProgram, config: SolverConfig = SolverConfig()) -> SolverResult:
    """LP relaxation of the covering program with 0.5-rounding.

    ``lower_bound`` is the fractional LP optimum; ``objective`` counts the
    rounded outlier labels (which need not satisfy every constraint --
    ``violated_constraints`` reports how many are missed). ``optimal`` flags
    LP convergence, not integer optimality.
    """
    t0 = time.perf_counter()
    p = program.num_vars
    if program.num_constraints == 0:
        return _trivial_result(p, config.trace_enabled, t0)
    indptr, indices = program.cons_csr
    status, obj, z, iters = _kernels.packing_simplex(
        p, program.num_constraints, indptr, indices,
        config.lp_tolerance, _lp_max_iter(p, program.num_constraints),
    )
    if status == _kernels.LP_ITERATION_LIMIT:
        raise LpNotConverged(f"simplex hit the iteration cap after {iters} pivots")
    if status != _kernels.LP_OPTIMAL:
        raise LpNotConverged(f"unexpected LP status {status}")
    labels = np.where(z >= 0.5, OUTLIER, INLIER).astype(np.int8)
    covered = np.add.reduceat(labels[indices] == OUTLIER, indptr[:-1]) > 0
    violated = int((~covered).sum())
    objective = int(labels.sum())
    trace = []
    if config.trace_enabled:
        trace.append(TraceEntry(0, objective, float(obj), 0))
    return SolverResult(
        labels=LabelVector(labels),
        objective=objective,
        lower_bound=float(obj),
        optimal=True,
        trace=trace,
        wall_time=time.perf_counter() - t0,
        violated_constraints=violated,
    )


# ---------------------------------------------------------------------------
# Instance and trace file formats
# ---------------------------------------------------------------------------

def save_program(program: CoveringProgram, path) -> None:
    """Instance text format: first line ``p c``, then one line per constraint
    listing its variable indices 1-based."""
    lines = [f"{program.num_vars} {program.num_constraints}"]
    for c in program.constraints:
        lines.append(" ".join(str(i + 1) for i in c))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_program(path) -> CoveringProgram:
    from .errors import MalformedInput

    with open(path, "r", encoding="ascii") as fh:
        raw = fh.read().splitlines()
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(raw) if ln.strip()]
    if not lines:
        raise MalformedInput("empty instance file", str(path), 1)
    lineno, header = lines[0]
    try:
        p, c = (int(tok) for tok in header.split())
    except ValueError:
        raise MalformedInput("header must be 'p c'", str(path), lineno) from None
    if len(lines) - 1 != c:
        raise MalformedInput(f"expected {c} constraint lines, found {len(lines) - 1}", str(path), lineno)
    constraints = []
    for lineno, ln in lines[1:]:
        try:
            idx = [int(tok) - 1 for tok in ln.split()]
        except ValueError:
            raise MalformedInput("constraint indices must be integers", str(path), lineno) from None
        if any(i < 0 or i >= p for i in idx):
            raise MalformedInput("constraint index out of range", str(path), lineno)
        constraints.append(tuple(sorted(set(idx))))
    return CoveringProgram(num_vars=p, constraints=tuple(constraints))


TRACE_HEADER = "iteration,upper,lower,open_nodes"


def save_trace(trace, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(TRACE_HEADER + "\n")
        for e in trace:
            fh.write(f"{e.iteration},{e.upper_bound},{e.lower_bound!r},{e.open_nodes}\n")


def load_trace(path) -> list:
    from .errors import MalformedInput

    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise MalformedInput(f"expected header '{TRACE_HEADER}'", str(path), 1)
    out = []
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split(",")
        if len(parts) != 4:
            raise MalformedInput("expected 4 comma-separated fields", str(path), lineno)
        try:
            out.append(
                TraceEntry(int(parts[0]), int(parts[1]), float(parts[2]), int(parts[3]))
            )
        except ValueError:
            raise MalformedInput("bad field type", str(path), lineno) from None
    return out
