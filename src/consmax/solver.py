"""Exact and relaxed solvers for the 0-1 covering program.

``solve_exact`` takes one of two routes, chosen by the program alone:

* Every constraint has at most two variables (the isometric path, s=1): a
  size-1 constraint fixes its variable to outlier, and the size-2
  constraints are the edges of a conflict graph, so the optimum is the
  number of variables in conflicts minus the maximum clique of the
  complement graph. A colouring-bound clique search (MCQ: greedy sequential
  colouring on bitset rows, Tomita & Kameda 2007) finds that clique; Python
  ints are the bitsets.
* Otherwise: Branch and Bound with best-first search on LP lower bounds,
  greedy-cover incumbents, branching on the variable hitting the most
  unsatisfied constraints, and a unit-gap optimality certificate (the
  objective is integral, so ``UB - LB < 1 - tol`` proves optimality).

``solve_relaxed`` solves the LP relaxation once and rounds at 0.5, on every
program. The LP sub-solver lives in :mod:`consmax._kernels` (revised simplex
on the packing dual). ``_lp`` is the one call of it here, ``_out_of_budget``
the one stop rule of both searches, and ``_finish`` the one exit of every
route: it writes the final trace row and builds the ``SolverResult``.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import INLIER, OUTLIER, CoveringProgram, LabelVector
from .errors import InvalidArgument, LpNotConverged, TooLarge

_BRUTE_FORCE_LIMIT = 24
_BRUTE_FORCE_CHUNK = 1 << 20


# simplex feasibility/optimality tolerance; the certificate closes a gap
# below ``1 - LP_TOLERANCE``
LP_TOLERANCE = 1e-7


@dataclass(frozen=True)
class SolverConfig:
    time_budget: float = 300.0
    node_budget: int = 10_000_000

    def __post_init__(self):
        if not (self.time_budget > 0 and self.node_budget > 0):
            raise InvalidArgument("budgets must be positive")


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


def _residual(program: CoveringProgram, ones_mask: np.ndarray, zeros_mask: np.ndarray):
    """Restrict a program with constraints to those not covered by fixed
    outliers, dropping fixed-inlier variables. Returns None when some
    constraint has every variable fixed to inlier (infeasible node),
    otherwise ``(free_ids, indptr, indices)``: the remaining free variables
    and the constraint CSR over their local ids.
    """
    cons_indptr, idx = program.cons_csr
    seg = cons_indptr[:-1]
    keep_cons = np.add.reduceat(ones_mask[idx].astype(np.int64), seg) == 0
    free_mask = ~(ones_mask | zeros_mask)
    elem_keep = np.repeat(keep_cons, np.diff(cons_indptr)) & free_mask[idx]
    kept_sizes = np.add.reduceat(elem_keep.astype(np.int64), seg)[keep_cons]
    if (kept_sizes == 0).any():
        return None
    indptr = np.concatenate(([0], np.cumsum(kept_sizes)))
    free_ids = np.nonzero(free_mask)[0]
    remap = np.full(program.num_vars, -1, dtype=np.int64)
    remap[free_ids] = np.arange(len(free_ids), dtype=np.int64)
    return free_ids, indptr, remap[idx[elem_keep]]


def _lp(n_rows: int, indptr, indices):
    """Optimum ``(objective, z)`` of the covering LP over ``n_rows``
    variables and the constraints ``(indptr, indices)``, or
    ``LpNotConverged``. The kernel is looked up at call time, so a profiler
    or a test can wrap it in place."""
    n_cols = len(indptr) - 1
    if n_cols == 0:
        return 0.0, np.zeros(n_rows)
    status, obj, z, pivots = _kernels.packing_simplex(
        n_rows, n_cols, indptr, indices, LP_TOLERANCE, _lp_max_iter(n_rows, n_cols),
    )
    if status != _kernels.LP_OPTIMAL:
        raise LpNotConverged(f"LP status {status} after {pivots} pivots")
    return float(obj), z


def lp_lower_bound(program: CoveringProgram) -> float:
    """Optimum of the LP relaxation; never exceeds the integer optimum."""
    return _lp(program.num_vars, *program.cons_csr)[0]


def brute_force_oracle(program: CoveringProgram) -> tuple[int, LabelVector]:
    """Exhaustive minimum over all 2^p assignments (p <= 24).

    Returns the optimal objective and the lexicographically smallest optimal
    label vector (z[0] is the most significant position).
    """
    p = program.num_vars
    if p > _BRUTE_FORCE_LIMIT:
        raise TooLarge(f"brute force limited to {_BRUTE_FORCE_LIMIT} variables, got {p}")
    # bit (p-1-i) encodes z[i], so numeric order equals lexicographic order
    indptr, indices = program.cons_csr
    masks = np.bitwise_or.reduceat(np.uint32(1) << (p - 1 - indices).astype(np.uint32), indptr[:-1])
    best_count, best_key = p + 1, None
    for lo in range(0, 1 << p, _BRUTE_FORCE_CHUNK):
        arr = np.arange(lo, min(lo + _BRUTE_FORCE_CHUNK, 1 << p), dtype=np.uint32)
        feasible = np.ones(arr.shape, dtype=bool)
        for m in masks:
            feasible &= (arr & m) != 0
        if not feasible.any():
            continue
        cand = arr[feasible]
        counts = np.bitwise_count(cand)
        cmin = int(counts.min())
        key = int(cand[counts == cmin].min())
        if (cmin, key) < (best_count, best_key):  # best_count starts above p
            best_count, best_key = cmin, key
    z = np.array([(best_key >> (p - 1 - i)) & 1 for i in range(p)], dtype=np.int8)
    return best_count, LabelVector(z)


def _out_of_budget(config: SolverConfig, expanded: int, t0: float) -> bool:
    """The stop rule of both searches: ``expanded`` nodes, the root included,
    use up ``node_budget``, or the search runs past ``time_budget``."""
    return expanded >= config.node_budget or time.perf_counter() - t0 > config.time_budget


def _finish(t0, z, lower, optimal, trace, open_nodes=0, violated=0) -> SolverResult:
    """The one exit of every route: append the final trace row (no open
    nodes once ``optimal``) and build the result, whose objective counts the
    outliers of ``z``."""
    objective = int(z.sum())
    trace.append(TraceEntry(len(trace), objective, float(lower), 0 if optimal else open_nodes))
    return SolverResult(LabelVector(z), objective, float(lower), optimal, trace,
                        time.perf_counter() - t0, violated)


def solve_exact(program: CoveringProgram, config: SolverConfig = SolverConfig()) -> SolverResult:
    """Globally optimal solution of the covering program.

    A program whose constraints all have at most two variables goes to the
    maximum-clique search, which returns the lexicographically smallest
    optimal label vector (the rule ``brute_force_oracle`` documents); every
    other program goes to LP-based Branch and Bound. A search stopped by
    ``_out_of_budget`` returns its best incumbent with a valid lower bound
    and ``optimal=False``; ``optimal=True`` comes with ``lower_bound ==
    objective``.
    """
    if program.num_constraints == 0:
        return _finish(time.perf_counter(), np.zeros(program.num_vars, dtype=np.int8), 0.0, True, [])
    if np.diff(program.cons_csr[0]).max() <= 2:
        return _solve_clique(program, config)
    return _solve_lp_bnb(program, config)


def _colour_classes(adj, cand: int, kmin: int):
    """Greedy sequential colouring of the vertex bitset ``cand``, lowest bit
    first: each colour class takes the vertices adjacent to no earlier
    member. Returns the vertices of colour ``>= kmin`` and their colours,
    colours ascending."""
    order, cols = [], []
    k = 0
    while cand:
        k += 1
        q = cand
        while q:
            low = q & -q
            v = low.bit_length() - 1
            cand ^= low
            q = (q ^ low) & ~adj[v]
            if k >= kmin:
                order.append(v)
                cols.append(k)
    return order, cols


def _max_clique(adj, cand: int, floor: int, target: int, node):
    """MCQ search for the largest clique inside ``cand`` with more than
    ``floor`` vertices, stopping once one reaches ``target``.

    Each node colours its candidates and branches on them from the highest
    colour down; a branch whose clique size plus colour cannot beat the
    best is pruned. ``node(frames, best_size)`` is called before each child
    node is expanded and returns False to stop the search. Returns
    ``(clique or None, finished)``; the clique is a list of vertices.
    """
    best, best_size = None, floor
    order, cols = _colour_classes(adj, cand, floor + 1)
    # frame: [candidates, vertices to branch on, their colours, next position]
    frames = [[cand, order, cols, len(order) - 1]]
    clique = []
    while frames:
        f = frames[-1]
        i = f[3]
        if i < 0 or len(clique) + f[2][i] <= best_size:
            frames.pop()
            if frames:
                clique.pop()
            continue
        v = f[1][i]
        f[3] = i - 1
        sub = f[0] & adj[v]
        f[0] ^= 1 << v
        clique.append(v)
        if sub:
            if not node(frames, best_size):
                return best, False
            order, cols = _colour_classes(adj, sub, best_size - len(clique) + 1)
            frames.append([sub, order, cols, len(order) - 1])
            continue
        if len(clique) > best_size:
            best, best_size = list(clique), len(clique)
            if best_size >= target:
                return best, True
        clique.pop()
    return best, True


def _lexicographic_clique(adj, by_index, witness: int, node) -> int:
    """The maximum clique that keeps the earliest variables inlier.

    ``by_index`` lists the vertices in variable order and ``witness`` is the
    bitset of one maximum clique. Each vertex in turn stays in the clique
    when some maximum clique holds it and every vertex kept so far. A
    vertex of the current witness needs no query; any other is checked with
    a colouring-bounded decision search, whose clique becomes the new
    witness. Stops once the kept vertices form a maximum clique, or when
    ``node`` stops a search; the witness is returned either way.
    """
    omega = witness.bit_count()
    kept, n_kept, cand = 0, 0, (1 << len(by_index)) - 1
    for v in by_index:
        if n_kept == omega:
            break
        bit = 1 << v
        if not cand & bit:
            continue
        if not witness & bit:
            need = omega - n_kept - 1
            sub = cand & adj[v]
            if need == 0:
                found = []
            elif sub.bit_count() < need:
                found = None
            else:
                found, finished = _max_clique(adj, sub, need - 1, need, node)
                if not finished:
                    break
            if found is None:
                cand ^= bit
                continue
            witness = kept | bit | sum(1 << u for u in found)
        kept |= bit
        n_kept += 1
        cand &= adj[v]
    return witness


def _compatibility_graph(program: CoveringProgram):
    """Fixed outliers and the compatibility graph of a program of size-1 and
    size-2 constraints.

    Returns ``(z, ids, adj)``: ``z`` marks the size-1 variables as outlier;
    ``ids[k]`` is the variable at bit ``k``, over the variables left in some
    conflict with no fixed outlier, ordered by descending compatible degree
    (ties toward the lowest index) as MCQ orders its vertices; ``adj[k]`` is
    the bitset of the vertices compatible with vertex ``k``.
    """
    indptr, indices = program.cons_csr
    starts, sizes = indptr[:-1], np.diff(indptr)
    z = np.zeros(program.num_vars, dtype=np.int8)
    z[indices[starts[sizes == 1]]] = OUTLIER
    first = starts[sizes == 2]
    a, b = indices[first], indices[first + 1]
    live = (z[a] == INLIER) & (z[b] == INLIER)
    a, b = a[live], b[live]
    core = np.unique(np.concatenate([a, b]))
    ia, ib = np.searchsorted(core, a), np.searchsorted(core, b)
    compat = np.ones((len(core), len(core)), dtype=bool)
    compat[ia, ib] = compat[ib, ia] = False
    np.fill_diagonal(compat, False)
    order = np.argsort(-compat.sum(axis=1), kind="stable")
    rows = np.packbits(compat[np.ix_(order, order)], axis=1, bitorder="little")
    return z, core[order], [int.from_bytes(r.tobytes(), "little") for r in rows]


def _solve_clique(program: CoveringProgram, config: SolverConfig) -> SolverResult:
    """Exact solve of a program whose constraints have one or two variables.

    The optimum is ``fixed + m - omega``: ``fixed`` size-1 variables, ``m``
    variables left in conflicts, and ``omega`` the maximum clique of their
    compatibility graph. The root row bounds ``omega`` by the colour count
    and starts from a greedy clique; ``_max_clique`` closes the gap, and
    ``_lexicographic_clique`` then picks the lexicographically smallest
    optimal labels. Every node, tie queries included, counts against the
    budgets; a stop in the tie pass keeps its witness, which is optimal.
    """
    t0 = time.perf_counter()
    z, ids, adj = _compatibility_graph(program)
    m = len(ids)
    base = int(z.sum()) + m
    full = (1 << m) - 1
    order, cols = _colour_classes(adj, full, 1)
    witness, cand = [], full
    for v in reversed(order):  # greedy clique, highest colour first
        if cand >> v & 1:
            witness.append(v)
            cand &= adj[v]
    upper = base - len(witness)
    lower = base - (cols[-1] if cols else 0)
    trace = [TraceEntry(0, upper, float(lower), 1)]  # one row per expanded node
    proving, left = True, 0

    def node(frames, best_size):
        nonlocal upper, lower, left
        if proving:
            root = frames[0]
            upper = base - best_size
            lower = base - max(best_size, root[2][root[3] + 1])
        if _out_of_budget(config, len(trace), t0):
            left = 1 + sum(f[3] + 1 for f in frames)
            return False
        trace.append(TraceEntry(len(trace), upper, float(lower), sum(f[3] + 1 for f in frames)))
        return True

    optimal = True
    if upper > lower:
        found, optimal = _max_clique(adj, full, len(witness), base - lower, node)
        witness = found or witness
        upper = base - len(witness)
    inliers = sum(1 << v for v in witness)
    if optimal:
        lower = upper
        proving = False
        inliers = _lexicographic_clique(adj, np.argsort(ids).tolist(), inliers, node)
    in_clique = np.array([inliers >> k & 1 for k in range(m)], dtype=bool)
    z[ids[~in_clique]] = OUTLIER
    return _finish(t0, z, lower, optimal, trace, left)


def _solve_lp_bnb(program: CoveringProgram, config: SolverConfig = SolverConfig()) -> SolverResult:
    """Branch and Bound on LP lower bounds, for programs with constraints of
    any size.

    Best-first on lower bounds; the branch variable is the free variable in
    the most unsatisfied constraints (ties toward the lowest index), with the
    z=1 child queued before the z=0 child. Node bounds come from the residual
    LP relaxation; incumbents from greedy covers. A child whose LP does not
    converge keeps its parent's bound, or its count of fixed outliers when
    that is larger; a root LP that does not converge gives the bound 0.
    """
    t0 = time.perf_counter()
    p = program.num_vars

    def greedy_labels(ones_t, free_ids, indptr, indices):
        # the fixed outliers plus a greedy cover of the residual program
        z = np.zeros(p, dtype=np.int8)
        z[list(ones_t)] = OUTLIER
        if len(indptr) > 1:
            z[free_ids[_kernels.greedy_pick(len(free_ids), indptr, indices) == 1]] = OUTLIER
        return z

    def lp_bound(free_ids, indptr, indices):
        # a node whose LP stops without an optimum keeps the trivial residual
        # bound 0, so one bad LP weakens a bound instead of aborting the solve
        try:
            return _lp(len(free_ids), indptr, indices)[0]
        except LpNotConverged:
            return 0.0

    no_fix = np.zeros(p, dtype=bool)
    root = _residual(program, no_fix, no_fix)
    incumbent = greedy_labels((), *root)
    upper = int(incumbent.sum())
    root_lb = lp_bound(*root)
    global_lb = min(root_lb, float(upper))
    # the root row, then one row per expanded node
    trace = [TraceEntry(0, upper, global_lb, 1)]

    optimal = upper - global_lb < 1.0 - LP_TOLERANCE
    # heap entries: (bound, insertion counter, fixed outliers, fixed inliers)
    heap = [] if optimal else [(root_lb, 0, (), ())]
    counter = 1
    while heap:
        bound, _, ones_t, zeros_t = heap[0]
        global_lb = max(global_lb, min(bound, float(upper)))
        # best-first: every open node is at least this bound
        optimal = bound >= upper - 1.0 + LP_TOLERANCE
        if optimal or _out_of_budget(config, len(trace) - 1, t0):
            break
        heapq.heappop(heap)
        # queued nodes are feasible and keep some constraint, so the residual
        # is a program with a variable to branch on
        ones_mask, zeros_mask = np.zeros((2, p), dtype=bool)
        ones_mask[list(ones_t)] = zeros_mask[list(zeros_t)] = True
        free_ids, _, indices = _residual(program, ones_mask, zeros_mask)
        branch_var = int(free_ids[np.argmax(np.bincount(indices, minlength=len(free_ids)))])
        for mask, c_ones, c_zeros in (
            (ones_mask, ones_t + (branch_var,), zeros_t),
            (zeros_mask, ones_t, zeros_t + (branch_var,)),
        ):
            mask[branch_var] = True
            child = _residual(program, ones_mask, zeros_mask)
            mask[branch_var] = False
            if child is None:
                continue
            # a child without constraints is a leaf: its greedy cover is
            # exact, and its bound of len(c_ones) keeps it off the queue
            z = greedy_labels(c_ones, *child)
            if z.sum() < upper:
                incumbent, upper = z, int(z.sum())
            child_bound = max(bound, len(c_ones) + lp_bound(*child))
            if child_bound < upper - 1.0 + LP_TOLERANCE:
                heapq.heappush(heap, (child_bound, counter, c_ones, c_zeros))
                counter += 1
        trace.append(TraceEntry(len(trace), upper, global_lb, len(heap)))
    else:
        optimal = True  # queue exhausted: incumbent proven optimal

    # a certificate reports the optimum as its bound, so that
    # ceil(lower_bound - tol) == objective holds exactly
    return _finish(t0, incumbent, float(upper) if optimal else global_lb, optimal, trace, len(heap))


def solve_relaxed(program: CoveringProgram, config: SolverConfig = SolverConfig()) -> SolverResult:
    """LP relaxation of the covering program with 0.5-rounding.

    ``lower_bound`` is the fractional LP optimum; ``objective`` counts the
    rounded outlier labels (which need not satisfy every constraint --
    ``violated_constraints`` reports how many are missed). ``optimal`` flags
    LP convergence, not integer optimality.
    """
    t0 = time.perf_counter()
    indptr, indices = program.cons_csr
    obj, z = _lp(program.num_vars, indptr, indices)
    labels = np.where(z >= 0.5, OUTLIER, INLIER).astype(np.int8)
    covered = np.add.reduceat(labels[indices] == OUTLIER, indptr[:-1]) > 0
    return _finish(t0, labels, obj, True, [], violated=int((~covered).sum()))
