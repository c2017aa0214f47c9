"""Exact and relaxed solvers for the 0-1 covering program.

``solve_exact`` takes one of two routes, chosen by the program alone:

* Every constraint has at most two variables (the isometric path, s=1): a
  size-1 constraint fixes its variable to outlier, and the size-2
  constraints are the edges of a conflict graph, so the optimum is the
  number of variables in conflicts minus the maximum clique of the
  complement graph. A colouring-bound clique search (MCQ: greedy sequential
  colouring on bitset rows, Tomita & Kameda 2007) finds that clique; Python
  ints are the bitsets.
* Otherwise: cut-and-branch. When the root LP does not certify the greedy
  incumbent, rounds of rank inequalities of the set-covering polytope
  (Balas & Ng 1989; Cornuejols & Sassano 1989) raise it: for a union ``U``
  of two constraints that share a variable, with 5 to 7 members, every 0-1
  cover has ``sum(z[U]) >= h(U)``, the fewest members of ``U`` that hit
  every constraint inside ``U``. On the four-variable template programs the
  plain LP sits at ``p/4``, far below the optimum; the cuts close most of
  that gap. Then Branch and Bound with best-first search on the LP lower
  bounds with the cuts, greedy-cover incumbents, branching on the variable
  hitting the most unsatisfied constraints, and a unit-gap optimality
  certificate (the objective is integral, so ``UB - LB < 1 - tol`` proves
  optimality).

``solve_relaxed`` solves the plain LP relaxation once and rounds at 0.5, on
every program. The LP sub-solver lives in :mod:`consmax._kernels` (revised simplex
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
# root cuts: sets of _MIN_CUT_SET to _MAX_CUT_SET matches, at most
# _CUTS_PER_ROUND cuts a round over at most _CUT_ROUNDS rounds, candidates
# enumerated from _PAIR_CHUNK constraints at a time
_MIN_CUT_SET = 5
_MAX_CUT_SET = 7
_CUTS_PER_ROUND = 100
_CUT_ROUNDS = 20
_CUT_VIOLATION = 1e-6
_PAIR_CHUNK = 4


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


def _residual(rows, n_cons: int, ones_mask: np.ndarray, zeros_mask: np.ndarray):
    """Restrict the rows ``(indptr, indices, rhs)``, each ``sum(z[row]) >=
    rhs``, to the free variables: every fixed outlier in a row lowers its rhs
    by one, a row whose rhs falls to 0 is dropped, and so are members fixed
    to inlier. The first ``n_cons`` rows are the program's constraints, with
    rhs 1. Returns None when a kept row has fewer free members than its rhs
    (infeasible node), otherwise ``(free_ids, indptr, indices, rhs, n)``: the
    remaining free variables, the kept rows over their local ids, and how
    many of the kept rows are constraints (they come first).
    """
    indptr, idx, rhs = rows
    seg = indptr[:-1]
    left = rhs - np.add.reduceat(ones_mask[idx].astype(np.int64), seg)
    keep = left > 0
    free_mask = ~(ones_mask | zeros_mask)
    elem_keep = np.repeat(keep, np.diff(indptr)) & free_mask[idx]
    kept_sizes = np.add.reduceat(elem_keep.astype(np.int64), seg)[keep]
    left = left[keep]
    if (kept_sizes < left).any():
        return None
    free_ids = np.nonzero(free_mask)[0]
    remap = np.full(len(free_mask), -1, dtype=np.int64)
    remap[free_ids] = np.arange(len(free_ids), dtype=np.int64)
    return (free_ids, np.concatenate(([0], np.cumsum(kept_sizes))), remap[idx[elem_keep]], left,
            int(keep[:n_cons].sum()))


def _lp(n_rows: int, indptr, indices, rhs):
    """Optimum ``(objective, z)`` of the covering LP over ``n_rows``
    variables and the rows ``(indptr, indices)`` with right-hand sides
    ``rhs``, or ``LpNotConverged``. The kernel is looked up at call time, so
    a profiler or a test can wrap it in place."""
    n_cols = len(indptr) - 1
    if n_cols == 0:
        return 0.0, np.zeros(n_rows)
    status, obj, z, pivots = _kernels.packing_simplex(
        n_rows, n_cols, indptr, indices, np.asarray(rhs, dtype=np.float64), LP_TOLERANCE,
        _lp_max_iter(n_rows, n_cols),
    )
    if status != _kernels.LP_OPTIMAL:
        raise LpNotConverged(f"LP status {status} after {pivots} pivots")
    return float(obj), z


def _hits_all(words, missed):
    """``[r, i]``: no mask in the bitmap ``words[r]`` is among ``missed[i]``,
    the masks that some set ``t`` misses, so that ``t`` hits them all."""
    return ((words[:, :1] & missed[:, 0]) | (words[:, 1:] & missed[:, 1])) == 0


def _lookup(keys, query):
    """``(query, entry)`` index pairs that match each query key with every
    entry of the ascending ``keys`` holding it."""
    start = np.searchsorted(keys, query)
    n = np.searchsorted(keys, query, side="right") - start
    return np.repeat(np.arange(len(query)), n), _kernels.segments(start, n)


def _cut_candidates(program: CoveringProgram):
    """The candidate cuts of a program: every set ``U = C | D`` of two
    constraints that share a variable, with 5 to 7 members and ``h(U) >=
    2``, where ``h(U)`` is the fewest members of ``U`` that hit every
    constraint inside ``U``. Every 0-1 cover has ``sum(z[U]) >= h(U)`` (a
    rank inequality of the set-covering polytope).

    Returns ``(sets, h)``: the distinct sets, ascending rows padded with
    ``num_vars`` in the smallest unsigned dtype that holds it, and their
    ``h``. The constraints inside ``U`` are found by looking up each subset
    of ``U`` of a constraint's size, and ``h(U)`` by brute force over the
    subsets of ``U``. The pairs are enumerated ``_PAIR_CHUNK`` constraints
    at a time, so memory stays within one chunk's pairs and the sets kept.
    """
    p = program.num_vars
    indptr, indices = program.cons_csr
    m = len(indptr) - 1
    sizes = np.diff(indptr)
    dt = np.min_scalar_type(p)
    # every constraint of at most 7 members as an ascending row padded with p
    small = sizes <= _MAX_CUT_SET
    rows = np.full((m, _MAX_CUT_SET), p, dtype=dt)
    owner = np.repeat(np.arange(m), sizes)
    in_small = small[owner]
    rows[owner[in_small], (np.arange(len(indices)) - indptr[owner])[in_small]] = indices[in_small]
    rows.sort(axis=1)
    small_ids = np.flatnonzero(small)
    # a set's key is the wrapping sum of its members' weights, splitmix64 of
    # their indices, so that distinct sets rarely share a key; a filter on
    # the top 16 bits of the constraints' keys passes few other keys, and a
    # key match is confirmed on the rows
    weight = np.arange(1, p + 2, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for right, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB), (31, 1)):
        weight = (weight ^ (weight >> np.uint64(right))) * np.uint64(mult)
    weight[p] = 0
    keys = weight[rows[small_ids]].sum(axis=1)
    order = np.argsort(keys, kind="stable")
    keys, key_rows = keys[order], rows[small_ids[order]]
    top = np.zeros(1 << 16, dtype=bool)
    top[keys >> np.uint64(48)] = True
    # the variable -> constraint incidence over constraints of at most 7
    var_cons = owner[in_small][np.argsort(indices[in_small], kind="stable")]
    var_indptr = np.concatenate(([0], np.cumsum(np.bincount(indices[in_small], minlength=p))))
    # subsets of a set's 7 slots as bit masks: size_of[s] is the size of mask
    # s and slots[s] its slots ascending, then slot 7 (padding); by_size lists
    # the masks t by size, and missed[i] is the bitmap (two 64-bit words) of
    # the masks s that the i-th t misses (s & t == 0)
    all_masks = np.arange(1 << _MAX_CUT_SET)
    size_of = np.bitwise_count(all_masks)
    slot = np.arange(_MAX_CUT_SET)
    slots = np.sort(np.where(all_masks[:, None] >> slot & 1, slot, _MAX_CUT_SET))
    by_size = np.argsort(size_of, kind="stable")
    missed = np.packbits((by_size[:, None] & all_masks) == 0, axis=1, bitorder="little").view("<u8")
    # the masks that can hold a constraint
    masks = np.flatnonzero(np.isin(size_of, sizes[small_ids]))
    kept_sets, kept_h = [np.zeros((0, _MAX_CUT_SET), dtype=dt)], [np.zeros(0, dtype=np.int64)]
    for lo in range(0, len(small_ids), _PAIR_CHUNK):
        c_ids = small_ids[lo:lo + _PAIR_CHUNK]
        # every pair (C, D), C in the chunk, D > C sharing a member with C
        members = rows[c_ids][rows[c_ids] != p].astype(np.int64)
        deg = var_indptr[members + 1] - var_indptr[members]
        nbrs = var_cons[_kernels.segments(var_indptr[members], deg)]
        code = np.repeat(np.repeat(c_ids, sizes[c_ids]), deg) * m + nbrs
        code = np.sort(code[code % m > code // m])
        c, d = np.divmod(code[np.diff(code, prepend=-1) != 0], m)
        # U = C | D as an ascending row, repeats and padding moved to the end
        both = np.sort(np.concatenate((rows[c], rows[d]), axis=1), axis=1)
        both[:, 1:][both[:, 1:] == both[:, :-1]] = p
        both.sort(axis=1)
        n_members = (both != p).sum(axis=1)
        fits = (n_members >= _MIN_CUT_SET) & (n_members <= _MAX_CUT_SET)
        sets, n_members = both[fits, :_MAX_CUT_SET], n_members[fits]
        # the keys of every subset of each set's slots, then those subsets of
        # a constraint's size, within the members, that pass the filter
        sub = np.zeros((len(sets), 1 << _MAX_CUT_SET), dtype=np.uint64)
        for j in range(_MAX_CUT_SET):
            sub[:, 1 << j:2 << j] = sub[:, :1 << j] + weight[sets[:, j]][:, None]
        sub = sub[:, masks]
        row, col = np.nonzero(top[sub >> np.uint64(48)] & (masks < (1 << n_members)[:, None]))
        q, e = _lookup(keys, sub[row, col])
        # a set's members at the slots of a mask, in slot order, are ascending
        padded = np.column_stack((sets, np.full(len(sets), p, dtype=dt)))
        found = padded[row[q][:, None], slots[masks[col[q]]]]
        q = q[(found == key_rows[e]).all(axis=1)]
        inside = np.zeros((len(sets), 1 << _MAX_CUT_SET), dtype=bool)
        inside[row[q], masks[col[q]]] = True
        # most sets have a member in every constraint inside (h = 1); the
        # others take the smallest t that hits every constraint inside
        words = np.packbits(inside, axis=1, bitorder="little").view("<u8")
        keep = np.flatnonzero(~_hits_all(words, missed[:1 + _MAX_CUT_SET]).any(axis=1))
        kept_sets.append(sets[keep])
        kept_h.append(size_of[by_size[np.argmax(_hits_all(words[keep], missed), axis=1)]].astype(np.int64))
    sets, h = np.concatenate(kept_sets), np.concatenate(kept_h)
    first = _kernels.distinct_rows(sets)
    return sets[first], h[first]


def _cut_rounds(program: CoveringProgram, rows, bound: float, z, upper: int):
    """Raise the root bound with cuts from ``_cut_candidates``.

    Each round adds up to ``_CUTS_PER_ROUND`` candidates not yet added that
    ``z`` violates by more than ``_CUT_VIOLATION``, most violated first (a
    stable order), and solves the LP again. The rounds stop when no
    candidate is violated, when the bound certifies ``upper``, after
    ``_CUT_ROUNDS`` rounds, or at an LP that does not converge, whose round
    is dropped. Returns the rows with the cuts, the bound and its ``z``.
    """
    sets, h = _cut_candidates(program)
    p = program.num_vars
    members = sets != p
    added = np.zeros(len(h), dtype=bool)
    for _ in range(_CUT_ROUNDS):
        if upper - bound < 1.0 - LP_TOLERANCE:
            break
        violation = h - np.append(z, 0.0)[sets].sum(axis=1)
        cand = np.flatnonzero(~added & (violation > _CUT_VIOLATION))
        if len(cand) == 0:
            break
        pick = cand[np.argsort(-violation[cand], kind="stable")[:_CUTS_PER_ROUND]]
        indptr, indices, rhs = rows
        grown = (
            np.concatenate((indptr, indptr[-1] + np.cumsum(members[pick].sum(axis=1)))),
            np.concatenate((indices, sets[pick][members[pick]].astype(np.int64))),
            np.concatenate((rhs, h[pick])),
        )
        try:
            new_bound, z = _lp(p, *grown)
        except LpNotConverged:
            break
        added[pick] = True
        rows, bound = grown, max(bound, new_bound)
    return rows, bound, z


def lp_lower_bound(program: CoveringProgram) -> float:
    """Optimum of the LP relaxation; never exceeds the integer optimum."""
    return _lp(program.num_vars, *program.cons_csr, np.ones(program.num_constraints))[0]


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

    A root whose LP bound does not certify the greedy incumbent first runs
    ``_cut_rounds``; the cuts hold for every 0-1 cover, so they stay in
    every node's LP, and the cut LP's solution rounded at 0.5 replaces the
    incumbent when it is a cheaper cover. Then best-first on lower bounds;
    the branch variable is the free variable in the most unsatisfied
    constraints (ties toward the lowest index), with the z=1 child queued
    before the z=0 child. Node bounds come from the residual LP relaxation;
    incumbents from greedy covers of the residual constraints. A child whose
    LP does not converge keeps its parent's bound, or its count of fixed
    outliers when that is larger; a root LP that does not converge gives the
    bound 0 and no cuts.
    """
    t0 = time.perf_counter()
    p = program.num_vars
    n_cons = program.num_constraints

    def evaluate(ones_t, zeros_t):
        # one residual per node: None when infeasible, else the fixed outliers plus a greedy
        # cover, the residual LP's bound and solution (0.0 and None when it stops without an
        # optimum: a bad LP weakens a bound, never aborts the solve), and the branch variable,
        # the free one in the most residual constraints (cuts not counted; None if none is left)
        ones_mask, zeros_mask = np.zeros((2, p), dtype=bool)
        ones_mask[list(ones_t)] = zeros_mask[list(zeros_t)] = True
        res = _residual(rows, n_cons, ones_mask, zeros_mask)
        if res is None:
            return None
        free_ids, indptr, indices, rhs, n = res
        z = np.where(ones_mask, OUTLIER, INLIER).astype(np.int8)
        branch_var = None
        if n:
            cons = indices[:indptr[n]]
            picks = _kernels.greedy_pick(len(free_ids), indptr[:n + 1], cons)
            z[free_ids[picks == 1]] = OUTLIER
            branch_var = int(free_ids[np.argmax(np.bincount(cons, minlength=len(free_ids)))])
        try:
            bound, lp_z = _lp(len(free_ids), indptr, indices, rhs)
        except LpNotConverged:
            bound, lp_z = 0.0, None
        return z, bound, lp_z, branch_var

    # the constraints (rhs 1), then any cuts
    rows = (*program.cons_csr, np.ones(n_cons, dtype=np.int64))
    incumbent, root_lb, z, root_var = evaluate((), ())
    upper = int(incumbent.sum())
    if z is not None and upper - root_lb >= 1.0 - LP_TOLERANCE:
        rows, root_lb, z = _cut_rounds(program, rows, root_lb, z, upper)
        rounded = (z >= 0.5).astype(np.int8)
        indptr, indices = program.cons_csr
        if rounded.sum() < upper and np.maximum.reduceat(rounded[indices], indptr[:-1]).all():
            incumbent, upper = rounded, int(rounded.sum())
    global_lb = min(root_lb, float(upper))
    # the root row, then one row per expanded node
    trace = [TraceEntry(0, upper, global_lb, 1)]

    optimal = upper - global_lb < 1.0 - LP_TOLERANCE
    # heap entries: (bound, insertion counter, fixed outliers, fixed inliers, branch variable)
    heap = [] if optimal else [(root_lb, 0, (), (), root_var)]
    counter = 1
    while heap:
        bound, _, ones_t, zeros_t, branch_var = heap[0]
        global_lb = max(global_lb, min(bound, float(upper)))
        # best-first: every open node is at least this bound
        optimal = bound >= upper - 1.0 + LP_TOLERANCE
        if optimal or _out_of_budget(config, len(trace) - 1, t0):
            break
        heapq.heappop(heap)
        # queued nodes keep some constraint, so they have a branch variable
        for c_ones, c_zeros in ((ones_t + (branch_var,), zeros_t), (ones_t, zeros_t + (branch_var,))):
            child = evaluate(c_ones, c_zeros)
            if child is None:
                continue
            # a child without constraints is a leaf: its greedy cover is
            # exact, and its bound of len(c_ones) keeps it off the queue
            z, child_lb, _, child_var = child
            if z.sum() < upper:
                incumbent, upper = z, int(z.sum())
            child_bound = max(bound, len(c_ones) + child_lb)
            if child_bound < upper - 1.0 + LP_TOLERANCE:
                heapq.heappush(heap, (child_bound, counter, c_ones, c_zeros, child_var))
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
    obj, z = _lp(program.num_vars, indptr, indices, np.ones(program.num_constraints))
    labels = np.where(z >= 0.5, OUTLIER, INLIER).astype(np.int8)
    covered = np.add.reduceat(labels[indices] == OUTLIER, indptr[:-1]) > 0
    return _finish(t0, labels, obj, True, [], violated=int((~covered).sum()))
