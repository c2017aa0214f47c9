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
  of two constraints that share a variable, with 5 or 6 members, every 0-1
  cover has ``sum(z[U]) >= h(U)``, the fewest members of ``U`` that hit
  every constraint inside ``U``. On the four-variable template programs the
  plain LP sits at ``p/4``, far below the optimum; the cuts close most of
  that gap. The constraint pairs and their shared members come from one
  product of the constraints' 0/1 incidence with itself; of four-member
  constraints, only pairs sharing two or more members give such sets. The
  cut LP's solution orders a second greedy cover, the root incumbent when
  it is smaller. Then Branch and Bound with best-first search on the LP
  lower bounds with the cuts, greedy-cover incumbents, branching on the
  variable hitting the most unsatisfied constraints, and a unit-gap
  optimality certificate (the objective is integral, so ``UB - LB < 1 -
  tol`` proves optimality). One node routine serves the root and the tree:
  the root is the first node it visits, and the only one that separates.

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
# from constraint pairs found by products of about _BLOCK entries and
# enumerated _PAIR_CHUNK pairs at a time
_MIN_CUT_SET = 5
_MAX_CUT_SET = 6
_CUTS_PER_ROUND = 100
_CUT_ROUNDS = 20
_CUT_VIOLATION = 1e-6
_BLOCK = 1 << 16
_PAIR_CHUNK = 1024


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


def _cut_candidates(program: CoveringProgram, stop=lambda: False):
    """The candidate cuts of a program: every set ``U = C | D`` of two
    constraints that share a variable, with ``_MIN_CUT_SET`` to
    ``_MAX_CUT_SET`` (5 or 6) members and ``h(U) >= 2``, where ``h(U)`` is
    the fewest members of ``U`` that hit every constraint inside ``U``.
    Every 0-1 cover has ``sum(z[U]) >= h(U)`` (a rank inequality of the
    set-covering polytope).

    The pairs come from one product. With ``inc`` the float32 0/1 incidence
    of the ``n`` constraints of at most 6 members over the ``p`` variables,
    ``inc @ inc.T`` holds ``|C & D|``, and ``U`` has ``|C| + |D| - |C & D|``
    members. Its entries are sums of at most 6 ones, exact in any summation
    order. The product is taken for blocks of ``C`` of about ``_BLOCK``
    entries, against every ``D`` from the block's first on, and the pairs
    with ``D`` after ``C`` that share a member and fit are taken
    ``_PAIR_CHUNK`` at a time, each pair once. ``inc`` holds ``n * p``
    entries, a term that grows with the variables as well as the
    constraints.

    Returns ``(sets, h)``: the distinct sets, ascending rows padded with
    ``num_vars`` in the smallest unsigned dtype that holds it, in
    lexicographic order, and their ``h``. The constraints inside ``U`` are
    found by looking up each subset of ``U`` of a constraint's size, and
    ``h(U)`` by brute force over the 64 subsets of ``U``: the subsets that
    are constraints make one 64-bit word per set. Memory stays within one
    block, one chunk's sets and the sets kept; a true ``stop()`` before a
    chunk ends the pairs with the sets found so far.
    """
    p = program.num_vars
    indptr, indices = program.cons_csr
    sizes = np.diff(indptr)
    dt = np.min_scalar_type(p)
    # the constraints of at most 6 members by position: their incidence, and
    # their members as ascending rows padded with p (p may be below 6)
    small = sizes <= _MAX_CUT_SET
    inc = np.zeros((len(sizes), p), dtype=np.float32)
    inc[np.repeat(np.arange(len(sizes)), sizes), indices] = 1.0
    inc, sizes = inc[small], sizes[small].astype(np.float32)  # float32, as the product
    n = len(sizes)
    rows = np.full((n, _MAX_CUT_SET), p, dtype=dt)
    rows[:, :min(p, _MAX_CUT_SET)] = np.sort(np.where(inc > 0, np.arange(p, dtype=dt), p), axis=1)[:, :_MAX_CUT_SET]
    # a set's key is the wrapping sum of its members' weights, fixed random
    # 16-bit words, so that distinct sets rarely share a key; the constraints
    # are listed by key, count[k] of them from first_key[k], and a key match
    # is confirmed on the rows, so any weights give the same table
    weight = (np.random.default_rng(0).bit_generator.random_raw(p + 1) >> np.uint64(48)).astype(np.uint16)
    weight[p] = 0
    keys = weight[rows].sum(axis=1, dtype=np.uint16)
    key_rows = rows[np.argsort(keys, kind="stable")]
    count = np.bincount(keys, minlength=1 << 16).astype(np.int32)
    first_key = np.cumsum(count, dtype=np.int32) - count

    def pairs():
        # the pairs (C, D), D after C, that share a member and fit, as
        # columns, _PAIR_CHUNK at a time
        step, listed = max(1, _BLOCK // max(n, 1)), np.zeros((2, 0), dtype=np.int64)
        for lo in range(0, n, step):
            shared = inc[lo:lo + step] @ inc[lo:].T
            n_members = sizes[lo:lo + step, None] + sizes[lo:] - shared
            fit = np.triu((shared > 0) & (n_members >= _MIN_CUT_SET) & (n_members <= _MAX_CUT_SET), 1)
            listed = np.concatenate((listed, lo + np.array(np.nonzero(fit))), axis=1)
            # a suspended generator keeps its locals: free the block first
            del shared, n_members, fit
            while listed.shape[1] >= _PAIR_CHUNK or (listed.size and lo + step >= n):
                yield listed[:, :_PAIR_CHUNK]
                listed = listed[:, _PAIR_CHUNK:]

    # subsets of a set's 6 slots as bit masks: size_of[s] is the size of mask
    # s and slots[s] its slots ascending, then slot 6 (padding); by_size lists
    # the masks t by size, and missed[i] is the bitmap (one 64-bit word) of
    # the masks s that the i-th t misses (s & t == 0)
    all_masks = np.arange(1 << _MAX_CUT_SET)
    size_of = np.bitwise_count(all_masks)
    slot = np.arange(_MAX_CUT_SET)
    slots = np.sort(np.where(all_masks[:, None] >> slot & 1, slot, _MAX_CUT_SET))
    by_size = np.argsort(size_of, kind="stable")
    missed = np.packbits((by_size[:, None] & all_masks) == 0, axis=1, bitorder="little").view("<u8")[:, 0]
    # the masks that can hold a constraint
    masks = np.flatnonzero(np.isin(size_of, sizes))

    def hard_sets(c, d):
        # the sets U = C | D of a chunk's pairs with h(U) >= 2, and their h
        # (a function, so that the chunk's arrays are freed before the next
        # block); U as an ascending row, repeats and padding moved to the end
        both = np.sort(np.concatenate((rows[c], rows[d]), axis=1), axis=1)
        both[:, 1:][both[:, 1:] == both[:, :-1]] = p
        sets = np.sort(both, axis=1)[:, :_MAX_CUT_SET]
        n_members = (sets != p).sum(axis=1)
        # the keys of every subset of each set's slots, then those subsets of
        # a constraint's size, within the members, whose key some constraint has
        sub = np.zeros((len(sets), 1 << _MAX_CUT_SET), dtype=np.uint16)
        for j in range(_MAX_CUT_SET):
            sub[:, 1 << j:2 << j] = sub[:, :1 << j] + weight[sets[:, j]][:, None]
        sub = sub[:, masks]
        row, col = np.nonzero((count[sub] > 0) & (masks < (1 << n_members)[:, None]))
        k = sub[row, col]
        q, e = np.repeat(np.arange(len(k)), count[k]), _kernels.segments(first_key[k], count[k])
        # a set's members at the slots of a mask, in slot order, are ascending
        padded = np.column_stack((sets, np.full(len(sets), p, dtype=dt)))
        found = padded[row[q][:, None], slots[masks[col[q]]]]
        q = q[(found == key_rows[e]).all(axis=1)]
        inside = np.zeros((len(sets), 1 << _MAX_CUT_SET), dtype=bool)
        inside[row[q], masks[col[q]]] = True
        # most sets have a member in every constraint inside (h = 1); the
        # others take the smallest t that hits every constraint inside: t
        # hits them all when no mask of the word is among those t misses
        words = np.packbits(inside, axis=1, bitorder="little").view("<u8")
        keep = np.flatnonzero(((words & missed[:1 + _MAX_CUT_SET]) != 0).all(axis=1))
        hits_all = (words[keep] & missed) == 0
        return sets[keep], size_of[by_size[np.argmax(hits_all, axis=1)]].astype(np.int64)

    kept = [(np.zeros((0, _MAX_CUT_SET), dtype=dt), np.zeros(0, dtype=np.int64))]
    for c, d in pairs():
        if stop():
            break
        kept.append(hard_sets(c, d))
    sets, h = (np.concatenate(part) for part in zip(*kept))
    first = _kernels.distinct_rows(sets)
    return sets[first], h[first]


def _cut_rounds(program: CoveringProgram, rows, bound: float, z, upper: int, stop=lambda: False):
    """Raise the root bound with cuts from the one table of
    ``_cut_candidates``.

    Each round adds up to ``_CUTS_PER_ROUND`` candidates not yet added that
    ``z`` violates by more than ``_CUT_VIOLATION``, most violated first (a
    stable order over the table's lexicographic rows), and solves the LP
    again. The rounds stop when no candidate is violated, when the bound
    certifies ``upper``, after ``_CUT_ROUNDS`` rounds, at an LP that does
    not converge, whose round is dropped, or once ``stop()`` is true before
    the table, one of its chunks or a round. A spent budget stays spent, so
    a stop that ends the table early also stops the first round: no cut is
    added. Returns the rows with the cuts, the bound and its ``z``.
    """
    if stop():
        return rows, bound, z
    sets, h = _cut_candidates(program, stop)
    p = program.num_vars
    added = np.zeros(len(h), dtype=bool)
    for _ in range(_CUT_ROUNDS):
        if upper - bound < 1.0 - LP_TOLERANCE or stop():
            break
        violation = h - np.append(z, 0.0)[sets].sum(axis=1)
        cand = np.flatnonzero(~added & (violation > _CUT_VIOLATION))
        if len(cand) == 0:
            break
        pick = cand[np.argsort(-violation[cand], kind="stable")[:_CUTS_PER_ROUND]]
        members = sets[pick] != p
        indptr, indices, rhs = rows
        grown = (
            np.concatenate((indptr, indptr[-1] + np.cumsum(members.sum(axis=1)))),
            np.concatenate((indices, sets[pick][members].astype(np.int64))),
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


def _uncovered(program: CoveringProgram, z) -> int:
    """How many constraints have no member that the 0/1 labels ``z`` mark outlier."""
    indptr, indices = program.cons_csr
    return int(np.count_nonzero(np.maximum.reduceat(z[indices], indptr[:-1]) == INLIER))


def _out_of_budget(config: SolverConfig, expanded: int, t0: float) -> bool:
    """The stop rule of both searches: ``expanded`` nodes, the root included,
    use up ``node_budget``, or the search runs past ``time_budget``. The
    LP search checks its root's cut work at a count of 0 nodes, so only
    ``time_budget`` stops that work."""
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

    One routine, ``visit``, handles every node, the root included: the
    residual of the node's fixed variables, a greedy cover of the residual
    constraints, the branch variable (the free variable in the most
    unsatisfied constraints, ties toward the lowest index) and the residual
    LP bound. The root, the node with nothing fixed, is the one node that
    separates: when its LP bound does not certify its greedy cover, it runs
    ``_cut_rounds``, which add no cuts once ``_out_of_budget`` holds; the
    cuts hold for every 0-1 cover, so they stay in every later node's LP,
    and a greedy cover that picks in descending order of the cut LP's
    solution replaces the root's cover when it is smaller. A node's cover
    becomes the incumbent when smaller, and the node is queued unless its
    bound certifies the incumbent. Then best-first on lower bounds: each
    popped node visits its z=1 child, then its z=0 child. A child whose LP
    does not converge keeps its parent's bound, or its count of fixed
    outliers when that is larger; a root LP that does not converge gives the
    bound 0 and no cuts.
    """
    t0 = time.perf_counter()
    p = program.num_vars
    n_cons = program.num_constraints
    # the constraints (rhs 1), then any cuts
    rows = (*program.cons_csr, np.ones(n_cons, dtype=np.int64))
    # heap entries: (bound, insertion counter, fixed outliers, fixed inliers, branch variable)
    heap, counter = [], 0
    incumbent, upper = None, p + 1

    def visit(bound, ones_t, zeros_t):
        # one residual per node (None when infeasible), then its greedy cover, its branch
        # variable (cuts not counted; None if no constraint is left) and its LP (0.0 and no z
        # when it stops without an optimum: a bad LP weakens a bound, never aborts the solve);
        # returns the node's bound
        nonlocal rows, incumbent, upper, counter
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
            lp_bound, lp_z = _lp(len(free_ids), indptr, indices, rhs)
        except LpNotConverged:
            lp_bound, lp_z = 0.0, None
        # the root separates when its LP does not certify its cover; the cuts
        # stay in every later node's rows
        if not ones_t + zeros_t and lp_z is not None and z.sum() - lp_bound >= 1.0 - LP_TOLERANCE:
            rows, lp_bound, lp_z = _cut_rounds(program, rows, lp_bound, lp_z, int(z.sum()),
                                               lambda: _out_of_budget(config, 0, t0))
            ordered = _kernels.greedy_pick(p, *program.cons_csr, order=np.argsort(-lp_z, kind="stable"))
            if ordered.sum() < z.sum():
                z = ordered
        if z.sum() < upper:
            incumbent, upper = z, int(z.sum())
        # a node without constraints is a leaf: its greedy cover is exact, and
        # its bound of len(ones_t) keeps it off the queue
        node_bound = max(bound, len(ones_t) + lp_bound)
        if node_bound < upper - 1.0 + LP_TOLERANCE:
            heapq.heappush(heap, (node_bound, counter, ones_t, zeros_t, branch_var))
            counter += 1
        return node_bound

    root_lb = visit(0.0, (), ())
    global_lb = min(root_lb, float(upper))
    # the root row, then one row per expanded node
    trace = [TraceEntry(0, upper, global_lb, 1)]
    while heap:
        bound, _, ones_t, zeros_t, branch_var = heap[0]
        global_lb = max(global_lb, min(bound, float(upper)))
        # best-first: every open node is at least this bound
        optimal = bound >= upper - 1.0 + LP_TOLERANCE
        if optimal or _out_of_budget(config, len(trace) - 1, t0):
            break
        heapq.heappop(heap)
        # queued nodes keep some constraint, so they have a branch variable:
        # the z=1 child, then the z=0 child
        visit(bound, ones_t + (branch_var,), zeros_t)
        visit(bound, ones_t, zeros_t + (branch_var,))
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
    obj, z = _lp(program.num_vars, *program.cons_csr, np.ones(program.num_constraints))
    labels = np.where(z >= 0.5, OUTLIER, INLIER).astype(np.int8)
    return _finish(t0, labels, obj, True, [], violated=_uncovered(program, labels))
