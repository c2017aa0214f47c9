"""Hot numeric kernels: graph geodesics, covering-LP simplex, greedy cover;
and the index helpers ``segments`` and ``distinct_rows``.

Each kernel has one numpy implementation. Callers look the kernels up as
``_kernels.dijkstra_table``, ``_kernels.packing_simplex`` and
``_kernels.greedy_pick`` at call time, so a profiler can wrap them in place.

Exactness
---------
The kernels are written for speed, but their outputs are bit-identical to
the plain loops kept as references in ``tests/test_kernels.py``, because
rounding decides which geodesic ties at the isometric threshold become
constraints, and the simplex's pivot choices:

* ``dijkstra_table`` relaxes edges in no fixed order, yet returns
  Dijkstra's float64 values ``D``. ``D[v]`` is the smallest, over all walks
  to ``v``, of the walk's left-fold path sum: rounding is monotone and
  ``w >= 0``, so a walk through a vertex settled later is never shorter.
  Each candidate label is one addition ``dist[u] + w``, so every label is
  such a walk sum and never below ``D``. At convergence no edge improves a
  label, so for ``v``'s parent ``p`` in Dijkstra's tree,
  ``dist[v] <= fl(dist[p] + w) <= fl(D[p] + w) = D[v]``, by induction
  along the tree. So ``dist == D`` bit for bit, in any relaxation order.
* ``greedy_pick`` updates the counts once per pick, not per newly covered
  constraint: the same counts and picks, by either pick rule. Its cover has
  no redundant picks.
* ``packing_simplex`` prices its columns with ``np.add.reduceat``, as the
  reference does, so every column must be non-empty (``reduceat`` gives an
  empty segment the element at its start).

LP formulation
--------------
The covering LP ``min sum(z)  s.t.  sum(z[i] for i in C_l) >= b_l, z >= 0``
is solved through its dual, a packing LP with one row per variable and one
column per constraint, whose cost is the constraint's right-hand side:

    ``max sum(b_l y[l])  s.t.  sum(y[l] for l containing i) <= 1, y >= 0``.

The all-slack basis is feasible, so no phase-1 is needed. At optimality the
simplex multipliers are a feasible, optimal solution of the covering primal,
which is what the caller receives. Upper bounds ``z <= 1`` are omitted. With
0/1 rows and unit right-hand sides any optimum can be clipped to 1 without
losing feasibility, so they are never active at an optimum. A right-hand
side above 1 (a cut ``sum(z[U]) >= h``) can make an optimum put more than 1
on a variable; dropping ``z <= 1`` then only relaxes the LP, so its optimum
stays a lower bound on every 0-1 cover, which is all the solver takes from
it. The returned ``z`` is clipped to ``[0, 1]``.
"""

from __future__ import annotations

import numpy as np

# status codes returned by packing_simplex
LP_OPTIMAL = 0
LP_ITERATION_LIMIT = 1
LP_UNBOUNDED = 2

_REFACTOR_EVERY = 128
_SOURCES_PER_CHUNK = 64  # rows of the distance table searched together
_BLAND_AFTER = 2000  # consecutive degenerate pivots before switching rules


def segments(starts, lens):
    """The positions ``starts[i] .. starts[i] + lens[i] - 1`` of each ``i``, back to back."""
    shift = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    return shift + np.arange(len(shift))


def distinct_rows(rows):
    """Positions of the distinct rows of a 2-D array (the first of each), in lexicographic row order."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return order[first]


# ---------------------------------------------------------------------------
# All-sources shortest paths over a CSR edge graph
# ---------------------------------------------------------------------------

def dijkstra_table(indptr, indices, weights, sources, n):
    """Shortest-path distances from each source over a CSR graph with
    non-negative weights; ``inf`` where a vertex is unreachable.

    Despite the name this is not Dijkstra's algorithm but a frontier
    label-correcting search over ``_SOURCES_PER_CHUNK`` sources at a time,
    with Dijkstra's bits (see Exactness above). The name is kept because
    ``e2ebench/tracing.py`` wraps the kernel by it.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    sources = np.asarray(sources, dtype=np.int64).reshape(-1)
    degree = np.diff(indptr)
    out = np.full((len(sources), n), np.inf)
    touched = np.zeros(min(len(sources), _SOURCES_PER_CHUNK) * n, dtype=bool)  # False between rounds
    for lo in range(0, len(sources), _SOURCES_PER_CHUNK):
        chunk = sources[lo:lo + _SOURCES_PER_CHUNK]
        dist = out[lo:lo + len(chunk)].reshape(-1)  # a view: entry row * n + vertex
        frontier = np.arange(len(chunk)) * n + chunk
        dist[frontier] = 0.0
        while frontier.size:
            u = frontier % n
            deg = degree[u]
            # the out-edges of every frontier entry, back to back
            edge = segments(indptr[u], deg)
            cand = np.repeat(dist[frontier], deg) + weights[edge]
            target = np.repeat(frontier - u, deg) + indices[edge]
            better = cand < dist[target]
            target = target[better]
            np.minimum.at(dist, target, cand[better])
            # the distinct targets in order, as np.unique gives them, without
            # the sort that took half of the kernel's time
            touched[target] = True
            frontier = np.flatnonzero(touched)
            touched[frontier] = False
    return out


# ---------------------------------------------------------------------------
# Revised simplex on the packing dual of a covering LP
# ---------------------------------------------------------------------------

def _rebuild_basis(basis, n_rows, n_cols, col_indptr, col_indices):
    B = np.zeros((n_rows, n_rows))
    for k, j in enumerate(basis):
        if j < n_cols:
            B[col_indices[col_indptr[j]:col_indptr[j + 1]], k] = 1.0
        else:
            B[j - n_cols, k] = 1.0
    binv = np.linalg.inv(B)
    xb = binv.sum(axis=1)  # b is all-ones
    np.clip(xb, 0.0, None, out=xb)
    return binv, xb


def packing_simplex(n_rows, n_cols, col_indptr, col_indices, cost, tol, max_iter):
    """Vectorized revised simplex, n_cols >= 1; ``cost[j]`` is column ``j``'s
    objective coefficient, the right-hand side of its covering constraint.
    Returns (status, objective, z, iterations)."""
    basis = np.arange(n_cols, n_cols + n_rows, dtype=np.int64)  # all slacks
    cb = np.zeros(n_rows)
    binv = np.eye(n_rows)
    xb = np.ones(n_rows)
    degenerate_run = 0
    bland = False
    status = LP_ITERATION_LIMIT
    it = 0
    pi = np.zeros(n_rows)
    while it < max_iter:
        pi = cb @ binv
        d = np.concatenate((cost - np.add.reduceat(pi[col_indices], col_indptr[:-1]), -pi))
        # Bland: the first improving column; Dantzig: the most improving one
        j = int(np.argmax(d > tol if bland else d))
        if d[j] <= tol:
            status = LP_OPTIMAL
            break
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
            status = LP_UNBOUNDED
            break
        # prefer the smallest leaving basis id among ties (Bland-compatible)
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
        if degenerate_run > _BLAND_AFTER:
            bland = True
        it += 1
        if it % _REFACTOR_EVERY == 0:
            binv, xb = _rebuild_basis(basis, n_rows, n_cols, col_indptr, col_indices)
    return status, float(cb @ xb), np.clip(pi, 0.0, 1.0), it


# ---------------------------------------------------------------------------
# Greedy cover (incumbent generator)
# ---------------------------------------------------------------------------

def greedy_pick(num_vars, cons_indptr, cons_indices, order=None):
    """0/1 picks of a greedy cover, without its redundant picks. Each pick is
    the variable in the most unsatisfied constraints, the lowest among ties;
    given ``order``, a permutation of the variables, it is instead the next
    variable of ``order`` that is still in an unsatisfied constraint."""
    n_cons = len(cons_indptr) - 1
    # the variable -> constraint incidence; constraint ids ascend per variable
    counts = np.bincount(cons_indices, minlength=num_vars)
    var_indptr = np.concatenate(([0], np.cumsum(counts)))
    var_cons = np.repeat(np.arange(n_cons), np.diff(cons_indptr))[np.argsort(cons_indices, kind="stable")]
    picked = np.zeros(num_vars, dtype=np.int8)
    unsat = np.ones(n_cons, dtype=bool)
    remaining = n_cons
    while remaining > 0:
        v = int(np.argmax(counts) if order is None else order[np.argmax(counts[order] > 0)])
        picked[v] = 1
        ls = var_cons[var_indptr[v]:var_indptr[v + 1]]
        ls = ls[unsat[ls]]
        unsat[ls] = False
        remaining -= len(ls)
        # members of the newly covered constraints, back to back
        starts = cons_indptr[ls]
        members = cons_indices[segments(starts, cons_indptr[ls + 1] - starts)]
        np.subtract.at(counts, members, 1)
    # drop, in ascending order, every pick whose constraints are all covered twice
    cover = np.add.reduceat(picked[cons_indices].astype(np.int64), cons_indptr[:-1])
    for v in np.flatnonzero(picked):
        cons = var_cons[var_indptr[v]:var_indptr[v + 1]]
        if (cover[cons] >= 2).all():
            picked[v] = 0
            cover[cons] -= 1
    return picked
