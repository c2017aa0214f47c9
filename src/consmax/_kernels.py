"""Hot numeric kernels: Dijkstra, covering-LP simplex, greedy cover.

Each kernel has one numpy implementation. Callers look the kernels up as
``_kernels.dijkstra_table``, ``_kernels.packing_simplex`` and
``_kernels.greedy_pick`` at call time, so a profiler can wrap them in place.

LP formulation
--------------
The covering LP ``min sum(z)  s.t.  sum(z[i] for i in C_l) >= 1, z >= 0`` is
solved through its dual, a packing LP with one row per variable and one
column per constraint:

    ``max sum(y)  s.t.  sum(y[l] for l containing i) <= 1, y >= 0``.

The all-slack basis is feasible, so no phase-1 is needed. At optimality the
simplex multipliers are a feasible, optimal solution of the covering primal,
which is what the caller receives. Upper bounds ``z <= 1`` are omitted: with
0/1 rows and unit right-hand sides any optimum can be clipped to 1 without
losing feasibility, so they are never active at an optimum.
"""

from __future__ import annotations

import heapq

import numpy as np

# status codes returned by packing_simplex
LP_OPTIMAL = 0
LP_ITERATION_LIMIT = 1
LP_UNBOUNDED = 2

_REFACTOR_EVERY = 128
_BLAND_AFTER = 2000  # consecutive degenerate pivots before switching rules


# ---------------------------------------------------------------------------
# Dijkstra over a CSR edge graph
# ---------------------------------------------------------------------------

def dijkstra_table(indptr, indices, weights, sources, n):
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


def packing_simplex(n_rows, n_cols, col_indptr, col_indices, tol, max_iter):
    """Vectorized revised simplex. Returns (status, objective, z, iterations)."""
    if n_cols == 0:
        return LP_OPTIMAL, 0.0, np.zeros(n_rows), 0
    basis = np.arange(n_cols, n_cols + n_rows, dtype=np.int64)  # all slacks
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
        d = np.concatenate((1.0 - col_sums, -pi))
        if bland:
            pos = np.nonzero(d > tol)[0]
            if len(pos) == 0:
                return LP_OPTIMAL, float(cb @ xb), _primal_from_pi(pi), it
            j = int(pos[0])
        else:
            j = int(np.argmax(d))
            if d[j] <= tol:
                return LP_OPTIMAL, float(cb @ xb), _primal_from_pi(pi), it
        if j < n_cols:
            rows = col_indices[col_indptr[j]:col_indptr[j + 1]]
            u = binv[:, rows].sum(axis=1)
            enter_cost = 1.0
        else:
            u = binv[:, j - n_cols].copy()
            enter_cost = 0.0
        ratios = np.where(u > 1e-10, xb / np.where(u > 1e-10, u, 1.0), np.inf)
        k = int(np.argmin(ratios))
        theta = ratios[k]
        if not np.isfinite(theta):
            return LP_UNBOUNDED, float(cb @ xb), _primal_from_pi(pi), it
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
    return LP_ITERATION_LIMIT, float(cb @ xb), _primal_from_pi(pi), it


def _primal_from_pi(pi):
    z = pi.copy()
    np.clip(z, 0.0, 1.0, out=z)
    return z


# ---------------------------------------------------------------------------
# Greedy cover (incumbent generator)
# ---------------------------------------------------------------------------

def greedy_pick(num_vars, cons_indptr, cons_indices, var_indptr, var_cons):
    n_cons = len(cons_indptr) - 1
    picked = np.zeros(num_vars, dtype=np.int8)
    if n_cons == 0:
        return picked
    counts = np.bincount(cons_indices, minlength=num_vars)
    unsat = np.ones(n_cons, dtype=bool)
    remaining = n_cons
    while remaining > 0:
        v = int(np.argmax(counts))
        picked[v] = 1
        for l in var_cons[var_indptr[v]:var_indptr[v + 1]]:
            if unsat[l]:
                unsat[l] = False
                remaining -= 1
                counts[cons_indices[cons_indptr[l]:cons_indptr[l + 1]]] -= 1
    return picked
