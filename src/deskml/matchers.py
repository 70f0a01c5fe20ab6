"""Bipartite matching for set-prediction losses.

Three solvers over an [n, m] cost matrix (n rows = targets, m columns =
prediction slots, n <= m):

* ``hungarian`` — exact minimum-cost assignment (Jonker-Volgenant style
  augmenting shortest paths, O(n^2 m)), with a deterministic
  lexicographic tie-break among optima.
* ``sinkhorn_match`` — entropy-regularized soft plan via log-domain
  Sinkhorn iterations, rounded to a hard assignment by an exact solve
  on the log-plan.
* ``greedy_match`` — cheap baseline picking globally minimal cells.

``match`` runs any of them by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MatcherError(Exception):
    pass


@dataclass(frozen=True)
class Assignment:
    row_to_col: tuple[int, ...]
    total_cost: float


def _validate(costs: np.ndarray) -> np.ndarray:
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2:
        raise MatcherError(f"cost matrix must be 2-D, got shape {costs.shape}")
    n, m = costs.shape
    if n < 1 or m < 1:
        raise MatcherError("cost matrix must be at least 1x1")
    if n > m:
        raise MatcherError(f"need rows <= cols, got {n}x{m}")
    if not np.isfinite(costs).all():
        raise MatcherError("cost matrix contains non-finite entries")
    return costs


def _solve_jv(costs: np.ndarray):
    """Minimum-cost row->col assignment via shortest augmenting paths.

    Returns ``(row_to_col, u, v)``: the assignment and its dual
    potentials, with ``costs - u[:, None] - v[None, :] >= 0``, equality
    on the assignment, ``v <= 0`` and ``v == 0`` on unassigned columns.
    """
    n, m = costs.shape
    rows = costs.tolist()
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    col_row = [0] * (m + 1)  # 1-based row matched to column
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        col_row[0] = i
        j0 = 0
        minv = [np.inf] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = col_row[j0]
            row, ui = rows[i0 - 1], u[i0]
            # Relax the free columns and take the first minimum among
            # them in column order, as np.argmin does.
            j1 = 0
            for j in range(1, m + 1):
                if not used[j]:
                    cur = row[j - 1] - ui - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if j1 == 0 or minv[j] < minv[j1]:
                        j1 = j
            delta = minv[j1]
            for j in range(m + 1):
                if used[j]:
                    u[col_row[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if col_row[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            col_row[j0] = col_row[j1]
            j0 = j1
    row_to_col = np.zeros(n, dtype=np.int64)
    for j in range(1, m + 1):
        if col_row[j] > 0:
            row_to_col[col_row[j] - 1] = j - 1
    return row_to_col, np.array(u[1:]), np.array(v[1:])


def _optimal_cost(costs: np.ndarray) -> float:
    rc = _solve_jv(costs)[0]
    return float(costs[np.arange(costs.shape[0]), rc].sum())


def hungarian(costs) -> Assignment:
    """Exact minimum-cost assignment.

    Among all optimal assignments, returns the lexicographically
    smallest row_to_col vector, so results are deterministic even under
    cost ties.
    """
    costs = _validate(costs)
    n, m = costs.shape
    jv, u, v = _solve_jv(costs)
    best = float(costs[np.arange(n), jv].sum())
    scale = max(1.0, float(np.abs(costs).max()))
    tol = 1e-9 * scale * max(n, 1)
    # Any assignment costs the optimum plus at least the reduced costs
    # c - u - v of its edges (the duals are feasible, v <= 0, and v is 0
    # off the optimum), so an edge whose reduced cost exceeds the
    # tolerance lies on no optimal assignment. Twice the tolerance
    # leaves room for rounding in u and v; a tight edge is solved below.
    tight = costs - u[:, None] - v[None, :] <= 2 * tol

    # Fix rows in order to the smallest column that still admits an
    # optimal completion of the remaining subproblem. While the prefix
    # fixed so far is the JV optimum's, JV's own column completes it.
    free_cols = list(range(m))
    remaining = best
    chosen = []
    on_jv = True
    for i in range(n):
        rest_rows = np.arange(i + 1, n)
        for c in free_cols:
            sub_budget = remaining - costs[i, c]
            if len(rest_rows) == 0:
                if abs(sub_budget) > tol:
                    continue
            elif not (on_jv and c == jv[i]):
                if not tight[i, c]:
                    continue
                cols = [cc for cc in free_cols if cc != c]
                sub = costs[np.ix_(rest_rows, cols)]
                if abs(_optimal_cost(sub) - sub_budget) > tol:
                    continue
            chosen.append(c)
            free_cols.remove(c)
            remaining = sub_budget
            on_jv = on_jv and c == jv[i]
            break
        else:
            raise MatcherError("internal error: no optimal completion found")

    total = float(costs[np.arange(n), chosen].sum())
    return Assignment(row_to_col=tuple(int(c) for c in chosen), total_cost=total)


def greedy_match(costs) -> Assignment:
    """Repeatedly pick the globally minimal remaining cell (not optimal)."""
    costs = _validate(costs)
    n, m = costs.shape
    work = costs.copy()
    row_to_col = np.full(n, -1, dtype=np.int64)
    for _ in range(n):
        # flat argmin resolves ties by (row, col) order
        i, j = np.unravel_index(np.argmin(work), work.shape)
        row_to_col[i] = j
        work[i, :] = np.inf
        work[:, j] = np.inf
    total = float(costs[np.arange(n), row_to_col].sum())
    return Assignment(row_to_col=tuple(int(c) for c in row_to_col), total_cost=total)


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    mx = x.max(axis=axis, keepdims=True)
    out = np.log(np.exp(x - mx).sum(axis=axis)) + np.squeeze(mx, axis=axis)
    return out


def sinkhorn_match(costs, epsilon: float = 0.01, iters: int = 1000):
    """Entropy-regularized soft matching plus a rounded hard assignment.

    Returns ``(soft_plan, assignment, marginal_violation)`` where the
    plan has uniform marginals (rows sum to 1/n for square inputs; for
    n < m the matrix is padded with zero-cost rows so column mass is
    balanced). Iterations run in the log domain for stability at any
    epsilon.
    """
    costs = _validate(costs)
    if epsilon <= 0:
        raise MatcherError(f"epsilon must be positive, got {epsilon}")
    if iters < 1:
        raise MatcherError(f"iters must be >= 1, got {iters}")
    n, m = costs.shape
    padded = np.vstack([costs, np.zeros((m - n, m))])
    target = 1.0 / m  # uniform marginal on both sides of the square plan
    log_a = -padded / epsilon
    log_r = np.log(target)
    f = np.zeros(m)
    g = np.zeros(m)
    for _ in range(iters):
        f = log_r - _logsumexp(log_a + g[None, :], axis=1)
        g = log_r - _logsumexp(log_a + f[:, None], axis=0)
    plan = np.exp(log_a + f[:, None] + g[None, :])
    if not np.isfinite(plan).all():
        raise MatcherError("sinkhorn failed to produce a finite plan")
    violation = float(np.abs(plan.sum(axis=1) - target).max())
    soft_plan = plan[:n]
    # At convergence -log(plan) equals the cost up to additive row and
    # column potentials, which are constant over assignments, so an
    # exact solve on the log-plan recovers the minimum-cost matching.
    row_to_col = _solve_jv(-np.log(np.maximum(soft_plan, 1e-300)))[0]
    total = float(costs[np.arange(n), row_to_col].sum())
    return soft_plan, Assignment(row_to_col=tuple(int(c) for c in row_to_col),
                                 total_cost=total), violation


# Entries look the solvers up by module-global name at call time, so a
# solver replaced on this module (e.g. wrapped for profiling) still runs.
_ALGORITHMS = {
    "hungarian": lambda c: hungarian(c),
    "greedy": lambda c: greedy_match(c),
    "sinkhorn": lambda c: sinkhorn_match(c)[1],
}


def match(costs, algorithm: str = "hungarian") -> Assignment:
    """Solve one [n, m] cost matrix with the named algorithm."""
    fn = _ALGORITHMS.get(algorithm)
    if fn is None:
        raise MatcherError(f"unknown algorithm {algorithm!r}; have {sorted(_ALGORITHMS)}")
    return fn(costs)
