import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskml import matchers as M
from deskml import rng as R


def brute_force(costs):
    n, m = costs.shape
    best_cost, best = np.inf, None
    for perm in itertools.permutations(range(m), n):
        c = costs[np.arange(n), list(perm)].sum()
        if c < best_cost - 1e-12:
            best_cost, best = c, perm
    return best, float(best_cost)


def reference_hungarian(costs):
    """Lexicographically smallest optimum by one optimal sub-solve per
    candidate column, with no pruning by the duals."""
    costs = np.asarray(costs, dtype=np.float64)
    n, m = costs.shape
    best = M._optimal_cost(costs)
    tol = 1e-9 * max(1.0, float(np.abs(costs).max())) * max(n, 1)
    free_cols = list(range(m))
    remaining = best
    chosen = []
    for i in range(n):
        rest_rows = np.arange(i + 1, n)
        for c in sorted(free_cols):
            sub_budget = remaining - costs[i, c]
            if sub_budget < -tol:
                continue
            if len(rest_rows) == 0:
                if abs(sub_budget) <= tol:
                    break
                continue
            sub = costs[np.ix_(rest_rows, [cc for cc in free_cols if cc != c])]
            if abs(M._optimal_cost(sub) - sub_budget) <= tol:
                break
        else:
            raise AssertionError("no optimal completion")
        chosen.append(c)
        free_cols.remove(c)
        remaining = sub_budget
    return M.Assignment(row_to_col=tuple(chosen),
                        total_cost=float(costs[np.arange(n), chosen].sum()))


def reference_case(kind, seed):
    k_shape, k_cost = R.split(R.RngKey.from_seed(seed), 2)
    n, m = (int(x) for x in R.randint(k_shape, (2,), 1, 9))
    n, m = min(n, m, 4), max(n, m)
    if kind == "row":
        n = 1
    elif kind == "square":
        m = n
    u = R.uniform(k_cost, (n, m))
    if kind == "ties":
        return np.floor(u * 3.0)  # entries in {0, 1, 2}
    if kind == "equal":
        return np.full((n, m), u[0, 0])
    return u


class TestSolveJV:
    """The dual certificate ``hungarian``'s pruning relies on."""

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("kind", ["uniform", "ties", "negative", "equal"])
    def test_duals_certify_the_assignment(self, kind, seed):
        k_shape, k_cost = R.split(R.RngKey.from_seed(700 + seed), 2)
        n, m = (int(x) for x in R.randint(k_shape, (2,), 1, 9))
        n, m = min(n, m, 5), max(n, m)
        c = R.uniform(k_cost, (n, m))
        costs = {"uniform": c, "ties": np.floor(c * 3.0),
                 "negative": (R.normal(k_cost, (n, m)) - 0.5) * 100.0,
                 "equal": np.full((n, m), -c[0, 0])}[kind]
        row_to_col, u, v = M._solve_jv(costs)
        assert u.dtype == v.dtype == np.float64
        assert u.shape == (n,) and v.shape == (m,)
        assert sorted(set(row_to_col.tolist())) == sorted(row_to_col.tolist())
        tol = 1e-9 * max(1.0, float(np.abs(costs).max())) * n
        reduced = costs - u[:, None] - v[None, :]
        assert (reduced >= -tol).all()
        assert np.abs(reduced[np.arange(n), row_to_col]).max() <= tol
        assert (v <= 0).all()
        free = np.setdiff1d(np.arange(m), row_to_col)
        assert (v[free] == 0).all()
        assert M._optimal_cost(costs) == pytest.approx(brute_force(costs)[1], abs=tol)


class TestHungarian:
    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("kind", ["uniform", "ties", "equal", "row", "square"])
    def test_equals_reference(self, kind, seed):
        costs = reference_case(kind, seed)
        assert M.hungarian(costs) == reference_hungarian(costs)

    @pytest.mark.parametrize("seed", range(10))
    def test_negative_costs(self, seed):
        costs = np.floor(R.uniform(R.RngKey.from_seed(300 + seed), (3, 4)) * 3.0) - 2.0
        a = M.hungarian(costs)
        perm, best = brute_force(costs)  # lexicographically first optimum
        assert a.row_to_col == perm
        assert a.total_cost == best

    def test_identity_costs(self):
        a = M.hungarian(1.0 - np.eye(3))
        assert a.row_to_col == (0, 1, 2)
        assert a.total_cost == 0.0

    def test_hand_example(self):
        costs = np.array([[4.0, 1.0, 3.0],
                          [2.0, 0.0, 5.0],
                          [3.0, 2.0, 2.0]])
        a = M.hungarian(costs)
        _, best = brute_force(costs)
        assert a.total_cost == pytest.approx(best)

    def test_rectangular_leaves_columns_free(self):
        costs = np.array([[10.0, 1.0, 10.0, 10.0],
                          [10.0, 10.0, 10.0, 2.0]])
        a = M.hungarian(costs)
        assert a.row_to_col == (1, 3)
        assert a.total_cost == pytest.approx(3.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force_5x5(self, seed):
        costs = R.uniform(R.RngKey.from_seed(seed), (5, 5))
        a = M.hungarian(costs)
        _, best = brute_force(costs)
        assert a.total_cost == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_rectangular(self, seed):
        costs = R.uniform(R.RngKey.from_seed(100 + seed), (3, 6))
        a = M.hungarian(costs)
        _, best = brute_force(costs)
        assert a.total_cost == pytest.approx(best, abs=1e-12)

    def test_tie_break_is_lexicographic(self):
        # every assignment of the all-zero matrix is optimal
        assert M.hungarian(np.zeros((2, 2))).row_to_col == (0, 1)
        assert M.hungarian(np.zeros((3, 5))).row_to_col == (0, 1, 2)

    def test_shift_invariance(self):
        costs = R.uniform(R.RngKey.from_seed(42), (4, 4))
        assert M.hungarian(costs).row_to_col == M.hungarian(costs + 100.0).row_to_col

    def test_injective_assignment(self):
        costs = R.uniform(R.RngKey.from_seed(8), (6, 9))
        a = M.hungarian(costs)
        assert len(set(a.row_to_col)) == 6

    def test_validation(self):
        with pytest.raises(M.MatcherError, match="rows <= cols"):
            M.hungarian(np.zeros((3, 2)))
        with pytest.raises(M.MatcherError, match="2-D"):
            M.hungarian(np.zeros(4))
        with pytest.raises(M.MatcherError, match="non-finite"):
            M.hungarian(np.array([[np.nan, 0.0], [0.0, 0.0]]))


class TestGreedy:
    def test_adversarial_case_is_suboptimal(self):
        costs = np.array([[0.0, 1.0], [0.0, 100.0]])
        g = M.greedy_match(costs)
        h = M.hungarian(costs)
        assert g.total_cost == pytest.approx(100.0)
        assert h.total_cost == pytest.approx(1.0)

    def test_injective(self):
        costs = R.uniform(R.RngKey.from_seed(11), (5, 7))
        assert len(set(M.greedy_match(costs).row_to_col)) == 5


class TestSinkhorn:
    def test_polarized_costs_give_sharp_plan(self):
        costs = np.array([[0.0, 10.0], [10.0, 0.0]])
        plan, a, viol = M.sinkhorn_match(costs, epsilon=0.1)
        assert np.allclose(plan, 0.5 * np.eye(2), atol=1e-6)
        assert a.row_to_col == (0, 1)
        assert viol < 1e-6

    def test_marginals_uniform(self):
        costs = R.uniform(R.RngKey.from_seed(13), (6, 6))
        plan, _, viol = M.sinkhorn_match(costs, epsilon=0.05)
        assert viol < 1e-6
        assert np.allclose(plan.sum(axis=0), 1.0 / 6, atol=1e-6)

    def test_rectangular_column_mass_balanced(self):
        costs = R.uniform(R.RngKey.from_seed(14), (3, 5))
        plan, a, _ = M.sinkhorn_match(costs, epsilon=0.05)
        assert plan.shape == (3, 5)
        assert len(set(a.row_to_col)) == 3

    @pytest.mark.parametrize("seed", range(20))
    def test_rounded_cost_within_5_percent_of_optimal(self, seed):
        costs = R.uniform(R.RngKey.from_seed(200 + seed), (10, 10))
        _, a, _ = M.sinkhorn_match(costs, epsilon=0.01)
        _, best = brute_force(costs[:6, :6])  # sanity only on a subcube
        h = M.hungarian(costs)
        assert a.total_cost <= 1.05 * h.total_cost + 1e-12

    def test_large_epsilon_near_uniform(self):
        costs = R.uniform(R.RngKey.from_seed(16), (5, 5))
        plan, _, viol = M.sinkhorn_match(costs, epsilon=1.0)
        assert viol < 1e-6
        # heavy regularization drives the plan toward uniform
        assert np.abs(plan - 1.0 / 25).max() < 0.05

    def test_parameter_validation(self):
        costs = np.zeros((2, 2))
        with pytest.raises(M.MatcherError, match="epsilon"):
            M.sinkhorn_match(costs, epsilon=0.0)
        with pytest.raises(M.MatcherError, match="iters"):
            M.sinkhorn_match(costs, iters=0)


class TestMatch:
    def test_default_is_hungarian(self):
        costs = R.uniform(R.RngKey.from_seed(17), (4, 6))
        assert M.match(costs) == M.hungarian(costs)

    def test_algorithms_selectable(self):
        costs = R.uniform(R.RngKey.from_seed(18), (3, 3))
        assert M.match(costs, "greedy") == M.greedy_match(costs)
        assert M.match(costs, "sinkhorn") == M.sinkhorn_match(costs)[1]
        with pytest.raises(M.MatcherError, match="unknown algorithm"):
            M.match(costs, algorithm="nope")

    def test_solvers_looked_up_at_call_time(self, monkeypatch):
        calls = []

        def recorded(costs):
            calls.append(costs.shape)
            return M.Assignment(row_to_col=(0,), total_cost=0.0)

        monkeypatch.setattr(M, "hungarian", recorded)
        M.match(np.zeros((1, 2)))
        assert calls == [(1, 2)]

    def test_shape_validation(self):
        with pytest.raises(M.MatcherError, match="2-D"):
            M.match(np.zeros((3, 3, 3)))


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_hungarian_never_beaten_by_any_permutation(seed):
    costs = R.uniform(R.RngKey.from_seed(seed), (4, 4))
    a = M.hungarian(costs)
    _, best = brute_force(costs)
    assert a.total_cost <= best + 1e-12
