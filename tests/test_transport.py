from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import exact_ot, ot_loss, sinkhorn_kernel_reference, sinkhorn_reference
from ufppack import transport
from ufppack.transport import cost_matrix, sinkhorn, transport_cost


def _train_instance(seed, zeros=False):
    # A train_sim call: 16 unit features against 3 proxies, uniform q,
    # descending vocabulary marginals p.
    rng = np.random.default_rng(seed)
    cost = cost_matrix(rng.normal(size=(16, 16)), rng.normal(size=(3, 16)))
    p = np.sort(rng.dirichlet(np.ones(3)))[::-1].copy()
    q = np.full(16, 1.0 / 16)
    if zeros:
        p[-1] = 0.0
        q[-3:] = 0.0
        p /= p.sum()
        q /= q.sum()
    return cost, p, q


def _plan_from_potentials(cost, q, h, epsilon):
    # P_ij = q_i softmax_j(h_j - C_ij / epsilon), in the log domain so that
    # no epsilon underflows it.
    a = h - cost / epsilon
    e = np.exp(a - a.max(axis=1, keepdims=True))
    return q[:, None] * e / e.sum(axis=1, keepdims=True)


def _random_instance(rng):
    n, k = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    cost = rng.uniform(0, 1, (n, k))
    p = rng.dirichlet(np.ones(k))
    q = rng.dirichlet(np.ones(n))
    return cost, p, q


class TestCostMatrix:
    def test_same_direction_zero(self):
        c = cost_matrix(np.array([[1.0, 0.0]]), np.array([[2.0, 0.0]]))
        assert c[0, 0] == pytest.approx(0.0)

    def test_orthogonal_half(self):
        c = cost_matrix(np.array([[1.0, 0.0]]), np.array([[0.0, 3.0]]))
        assert c[0, 0] == pytest.approx(0.5)

    def test_opposite_one(self):
        c = cost_matrix(np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]]))
        assert c[0, 0] == pytest.approx(1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cost_matrix(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError, match="^zero-norm vector in cost_matrix input$"):
            cost_matrix(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_range(self):
        rng = np.random.default_rng(0)
        c = cost_matrix(rng.normal(size=(10, 4)), rng.normal(size=(5, 4)))
        assert np.all(c >= 0) and np.all(c <= 1)


class TestSinkhorn:
    def test_constant_cost_gives_outer_product(self):
        p = np.array([0.3, 0.7])
        q = np.array([0.6, 0.4])
        res = sinkhorn(np.full((2, 2), 0.5), p, q, epsilon=0.05)
        assert np.allclose(res.plan, np.outer(q, p), atol=1e-6)

    def test_diagonal_cost_small_epsilon(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        p = q = np.array([0.5, 0.5])
        res = sinkhorn(cost, p, q, epsilon=0.01)
        _, opt = exact_ot(cost, p, q)
        assert transport_cost(cost, res.plan) == pytest.approx(opt, abs=1e-3)

    def test_single_row_forced(self):
        res = sinkhorn(np.array([[0.2, 0.7, 0.1]]), np.array([0.2, 0.3, 0.5]), np.array([1.0]))
        assert np.allclose(res.plan[0], [0.2, 0.3, 0.5], atol=1e-9)

    def test_marginals_satisfied(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            cost, p, q = _random_instance(rng)
            res = sinkhorn(cost, p, q, epsilon=0.05)
            assert res.converged
            assert np.allclose(res.plan.sum(axis=1), q, atol=1e-6)
            assert np.allclose(res.plan.sum(axis=0), p, atol=1e-6)
            assert np.all(res.plan >= 0)
            assert res.plan.sum() == pytest.approx(1.0, abs=1e-6)

    def test_zero_marginal_entries_zero_plan(self):
        cost = np.array([[0.1, 0.9], [0.3, 0.2]])
        p = np.array([1.0, 0.0])
        q = np.array([0.5, 0.5])
        res = sinkhorn(cost, p, q, epsilon=0.05)
        assert np.allclose(res.plan[:, 1], 0.0)

    def test_cost_monotone_in_epsilon(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            cost, p, q = _random_instance(rng)
            costs = [
                transport_cost(cost, sinkhorn(cost, p, q, epsilon=e, max_iters=5000).plan)
                for e in (0.1, 0.05, 0.01)
            ]
            assert costs[0] >= costs[1] - 1e-9
            assert costs[1] >= costs[2] - 1e-9

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        cost = rng.uniform(0, 1, (3, 4))
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(3))
        base = sinkhorn(cost, p, q, epsilon=0.05).plan
        pr = rng.permutation(3)
        pc = rng.permutation(4)
        permuted = sinkhorn(cost[pr][:, pc], p[pc], q[pr], epsilon=0.05).plan
        assert np.allclose(permuted, base[pr][:, pc], atol=1e-8)

    def test_bad_marginals_rejected(self):
        with pytest.raises(ValueError):
            sinkhorn(np.zeros((2, 2)), np.array([0.5, 0.6]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("p, q", [([0.5, 0.5], [0.2, 0.3, 0.5]), ([1.0], [0.5, 0.5])])
    def test_marginal_shapes_not_matching_cost_rejected(self, p, q):
        with pytest.raises(ValueError, match=r"^marginal shapes .* do not match cost \(2, 3\)$"):
            sinkhorn(np.zeros((2, 3)), np.array(p), np.array(q))

    @pytest.mark.parametrize("bad", [[math.nan, 1.0], [1.0, math.nan], [math.inf, 1.0],
                                     [math.inf, -math.inf]])
    @pytest.mark.parametrize("side", ["p", "q"])
    def test_non_finite_marginals_rejected(self, bad, side):
        good = [0.5, 0.5]
        p, q = (bad, good) if side == "p" else (good, bad)
        with pytest.raises(ValueError, match=f"{side} must be a probability vector"):
            sinkhorn(np.full((2, 2), 0.3), p, q)

    @pytest.mark.parametrize("side", ["p", "q"])
    def test_empty_marginal_rejected(self, side):
        # An empty marginal sums to 0, not 1; its reductions raise nothing.
        p, q, cost = ([], [0.5, 0.5], np.zeros((2, 0))) if side == "p" else (
            [0.5, 0.5], [], np.zeros((0, 2)))
        with pytest.raises(ValueError,
                           match=f"^{side} must be a probability vector, got sum 0.0$"):
            sinkhorn(cost, p, q)

    @pytest.mark.parametrize("bad", [[-0.5, math.nan], [math.nan, -0.5]])
    @pytest.mark.parametrize("side", ["p", "q"])
    def test_negative_entry_next_to_nan_rejected(self, bad, side):
        good = [0.5, 0.5]
        p, q = (bad, good) if side == "p" else (good, bad)
        with pytest.raises(ValueError,
                           match=f"^{side} must be a probability vector, got a negative entry$"):
            sinkhorn(np.full((2, 2), 0.3), p, q)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_cost_rejected(self, bad):
        cost = np.full((2, 2), 0.3)
        cost[1, 0] = bad
        with pytest.raises(ValueError, match="cost must be finite"):
            sinkhorn(cost, np.array([0.5, 0.5]), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("epsilon", [0.0, -0.01, math.nan, -math.inf])
    def test_non_positive_epsilon_rejected(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            sinkhorn(np.full((2, 2), 0.3), np.array([0.5, 0.5]), np.array([0.5, 0.5]),
                     epsilon=epsilon)

    @pytest.mark.parametrize("epsilon", [1e-310, np.float64(1e-310), 5e-324])
    def test_overflowing_cost_over_epsilon_rejected(self, epsilon):
        # max|C| / epsilon overflows; a zero cost does not.
        p = q = np.array([0.5, 0.5])
        with pytest.raises(ValueError, match="epsilon .* is too small"):
            sinkhorn(np.array([[0.0, 1.0], [1.0, 0.5]]), p, q, epsilon=epsilon)
        res = sinkhorn(np.zeros((2, 2)), p, q, epsilon=epsilon)
        assert res.converged and np.array_equal(res.plan, np.full((2, 2), 0.25))

    def test_nonconvergence_flagged(self):
        cost = np.random.default_rng(0).uniform(0, 1, (4, 4))
        p = q = np.full(4, 0.25)
        res = sinkhorn(cost, p, q, epsilon=0.001, max_iters=2, tol=1e-12)
        assert not res.converged
        assert res.iterations == 2


class TestSinkhornAgainstReference:
    """sinkhorn() against long runs of the scalar log-domain reference."""

    @staticmethod
    def _instance(seed, zeros=False):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        cost = rng.uniform(0, 1, (n, k))
        cost[0, 0] = 1.0  # max cost 1, so max|C|/epsilon is 1/epsilon
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(n))
        if zeros:
            p[-1] = 0.0
            q[-1] = 0.0
            p /= p.sum()
            q /= q.sum()
        return cost, p, q

    # quick: 2000 reference sweeps reach the fixed point; the smallest epsilon
    # needs 5000.
    @pytest.mark.parametrize("epsilon, quick", [(0.05, True), (0.01, True), (0.001, False)])
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("zeros", [False, True])
    def test_plan_matches_reference(self, epsilon, quick, seed, zeros):
        cost, p, q = self._instance(seed, zeros)
        res = sinkhorn(cost, p, q, epsilon=epsilon, max_iters=150, tol=1e-12)
        assert res.converged
        # Sweeps enough for the reference to reach its fixed point.
        want = sinkhorn_reference(cost, p, q, epsilon, 2000 if quick else 5000)
        assert np.max(np.abs(res.plan - want)) <= 1e-12
        if zeros:
            assert np.all(res.plan[-1, :] == 0.0)
            assert np.all(res.plan[:, -1] == 0.0)

    def test_violation_is_that_of_returned_plan(self):
        cost, p, q = self._instance(3)
        for epsilon in (0.05, 0.001):
            res = sinkhorn(cost, p, q, epsilon=epsilon, max_iters=13, tol=1e-12)
            P = res.plan
            viol = max(np.max(np.abs(P.sum(axis=1) - q)), np.max(np.abs(P.sum(axis=0) - p)))
            assert abs(res.marginal_violation - viol) <= 1e-15
            assert res.converged == (viol < 1e-12)


class TestViolationContract:
    """``marginal_violation`` is that of the returned plan, over rows and
    columns, to within 1e-15, at every epsilon, start and budget."""

    @pytest.mark.parametrize("zeros", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    @pytest.mark.parametrize("epsilon", [0.05, 0.01, 0.001, 1e-4])
    def test_violation_of_returned_plan(self, epsilon, k, zeros):
        rng = np.random.default_rng(k)
        feats, proxies = rng.normal(size=(12, 16)), rng.normal(size=(k, 16))
        cost = cost_matrix(feats, proxies)
        near = cost_matrix(feats + 0.05 * rng.normal(size=feats.shape), proxies)
        p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(12))
        if zeros:
            q[[2, 7]] = 0.0
            if k > 1:
                p[-1] = 0.0
            p /= p.sum()
            q /= q.sum()
        start = sinkhorn(near, p, q, epsilon=epsilon, max_iters=150).potentials
        for init in (None, start):
            for max_iters in (0, 2, 150):
                res = sinkhorn(cost, p, q, epsilon=epsilon, max_iters=max_iters, init=init)
                P = res.plan
                viol = max(np.max(np.abs(P.sum(axis=1) - q)),
                           np.max(np.abs(P.sum(axis=0) - p)))
                assert abs(res.marginal_violation - viol) <= 1e-15
                assert res.converged == (res.marginal_violation < 1e-6)
                assert np.isfinite(P).all()
                want = _plan_from_potentials(cost, q, res.potentials, epsilon)
                assert np.max(np.abs(P - want)) <= 1e-12
                assert np.all(P[q == 0, :] == 0.0) and np.all(P[:, p == 0] == 0.0)


class TestNewton:
    """sinkhorn()'s semi-dual Newton steps against long-run sweeps of the oracle loop."""

    @staticmethod
    def _long_run(cost, p, q, epsilon):
        P, _, viol = sinkhorn_kernel_reference(cost, p, q, epsilon, 200_000, 1e-13)
        assert viol < 1e-13
        return P

    @pytest.mark.parametrize("seed", range(12))
    def test_train_default_shapes_converge_to_fixed_point(self, seed):
        cost, p, q = _train_instance(seed)
        res = sinkhorn(cost, p, q, epsilon=0.01, max_iters=150)
        assert res.converged and res.iterations < 150
        assert np.max(np.abs(res.plan - self._long_run(cost, p, q, 0.01))) <= 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_zero_marginals(self, seed):
        cost, p, q = _train_instance(seed, zeros=True)
        res = sinkhorn(cost, p, q, epsilon=0.01, max_iters=150)
        assert res.converged
        assert np.all(res.plan[-3:, :] == 0.0)
        assert np.all(res.plan[:, -1] == 0.0)
        assert np.max(np.abs(res.plan - self._long_run(cost, p, q, 0.01))) <= 1e-6

    @pytest.mark.parametrize("n, k", [(1, 2), (2, 2), (7, 4), (9, 5), (40, 5), (30, 3),
                                      (10, 6), (16, 8), (30, 12)])
    @pytest.mark.parametrize("epsilon", [0.05, 0.01])
    def test_shapes(self, n, k, epsilon):
        rng = np.random.default_rng(n * 100 + k)
        cost = rng.uniform(0, 1, (n, k))
        p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(n))
        res = sinkhorn(cost, p, q, epsilon=epsilon, max_iters=500)
        assert res.converged and res.iterations < 500
        assert np.max(np.abs(res.plan - self._long_run(cost, p, q, epsilon))) <= 1e-6

    def test_converged_plan_lies_well_under_tol(self):
        # Quadratic convergence past tol: the margin that keeps a forced plan's
        # cost within rounding of the exact one (test_cost_monotone_in_epsilon).
        for seed in range(12):
            cost, p, q = _train_instance(seed)
            assert sinkhorn(cost, p, q, epsilon=0.01, max_iters=150).marginal_violation < 1e-8

    @pytest.mark.parametrize("n", [1, 5])
    def test_single_column_is_row_marginal(self, n):
        q = np.random.default_rng(n).dirichlet(np.ones(n))
        res = sinkhorn(np.random.default_rng(0).uniform(0, 1, (n, 1)), np.ones(1), q,
                       epsilon=0.01, max_iters=150)
        assert res.iterations == 0 and res.converged
        assert np.array_equal(res.plan, q[:, None])

    def test_single_positive_column_after_zeros(self):
        cost = np.random.default_rng(1).uniform(0, 1, (4, 3))
        q = np.array([0.25, 0.0, 0.5, 0.25])
        res = sinkhorn(cost, np.array([0.0, 1.0, 0.0]), q, epsilon=0.01)
        assert res.iterations == 0 and res.converged
        assert np.array_equal(res.plan, np.outer(q, [0.0, 1.0, 0.0]))

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_budget_returns_initial_plan(self, seed):
        cost, p, q = _train_instance(seed)
        res = sinkhorn(cost, p, q, epsilon=0.01, max_iters=0)
        K = np.exp(-cost / 0.01)
        want = q[:, None] * K * p / (K @ p)[:, None]
        assert res.iterations == 0
        assert np.allclose(res.plan, want, rtol=1e-12, atol=0.0)
        assert not res.converged and res.marginal_violation >= 1e-6

    def test_zero_budget_converged_initial_plan(self):
        # A constant cost makes the initial plan q p^T, the fixed point itself.
        p, q = np.array([0.2, 0.3, 0.5]), np.full(4, 0.25)
        res = sinkhorn(np.full((4, 3), 0.4), p, q, epsilon=0.01, max_iters=0)
        assert res.iterations == 0 and res.converged
        assert np.allclose(res.plan, np.outer(q, p), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("good", [0, 3])
    def test_stall_returns_last_accepted_plan(self, monkeypatch, good):
        # Past its first `good` system solves every solve fails, so the damping
        # grows past _DAMPING_MAX before the budget runs out. The plan and
        # potentials are those after the steps of the good solves, which a
        # budget of `good` steps also returns.
        cost, p, q = _train_instance(0)
        want = sinkhorn(cost, p, q, epsilon=0.01, max_iters=good)
        solves = []
        real = transport._solve_scalar
        monkeypatch.setattr(transport, "_solve_scalar", lambda d, M, g: (
            solves.append(g) or (real(d, M, g) if len(solves) <= good else None)))
        res = sinkhorn(cost, p, q, epsilon=0.01, max_iters=150)
        assert res.iterations == len(solves) < 150
        assert np.array_equal(res.plan, want.plan)
        assert np.array_equal(res.potentials, want.potentials)
        assert res.marginal_violation == want.marginal_violation >= 1e-6
        assert not res.converged

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("epsilon", [0.01, 0.001])
    def test_non_finite_step_rejected(self, monkeypatch, bad, epsilon):
        # The first system solve returns a step that is not finite: it is
        # rejected, and the damped steps after it converge to the plan of an
        # undisturbed solve.
        cost, p, q = _train_instance(2)
        want = sinkhorn(cost, p, q, epsilon=epsilon, max_iters=150)
        solves = []
        real = transport._solve_scalar
        monkeypatch.setattr(transport, "_solve_scalar", lambda d, M, g: (
            solves.append(g) or ([bad, 0.0] if len(solves) == 1 else real(d, M, g))))
        res = sinkhorn(cost, p, q, epsilon=epsilon, max_iters=150)
        assert res.converged and np.isfinite(res.potentials).all()
        assert np.max(np.abs(res.plan - want.plan)) <= 1e-9

    @pytest.mark.parametrize("k, epsilon", [(3, 0.001), (8, 0.001), (3, 1e-4)])
    def test_small_epsilon_converges(self, k, epsilon):
        rng = np.random.default_rng(k)
        cost = rng.uniform(0, 1, (10, k))
        cost[0, 0] = 1.0
        p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(10))
        res = sinkhorn(cost, p, q, epsilon=epsilon, max_iters=150)
        assert res.converged and res.iterations < 150
        want = _plan_from_potentials(cost, q, res.potentials, epsilon)
        assert np.max(np.abs(res.plan - want)) <= 1e-12

    def test_potentials_move_hundreds_from_start(self):
        # At epsilon 1e-4 the potentials move hundreds away from their start,
        # log p, and the plan still matches them.
        cost, p, q = _train_instance(0)
        res = sinkhorn(cost, p, q, epsilon=1e-4, max_iters=150)
        assert res.converged
        assert np.max(np.abs(res.potentials - np.log(p))) > 300.0
        want = _plan_from_potentials(cost, q, res.potentials, 1e-4)
        assert np.max(np.abs(res.plan - want)) <= 1e-12

    def test_nonconvergence_flagged_at_small_budget(self):
        cost, p, q = _train_instance(0)
        res = sinkhorn(cost, p, q, epsilon=0.01, max_iters=2)
        assert res.iterations == 2 and not res.converged
        P = res.plan
        viol = max(np.max(np.abs(P.sum(axis=1) - q)), np.max(np.abs(P.sum(axis=0) - p)))
        assert res.marginal_violation == pytest.approx(viol, rel=1e-12)


class TestWarmStart:
    """sinkhorn(init=...) starts Newton from given column potentials."""

    @staticmethod
    def _neighbours(seed, k):
        # A 16 x k train_sim-like problem and its neighbour one step later:
        # fresh feature noise and slightly moved proxies.
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(16, 16))
        proxies = rng.normal(size=(k, 16))
        p = rng.dirichlet(np.ones(k))
        q = np.full(16, 1.0 / 16)
        near = cost_matrix(feats + 0.05 * rng.normal(size=feats.shape),
                           proxies + 0.05 * rng.normal(size=proxies.shape))
        return cost_matrix(feats, proxies), near, p, q

    @pytest.mark.parametrize("shift", [0.0, 3.7, -250.0, 800.0])
    @pytest.mark.parametrize("seed", range(6))
    def test_resolve_from_own_potentials(self, seed, shift):
        cost, p, q = _train_instance(seed)
        cold = sinkhorn(cost, p, q, epsilon=0.01, max_iters=150)
        assert cold.converged and cold.potentials.shape == (3,)
        warm = sinkhorn(cost, p, q, epsilon=0.01, max_iters=150, init=cold.potentials + shift)
        assert warm.converged and warm.iterations <= 2
        assert np.max(np.abs(warm.plan - cold.plan)) <= 1e-9

    @pytest.mark.parametrize("k", range(1, 9))
    def test_start_from_neighbouring_problem(self, k):
        cold_steps = warm_steps = 0
        for seed in range(10):
            cost, near, p, q = self._neighbours(100 * k + seed, k)
            start = sinkhorn(near, p, q, epsilon=0.01, max_iters=150).potentials
            cold = sinkhorn(cost, p, q, epsilon=0.01, max_iters=150)
            warm = sinkhorn(cost, p, q, epsilon=0.01, max_iters=150, init=start)
            assert cold.converged and warm.converged
            assert np.max(np.abs(warm.plan - cold.plan)) <= 1e-8
            cold_steps += cold.iterations
            warm_steps += warm.iterations
        if k > 1:
            assert warm_steps < cold_steps

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_mass_rows_and_columns(self, seed):
        cost, p, q = _train_instance(seed, zeros=True)
        cold = sinkhorn(cost, p, q, epsilon=0.01, max_iters=150)
        assert cold.potentials[-1] == -np.inf and np.isfinite(cold.potentials[:-1]).all()
        # Whatever sits on the zero-mass column is ignored.
        for last in (-np.inf, np.nan, 5.0):
            init = cold.potentials.copy()
            init[-1] = last
            warm = sinkhorn(cost, p, q, epsilon=0.01, max_iters=150, init=init)
            assert warm.converged and warm.iterations <= 2
            assert np.all(warm.plan[-3:, :] == 0.0) and np.all(warm.plan[:, -1] == 0.0)
            assert np.max(np.abs(warm.plan - cold.plan)) <= 1e-9
            assert warm.potentials[-1] == -np.inf

    @pytest.mark.parametrize("bad", [-np.inf, np.inf, np.nan])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_non_finite_start_is_cold_start(self, bad, zeros):
        cost, p, q = _train_instance(3, zeros=zeros)
        cold = sinkhorn(cost, p, q, epsilon=0.01, max_iters=150)
        init = np.array([0.1, bad, -0.2])
        warm = sinkhorn(cost, p, q, epsilon=0.01, max_iters=150, init=init)
        assert np.array_equal(warm.plan, cold.plan)
        assert np.array_equal(warm.potentials, cold.potentials)
        assert (warm.iterations, warm.marginal_violation) == (cold.iterations,
                                                              cold.marginal_violation)

    @pytest.mark.parametrize("shape", [(), (2,), (4,), (3, 1), (1, 3)])
    def test_wrong_shape_rejected(self, shape):
        cost, p, q = _train_instance(0)
        with pytest.raises(ValueError, match="init"):
            sinkhorn(cost, p, q, epsilon=0.01, init=np.zeros(shape))

    @pytest.mark.parametrize("zeros", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_potentials_reproduce_plan(self, seed, zeros):
        cost, p, q = _train_instance(seed, zeros=zeros)
        for max_iters in (0, 3, 150):
            res = sinkhorn(cost, p, q, epsilon=0.01, max_iters=max_iters)
            want = _plan_from_potentials(cost, q, res.potentials, 0.01)
            assert np.max(np.abs(res.plan - want)) <= 1e-12

    def test_cold_start_potentials_are_log_p(self):
        cost, p, q = _train_instance(0)
        assert np.array_equal(sinkhorn(cost, p, q, epsilon=0.01, max_iters=0).potentials,
                              np.log(p))

    @pytest.mark.parametrize("k, epsilon", [(3, 0.001), (8, 0.001)])
    def test_small_epsilon_plan_has_potentials(self, k, epsilon):
        rng = np.random.default_rng(k)
        cost = rng.uniform(0, 1, (10, k))
        cost[0, 0] = 1.0
        p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(10))
        res = sinkhorn(cost, p, q, epsilon=epsilon, max_iters=150, init=np.zeros(k))
        assert res.converged and res.potentials.shape == (k,)
        want = _plan_from_potentials(cost, q, res.potentials, epsilon)
        assert np.max(np.abs(res.plan - want)) <= 1e-12

    @pytest.mark.parametrize("spread", [400.0, 5000.0])
    def test_far_start_converges_to_cold_plan(self, spread):
        # A start whose potentials spread hundreds or thousands apart
        # converges to the cold plan.
        cost, p, q = _train_instance(1)
        cold = sinkhorn(cost, p, q, epsilon=0.01, max_iters=150)
        warm = sinkhorn(cost, p, q, epsilon=0.01, max_iters=150,
                        init=np.array([0.0, -spread, 1.0]))
        assert warm.converged
        assert np.max(np.abs(warm.plan - cold.plan)) <= 1e-9

    @pytest.mark.parametrize("k, epsilon", [(6, 0.05), (12, 0.01)])
    def test_wide_newton_plan_has_potentials(self, k, epsilon):
        rng = np.random.default_rng(k)
        cost = rng.uniform(0, 1, (10, k))
        cost[0, 0] = 1.0
        p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(10))
        res = sinkhorn(cost, p, q, epsilon=epsilon, max_iters=300, init=np.zeros(k))
        assert res.converged and res.potentials.shape == (k,)
        want = _plan_from_potentials(cost, q, res.potentials, epsilon)
        assert np.max(np.abs(res.plan - want)) <= 1e-12

    def test_stalled_newton_has_potentials(self, monkeypatch):
        # No step is ever taken: the potentials are the start, log p.
        monkeypatch.setattr(transport, "_solve_scalar", lambda d, M, g: None)
        cost, p, q = _train_instance(0)
        res = sinkhorn(cost, p, q, epsilon=0.01, max_iters=150)
        assert not res.converged
        assert np.array_equal(res.potentials, np.log(p))


class TestExactOt:
    def test_diagonal(self):
        plan, opt = exact_ot(
            np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.5, 0.5]), np.array([0.5, 0.5])
        )
        assert opt == pytest.approx(0.0)
        assert np.allclose(plan, np.diag([0.5, 0.5]))

    def test_constant_cost(self):
        _, opt = exact_ot(np.full((3, 3), 0.4), np.full(3, 1 / 3), np.full(3, 1 / 3))
        assert opt == pytest.approx(0.4)

    def test_forced_column(self):
        plan, opt = exact_ot(
            np.array([[0.0, 1.0], [0.0, 1.0]]), np.array([1.0, 0.0]), np.array([0.5, 0.5])
        )
        assert opt == pytest.approx(0.0)
        assert np.allclose(plan[:, 0], [0.5, 0.5])

    def test_size_cap(self):
        with pytest.raises(ValueError):
            exact_ot(np.zeros((5, 2)), np.array([0.5, 0.5]), np.full(5, 0.2))

    def test_beats_or_matches_sinkhorn(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            cost, p, q = _random_instance(rng)
            _, opt = exact_ot(cost, p, q)
            sk = transport_cost(cost, sinkhorn(cost, p, q, epsilon=0.01, max_iters=5000).plan)
            # the entropic plan meets the marginals only to tolerance, so it can
            # undercut the exact optimum by up to that slack times the max cost
            assert sk >= opt - 1e-5


class TestOtLoss:
    def test_zero_costs(self):
        plan = np.full((2, 2), 0.25)
        assert ot_loss([np.zeros((2, 2))], [plan]) == 0.0

    def test_diagonal_plan_crossed_cost(self):
        plan = np.diag([0.5, 0.5])
        assert ot_loss([np.array([[0.0, 1.0], [1.0, 0.0]])], [plan]) == 0.0

    def test_constant_cost_equals_constant(self):
        plan = np.outer([0.5, 0.5], [0.25] * 4)
        assert ot_loss([np.full((2, 4), 0.3)], [plan]) == pytest.approx(0.3)

    def test_shape_mismatch(self):
        plan = np.diag([0.5, 0.5])
        with pytest.raises(ValueError):
            ot_loss([np.zeros((3, 2))], [plan])
