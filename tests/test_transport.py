from __future__ import annotations

import numpy as np
import pytest

from oracles import exact_ot, ot_loss, sinkhorn_kernel_reference, sinkhorn_reference
from ufppack import transport
from ufppack.transport import TransportPlan, cost_matrix, sinkhorn, transport_cost


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

    def test_range(self):
        rng = np.random.default_rng(0)
        c = cost_matrix(rng.normal(size=(10, 4)), rng.normal(size=(5, 4)))
        assert np.all(c >= 0) and np.all(c <= 1)


class TestSinkhorn:
    def test_constant_cost_gives_outer_product(self):
        p = np.array([0.3, 0.7])
        q = np.array([0.6, 0.4])
        res = sinkhorn(np.full((2, 2), 0.5), p, q, epsilon=0.05)
        assert np.allclose(res.plan.entries, np.outer(q, p), atol=1e-6)

    def test_diagonal_cost_small_epsilon(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        p = q = np.array([0.5, 0.5])
        res = sinkhorn(cost, p, q, epsilon=0.01)
        _, opt = exact_ot(cost, p, q)
        assert transport_cost(cost, res.plan) == pytest.approx(opt, abs=1e-3)

    def test_single_row_forced(self):
        res = sinkhorn(np.array([[0.2, 0.7, 0.1]]), np.array([0.2, 0.3, 0.5]), np.array([1.0]))
        assert np.allclose(res.plan.entries[0], [0.2, 0.3, 0.5], atol=1e-9)

    def test_marginals_satisfied(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            cost, p, q = _random_instance(rng)
            res = sinkhorn(cost, p, q, epsilon=0.05)
            assert res.converged
            assert np.allclose(res.plan.entries.sum(axis=1), q, atol=1e-6)
            assert np.allclose(res.plan.entries.sum(axis=0), p, atol=1e-6)
            assert np.all(res.plan.entries >= 0)
            assert res.plan.entries.sum() == pytest.approx(1.0, abs=1e-6)

    def test_zero_marginal_entries_zero_plan(self):
        cost = np.array([[0.1, 0.9], [0.3, 0.2]])
        p = np.array([1.0, 0.0])
        q = np.array([0.5, 0.5])
        res = sinkhorn(cost, p, q, epsilon=0.05)
        assert np.allclose(res.plan.entries[:, 1], 0.0)

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
        base = sinkhorn(cost, p, q, epsilon=0.05).plan.entries
        pr = rng.permutation(3)
        pc = rng.permutation(4)
        permuted = sinkhorn(cost[pr][:, pc], p[pc], q[pr], epsilon=0.05).plan.entries
        assert np.allclose(permuted, base[pr][:, pc], atol=1e-8)

    def test_bad_marginals_rejected(self):
        with pytest.raises(ValueError):
            sinkhorn(np.zeros((2, 2)), np.array([0.5, 0.6]), np.array([0.5, 0.5]))

    def test_nonconvergence_flagged(self):
        cost = np.random.default_rng(0).uniform(0, 1, (4, 4))
        p = q = np.full(4, 0.25)
        res = sinkhorn(cost, p, q, epsilon=0.001, max_iters=2, tol=1e-12)
        assert not res.converged
        assert res.iterations == 2


class TestSinkhornAgainstReference:
    """Both scaling regimes against the scalar log-domain reference."""

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

    @pytest.mark.parametrize("epsilon, kernel", [(0.05, True), (0.01, True), (0.001, False)])
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("zeros", [False, True])
    def test_plan_matches_reference(self, epsilon, kernel, seed, zeros):
        cost, p, q = self._instance(seed, zeros)
        assert (1.0 / epsilon <= transport._KERNEL_MAX_EXPONENT) == kernel
        # In the kernel range sinkhorn() takes Newton steps; the sweep is pinned here.
        solve = transport._sweep if kernel else sinkhorn
        for max_iters in (0, 7, 23, 300):
            res = solve(cost, p, q, epsilon=epsilon, max_iters=max_iters, tol=1e-6)
            assert res.iterations <= max_iters
            want = sinkhorn_reference(cost, p, q, epsilon, res.iterations)
            assert np.max(np.abs(res.plan.entries - want)) <= 1e-12
            if zeros:
                assert np.all(res.plan.entries[-1, :] == 0.0)
                assert np.all(res.plan.entries[:, -1] == 0.0)

    def test_non_finite_kernel_scaling_falls_back(self, monkeypatch):
        # With the cutoff lifted, exp(-C/0.001) underflows to zero and the
        # kernel-domain scalings stop being finite.
        monkeypatch.setattr(transport, "_KERNEL_MAX_EXPONENT", np.inf)
        cost, p, q = self._instance(0, zeros=True)
        res = sinkhorn(cost, p, q, epsilon=0.001, max_iters=40)
        assert np.all(np.isfinite(res.plan.entries))
        want = sinkhorn_reference(cost, p, q, 0.001, res.iterations)
        assert np.max(np.abs(res.plan.entries - want)) <= 1e-12

    def test_violation_is_that_of_returned_plan(self):
        cost, p, q = self._instance(3)
        for epsilon in (0.05, 0.001):
            res = sinkhorn(cost, p, q, epsilon=epsilon, max_iters=13, tol=1e-12)
            P = res.plan.entries
            viol = max(np.max(np.abs(P.sum(axis=1) - q)), np.max(np.abs(P.sum(axis=0) - p)))
            assert res.marginal_violation == viol
            assert res.converged == (viol < 1e-12)


class TestKernelSweepBitIdentical:
    """The kernel sweep returns exactly what the plain ``@`` loop returns.

    Both run on this machine's BLAS and exp, so the comparison is exact
    without depending on which machine runs it.
    """

    @staticmethod
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

    @staticmethod
    def _assert_same(cost, p, q, epsilon, max_iters, tol=1e-6):
        res = transport._sweep(cost, p, q, epsilon=epsilon, max_iters=max_iters, tol=tol)
        P, iters, viol = sinkhorn_kernel_reference(cost, p, q, epsilon, max_iters, tol)
        assert np.array_equal(res.plan.entries, P)
        assert res.iterations == iters
        assert res.marginal_violation == viol
        return res

    @pytest.mark.parametrize("seed", range(12))
    def test_train_default_shapes(self, seed):
        cost, p, q = self._train_instance(seed)
        self._assert_same(cost, p, q, epsilon=0.01, max_iters=150)

    def test_train_default_shapes_cover_both_outcomes(self):
        converged = {self._assert_same(*self._train_instance(seed), epsilon=0.01,
                                       max_iters=150).converged for seed in range(12)}
        assert converged == {True, False}

    @pytest.mark.parametrize("seed", range(6))
    def test_zero_marginals(self, seed):
        cost, p, q = self._train_instance(seed, zeros=True)
        res = self._assert_same(cost, p, q, epsilon=0.01, max_iters=150)
        assert np.all(res.plan.entries[-3:, :] == 0.0)
        assert np.all(res.plan.entries[:, -1] == 0.0)

    @pytest.mark.parametrize("max_iters", [0, 7])
    @pytest.mark.parametrize("seed", range(4))
    def test_short_budgets(self, seed, max_iters):
        cost, p, q = self._train_instance(seed)
        res = self._assert_same(cost, p, q, epsilon=0.01, max_iters=max_iters)
        assert res.iterations == max_iters

    @pytest.mark.parametrize("seed", range(6))
    def test_random_costs_and_shapes(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, k = int(rng.integers(1, 40)), int(rng.integers(1, 9))
        cost = rng.uniform(0, 1, (n, k))
        p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(n))
        for epsilon in (0.05, 0.01):
            self._assert_same(cost, p, q, epsilon=epsilon, max_iters=int(rng.integers(0, 300)))


class TestNewton:
    """sinkhorn()'s semi-dual Newton path against long-run sweeps of the oracle loop."""

    @staticmethod
    def _long_run(cost, p, q, epsilon):
        P, _, viol = sinkhorn_kernel_reference(cost, p, q, epsilon, 200_000, 1e-13)
        assert viol < 1e-13
        return P

    @pytest.mark.parametrize("seed", range(12))
    def test_train_default_shapes_converge_to_fixed_point(self, seed):
        cost, p, q = TestKernelSweepBitIdentical._train_instance(seed)
        res = sinkhorn(cost, p, q, epsilon=0.01, max_iters=150)
        assert res.converged and res.iterations < 150
        assert np.max(np.abs(res.plan.entries - self._long_run(cost, p, q, 0.01))) <= 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_zero_marginals(self, seed):
        cost, p, q = TestKernelSweepBitIdentical._train_instance(seed, zeros=True)
        res = sinkhorn(cost, p, q, epsilon=0.01, max_iters=150)
        assert res.converged
        assert np.all(res.plan.entries[-3:, :] == 0.0)
        assert np.all(res.plan.entries[:, -1] == 0.0)
        assert np.max(np.abs(res.plan.entries - self._long_run(cost, p, q, 0.01))) <= 1e-6

    @pytest.mark.parametrize("n, k", [(1, 2), (2, 2), (7, 4), (9, 5), (40, 5), (30, 3)])
    @pytest.mark.parametrize("epsilon", [0.05, 0.01])
    def test_shapes(self, n, k, epsilon):
        assert k <= transport._NEWTON_MAX_K
        rng = np.random.default_rng(n * 100 + k)
        cost = rng.uniform(0, 1, (n, k))
        p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(n))
        res = sinkhorn(cost, p, q, epsilon=epsilon, max_iters=500)
        assert res.converged and res.iterations < 500
        assert np.max(np.abs(res.plan.entries - self._long_run(cost, p, q, epsilon))) <= 1e-6

    def test_converged_plan_lies_well_under_tol(self):
        # Quadratic convergence past tol: the margin that keeps a forced plan's
        # cost within rounding of the exact one (test_cost_monotone_in_epsilon).
        for seed in range(12):
            cost, p, q = TestKernelSweepBitIdentical._train_instance(seed)
            assert sinkhorn(cost, p, q, epsilon=0.01, max_iters=150).marginal_violation < 1e-8

    @pytest.mark.parametrize("n", [1, 5])
    def test_single_column_is_row_marginal(self, n):
        q = np.random.default_rng(n).dirichlet(np.ones(n))
        res = sinkhorn(np.random.default_rng(0).uniform(0, 1, (n, 1)), np.ones(1), q,
                       epsilon=0.01, max_iters=150)
        assert res.iterations == 0 and res.converged
        assert np.array_equal(res.plan.entries, q[:, None])

    def test_single_positive_column_after_zeros(self):
        cost = np.random.default_rng(1).uniform(0, 1, (4, 3))
        q = np.array([0.25, 0.0, 0.5, 0.25])
        res = sinkhorn(cost, np.array([0.0, 1.0, 0.0]), q, epsilon=0.01)
        assert res.iterations == 0 and res.converged
        assert np.array_equal(res.plan.entries, np.outer(q, [0.0, 1.0, 0.0]))

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_budget_returns_initial_plan(self, seed):
        cost, p, q = TestKernelSweepBitIdentical._train_instance(seed)
        res = sinkhorn(cost, p, q, epsilon=0.01, max_iters=0)
        K = np.exp(-cost / 0.01)
        want = q[:, None] * K * p / (K @ p)[:, None]
        assert res.iterations == 0
        assert np.allclose(res.plan.entries, want, rtol=1e-12, atol=0.0)
        assert not res.converged and res.marginal_violation >= 1e-6

    def test_zero_budget_converged_initial_plan(self):
        # A constant cost makes the initial plan q p^T, the fixed point itself.
        p, q = np.array([0.2, 0.3, 0.5]), np.full(4, 0.25)
        res = sinkhorn(np.full((4, 3), 0.4), p, q, epsilon=0.01, max_iters=0)
        assert res.iterations == 0 and res.converged
        assert np.allclose(res.plan.entries, np.outer(q, p), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("max_iters", [150, 40])
    def test_stall_falls_back_to_sweep(self, monkeypatch, max_iters):
        # Every system solve fails, so the damping grows past _DAMPING_MAX.
        # The sweep gets the rest of the budget, and iterations count both.
        solves = []
        monkeypatch.setattr(transport, "_solve_scalar", lambda d, M, g: solves.append(g))
        cost, p, q = TestKernelSweepBitIdentical._train_instance(0)
        res = sinkhorn(cost, p, q, epsilon=0.01, max_iters=max_iters)
        assert 0 < len(solves) < max_iters
        want = transport._sweep(cost, p, q, epsilon=0.01, max_iters=max_iters - len(solves),
                                tol=1e-6)
        assert np.array_equal(res.plan.entries, want.plan.entries)
        assert res.iterations == len(solves) + want.iterations <= max_iters
        assert (res.marginal_violation, res.converged) == (want.marginal_violation, want.converged)

    @pytest.mark.parametrize("k, epsilon", [(6, 0.05), (3, 0.001)])
    def test_sweep_outside_newton_range(self, k, epsilon):
        # More than _NEWTON_MAX_K columns, or a kernel beyond _KERNEL_MAX_EXPONENT.
        assert k > transport._NEWTON_MAX_K or 1.0 / epsilon > transport._KERNEL_MAX_EXPONENT
        rng = np.random.default_rng(k)
        cost = rng.uniform(0, 1, (10, k))
        cost[0, 0] = 1.0
        p, q = rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(10))
        res = sinkhorn(cost, p, q, epsilon=epsilon, max_iters=300)
        want = transport._sweep(cost, p, q, epsilon=epsilon, max_iters=300, tol=1e-6)
        assert np.array_equal(res.plan.entries, want.plan.entries)
        assert res.iterations == want.iterations

    def test_nonconvergence_flagged_at_small_budget(self):
        cost, p, q = TestKernelSweepBitIdentical._train_instance(0)
        res = sinkhorn(cost, p, q, epsilon=0.01, max_iters=2)
        assert res.iterations == 2 and not res.converged
        P = res.plan.entries
        viol = max(np.max(np.abs(P.sum(axis=1) - q)), np.max(np.abs(P.sum(axis=0) - p)))
        assert res.marginal_violation == pytest.approx(viol, rel=1e-12)


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
        plan = TransportPlan(np.full((2, 2), 0.25), np.full(2, 0.5), np.full(2, 0.5))
        assert ot_loss([np.zeros((2, 2))], [plan]) == 0.0

    def test_diagonal_plan_crossed_cost(self):
        plan = TransportPlan(np.diag([0.5, 0.5]), np.full(2, 0.5), np.full(2, 0.5))
        assert ot_loss([np.array([[0.0, 1.0], [1.0, 0.0]])], [plan]) == 0.0

    def test_constant_cost_equals_constant(self):
        plan = TransportPlan(np.outer([0.5, 0.5], [0.25] * 4), np.full(2, 0.5), np.full(4, 0.25))
        assert ot_loss([np.full((2, 4), 0.3)], [plan]) == pytest.approx(0.3)

    def test_shape_mismatch(self):
        plan = TransportPlan(np.diag([0.5, 0.5]), np.full(2, 0.5), np.full(2, 0.5))
        with pytest.raises(ValueError):
            ot_loss([np.zeros((3, 2))], [plan])
