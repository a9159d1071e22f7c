from __future__ import annotations

import numpy as np
import pytest

from oracles import central_diff
from ufppack.proxies import (
    ProxyBank,
    _row_norms,
    multi_proxy_grad,
    multi_proxy_logit,
    multi_proxy_prob,
)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _cosines(w, x):
    """Cosine similarity of x against every row of w."""
    return (w @ x) / (np.linalg.norm(w, axis=1) * np.linalg.norm(x))


def _bank(W, gamma=1.0):
    return ProxyBank({0: np.asarray(W, dtype=float)}, gamma=gamma)


class TestMultiProxy:
    def test_k1_reduces_to_sigmoid(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.normal(size=(1, 6))
            x = rng.normal(size=6)
            bank = ProxyBank({0: w}, gamma=3.0)
            s = _cosines(w, x)[0]
            assert multi_proxy_prob(bank, 0, x) == pytest.approx(
                _sigmoid(3.0 * s), abs=1e-12
            )

    def test_equal_similarities_k_invariant(self):
        # x equidistant from all proxies: prob independent of K
        for k in (1, 2, 4, 8):
            w = np.zeros((k, k + 1))
            for i in range(k):
                w[i, i] = 1.0
            x = np.ones(k + 1)
            bank = ProxyBank({0: w}, gamma=2.0)
            s = _cosines(w, x)[0]
            assert multi_proxy_prob(bank, 0, x) == pytest.approx(
                _sigmoid(2.0 * s), abs=1e-12
            )

    def test_batch_rows_equal_single_calls(self):
        rng = np.random.default_rng(4)
        bank = _bank(rng.normal(size=(3, 5)), gamma=5.0)
        X = rng.normal(size=(6, 5))
        single = [multi_proxy_prob(bank, 0, x) for x in X]
        assert np.allclose(multi_proxy_prob(bank, 0, X), single, rtol=0, atol=1e-14)

    def test_worked_two_proxy_example(self):
        x = np.array([0.8, 0.2, np.sqrt(1 - 0.8**2 - 0.2**2)])
        bank = _bank(np.eye(2, 3), gamma=1.0)
        assert multi_proxy_prob(bank, 0, x) == pytest.approx(0.6428, abs=1e-3)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(3, 5))
        x = rng.normal(size=5)
        bank = _bank(w, gamma=5.0)
        p = multi_proxy_prob(bank, 0, x)
        assert multi_proxy_prob(bank, 0, 7.3 * x) == pytest.approx(p, abs=1e-12)
        bank2 = _bank(w * np.array([2.0, 0.5, 9.0])[:, None], gamma=5.0)
        assert multi_proxy_prob(bank2, 0, x) == pytest.approx(p, abs=1e-12)

    def test_prob_within_similarity_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            w = rng.normal(size=(4, 6))
            x = rng.normal(size=6)
            bank = _bank(w, gamma=5.0)
            s = _cosines(w, x)
            p = multi_proxy_prob(bank, 0, x)
            assert _sigmoid(5.0 * s.min()) - 1e-12 <= p <= _sigmoid(5.0 * s.max()) + 1e-12


class TestMultiProxyGrad:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        dim = int(rng.integers(3, 17))
        W = rng.normal(size=(k, dim))
        x = rng.normal(size=dim)
        bank = ProxyBank({0: W.copy()}, gamma=5.0)
        gx, gw = multi_proxy_grad(bank, 0, x)
        num_x = central_diff(lambda v: multi_proxy_prob(bank, 0, v), x)
        assert np.allclose(gx, num_x, rtol=1e-4, atol=1e-7)
        num_w = central_diff(
            lambda flat: multi_proxy_prob(
                ProxyBank({0: flat.reshape(k, dim)}, gamma=5.0), 0, x
            ),
            W.ravel(),
        ).reshape(k, dim)
        assert np.allclose(gw, num_w, rtol=1e-4, atol=1e-7)

    def test_symmetric_proxies_symmetric_grad(self):
        w = np.eye(3)
        x = np.ones(3)
        bank = _bank(w, gamma=1.0)
        _, gw = multi_proxy_grad(bank, 0, x)
        norms = np.linalg.norm(gw, axis=1)
        assert np.allclose(norms, norms[0])

    def test_saturated_sigmoid_vanishes(self):
        bank = ProxyBank({0: np.array([[1.0, 0.0]])}, gamma=25.0)
        gx, gw = multi_proxy_grad(bank, 0, np.array([5.0, 0.0]))
        assert np.linalg.norm(gx) < 1e-7 and np.linalg.norm(gw) < 1e-7


class TestBatchedLogit:
    @pytest.mark.parametrize("seed", range(10))
    def test_rows_equal_single_calls(self, seed):
        rng = np.random.default_rng(seed)
        k, dim, n = int(rng.integers(1, 5)), int(rng.integers(3, 17)), int(rng.integers(1, 40))
        bank = ProxyBank({0: rng.normal(size=(k, dim))}, gamma=5.0)
        X = rng.normal(size=(n, dim))
        z, dz_dw = multi_proxy_logit(bank, 0, X)
        gx, gw = multi_proxy_grad(bank, 0, X)
        assert z.shape == (n,) and dz_dw.shape == (n, k, dim)
        assert gx.shape == (n, dim) and gw.shape == (n, k, dim)
        for i in range(n):
            zi, dwi = multi_proxy_logit(bank, 0, X[i])
            assert isinstance(zi, float) and dwi.shape == (k, dim)
            assert z[i] == pytest.approx(zi, rel=1e-12, abs=1e-14)
            assert np.allclose(dz_dw[i], dwi, rtol=1e-12, atol=1e-14)
            gxi, gwi = multi_proxy_grad(bank, 0, X[i])
            assert gxi.shape == (dim,) and gwi.shape == (k, dim)
            assert np.allclose(gx[i], gxi, rtol=1e-12, atol=1e-14)
            assert np.allclose(gw[i], gwi, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        k, dim, n = int(rng.integers(1, 5)), int(rng.integers(3, 10)), 4
        W = rng.normal(size=(k, dim))
        X = rng.normal(size=(n, dim))
        bank = ProxyBank({0: W.copy()}, gamma=5.0)
        _, dz_dw = multi_proxy_logit(bank, 0, X)
        gx, _ = multi_proxy_grad(bank, 0, X)
        for i in range(n):
            def z_of_w(flat, i=i):
                return multi_proxy_logit(ProxyBank({0: flat.reshape(k, dim)}, gamma=5.0),
                                         0, X)[0][i]

            num_x = central_diff(lambda v: multi_proxy_prob(bank, 0, v), X[i])
            assert np.allclose(gx[i], num_x, rtol=1e-4, atol=1e-7)
            num_w = central_diff(z_of_w, W.ravel()).reshape(k, dim)
            assert np.allclose(dz_dw[i], num_w, rtol=1e-4, atol=1e-7)

    def test_zero_row_rejected(self):
        bank = _bank(np.eye(2, 3))
        with pytest.raises(ValueError, match="^zero feature vector$"):
            multi_proxy_logit(bank, 0, np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        with pytest.raises(ValueError, match="^zero feature vector$"):
            multi_proxy_grad(bank, 0, np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


class TestProxyBank:
    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf")])
    def test_gamma_outside_open_half_line_rejected(self, gamma):
        with pytest.raises(ValueError, match="^gamma must be positive and finite"):
            ProxyBank({0: np.eye(2, 3)}, gamma=gamma)

    @pytest.mark.parametrize("weights,message", [
        (np.array([[1.0, 0.0], [0.0, 0.0]]), "^class 0: zero-norm proxy row$"),
        (np.array([[1.0, np.nan], [0.0, 1.0]]), "^class 0: non-finite proxy entry$"),
        (np.array([[1.0, 0.0], [np.inf, 1.0]]), "^class 0: non-finite proxy entry$"),
        (np.array([1.0, 0.0]), "^class 0: proxies must form a K x C matrix$"),
    ])
    def test_bad_weights_rejected(self, weights, message):
        with pytest.raises(ValueError, match=message):
            ProxyBank({0: weights})

    def test_weights_stored_as_float_arrays(self):
        bank = ProxyBank({0: [[1, 0], [0, 2]]}, gamma=1)
        assert bank.weights[0].dtype == float and bank.weights[0].shape == (2, 2)


class TestRowNorms:
    @pytest.mark.parametrize("seed", range(20))
    def test_equals_linalg_norm_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        n, c = int(rng.integers(1, 70)), int(rng.integers(1, 40))
        x = rng.normal(scale=10.0 ** rng.uniform(-150, 150), size=(n, c))
        x[int(rng.integers(n))] = 0.0
        assert np.array_equal(_row_norms(x), np.linalg.norm(x, axis=1))
        assert _row_norms(x)[np.all(x == 0, axis=1)].max() == 0.0

    def test_strided_view(self):
        x = np.random.default_rng(3).normal(size=(9, 12))[::2, 1::3]
        assert np.array_equal(_row_norms(x), np.linalg.norm(x, axis=1))
