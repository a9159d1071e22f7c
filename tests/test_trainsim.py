from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from oracles import central_diff, step_grad_reference
from ufppack import trainsim
from ufppack.proxies import (ProxyBank, _aggregate, _cosine_grad, _row_norms, _sigmoid,
                             multi_proxy_logit, multi_proxy_prob)
from ufppack.trainsim import TrainConfig, TrainReport, _bce, _FeatureModel, train_sim
from ufppack.transport import cost_matrix, transport_cost


class TestTrainConfig:
    def test_roundtrip(self):
        cfg = TrainConfig(steps=5, lr=0.2)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig.from_dict({"optimizer": "sgd"})

    def test_invalid_settings_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(vocab_insert=99, batch_size=8)

    @pytest.mark.parametrize("bad", [
        {"marginal_cadence": 0}, {"marginal_cadence": -3},
        {"sinkhorn_epsilon": 0.0}, {"sinkhorn_epsilon": -0.01}, {"sinkhorn_epsilon": float("nan")},
        {"sinkhorn_tol": 0.0}, {"sinkhorn_tol": -1.0}, {"sinkhorn_max_iters": -1},
        {"gamma": 0.0}, {"gamma": -5.0}, {"vocab_capacity": 0},
        {"gamma": float("inf")}, {"sinkhorn_epsilon": float("inf")},
        {"sinkhorn_tol": float("inf")},
    ])
    def test_invalid_transport_and_vocab_settings_rejected(self, bad):
        with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be"):
            TrainConfig(**bad)

    @pytest.mark.parametrize("field,value", [
        ("n_classes", 0), ("proxies_per_class", 0), ("feature_dim", 1), ("modes_per_class", 0),
        ("steps", -1), ("batch_size", 0), ("lr", 0.0), ("lr", -0.1), ("lr", float("inf")),
        pytest.param("lr", 10**400, id="lr-past-the-float-range"), ("seed", -1),
    ])
    def test_message_names_the_rejected_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TrainConfig(**{field: value})

    # Each factor is far below 2**50; their product, the size of an array, is not.
    @pytest.mark.parametrize("counts, product", [
        ({"n_classes": 2**20, "batch_size": 2**11},
         "n_classes * n_classes * batch_size * proxies_per_class"),
        ({"batch_size": 2**30, "feature_dim": 2**20}, "n_classes * batch_size * feature_dim"),
        ({"modes_per_class": 2**30, "feature_dim": 2**20},
         "n_classes * modes_per_class * feature_dim"),
        ({"proxies_per_class": 2**20, "feature_dim": 2**10},
         "n_classes * proxies_per_class * proxies_per_class * feature_dim"),
    ], ids=["cosines", "features", "mode-centers", "proxies"])
    def test_count_product_past_numpy_rejected(self, counts, product):
        message = f"^{re.escape(product)} must be at most 2\\*\\*50, got "
        with pytest.raises(ValueError, match=message):
            TrainConfig(**counts)

    def test_count_product_at_the_bound_accepted(self):
        ones = dict(n_classes=1, batch_size=1, vocab_insert=1, proxies_per_class=1,
                    modes_per_class=1)
        assert TrainConfig(**ones, feature_dim=2**50).feature_dim == 2**50
        with pytest.raises(ValueError, match=r"^n_classes \* batch_size \* feature_dim must be "
                                             r"at most 2\*\*50, got 1125899906842625$"):
            TrainConfig(**ones, feature_dim=2**50 + 1)

    @pytest.mark.parametrize("field", ["seed", "vocab_capacity", "marginal_cadence",
                                       "sinkhorn_max_iters"])
    def test_unsized_int_past_int64_accepted(self, field):
        report = train_sim(TrainConfig(steps=1, **{field: 10**41}))
        assert len(report.records) == 2

    @pytest.mark.parametrize("insert", [0, -1, 9])
    def test_vocab_insert_outside_batch_rejected(self, insert):
        with pytest.raises(ValueError, match="vocab_insert"):
            TrainConfig(vocab_insert=insert, batch_size=8)

    @pytest.mark.parametrize("insert", [1, 8])
    def test_vocab_insert_within_batch_accepted(self, insert):
        assert TrainConfig(vocab_insert=insert, batch_size=8).vocab_insert == insert

    def test_zero_sinkhorn_iterations_accepted(self):
        assert TrainConfig(sinkhorn_max_iters=0).sinkhorn_max_iters == 0


class TestTrainSim:
    def test_zero_steps_is_initialization(self):
        cfg = TrainConfig(steps=0, seed=4)
        report = train_sim(cfg)
        assert len(report.records) == 1
        # initial proxies are unit-norm k-means centers, untouched
        for w in report.final_weights.values():
            assert np.allclose(np.linalg.norm(w, axis=1), 1.0)

    def test_deterministic(self):
        # The warm-start potentials live in the call: a second run with the
        # same config, across marginal_cadence boundaries, repeats the first.
        cfg = TrainConfig(steps=30, seed=7, marginal_cadence=10)
        a = train_sim(cfg)
        b = train_sim(cfg)
        assert a.records == b.records and a.transport == b.transport
        for cid in a.final_weights:
            assert np.array_equal(a.final_weights[cid], b.final_weights[cid])

    def test_report_fields(self):
        report = train_sim(TrainConfig(steps=3, seed=0))
        rec = report.records[-1]
        assert set(rec) == {
            "step",
            "loss_det",
            "loss_ot",
            "min_proxy_distance",
            "max_proxy_similarity",
        }
        assert rec["step"] == 3.0
        assert rec["loss_det"] >= 0

    def test_ot_off_reports_zero_ot_loss(self):
        report = train_sim(TrainConfig(steps=2, seed=0, use_ot=False))
        assert all(r["loss_ot"] == 0.0 for r in report.records)

    def test_transport_stats_one_per_step(self):
        report = train_sim(TrainConfig(steps=5, seed=0))
        assert len(report.transport) == len(report.records)
        for t in report.transport:
            assert 0 < t.max_iterations <= report.config.sinkhorn_max_iters
            assert t.max_violation >= 0.0
            assert 0 <= t.unconverged <= report.config.n_classes

    def test_zero_feature_refused(self, monkeypatch):
        real = _FeatureModel.sample

        def sample(self, cid, n, rng):
            x = real(self, cid, n, rng)
            x[-1] = 0.0
            return x

        monkeypatch.setattr(_FeatureModel, "sample", sample)
        with pytest.raises(ValueError, match="^zero feature vector$"):
            train_sim(TrainConfig(steps=2, seed=0))

    def test_zero_norm_proxy_refused(self, monkeypatch):
        real = trainsim._init_proxies

        def init(cfg, *args):
            w = real(cfg, *args)
            w[cfg.proxies_per_class] = 0.0  # row 0 of class 1
            return w

        monkeypatch.setattr(trainsim, "_init_proxies", init)
        with pytest.raises(ValueError, match="^class 1: zero-norm proxy row$"):
            train_sim(TrainConfig(steps=2, seed=0))

    # The first and last row of the first and last of three classes.
    @pytest.mark.parametrize("cid", [0, 2])
    @pytest.mark.parametrize("row", [0, 2])
    def test_zero_norm_proxy_names_its_class(self, monkeypatch, cid, row):
        real = trainsim._init_proxies

        def init(cfg, *args):
            w = real(cfg, *args)
            w[cfg.proxies_per_class * cid + row] = 0.0
            return w

        monkeypatch.setattr(trainsim, "_init_proxies", init)
        with pytest.raises(ValueError, match=f"^class {cid}: zero-norm proxy row$"):
            train_sim(TrainConfig(steps=2, seed=0, n_classes=3))

    def test_zero_norm_centroid_refused_at_init(self, monkeypatch):
        """A zero k-means center fails at init, named by its class, before
        any step runs."""
        seen = []
        real = trainsim.kmeans

        def kmeans(*args):
            labels, centers = real(*args)
            if len(seen) == 1:  # class 1
                centers[-1] = 0.0
            seen.append(centers)
            return labels, centers

        monkeypatch.setattr(trainsim, "kmeans", kmeans)
        monkeypatch.setattr(trainsim, "sinkhorn", lambda *a, **kw: pytest.fail("a step ran"))
        with pytest.raises(ValueError, match="^class 1: zero-norm proxy row$"):
            train_sim(TrainConfig(steps=2, seed=0, n_classes=3))
        assert len(seen) == 3

    def test_zero_norm_proxy_after_update_refused(self, monkeypatch):
        """A proxy row that an update zeroes fails in that update, named by its
        class, before a step scores with it."""
        seen = []
        real = trainsim._unit_proxies

        def unit_proxies(w, k):
            seen.append(w)
            return real(w, k)

        def grad(x_hat, s, u, wn, A):
            g = np.zeros_like(u)
            g[4] = seen[-1][4]  # at lr 1 the update zeroes row 1 of class 1
            return g

        monkeypatch.setattr(trainsim, "_unit_proxies", unit_proxies)
        monkeypatch.setattr(trainsim, "_cosine_grad", grad)
        with pytest.raises(ValueError, match="^class 1: zero-norm proxy row$"):
            train_sim(TrainConfig(steps=2, seed=0, lr=1.0))
        assert len(seen) == 3  # init, step 0 and its update

    def test_unconverged_calls_reported(self):
        report = train_sim(TrainConfig(steps=3, seed=0, sinkhorn_max_iters=2))
        assert report.unconverged_calls > 0
        assert all(t.max_iterations == 2 for t in report.transport)


class TestFeatureModel:
    @pytest.mark.parametrize("n_classes, modes", [(1, 1), (2, 3), (4, 5)])
    def test_centers_are_the_per_class_draws(self, n_classes, modes):
        """One draw for every class's centers is the stream of one
        normal((modes, C)) per class, normalised row by row, bit for bit."""
        cfg = TrainConfig(n_classes=n_classes, modes_per_class=modes, feature_dim=7)
        got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
        model = _FeatureModel(cfg, got_rng)
        assert model.centers.shape == (n_classes, modes, cfg.feature_dim)
        for cid in range(n_classes):
            c = want_rng.normal(size=(modes, cfg.feature_dim))
            assert np.array_equal(model.centers[cid], c / np.linalg.norm(c, axis=1)[:, None])
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("modes", [1, 3, 5])
    def test_sample_draws_as_rng_choice(self, modes):
        cfg = TrainConfig(modes_per_class=modes, n_classes=2)
        model = _FeatureModel(cfg, np.random.default_rng(11))
        for seed in range(200):
            for n in (1, 7, 16, 32):
                cid = seed % 2
                got_rng = np.random.default_rng(seed)
                want_rng = np.random.default_rng(seed)
                got = model.sample(cid, n, got_rng)
                picks = want_rng.choice(modes, size=n, p=model.weights)
                x = model.centers[cid][picks] + cfg.mode_noise * want_rng.normal(
                    size=(n, cfg.feature_dim))
                assert np.array_equal(got, x / _row_norms(x)[:, None])
                assert got_rng.bit_generator.state == want_rng.bit_generator.state


def _cosines(x: np.ndarray, w: np.ndarray):
    """(x_hat, s, u, wn) of one class, as the training step forms them for
    all classes at once."""
    x_hat = x / _row_norms(x)[:, None]
    wn = _row_norms(w)
    u = w / wn[:, None]
    return x_hat, x_hat @ u.T, u, wn


class TestOneSpelling:
    @pytest.mark.parametrize("seed", range(50))
    def test_library_logit_is_the_step_logit(self, seed):
        """multi_proxy_logit and multi_proxy_prob score a batch, and one
        feature as a batch of one, from the class's cosine block x_hat @ u.T,
        bit for bit."""
        rng = np.random.default_rng(seed)
        k, dim, n = int(rng.integers(1, 9)), int(rng.integers(2, 17)), int(rng.integers(1, 33))
        w = rng.normal(size=(k, dim)) * rng.uniform(0.5, 2.0, size=(k, 1))
        bank = ProxyBank({3: w}, gamma=float(rng.uniform(1.0, 8.0)))
        x = rng.normal(size=(n, dim))
        want = bank.gamma * _aggregate(_cosines(x, w)[1])[0]
        z = multi_proxy_logit(bank, 3, x)[0]
        assert np.array_equal(z, want)
        assert np.array_equal(multi_proxy_prob(bank, 3, x), _sigmoid(want))
        one = bank.gamma * _aggregate(_cosines(x[:1], w)[1])[0]
        assert multi_proxy_logit(bank, 3, x[0])[0] == one[0]


class TestOtGrad:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_central_diff_of_transport_cost(self, seed):
        """The gradient of tr(C(F, W)^T P) in the proxies W, P held fixed, also
        for proxies that are not of unit norm: the cosine gradient with
        A = -P / 2, since C = (1 - cos) / 2 away from its clip."""
        rng = np.random.default_rng(seed)
        n, k, dim = 16, 3, 8
        feats = rng.normal(size=(n, dim))
        w = rng.normal(size=(k, dim)) * rng.uniform(0.5, 2.0, size=(k, 1))
        plan = rng.random((n, k))
        plan /= plan.sum()
        num = central_diff(
            lambda flat: transport_cost(cost_matrix(feats, flat.reshape(k, dim)), plan),
            w.ravel(),
        ).reshape(k, dim)
        assert np.allclose(_cosine_grad(*_cosines(feats, w), -plan / 2.0), num,
                           rtol=1e-4, atol=1e-7)


class TestFusedStepGrad:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_unfused_form(self, seed):
        """One class's BCE and proxy gradient as the step builds them from its
        one cosine block equal the sum of the BCE gradient through
        multi_proxy_logit's dz_dw and the separate transport gradient."""
        rng = np.random.default_rng(seed)
        n_classes = int(rng.integers(1, 4))
        batch, k, dim = int(rng.integers(1, 17)), int(rng.integers(1, 6)), 8
        gamma = float(rng.uniform(1.0, 8.0))
        feats_all = rng.normal(size=(n_classes * batch, dim))
        labels = np.repeat(np.arange(n_classes), batch)
        n_terms = labels.size * n_classes
        for cid in range(n_classes):
            w = rng.normal(size=(k, dim)) * rng.uniform(0.5, 2.0, size=(k, 1))
            y = (labels == cid).astype(float)
            rows = slice(cid * batch, (cid + 1) * batch)
            plan = rng.random((batch, k))
            plan /= plan.sum()
            x_hat, s, u, wn = _cosines(feats_all, w)
            loss, A = _bce(s, y, gamma)
            A /= n_terms
            A[rows] -= plan / (2.0 * n_classes)
            want_loss, want = step_grad_reference(ProxyBank({cid: w}, gamma=gamma), cid,
                                                  feats_all, y, n_terms, rows, plan, n_classes)
            assert loss == pytest.approx(want_loss, rel=0, abs=1e-12)
            assert np.allclose(_cosine_grad(x_hat, s, u, wn, A), want, rtol=0, atol=1e-12)

    def test_every_step_gradient_matches_the_unfused_form(self, monkeypatch):
        """In train_sim itself, with three classes: one gradient call per
        update step for every class's proxies, whose K rows of each class,
        from its features, proxies and plan, are the unfused form's."""
        plans, grads = [], []
        real_sinkhorn, real_grad = trainsim.sinkhorn, trainsim._cosine_grad

        def sinkhorn_spy(*args, **kwargs):
            res = real_sinkhorn(*args, **kwargs)
            plans.append(res.plan)
            return res

        def grad_spy(*args):
            grads.append((args, real_grad(*args)))
            return grads[-1][1]

        monkeypatch.setattr(trainsim, "sinkhorn", sinkhorn_spy)
        monkeypatch.setattr(trainsim, "_cosine_grad", grad_spy)
        cfg = TrainConfig(steps=6, seed=5, n_classes=3, batch_size=5, vocab_insert=2)
        train_sim(cfg)
        labels = np.repeat(np.arange(cfg.n_classes), cfg.batch_size)
        k = cfg.proxies_per_class
        # The last step records its losses and takes no update.
        assert len(grads) == cfg.steps
        assert len(plans) == 7 * cfg.n_classes
        for step, ((x_hat, _, u, wn, _), got) in enumerate(grads):
            assert got.shape == (cfg.n_classes * k, cfg.feature_dim)
            for cid in range(cfg.n_classes):
                proxies = slice(cid * k, (cid + 1) * k)
                bank = ProxyBank({cid: u[proxies] * wn[proxies, None]}, gamma=cfg.gamma)
                rows = slice(cid * cfg.batch_size, (cid + 1) * cfg.batch_size)
                _, want = step_grad_reference(bank, cid, x_hat, (labels == cid).astype(float),
                                              labels.size * cfg.n_classes, rows,
                                              plans[step * cfg.n_classes + cid], cfg.n_classes)
                assert np.allclose(got[proxies], want, rtol=0, atol=1e-12)


class TestBatchedBce:
    @pytest.mark.parametrize("seed", range(30))
    def test_equals_per_class_bce(self, seed):
        """The BCE of an N x C x K block of cosines, every class at once: its
        loss is the sum of the per-class losses and its A holds each class's
        dloss/ds in that class's slice."""
        rng = np.random.default_rng(seed)
        c, k, n = int(rng.integers(1, 5)), int(rng.integers(1, 6)), int(rng.integers(1, 17))
        gamma = float(rng.uniform(1.0, 8.0))
        s = rng.uniform(-1.0, 1.0, size=(n, c, k))
        y = (rng.random((n, c)) < 0.5).astype(float)
        loss, A = _bce(s, y, gamma)
        assert A.shape == s.shape
        per_class = [_bce(s[:, cid], y[:, cid], gamma) for cid in range(c)]
        assert loss == pytest.approx(sum(l for l, _ in per_class), rel=1e-14, abs=0)
        for cid, (_, want) in enumerate(per_class):
            assert np.allclose(A[:, cid], want, rtol=1e-14, atol=1e-17)


class TestTransportConverges:
    # The train_default benchmark config (acceptance criterion 9, cut to 200 steps).
    TRAIN_DEFAULT = dict(n_classes=2, proxies_per_class=3, feature_dim=16, batch_size=16,
                         sinkhorn_epsilon=0.01, sinkhorn_max_iters=150, use_ot=True, steps=200)

    @pytest.mark.parametrize("seed", range(3))
    def test_train_default_every_call_converged(self, seed):
        report = train_sim(TrainConfig(seed=seed, **self.TRAIN_DEFAULT))
        assert report.unconverged_calls == 0
        assert max(t.max_violation for t in report.transport) < 1e-6

    def test_eight_proxies_every_call_converged(self):
        report = train_sim(TrainConfig(seed=0, **{**self.TRAIN_DEFAULT, "proxies_per_class": 8}))
        assert report.unconverged_calls == 0
        assert max(t.max_violation for t in report.transport) < 1e-6

    # Damped steps alone stop these at 1.15e-8 and 1.51e-7, still shrinking
    # linearly: a saturated column zeroes a pivot, and the damping falls by
    # at most a third per step.
    @pytest.mark.parametrize("proxies", [8, 16])
    def test_many_proxies_every_call_polished(self, proxies):
        cfg = TrainConfig(seed=0, **{**self.TRAIN_DEFAULT, "proxies_per_class": proxies})
        report = train_sim(cfg)
        assert report.unconverged_calls == 0
        assert max(t.max_violation for t in report.transport) <= 1e-9

    def test_train_default_records_as_recorded(self):
        """The records of four seeds stay within 1e-9 of those the unfused
        step with damped-only solves recorded, every 10th step."""
        recorded = json.loads(
            (Path(__file__).parent / "train_default_records.json").read_text())["records"]
        for seed, want in recorded.items():
            report = train_sim(TrainConfig(seed=int(seed), **self.TRAIN_DEFAULT))
            assert report.unconverged_calls == 0
            got = report.records[::10]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.keys() == w.keys()
                for key in w:
                    assert g[key] == pytest.approx(w[key], rel=0, abs=1e-9), (seed, key)

    # 200 steps reach the call at 0.001 and at 0.0003 on which a damping that
    # only shrinks or grows tenfold oscillates and runs out of its budget.
    @pytest.mark.parametrize("epsilon", [0.002, 0.001, 0.0003])
    def test_small_epsilon_every_call_converged(self, epsilon):
        report = train_sim(TrainConfig(seed=0, steps=200, sinkhorn_epsilon=epsilon))
        assert report.unconverged_calls == 0
        assert max(t.max_violation for t in report.transport) < 1e-6

    def test_train_default_warm_start_converges_and_saves_steps(self, monkeypatch):
        cfg = TrainConfig(seed=0, **self.TRAIN_DEFAULT)
        warm = train_sim(cfg)
        assert warm.unconverged_calls == 0
        assert max(t.max_violation for t in warm.transport) <= 1e-9
        cold_sinkhorn = trainsim.sinkhorn
        monkeypatch.setattr(trainsim, "sinkhorn",
                            lambda *a, init=None, **kw: cold_sinkhorn(*a, **kw))
        cold = train_sim(cfg)
        assert cold.unconverged_calls == 0
        assert (sum(t.max_iterations for t in warm.transport)
                < sum(t.max_iterations for t in cold.transport))
        assert abs(warm.final_min_proxy_distance - cold.final_min_proxy_distance) < 1e-8

    def test_each_class_starts_from_its_previous_potentials(self, monkeypatch):
        calls = []
        real = trainsim.sinkhorn

        def spy(cost, p, q, **kw):
            res = real(cost, p, q, **kw)
            calls.append((kw["init"], res.potentials))
            return res

        monkeypatch.setattr(trainsim, "sinkhorn", spy)
        cfg = TrainConfig(steps=12, seed=2, n_classes=3, marginal_cadence=5)
        train_sim(cfg)
        assert len(calls) == 13 * 3
        for i, (init, _) in enumerate(calls):
            if i < cfg.n_classes:
                assert init is None
            else:
                assert init is calls[i - cfg.n_classes][1]

    def test_single_proxy_plan_is_row_marginal(self):
        report = train_sim(TrainConfig(steps=2, seed=0, proxies_per_class=1))
        assert report.unconverged_calls == 0
        assert all(t.max_iterations == 0 for t in report.transport)
        assert report.final_min_proxy_distance is None
        assert report.final_max_proxy_similarity is None

    def test_empty_report_has_no_separation(self):
        report = TrainReport(config=TrainConfig())
        assert report.final_min_proxy_distance is None
        assert report.final_max_proxy_similarity is None
