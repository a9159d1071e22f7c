from __future__ import annotations

import numpy as np
import pytest

from ufppack.proxies import _row_norms
from ufppack.trainsim import TrainConfig, TrainReport, _FeatureModel, train_sim


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
            TrainConfig(proxy_init="xavier")
        with pytest.raises(ValueError):
            TrainConfig(vocab_insert=99, batch_size=8)

    @pytest.mark.parametrize("bad", [
        {"marginal_cadence": 0}, {"marginal_cadence": -3},
        {"sinkhorn_epsilon": 0.0}, {"sinkhorn_epsilon": -0.01}, {"sinkhorn_epsilon": float("nan")},
        {"sinkhorn_tol": 0.0}, {"sinkhorn_tol": -1.0}, {"sinkhorn_max_iters": -1},
        {"gamma": 0.0}, {"gamma": -5.0}, {"vocab_capacity": 0},
    ])
    def test_invalid_transport_and_vocab_settings_rejected(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(**bad)

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
        cfg = TrainConfig(steps=20, seed=7)
        a = train_sim(cfg)
        b = train_sim(cfg)
        assert a.records == b.records
        for cid in a.final_weights:
            assert np.array_equal(a.final_weights[cid], b.final_weights[cid])

    def test_report_fields(self):
        report = train_sim(TrainConfig(steps=3, seed=0))
        rec = report.records[-1]
        assert set(rec) == {
            "step",
            "loss_det",
            "loss_ot",
            "loss_cl",
            "min_proxy_distance",
            "max_proxy_similarity",
        }
        assert rec["step"] == 3.0
        assert rec["loss_det"] >= 0 and rec["loss_cl"] >= 0

    def test_ot_off_reports_zero_ot_loss(self):
        report = train_sim(TrainConfig(steps=2, seed=0, use_ot=False))
        assert all(r["loss_ot"] == 0.0 for r in report.records)

    def test_random_init_supported(self):
        report = train_sim(TrainConfig(steps=2, seed=0, proxy_init="random"))
        assert len(report.records) == 3

    def test_transport_stats_one_per_step(self):
        report = train_sim(TrainConfig(steps=5, seed=0))
        assert len(report.transport) == len(report.records)
        for t in report.transport:
            assert 0 < t.max_iterations <= report.config.sinkhorn_max_iters
            assert t.max_violation >= 0.0
            assert 0 <= t.unconverged <= report.config.n_classes

    def test_unconverged_calls_reported(self):
        report = train_sim(TrainConfig(steps=3, seed=0, sinkhorn_max_iters=2))
        assert report.unconverged_calls > 0
        assert all(t.max_iterations == 2 for t in report.transport)


class TestFeatureModel:
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
                picks = want_rng.choice(modes, size=n, p=model.weights[cid])
                x = model.centers[cid][picks] + cfg.mode_noise * want_rng.normal(
                    size=(n, cfg.feature_dim))
                assert np.array_equal(got, x / _row_norms(x)[:, None])
                assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestTransportConverges:
    # The train_default benchmark config (acceptance criterion 9, cut to 200 steps).
    TRAIN_DEFAULT = dict(n_classes=2, proxies_per_class=3, feature_dim=16, batch_size=16,
                         sinkhorn_epsilon=0.01, sinkhorn_max_iters=150, use_ot=True, steps=200)

    @pytest.mark.parametrize("seed", range(3))
    def test_train_default_every_call_converged(self, seed):
        report = train_sim(TrainConfig(seed=seed, **self.TRAIN_DEFAULT))
        assert report.unconverged_calls == 0
        assert max(t.max_violation for t in report.transport) < 1e-6

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
