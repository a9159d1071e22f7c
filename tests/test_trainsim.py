from __future__ import annotations

import numpy as np
import pytest

from ufppack.trainsim import TrainConfig, train_sim


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
