"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
summary lines. Thresholds are frozen here and must not be loosened.
"""
from __future__ import annotations

import json
import time

import numpy as np
import pytest

from oracles import central_diff, exact_ot, merge_oracle, random_boxes
from test_mosaic import check_layout_sound
from ufppack import io
from ufppack.cli import main as cli_main
from ufppack.config import PipelineConfig
from ufppack.geometry import BBox, ImageExtent
from ufppack.metrics import SceneSpec, generate_scene
from ufppack.metrics import scene_stats as source_stats
from ufppack.mosaic import pack, waste_ratio
from ufppack.pipeline import build_layout, mosaic_stats
from ufppack.proxies import ProxyBank, multi_proxy_grad, multi_proxy_prob
from ufppack.regions import merge
from ufppack.remap import Detection, to_mosaic, to_source
from ufppack.trainsim import TrainConfig, train_sim
from ufppack.transport import sinkhorn, transport_cost
from ufppack.vocab import (
    VocabQueue,
    contrastive_grad,
    contrastive_loss,
    estimate_marginals,
)


def _report(name: str, detail: str = "") -> None:
    print(f"\n[PASS] {name}" + (f" ({detail})" if detail else ""))


def test_criterion_01_merge_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(1)
    for _ in range(1000):
        raw = random_boxes(rng, int(rng.integers(0, 13)), (400, 400))
        rs = merge([BBox(*b) for b in raw])
        want = merge_oracle(raw)
        got = [(b.x1, b.y1, b.x2, b.y2) for b in rs.regions]
        assert len(got) == len(want)
        assert np.allclose(np.array(got).reshape(-1, 4), np.array(want).reshape(-1, 4))
        # coverage: every input box inside its region
        seen = sorted(i for p in rs.provenance for i in p)
        assert seen == list(range(len(raw)))
        for region, prov in zip(rs.regions, rs.provenance):
            for i in prov:
                assert region.contains(BBox(*raw[i]), tol=1e-9)
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report("criterion 1: greedy-merge oracle equivalence", f"{elapsed:.2f}s")


def test_criterion_02_packing_soundness():
    t0 = time.time()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 25))
        # bounded aspect ratio (≤ 2) mirrors merged foreground regions and keeps
        # the waste bound meaningful even for single-region layouts
        scaled = []
        for _ in range(n):
            area = rng.uniform(200, 4000)
            aspect = rng.uniform(0.5, 2.0)
            scaled.append(
                (
                    BBox(0, 0, np.sqrt(area * aspect), np.sqrt(area / aspect)),
                    float(rng.uniform(1.0, 2.0)),
                )
            )
        total = sum((s * b.width) * (s * b.height) for b, s in scaled)
        width = max(1.15 * np.sqrt(total), max(s * b.width for b, s in scaled) + 4)
        lay = pack(scaled, width, padding=2.0)
        check_layout_sound(lay)
        worst = max(worst, waste_ratio(lay))
        assert worst <= 3.0
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report("criterion 2: packing soundness", f"worst waste {worst:.2f}, {elapsed:.2f}s")


def test_criterion_03_roundtrip_remap():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 10))
        # disjoint source regions (one per 200px grid cell): unambiguous ownership
        scaled = []
        for i in range(n):
            x = (i % 3) * 200 + rng.uniform(0, 60)
            y = (i // 3) * 200 + rng.uniform(0, 60)
            w, h = rng.uniform(10, 120, 2)
            scaled.append((BBox(x, y, x + w, y + h), float(rng.uniform(1, 3))))
        lay = pack(scaled, 700, padding=2.0)
        p = lay.placements[int(rng.integers(n))]
        src = p.source
        bx1 = src.x1 + rng.uniform(0, 0.5) * src.width
        by1 = src.y1 + rng.uniform(0, 0.5) * src.height
        box = BBox(bx1, by1, bx1 + rng.uniform(0.05, 0.4) * src.width,
                   by1 + rng.uniform(0.05, 0.4) * src.height)
        fwd = to_mosaic(box, lay)
        assert fwd is not None
        back = to_source(Detection(fwd, 1.0, 0), lay).box
        err = max(abs(a - b) for a, b in zip(
            (box.x1, box.y1, box.x2, box.y2), (back.x1, back.y1, back.x2, back.y2)
        ))
        worst = max(worst, err)
        assert err < 1e-6
    _report("criterion 3: round-trip remap", f"worst error {worst:.2e} px")


def test_criterion_04_sinkhorn_vs_exact_oracle():
    t0 = time.time()
    rng = np.random.default_rng(4)
    for _ in range(500):
        n, k = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        cost = rng.uniform(0, 1, (n, k))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(n))
        _, opt = exact_ot(cost, p, q)
        res = sinkhorn(cost, p, q, epsilon=0.01, max_iters=200_000, tol=1e-7)
        assert res.marginal_violation < 1e-6
        sk = transport_cost(cost, res.plan)
        bound = max(0.05 * abs(opt), 0.01 * np.log(max(n * k, 2)))
        assert sk - opt <= bound
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report("criterion 4: transport vs exact oracle", f"{elapsed:.2f}s")


def test_criterion_05_gradient_checks():
    rng = np.random.default_rng(5)
    for _ in range(100):
        k = int(rng.integers(1, 5))
        dim = int(rng.integers(4, 17))
        W = rng.normal(size=(k, dim))
        x = rng.normal(size=dim)
        bank = ProxyBank({0: W.copy()}, gamma=5.0)
        gx, gw = multi_proxy_grad(bank, 0, x)
        num_x = central_diff(lambda v: multi_proxy_prob(bank, 0, v), x)
        assert np.allclose(gx, num_x, rtol=1e-4, atol=1e-7)
        num_w = central_diff(
            lambda flat: multi_proxy_prob(ProxyBank({0: flat.reshape(k, dim)}, gamma=5.0), 0, x),
            W.ravel(),
        ).reshape(k, dim)
        assert np.allclose(gw, num_w, rtol=1e-4, atol=1e-7)
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n_classes = int(rng.integers(2, 5))
        vocab = {}
        for cid in range(n_classes):
            q = VocabQueue(8, cid)
            q.update(list(rng.normal(size=(8, 8))), 8, rng)
            vocab[cid] = q
        x = rng.normal(size=8)
        cid = int(rng.integers(n_classes))
        grad = contrastive_grad(x, cid, vocab)
        num = central_diff(lambda v: contrastive_loss(v[None, :], [cid], vocab), x)
        assert np.allclose(grad, num, rtol=1e-4, atol=1e-7)
    _report("criterion 5: analytic vs finite-difference gradients")


def test_criterion_06_scoring_reductions():
    rng = np.random.default_rng(6)
    for _ in range(50):
        w = rng.normal(size=(1, 8))
        x = rng.normal(size=8)
        gamma = float(rng.uniform(0.5, 10))
        bank = ProxyBank({0: w}, gamma=gamma)
        s = float(w[0] @ x) / (np.linalg.norm(w) * np.linalg.norm(x))
        want = 1.0 / (1.0 + np.exp(-gamma * s))
        assert abs(multi_proxy_prob(bank, 0, x) - want) <= 1e-12
    for k in (2, 3, 5, 8):
        w = np.eye(k, k + 1)
        x = np.ones(k + 1)
        bank = ProxyBank({0: w}, gamma=2.0)
        s = 1.0 / np.sqrt(k + 1)
        want = 1.0 / (1.0 + np.exp(-2.0 * s))
        assert abs(multi_proxy_prob(bank, 0, x) - want) <= 1e-12
    x = np.array([0.8, 0.2, np.sqrt(1 - 0.8**2 - 0.2**2)])
    bank = ProxyBank({0: np.eye(2, 3)}, gamma=1.0)
    assert multi_proxy_prob(bank, 0, x) == pytest.approx(0.6428, abs=1e-3)
    _report("criterion 6: scoring reductions and worked example")


_SCENES = 50


def test_criterion_07_packing_raises_foreground_ratio():
    t0 = time.time()
    cfg = PipelineConfig()  # beta 1.5, fixed size 96
    for seed in range(_SCENES):
        spec = SceneSpec(seed=seed)
        gt, coarse = generate_scene(spec)
        src = source_stats(gt, spec.extent)
        _, layout = build_layout(coarse, spec.extent, cfg)
        ms = mosaic_stats(gt, layout)
        assert ms.fr >= 2.0 * src.fr
        assert ms.small < 0.25
    elapsed = time.time() - t0
    assert elapsed < 20.0
    _report("criterion 7: mosaic foreground-ratio gain", f"{_SCENES} scenes, {elapsed:.2f}s")


def test_criterion_08_beta_monotonicity():
    means = []
    for beta in (1.3, 1.5, 1.7):
        cfg = PipelineConfig(beta=beta)
        frs = []
        for seed in range(20):
            spec = SceneSpec(seed=seed)
            gt, coarse = generate_scene(spec)
            _, layout = build_layout(coarse, spec.extent, cfg)
            frs.append(mosaic_stats(gt, layout).fr)
        means.append(float(np.mean(frs)))
    assert means[0] > means[1] > means[2]
    _report("criterion 8: foreground ratio decreases with expansion",
            " > ".join(f"{m:.3f}" for m in means))


def test_criterion_09_transport_prevents_proxy_collapse():
    t0 = time.time()
    base = dict(steps=2000, seed=42)
    with_ot = train_sim(TrainConfig(use_ot=True, **base))
    without_ot = train_sim(TrainConfig(use_ot=False, **base))
    assert with_ot.final_min_proxy_distance > 0.1
    assert without_ot.final_max_proxy_similarity > 0.95
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(
        "criterion 9: anti-collapse",
        f"with OT min dist {with_ot.final_min_proxy_distance:.3f}, "
        f"without max sim {without_ot.final_max_proxy_similarity:.3f}, {elapsed:.1f}s",
    )


def test_criterion_10_vocabulary_marginals():
    rng = np.random.default_rng(10)
    q = VocabQueue(8, 0)
    vecs = [np.array([1.0, 0.0]), np.array([1.01, 0.01]),
            np.array([0.99, -0.01]), np.array([0.0, 1.0])]
    for v in vecs:
        q.update([v], 1, rng)
    est = estimate_marginals(q, 2, seed=0)
    assert np.array_equal(est.p, np.array([0.75, 0.25]))
    for seed in range(1000):
        r = np.random.default_rng(20000 + seed)
        size = int(r.integers(4, 33))
        k = int(r.integers(2, min(size, 6)))
        vq = VocabQueue(size, 0)
        vq.update(list(r.normal(size=(size, 4))), size, r)
        est = estimate_marginals(vq, k, seed=seed)
        assert abs(est.p.sum() - 1.0) <= 1e-9
        assert np.all(np.diff(est.p) <= 1e-12)
    _report("criterion 10: vocabulary marginal estimation")


def test_criterion_11_determinism_and_serialization(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"seed": 5, "n_objects": 80, "target_fr": 0.08,
                                "extent": [1000, 800]}))
    files = {}
    for tag in ("a", "b"):
        scene = tmp_path / f"scene_{tag}.json"
        layout = tmp_path / f"layout_{tag}.json"
        fused = tmp_path / f"fused_{tag}.json"
        assert cli_main(["synth", "--spec", str(spec), "--out", str(scene)]) == 0
        assert cli_main(["pack", "--detections", str(scene),
                         "--image-size", "1000x800", "--out-layout", str(layout)]) == 0
        # The coarse records stand in for fine ones; --fine takes only an array.
        fine = tmp_path / f"fine_{tag}.json"
        io.save_detections(io.load_scene(scene).coarse, fine)
        assert cli_main(["unpack", "--fine", str(fine), "--layout", str(layout),
                         "--coarse", str(scene), "--out", str(fused)]) == 0
        files[tag] = (scene.read_bytes(), layout.read_bytes(), fused.read_bytes())
    assert files["a"] == files["b"]

    lay = io.load_layout(tmp_path / "layout_a.json")
    resaved = tmp_path / "layout_resave.json"
    io.save_layout(lay, resaved)
    assert resaved.read_bytes() == (tmp_path / "layout_a.json").read_bytes()
    cfg = PipelineConfig(beta=1.7, padding=3.0)
    assert PipelineConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
    dets = io.load_detections(tmp_path / "fused_a.json")[0]
    redets = tmp_path / "fused_resave.json"
    io.save_detections(dets, redets)
    assert redets.read_bytes() == (tmp_path / "fused_a.json").read_bytes()
    _report("criterion 11: determinism and serialization round-trips")
