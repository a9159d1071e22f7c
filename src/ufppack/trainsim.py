"""Gradient-descent simulation of multi-proxy training on synthetic features.

Each class draws features from several modes on the unit sphere with
imbalanced mode weights. Proxies are trained with binary cross-entropy on
the multi-proxy probability; optionally a transport-matching term with
vocabulary-estimated marginals keeps the proxies anchored to distinct
feature modes instead of drifting toward a common mean.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .clustering import kmeans
from .proxies import ProxyBank, _row_norms, _sigmoid, multi_proxy_logit
from .transport import cost_matrix, sinkhorn, transport_cost
from .vocab import VocabQueue, contrastive_loss, estimate_marginals


@dataclass
class TrainConfig:
    n_classes: int = 2
    proxies_per_class: int = 3
    feature_dim: int = 16
    modes_per_class: int = 3
    mode_noise: float = 0.1
    steps: int = 2000
    batch_size: int = 16
    lr: float = 0.1
    gamma: float = 5.0
    seed: int = 0
    use_ot: bool = True
    proxy_init: str = "kmeans"  # or "random"
    vocab_capacity: int = 64
    vocab_insert: int = 8
    marginal_cadence: int = 200
    sinkhorn_epsilon: float = 0.01
    sinkhorn_max_iters: int = 150
    sinkhorn_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.n_classes < 1 or self.proxies_per_class < 1:
            raise ValueError("need at least one class and one proxy")
        if self.feature_dim < 2 or self.modes_per_class < 1:
            raise ValueError("invalid feature geometry")
        if self.steps < 0 or self.batch_size < 1 or self.lr <= 0:
            raise ValueError("invalid optimization settings")
        if self.proxy_init not in ("kmeans", "random"):
            raise ValueError(f"unknown proxy_init {self.proxy_init!r}")
        if self.vocab_insert > self.batch_size:
            raise ValueError("vocab_insert cannot exceed batch_size")
        if self.vocab_capacity < 1 or self.marginal_cadence < 1:
            raise ValueError("vocab_capacity and marginal_cadence must be at least 1")
        # `not x > 0` also rejects NaN.
        if not (self.gamma > 0 and self.sinkhorn_epsilon > 0 and self.sinkhorn_tol > 0):
            raise ValueError("gamma, sinkhorn_epsilon and sinkhorn_tol must be positive")
        if self.sinkhorn_max_iters < 0:
            raise ValueError("sinkhorn_max_iters must be nonnegative")

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "TrainConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


@dataclass(frozen=True)
class TransportStats:
    """Outcome of one step's Sinkhorn calls, one call per class."""

    max_iterations: int = 0
    max_violation: float = 0.0
    unconverged: int = 0  # calls that stopped at max_iters above tolerance


@dataclass
class TrainReport:
    config: TrainConfig
    # min_proxy_distance and max_proxy_similarity are None when no class has
    # two proxies.
    records: list[dict[str, float | None]] = field(default_factory=list)
    final_weights: dict[int, np.ndarray] = field(default_factory=dict)
    transport: list[TransportStats] = field(default_factory=list)  # one per record

    @property
    def unconverged_calls(self) -> int:
        return sum(t.unconverged for t in self.transport)

    @property
    def final_min_proxy_distance(self) -> float | None:
        return self.records[-1]["min_proxy_distance"] if self.records else None

    @property
    def final_max_proxy_similarity(self) -> float | None:
        return self.records[-1]["max_proxy_similarity"] if self.records else None


class _FeatureModel:
    """Per-class mixture of unit-sphere modes with geometrically decaying weights."""

    def __init__(self, cfg: TrainConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.centers = {}
        self.weights = {}
        self.cdfs = {}
        for cid in range(cfg.n_classes):
            c = rng.normal(size=(cfg.modes_per_class, cfg.feature_dim))
            self.centers[cid] = c / _row_norms(c)[:, None]
            w = 0.45 ** np.arange(cfg.modes_per_class)
            self.weights[cid] = w / w.sum()
            # rng.choice(modes, p=w) cumulates and normalizes p this way on
            # every call, after validating it.
            cdf = np.cumsum(self.weights[cid])
            self.cdfs[cid] = cdf / cdf[-1]

    def sample(self, cid: int, n: int, rng: np.random.Generator) -> np.ndarray:
        # The draws and generator state of rng.choice(modes, n, p=weights).
        modes = self.cdfs[cid].searchsorted(rng.random(n), side="right")
        x = self.centers[cid][modes] + self.cfg.mode_noise * rng.normal(
            size=(n, self.cfg.feature_dim)
        )
        return x / _row_norms(x)[:, None]


def _init_proxies(cfg: TrainConfig, model: _FeatureModel, rng: np.random.Generator) -> ProxyBank:
    weights: dict[int, np.ndarray] = {}
    for cid in range(cfg.n_classes):
        if cfg.proxy_init == "random":
            w = rng.normal(size=(cfg.proxies_per_class, cfg.feature_dim))
        else:
            sample = model.sample(cid, max(8 * cfg.proxies_per_class, 32), rng)
            _, w = kmeans(sample, cfg.proxies_per_class, rng)
        weights[cid] = w / _row_norms(w)[:, None]
    return ProxyBank(weights=weights, gamma=cfg.gamma)


def _proxy_separation(
    bank: ProxyBank, pairs: tuple[np.ndarray, np.ndarray]
) -> tuple[float | None, float | None]:
    """(min pairwise cosine distance, max pairwise cosine similarity) within classes.

    Both are None when no class has two proxies. ``pairs`` is
    np.triu_indices(K, k=1) for the K proxies of every class.
    """
    min_dist = np.inf
    max_sim = -np.inf
    for w in bank.weights.values():
        if w.shape[0] < 2:
            continue
        u = w / _row_norms(w)[:, None]
        top = float(np.maximum.reduce((u @ u.T)[pairs]))
        max_sim = max(max_sim, top)
        # Rounding keeps 1 - s non-increasing in s: the least distance is 1 - top.
        min_dist = min(min_dist, 1.0 - top)
    if max_sim == -np.inf:
        return None, None
    return min_dist, max_sim


def _ot_grad(
    features: np.ndarray, w: np.ndarray, plan: np.ndarray
) -> np.ndarray:
    """Gradient of tr(C^T P) w.r.t. the proxies, P held fixed."""
    fn = features / _row_norms(features)[:, None]
    wn = _row_norms(w)
    u = w / wn[:, None]
    cos = fn @ u.T  # N x K
    # dC(j,k)/dw_k = -(f_hat_j - cos_jk * u_k) / (2 |w_k|), summed over j with weight P_jk
    return -(plan.T @ fn - np.add.reduce(plan * cos, axis=0)[:, None] * u) / (2.0 * wn[:, None])


def train_sim(cfg: TrainConfig) -> TrainReport:
    """Run the seeded training loop and report per-step losses and separation."""
    rng = np.random.default_rng(cfg.seed)
    model = _FeatureModel(cfg, rng)
    bank = _init_proxies(cfg, model, rng)
    vocabs = {cid: VocabQueue(cfg.vocab_capacity, cid) for cid in range(cfg.n_classes)}
    marginals: dict[int, np.ndarray] = {
        cid: np.full(cfg.proxies_per_class, 1.0 / cfg.proxies_per_class)
        for cid in range(cfg.n_classes)
    }
    report = TrainReport(config=cfg)
    # Each step scores every sample of every class against every class.
    labels = np.repeat(np.arange(cfg.n_classes), cfg.batch_size)
    n_terms = labels.size * cfg.n_classes
    targets = [(labels == cid).astype(float) for cid in range(cfg.n_classes)]
    instance_labels = labels.tolist()
    q = np.full(cfg.batch_size, 1.0 / cfg.batch_size)
    pairs = np.triu_indices(cfg.proxies_per_class, k=1)

    for step in range(cfg.steps + 1):
        batches = {
            cid: model.sample(cid, cfg.batch_size, rng) for cid in range(cfg.n_classes)
        }
        for cid in range(cfg.n_classes):
            vocabs[cid].update(batches[cid], cfg.vocab_insert, rng)
        if step > 0 and step % cfg.marginal_cadence == 0:
            for cid in range(cfg.n_classes):
                if len(vocabs[cid]) >= cfg.proxies_per_class:
                    est = estimate_marginals(
                        vocabs[cid], cfg.proxies_per_class, cfg.seed + step
                    )
                    marginals[cid] = est.p

        feats_all = np.concatenate(list(batches.values()))
        grads = {}
        loss_det = 0.0
        for target_cid, y in enumerate(targets):
            z, _, dz_dw = multi_proxy_logit(bank, target_cid, feats_all)
            p = _sigmoid(z)
            loss_det -= float(np.add.reduce(y * np.log(np.maximum(p, 1e-12))
                                            + (1 - y) * np.log(np.maximum(1 - p, 1e-12))))
            # np.tensordot(p - y, dz_dw, axes=1), as the one dot it reduces to.
            grads[target_cid] = (p - y).reshape(1, -1).dot(
                dz_dw.reshape(len(p), -1)).reshape(dz_dw.shape[1:])
        loss_det /= n_terms
        for cid in grads:
            grads[cid] /= n_terms

        loss_ot = 0.0
        stats = TransportStats()
        if cfg.use_ot:
            results = []
            for cid, feats in batches.items():
                cost = cost_matrix(feats, bank.weights[cid])
                res = sinkhorn(
                    cost,
                    marginals[cid],
                    q,
                    epsilon=cfg.sinkhorn_epsilon,
                    max_iters=cfg.sinkhorn_max_iters,
                    tol=cfg.sinkhorn_tol,
                )
                results.append(res)
                loss_ot += transport_cost(cost, res.plan)
                grads[cid] += _ot_grad(feats, bank.weights[cid], res.plan.entries) / cfg.n_classes
            loss_ot /= cfg.n_classes
            stats = TransportStats(
                max_iterations=max(r.iterations for r in results),
                max_violation=max(r.marginal_violation for r in results),
                unconverged=sum(not r.converged for r in results),
            )
        report.transport.append(stats)

        loss_cl = contrastive_loss(list(zip(feats_all, instance_labels)), vocabs)

        min_dist, max_sim = _proxy_separation(bank, pairs)
        report.records.append(
            {
                "step": float(step),
                "loss_det": float(loss_det),
                "loss_ot": float(loss_ot),
                "loss_cl": float(loss_cl),
                "min_proxy_distance": min_dist,
                "max_proxy_similarity": max_sim,
            }
        )
        if step == cfg.steps:
            break
        for cid in range(cfg.n_classes):
            w = bank.weights[cid] - cfg.lr * grads[cid]
            bank.weights[cid] = w / _row_norms(w)[:, None]

    report.final_weights = {cid: w.copy() for cid, w in bank.weights.items()}
    return report
