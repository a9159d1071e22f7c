"""Gradient-descent simulation of multi-proxy training on synthetic features.

Each class draws features from several modes on the unit sphere with
imbalanced mode weights. Proxies are trained with binary cross-entropy on
the multi-proxy probability; optionally a transport-matching term with
vocabulary-estimated marginals keeps the proxies anchored to distinct
feature modes instead of drifting toward a common mean.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clustering import kmeans
from .config import DictConfig
# multi_proxy_logit, cost_matrix and contrastive_loss are not called here: they are
# imported only so that perfbench's traced run can rebind them in this module.
from .proxies import _aggregate, _cosine_grad, _row_norms, _sigmoid, _unit_rows, multi_proxy_logit
from .transport import _cosine_cost, cost_matrix, sinkhorn, transport_cost
from .vocab import VocabQueue, contrastive_loss, estimate_marginals


@dataclass
class TrainConfig(DictConfig):
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
    vocab_capacity: int = 64
    vocab_insert: int = 8
    marginal_cadence: int = 200
    sinkhorn_epsilon: float = 0.01
    sinkhorn_max_iters: int = 150
    sinkhorn_tol: float = 1e-6  # below 1: no marginal violation exceeds 1

    # The upper bounds keep every row norm below 1.3e154, so its square is finite: an updated
    # proxy has norm at most 1 + lr * (3 gamma + 1/2), a sampled feature 1 + mode_noise * |z|.
    _BOUNDS = (("n_classes", ">=", 1), ("proxies_per_class", ">=", 1), ("feature_dim", ">=", 2),
               ("modes_per_class", ">=", 1), ("mode_noise", ">=", 0), ("mode_noise", "<=", 1e100),
               ("steps", ">=", 0), ("batch_size", ">=", 1), ("lr", ">", 0), ("lr", "<=", 1e75),
               ("gamma", ">", 0), ("gamma", "<=", 1e75), ("seed", ">=", 0),
               ("vocab_capacity", ">=", 1), ("vocab_insert", ">=", 1),
               ("marginal_cadence", ">=", 1), ("sinkhorn_epsilon", ">", 0),
               ("sinkhorn_max_iters", ">=", 0), ("sinkhorn_tol", ">", 0), ("sinkhorn_tol", "<", 1))

    def __post_init__(self) -> None:
        super().__post_init__()
        # A step's cosines and features, the mode centers, and the proxies at init.
        self._check_counts(("n_classes", "n_classes", "batch_size", "proxies_per_class"),
                           ("n_classes", "batch_size", "feature_dim"),
                           ("n_classes", "modes_per_class", "feature_dim"),
                           ("n_classes", "proxies_per_class", "proxies_per_class", "feature_dim"))
        if self.vocab_insert > self.batch_size:
            raise ValueError(f"vocab_insert must be at most batch_size ({self.batch_size}), "
                             f"got {self.vocab_insert}")


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
    """Per-class mixture of unit-sphere modes; every class has the same
    geometrically decaying mode weights."""

    def __init__(self, cfg: TrainConfig, rng: np.random.Generator):
        self.cfg = cfg
        # n_classes x modes x C; one draw is the stream of one per class.
        c = rng.normal(size=(cfg.n_classes * cfg.modes_per_class, cfg.feature_dim))
        self.centers = (c / _row_norms(c)[:, None]).reshape(cfg.n_classes, cfg.modes_per_class, -1)
        w = 0.45 ** np.arange(cfg.modes_per_class)
        self.weights = w / w.sum()
        # rng.choice(modes, p=w) cumulates and normalizes p this way on every
        # call, after validating it.
        cdf = np.cumsum(self.weights)
        self.cdf = cdf / cdf[-1]

    def sample(self, cid: int, n: int, rng: np.random.Generator) -> np.ndarray:
        # The draws and generator state of rng.choice(modes, n, p=weights).
        modes = self.cdf.searchsorted(rng.random(n), side="right")
        x = self.centers[cid, modes] + self.cfg.mode_noise * rng.normal(
            size=(n, self.cfg.feature_dim)
        )
        return x / _row_norms(x)[:, None]


def _unit_proxies(w: np.ndarray, k: int) -> np.ndarray:
    """The unit rows of the proxies of every class, k rows per class; a zero
    row raises ValueError named by its class."""
    try:
        return _unit_rows(w, "zero-norm proxy row")[0]
    except ValueError as e:
        cid = int(np.argmax(_row_norms(w) == 0)) // k
        raise ValueError(f"class {cid}: {e}") from None


def _init_proxies(cfg: TrainConfig, model: _FeatureModel, rng: np.random.Generator) -> np.ndarray:
    """The unit proxies of every class, n_classes * K x C, class by class:
    the k-means centers of a sample of the class, drawn in that order."""
    k = cfg.proxies_per_class
    w = np.concatenate([kmeans(model.sample(cid, max(8 * k, 32), rng), k, rng)[1]
                        for cid in range(cfg.n_classes)])
    return _unit_proxies(w, k)


def _proxy_separation(u: np.ndarray, pairs: np.ndarray) -> tuple[float | None, float | None]:
    """(min pairwise cosine distance, max pairwise cosine similarity) within classes.

    u holds the unit proxies of every class, n_classes x K x C, and ``pairs``
    the flat indices of the pairs j < l of each class in the n_classes x K x K
    cosines u @ u^T. Both are None when there are no pairs (K = 1).
    """
    if pairs.size == 0:
        return None, None
    top = float(np.maximum.reduce((u @ u.transpose(0, 2, 1)).take(pairs), axis=None))
    # Rounding keeps 1 - s non-increasing in s: the least distance is 1 - top.
    return 1.0 - top, top


def _bce(s: np.ndarray, y: np.ndarray, gamma: float) -> tuple[float, np.ndarray]:
    """(loss, dloss/ds): the summed binary cross-entropy of the targets y
    under the multi-proxy logit gamma * agg(s), as proxies.multi_proxy_logit
    scores, and its derivative in s. The last axis of the cosines s runs over
    a class's K proxies and y has the shape of the others: N x K cosines of
    one class with N targets, or N x classes x K cosines of every class with
    N x classes targets."""
    agg, dagg_ds = _aggregate(s)
    p = _sigmoid(gamma * agg)
    loss = -float(np.add.reduce(y * np.log(np.maximum(p, 1e-12))
                                + (1 - y) * np.log(np.maximum(1 - p, 1e-12)), axis=None))
    return loss, (gamma * (p - y))[..., None] * dagg_ds


def train_sim(cfg: TrainConfig) -> TrainReport:
    """Run the seeded training loop and report per-step losses and separation.

    The proxies of every class are one n_classes * K x C array of unit rows,
    class by class, so a step's dense algebra runs once for all classes; only
    the Sinkhorn solves run per class. Each update normalises them once.
    """
    rng = np.random.default_rng(cfg.seed)
    model = _FeatureModel(cfg, rng)
    w = _init_proxies(cfg, model, rng)
    n_classes, k, batch = cfg.n_classes, cfg.proxies_per_class, cfg.batch_size
    vocabs = [VocabQueue(cfg.vocab_capacity, cid) for cid in range(n_classes)]
    marginals = np.full((n_classes, k), 1.0 / k)
    report = TrainReport(config=cfg)
    # Each step scores every sample of every class against every class:
    # targets[n, c] says whether sample n is of class c.
    labels = np.repeat(np.arange(n_classes), batch)
    n_terms = labels.size * n_classes
    classes = np.arange(n_classes)
    targets = (labels[:, None] == classes).astype(float)
    # Flat indices of class c's own batch rows and proxies, n_classes x batch
    # x K, in the N x n_classes x K cosines: the blocks its transport uses.
    own = np.arange(labels.size * n_classes * k).reshape(
        n_classes, batch, n_classes, k)[classes, :, classes]
    upper = np.triu_indices(k, k=1)
    pairs = np.arange(n_classes * k * k).reshape(n_classes, k, k)[:, upper[0], upper[1]]
    q = np.full(batch, 1.0 / batch)
    # Each class's transport starts from the column potentials of its
    # previous step: one batch and one proxy step apart, the problems are
    # close, so the Newton solve starts near its answer.
    potentials: list[np.ndarray | None] = [None] * n_classes

    for step in range(cfg.steps + 1):
        feats = np.concatenate([model.sample(cid, batch, rng) for cid in range(n_classes)])
        refresh = step > 0 and step % cfg.marginal_cadence == 0
        for cid, vocab in enumerate(vocabs):
            vocab.update(feats[cid * batch:(cid + 1) * batch], cfg.vocab_insert, rng)
            if refresh and len(vocab) >= k:
                marginals[cid] = estimate_marginals(vocab, k, cfg.seed + step).p

        # Features and proxies are unit rows: one cosine block for every class feeds the
        # BCE, the transport costs and the gradient of both, s[n, c, j] the cosine of
        # sample n and proxy j of class c.
        s = feats @ w.T
        loss_det, A = _bce(s.reshape(-1, n_classes, k), targets, cfg.gamma)
        loss_det /= n_terms
        A /= n_terms
        loss_ot = 0.0
        stats = TransportStats()
        if cfg.use_ot:
            costs = _cosine_cost(s.take(own))
            results = [sinkhorn(cost, p, q, epsilon=cfg.sinkhorn_epsilon,
                                max_iters=cfg.sinkhorn_max_iters, tol=cfg.sinkhorn_tol, init=h)
                       for cost, p, h in zip(costs, marginals, potentials)]
            potentials = [r.potentials for r in results]
            plans = np.array([r.plan for r in results])
            loss_ot = transport_cost(costs, plans) / n_classes
            # Each class's mean transport cost, P held fixed, has derivative
            # -P / (2 n_classes) in the cosines of its own batch.
            A.reshape(-1)[own] -= plans / (2.0 * n_classes)
            stats = TransportStats(
                max_iterations=max(r.iterations for r in results),
                max_violation=max(r.marginal_violation for r in results),
                unconverged=sum(not r.converged for r in results),
            )
        report.transport.append(stats)

        min_dist, max_sim = _proxy_separation(w.reshape(n_classes, k, -1), pairs)
        report.records.append(
            {
                "step": float(step),
                "loss_det": float(loss_det),
                "loss_ot": float(loss_ot),
                "min_proxy_distance": min_dist,
                "max_proxy_similarity": max_sim,
            }
        )
        if step == cfg.steps:
            break
        w = _unit_proxies(w - cfg.lr * _cosine_grad(feats, s, w, A.reshape(s.shape)), k)

    report.final_weights = {cid: w[cid * k:(cid + 1) * k].copy() for cid in range(n_classes)}
    return report
