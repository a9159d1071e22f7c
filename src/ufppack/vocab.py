"""Per-class FIFO feature vocabularies, marginal estimation, contrastive loss.

Each class keeps a fixed-capacity queue of instance feature vectors. Cluster
sizes from k-means over the queue estimate the per-proxy marginal
distribution, sorted descending so index k always names the k-th most
probable cluster.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .clustering import kmeans


class InsufficientVocabularyError(ValueError):
    """Queue holds fewer vectors than the requested cluster count."""


class VocabQueue:
    """Fixed-capacity FIFO of feature vectors for one class, as a ring buffer."""

    def __init__(self, capacity: int, class_id: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.class_id = class_id
        self._rows: np.ndarray | None = None  # capacity x C, sized by the first insert
        self._count = 0
        self._next = 0  # slot the next insert writes; the oldest entry once full

    def __len__(self) -> int:
        return self._count

    def update(
        self, batch_positives: Sequence[np.ndarray], m: int, rng: np.random.Generator
    ) -> "VocabQueue":
        """Insert m batch vectors chosen uniformly at random, evicting oldest."""
        if m < 0:
            raise ValueError(f"m must be nonnegative, got {m}")
        if len(batch_positives) == 0 or m == 0:
            return self
        if m > len(batch_positives):
            raise ValueError(f"m={m} exceeds batch size {len(batch_positives)}")
        chosen = rng.choice(len(batch_positives), size=m, replace=False)
        new = np.asarray(batch_positives, dtype=float)[np.sort(chosen)]
        new = new[-self.capacity :]
        if self._rows is None:
            self._rows = np.empty((self.capacity, new.shape[1]))
        self._rows[(self._next + np.arange(len(new))) % self.capacity] = new
        self._next = (self._next + len(new)) % self.capacity
        self._count = min(self._count + len(new), self.capacity)
        return self

    def snapshot(self) -> np.ndarray:
        """Entries as an array, oldest first."""
        if self._rows is None:
            return np.empty((0, 0))
        if self._count < self.capacity:
            return self._rows[: self._count].copy()
        return np.concatenate((self._rows[self._next :], self._rows[: self._next]))


@dataclass
class MarginalEstimate:
    p: np.ndarray  # descending probability per cluster
    cluster_sizes: np.ndarray


def estimate_marginals(queue: VocabQueue, k: int, seed: int) -> MarginalEstimate:
    """Cluster the queue with seeded k-means and return sorted cluster masses."""
    if len(queue) < k:
        raise InsufficientVocabularyError(
            f"class {queue.class_id}: vocabulary holds {len(queue)} < {k} vectors"
        )
    rng = np.random.default_rng(seed)
    labels, _ = kmeans(queue.snapshot(), k, rng)
    sizes = np.bincount(labels, minlength=k)
    order = np.argsort(-sizes, kind="stable")
    sizes = sizes[order]
    return MarginalEstimate(p=sizes / sizes.sum(), cluster_sizes=sizes)


def _logsumexp_rows(s: np.ndarray) -> np.ndarray:
    m = np.maximum.reduce(s, axis=1)
    return m + np.log(np.add.reduce(np.exp(s - m[:, None]), axis=1))


def contrastive_loss(
    instances: Sequence[tuple[np.ndarray, int]], vocab: Mapping[int, VocabQueue]
) -> float:
    """Mean negative log-ratio of own-class to all-class vocabulary affinity."""
    if not instances:
        raise ValueError("no instances")
    labels = np.array([class_id for _, class_id in instances])
    for class_id in dict.fromkeys(labels.tolist()):
        if len(vocab[class_id]) == 0:
            raise ValueError(f"class {class_id} has an empty vocabulary")
    words = {cid: q.snapshot() for cid, q in vocab.items() if len(q) > 0}
    # One affinity matrix against every word; each class's own words are a
    # column block of it.
    x = np.array([v for v, _ in instances], dtype=float)
    s = x @ np.concatenate(list(words.values())).T
    total = float(np.add.reduce(_logsumexp_rows(s)))
    start = 0
    for class_id, own in words.items():
        rows = labels == class_id
        if rows.any():
            total -= float(np.add.reduce(_logsumexp_rows(s[rows, start : start + len(own)])))
        start += len(own)
    return total / len(instances)


def contrastive_grad(
    instance: tuple[np.ndarray, int], vocab: Mapping[int, VocabQueue]
) -> np.ndarray:
    """Analytic gradient of the single-instance contrastive term w.r.t. x."""
    x, class_id = instance
    x = np.asarray(x, dtype=float)
    own = vocab[class_id].snapshot()
    if own.size == 0:
        raise ValueError(f"class {class_id} has an empty vocabulary")
    all_words = _stack_vocab(vocab)
    return _softmax_mean(all_words, x) - _softmax_mean(own, x)


def _softmax_mean(words: np.ndarray, x: np.ndarray) -> np.ndarray:
    s = words @ x
    w = np.exp(s - np.max(s))
    w /= w.sum()
    return w @ words


def _stack_vocab(vocab: Mapping[int, VocabQueue]) -> np.ndarray:
    parts = [q.snapshot() for q in vocab.values() if len(q) > 0]
    if not parts:
        raise ValueError("all vocabularies are empty")
    return np.concatenate(parts)
