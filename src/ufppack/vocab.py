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
    """Fixed-capacity FIFO of feature vectors for one class."""

    def __init__(self, capacity: int, class_id: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.class_id = class_id
        self._rows = np.empty((0, 0))  # oldest first; the width comes with the first insert

    def __len__(self) -> int:
        return len(self._rows)

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
        if len(self._rows):
            new = np.concatenate((self._rows, new))
        self._rows = new[-self.capacity :]
        return self

    def snapshot(self) -> np.ndarray:
        """Entries as an array, oldest first."""
        return self._rows.copy()


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


def contrastive_loss(
    x: np.ndarray, labels: np.ndarray, vocab: Mapping[int, VocabQueue]
) -> float:
    """Mean negative log-ratio of own-class to all-class vocabulary affinity.

    Row n of the N x C array ``x`` is an instance of class ``labels[n]``.
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    if x.ndim != 2 or labels.shape != (len(x),):
        raise ValueError(f"need an N x C array and N labels, got {x.shape} and {labels.shape}")
    if not len(x):
        raise ValueError("no instances")
    for class_id in dict.fromkeys(labels.tolist()):
        if len(vocab[class_id]) == 0:
            raise ValueError(f"class {class_id} has an empty vocabulary")
    s, _, blocks = _affinities(x, vocab)
    total = float(np.add.reduce(np.logaddexp.reduce(s, axis=1)))
    for class_id, own in blocks.items():
        rows = labels == class_id
        if rows.any():
            total -= float(np.add.reduce(np.logaddexp.reduce(s[rows, own], axis=1)))
    return total / len(x)


def contrastive_grad(
    x: np.ndarray, class_id: int, vocab: Mapping[int, VocabQueue]
) -> np.ndarray:
    """Analytic gradient of the single-instance contrastive term w.r.t. x:
    the softmax-weighted mean of all words less that of the own words."""
    x = np.asarray(x, dtype=float)
    if len(vocab[class_id]) == 0:
        raise ValueError(f"class {class_id} has an empty vocabulary")
    s, words, blocks = _affinities(x, vocab)
    own = blocks[class_id]
    return (np.exp(s - np.logaddexp.reduce(s)) @ words
            - np.exp(s[own] - np.logaddexp.reduce(s[own])) @ words[own])


def _affinities(
    x: np.ndarray, vocab: Mapping[int, VocabQueue]
) -> tuple[np.ndarray, np.ndarray, dict[int, slice]]:
    """The affinities ``x @ words.T`` against the words of every nonempty
    vocabulary stacked in order, the stacked words, and each class's column
    block of them."""
    parts = {cid: q.snapshot() for cid, q in vocab.items() if len(q) > 0}
    blocks = {}
    start = 0
    for class_id, own in parts.items():
        blocks[class_id] = slice(start, start + len(own))
        start += len(own)
    words = np.concatenate(list(parts.values()))
    return x @ words.T, words, blocks

