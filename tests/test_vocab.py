from __future__ import annotations

import numpy as np
import pytest

from oracles import central_diff
from ufppack.clustering import kmeans
from ufppack.vocab import (
    InsufficientVocabularyError,
    VocabQueue,
    contrastive_grad,
    contrastive_loss,
    estimate_marginals,
)


def _vec(*vals):
    return np.array(vals, dtype=float)


def _fill(queue, vecs, rng):
    for v in vecs:
        queue.update([v], 1, rng)
    return queue


class TestVocabQueue:
    def test_fifo_eviction(self):
        rng = np.random.default_rng(0)
        q = _fill(VocabQueue(3, 0), [_vec(i, 0) for i in range(4)], rng)
        assert list(q.snapshot()[:, 0]) == [1, 2, 3]

    def test_partial_fill(self):
        rng = np.random.default_rng(0)
        q = VocabQueue(10, 0)
        q.update([_vec(i, 0) for i in range(5)], 2, rng)
        assert len(q) == 2

    def test_two_oldest_evicted(self):
        rng = np.random.default_rng(0)
        q = _fill(VocabQueue(4, 0), [_vec(i, 0) for i in range(4)], rng)
        q.update([_vec(4, 0), _vec(5, 0)], 2, rng)
        assert list(q.snapshot()[:, 0]) == [2, 3, 4, 5]

    def test_batch_larger_than_capacity_keeps_newest(self):
        rng = np.random.default_rng(0)
        q = _fill(VocabQueue(3, 0), [_vec(-1, 0)], rng)
        q.update([_vec(i, 0) for i in range(5)], 5, rng)
        assert list(q.snapshot()[:, 0]) == [2, 3, 4]

    def test_empty_batch_noop(self):
        q = VocabQueue(4, 0)
        q.update([], 0, np.random.default_rng(0))
        assert len(q) == 0

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            VocabQueue(4, 0).update([_vec(1, 1)], -1, np.random.default_rng(0))

    def test_m_past_batch_size_rejected(self):
        with pytest.raises(ValueError, match=r"^m=3 exceeds batch size 2$"):
            VocabQueue(4, 0).update([_vec(1, 1), _vec(2, 2)], 3, np.random.default_rng(0))

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_capacity_below_one_rejected(self, capacity):
        with pytest.raises(ValueError, match=rf"^capacity must be >= 1, got {capacity}$"):
            VocabQueue(capacity, 0)

    def test_last_n_in_insertion_order(self):
        rng = np.random.default_rng(1)
        q = VocabQueue(5, 0)
        inserted = []
        for i in range(20):
            v = _vec(i, i)
            q.update([v], 1, rng)
            inserted.append(v)
        assert np.allclose(q.snapshot(), np.stack(inserted[-5:]))


class TestEstimateMarginals:
    def test_three_vs_one(self):
        rng = np.random.default_rng(0)
        vecs = [_vec(1, 0), _vec(1.01, 0.01), _vec(0.99, -0.01), _vec(0, 1)]
        q = _fill(VocabQueue(8, 0), vecs, rng)
        est = estimate_marginals(q, 2, seed=0)
        assert np.allclose(est.p, [0.75, 0.25])
        assert list(est.cluster_sizes) == [3, 1]

    def test_symmetric_pairs_uniform(self):
        rng = np.random.default_rng(0)
        k = 3
        vecs = []
        for c in range(k):
            center = np.zeros(3)
            center[c] = 10.0
            vecs += [center + 0.01, center - 0.01]
        q = _fill(VocabQueue(16, 0), vecs, rng)
        est = estimate_marginals(q, k, seed=0)
        assert np.allclose(est.p, np.full(k, 1 / k))

    def test_identical_vectors_degenerate(self):
        rng = np.random.default_rng(0)
        q = _fill(VocabQueue(8, 0), [_vec(1, 1)] * 4, rng)
        est = estimate_marginals(q, 2, seed=0)
        assert np.allclose(est.p, [1.0, 0.0])

    def test_too_small_queue(self):
        rng = np.random.default_rng(0)
        q = _fill(VocabQueue(8, 0), [_vec(1, 1)], rng)
        with pytest.raises(InsufficientVocabularyError):
            estimate_marginals(q, 2, seed=0)

    def test_kmeans_with_fewer_points_than_clusters_rejected(self):
        with pytest.raises(ValueError, match=r"^need at least 3 points, got 2$"):
            kmeans(np.ones((2, 4)), 3, np.random.default_rng(0))

    @pytest.mark.parametrize("seed", range(20))
    def test_sorted_and_normalized(self, seed):
        rng = np.random.default_rng(seed)
        q = VocabQueue(32, 0)
        q.update(list(rng.normal(size=(32, 4))), 32, rng)
        est = estimate_marginals(q, 4, seed=seed)
        assert est.p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(est.p) <= 1e-12)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(5)
        vecs = list(rng.normal(size=(16, 3)))
        q1 = _fill(VocabQueue(16, 0), vecs, np.random.default_rng(0))
        q2 = _fill(VocabQueue(16, 0), vecs, np.random.default_rng(0))
        a = estimate_marginals(q1, 3, seed=9)
        b = estimate_marginals(q2, 3, seed=9)
        assert np.array_equal(a.p, b.p)


def _two_class_vocab(rng):
    v0 = _fill(VocabQueue(8, 0), list(rng.normal(size=(8, 8))), rng)
    v1 = _fill(VocabQueue(8, 1), list(rng.normal(size=(8, 8))), rng)
    return {0: v0, 1: v1}


class TestContrastiveLoss:
    def test_single_class_zero(self):
        rng = np.random.default_rng(0)
        vocab = {0: _fill(VocabQueue(4, 0), list(rng.normal(size=(4, 3))), rng)}
        assert contrastive_loss(rng.normal(size=(1, 3)), [0], vocab) == pytest.approx(0.0)

    def test_symmetric_two_words(self):
        rng = np.random.default_rng(0)
        x = _vec(1, 0)
        # one word per class, both orthogonal to x -> equal affinities
        v0 = _fill(VocabQueue(1, 0), [_vec(0, 1)], rng)
        v1 = _fill(VocabQueue(1, 1), [_vec(0, -1)], rng)
        loss = contrastive_loss(x[None, :], [0], {0: v0, 1: v1})
        assert loss == pytest.approx(np.log(2))

    def test_dominating_own_word(self):
        rng = np.random.default_rng(0)
        v0 = _fill(VocabQueue(1, 0), [_vec(100, 0)], rng)
        v1 = _fill(VocabQueue(1, 1), [_vec(0, 1)], rng)
        loss = contrastive_loss(_vec(1, 0)[None, :], [0], {0: v0, 1: v1})
        assert loss < 1e-9

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        vocab = _two_class_vocab(rng)
        for _ in range(50):
            x = rng.normal(size=8)
            assert contrastive_loss(x[None, :], [int(rng.integers(0, 2))], vocab) >= 0.0


    def test_shape_mismatch_rejected(self):
        vocab = _two_class_vocab(np.random.default_rng(3))
        for x, labels in [(np.ones(8), [0]), (np.ones((2, 8)), [0]), (np.ones((1, 8)), 0)]:
            with pytest.raises(ValueError, match="N labels"):
                contrastive_loss(x, labels, vocab)

    def test_no_instances_rejected(self):
        vocab = _two_class_vocab(np.random.default_rng(3))
        with pytest.raises(ValueError, match="^no instances$"):
            contrastive_loss(np.ones((0, 8)), [], vocab)

    def test_empty_vocabulary_rejected(self):
        vocab = {**_two_class_vocab(np.random.default_rng(3)), 1: VocabQueue(4, 1)}
        with pytest.raises(ValueError, match="^class 1 has an empty vocabulary$"):
            contrastive_loss(np.ones((2, 8)), [0, 1], vocab)


class TestContrastiveGrad:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        vocab = _two_class_vocab(rng)
        x = rng.normal(size=8)
        cid = int(rng.integers(0, 2))
        grad = contrastive_grad(x, cid, vocab)
        num = central_diff(lambda v: contrastive_loss(v[None, :], [cid], vocab), x)
        assert np.allclose(grad, num, rtol=1e-4, atol=1e-7)

    def test_dominating_word_zero_grad(self):
        rng = np.random.default_rng(0)
        v0 = _fill(VocabQueue(1, 0), [_vec(100, 0)], rng)
        v1 = _fill(VocabQueue(1, 1), [_vec(0, 0.1)], rng)
        g = contrastive_grad(_vec(1, 0), 0, {0: v0, 1: v1})
        assert np.linalg.norm(g) < 1e-9

    def test_empty_vocabulary_rejected(self):
        vocab = {**_two_class_vocab(np.random.default_rng(3)), 1: VocabQueue(4, 1)}
        with pytest.raises(ValueError, match="^class 1 has an empty vocabulary$"):
            contrastive_grad(np.ones(8), 1, vocab)
