"""Multi-proxy classification scoring and its analytic gradients.

A class is represented by K weight vectors (proxies). The classification
probability is a sigmoid of a softmax-weighted aggregate of per-proxy cosine
similarities, scaled by gamma; with K = 1 this reduces exactly to the
single-proxy sigmoid head.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a real 2-D array.

    NumPy's own formula for np.linalg.norm(x, axis=1), so the values are the
    same bit for bit, without its argument handling on every call.
    """
    return np.sqrt(np.add.reduce(x * x, axis=1))


def _sigmoid(z: float | np.ndarray) -> float | np.ndarray:
    """Logistic function, elementwise on arrays, without overflow for large |z|."""
    e = np.exp(-np.abs(z))
    return np.where(np.asarray(z) >= 0, 1.0, e) / (1.0 + e)


@dataclass
class ProxyBank:
    """Per-class proxy weight matrices (K_i x C) plus the shared scale gamma."""

    weights: dict[int, np.ndarray] = field(default_factory=dict)
    gamma: float = 5.0

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        for cid, w in self.weights.items():
            w = np.asarray(w, dtype=float)
            if w.ndim != 2 or w.shape[0] < 1:
                raise ValueError(f"class {cid}: proxies must form a K x C matrix")
            if (_row_norms(w) == 0).any():
                raise ValueError(f"class {cid}: zero-norm proxy row")
            self.weights[cid] = w


def _aggregate(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(agg, dagg_ds) for the N x K proxy cosines s: each row's
    softmax(s)-weighted mean of its cosines, and its derivative in s."""
    alpha = np.exp(s - np.maximum.reduce(s, axis=1, keepdims=True))
    alpha /= np.add.reduce(alpha, axis=1, keepdims=True)
    agg = np.add.reduce(alpha * s, axis=1)
    # d(agg)/d(s_k) = alpha_k * (1 + s_k - agg)
    return agg, alpha * (1.0 + s - agg[:, None])


def _logit_terms(
    bank: ProxyBank, class_id: int, X: np.ndarray
) -> tuple[np.ndarray, ...]:
    """(z, dz_dw, dagg_ds, s, x_hat, w_hat, xn) for a batch X of shape N x C.

    z (N) and dz_dw (N x K x C) are what multi_proxy_logit returns; the rest
    are the terms multi_proxy_grad builds dz_dx from: the aggregate's
    derivative in the similarities and the similarities themselves (N x K),
    the unit rows of X and of the proxies, and the norms of X's rows.
    """
    W = bank.weights[class_id]
    xn = _row_norms(X)
    if (xn == 0).any():
        raise ValueError("zero feature vector")
    wn = _row_norms(W)
    s = (X @ W.T) / (xn[:, None] * wn[None, :])  # N x K
    agg, dagg_ds = _aggregate(s)
    x_hat = X / xn[:, None]
    w_hat = W / wn[:, None]
    # d(s_k)/dw_k = (x/|x| - s_k w_k/|w_k|) / |w_k|
    ds_dw = (x_hat[:, None, :] - s[:, :, None] * w_hat[None, :, :]) / wn[None, :, None]
    dz_dw = bank.gamma * dagg_ds[:, :, None] * ds_dw
    return bank.gamma * agg, dz_dw, dagg_ds, s, x_hat, w_hat, xn


def multi_proxy_logit(
    bank: ProxyBank, class_id: int, x: np.ndarray
) -> tuple[float, np.ndarray] | tuple[np.ndarray, np.ndarray]:
    """Pre-sigmoid logit z = gamma * aggregate and its gradient in the proxies.

    For one feature x of shape C, returns (z, dz_dw of shape K x C). For a
    batch x of shape N x C, returns (z of shape N, dz_dw of shape N x K x C),
    row n being the result for x[n]. Working at the logit level keeps
    cross-entropy gradients finite when the sigmoid saturates.
    """
    x = np.asarray(x, dtype=float)
    z, dz_dw = _logit_terms(bank, class_id, x.reshape(1, -1) if x.ndim == 1 else x)[:2]
    if x.ndim == 1:
        return float(z[0]), dz_dw[0]
    return z, dz_dw


def multi_proxy_prob(bank: ProxyBank, class_id: int, x: np.ndarray) -> float | np.ndarray:
    """Sigmoid(gamma * sum_k softmax(s)_k * s_k) over proxy cosine similarities.

    The sigmoid of multi_proxy_logit: one probability for a feature of shape
    C, N of them for a batch of shape N x C.
    """
    return _sigmoid(multi_proxy_logit(bank, class_id, x)[0])


def multi_proxy_grad(
    bank: ProxyBank, class_id: int, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of multi_proxy_prob w.r.t. x and w.r.t. the class's proxies.

    For one feature x of shape C, returns (grad_x of shape C, grad_w of
    shape K x C); for a batch of shape N x C, (N x C, N x K x C), row n
    being the result for x[n].
    """
    x = np.asarray(x, dtype=float)
    z, dz_dw, dagg_ds, s, x_hat, w_hat, xn = _logit_terms(
        bank, class_id, x.reshape(1, -1) if x.ndim == 1 else x)
    # d(s_k)/dx = (w_k/|w_k| - s_k x/|x|) / |x|
    dz_dx = bank.gamma * (
        dagg_ds @ w_hat - np.add.reduce(dagg_ds * s, axis=1)[:, None] * x_hat
    ) / xn[:, None]
    sig = _sigmoid(z)
    dp_dz = (sig * (1.0 - sig))[:, None]
    grad_x, grad_w = dp_dz * dz_dx, dp_dz[:, :, None] * dz_dw
    if x.ndim == 1:
        return grad_x[0], grad_w[0]
    return grad_x, grad_w
