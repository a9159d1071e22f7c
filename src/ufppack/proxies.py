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


def _unit_rows(x: np.ndarray, error: str) -> tuple[np.ndarray, np.ndarray]:
    """(x / |x|, |x|) for the rows of a real 2-D array x; a zero row raises
    ValueError(error)."""
    norms = _row_norms(x)
    if np.logical_or.reduce(norms == 0):
        raise ValueError(error)
    return x / norms[:, None], norms


def _cosine_grad(x_hat: np.ndarray, s: np.ndarray, u: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Gradient in the K x C proxies w of sum_nk A_nk cos(x_n, w_k), at unit w.

    x_hat holds the unit rows of x, u those of w and s = x_hat @ u.T the
    cosines: d cos(x_n, w_k) / dw_k = (x_hat_n - s_nk u_k) / |w_k|, so a
    caller whose w is not unit divides row k by |w_k|. The cosine is
    symmetric, so with x and w exchanged (u, s.T, x_hat, A.T) it is the
    gradient in x.
    """
    return A.T @ x_hat - np.add.reduce(A * s, axis=0)[:, None] * u


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
        if not 0 < self.gamma < np.inf:  # written so that a NaN fails too
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        for cid, w in self.weights.items():
            w = np.asarray(w, dtype=float)
            if w.ndim != 2 or w.shape[0] < 1:
                raise ValueError(f"class {cid}: proxies must form a K x C matrix")
            if not np.isfinite(w).all():
                raise ValueError(f"class {cid}: non-finite proxy entry")
            _unit_rows(w, f"class {cid}: zero-norm proxy row")
            self.weights[cid] = w


def _aggregate(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(agg, dagg_ds) for proxy cosines s whose last axis runs over the K
    proxies of a class, such as N x K or N x classes x K: the
    softmax(s)-weighted mean of each K cosines, and its derivative in s."""
    alpha = np.exp(s - np.maximum.reduce(s, axis=-1, keepdims=True))
    alpha /= np.add.reduce(alpha, axis=-1, keepdims=True)
    agg = np.add.reduce(alpha * s, axis=-1)
    # d(agg)/d(s_k) = alpha_k * (1 + s_k - agg)
    return agg, alpha * (1.0 + s - agg[..., None])


def _logit_terms(
    bank: ProxyBank, class_id: int, x: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """(z, dz_dx, dz_dw): the logit z = gamma * agg(s) of the cosines
    s = x_hat @ u.T between the unit rows of x and of the class's proxies, and
    its gradients in x and in the proxies.

    For a batch x of shape N x C: z (N), dz_dx (N x C) and dz_dw (N x K x C),
    row n being the result for x[n]; for one feature of shape C, the same
    with the leading axis dropped (z a float).
    """
    x = np.asarray(x, dtype=float)
    x_hat, xn = _unit_rows(x.reshape(1, -1) if x.ndim == 1 else x, "zero feature vector")
    u, wn = _unit_rows(bank.weights[class_id], f"class {class_id}: zero-norm proxy row")
    s = x_hat @ u.T  # N x K
    agg, dagg_ds = _aggregate(s)
    dz_ds = bank.gamma * dagg_ds
    dz_dx = _cosine_grad(u, s.T, x_hat, dz_ds.T) / xn[:, None]
    # d(s_k)/dw_k = (x/|x| - s_k w_k/|w_k|) / |w_k|, kept per row
    dz_dw = dz_ds[:, :, None] * ((x_hat[:, None, :] - s[:, :, None] * u) / wn[:, None])
    z = bank.gamma * agg
    if x.ndim == 1:
        return float(z[0]), dz_dx[0], dz_dw[0]
    return z, dz_dx, dz_dw


def multi_proxy_logit(
    bank: ProxyBank, class_id: int, x: np.ndarray
) -> tuple[float, np.ndarray] | tuple[np.ndarray, np.ndarray]:
    """Pre-sigmoid logit z = gamma * aggregate and its gradient in the proxies.

    For one feature x of shape C, returns (z, dz_dw of shape K x C). For a
    batch x of shape N x C, returns (z of shape N, dz_dw of shape N x K x C),
    row n being the result for x[n]. Working at the logit level keeps
    cross-entropy gradients finite when the sigmoid saturates.
    """
    z, _, dz_dw = _logit_terms(bank, class_id, x)
    return z, dz_dw


def multi_proxy_prob(bank: ProxyBank, class_id: int, x: np.ndarray) -> float | np.ndarray:
    """Sigmoid(gamma * sum_k softmax(s)_k * s_k) over proxy cosine similarities.

    The sigmoid of multi_proxy_logit: one probability for a feature of shape
    C, N of them for a batch of shape N x C.
    """
    return _sigmoid(_logit_terms(bank, class_id, x)[0])


def multi_proxy_grad(
    bank: ProxyBank, class_id: int, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of multi_proxy_prob w.r.t. x and w.r.t. the class's proxies.

    For one feature x of shape C, returns (grad_x of shape C, grad_w of
    shape K x C); for a batch of shape N x C, (N x C, N x K x C), row n
    being the result for x[n].
    """
    z, dz_dx, dz_dw = _logit_terms(bank, class_id, x)
    sig = _sigmoid(z)
    dp_dz = sig * (1.0 - sig)
    return dp_dz[..., None] * dz_dx, dp_dz[..., None, None] * dz_dw
