"""Cosine cost matrices and Sinkhorn-Knopp transport plans.

Sinkhorn scaling runs in the kernel domain (Cuturi 2013) when exp(-C/epsilon)
is safely representable, and in the log domain (log-sum-exp updates) when a
small regularization strength would underflow the kernel. Zero entries in
either marginal are legal; the corresponding plan rows/columns are
identically zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .proxies import _row_norms

# Largest max|C|/epsilon scaled in the kernel domain: exp(-200) ~ 1e-87 leaves
# the scalings ample float64 range before they could overflow.
_KERNEL_MAX_EXPONENT = 200.0
# Iterations between marginal-violation checks.
_CHECK_EVERY = 10


def cost_matrix(features: np.ndarray, proxies: np.ndarray) -> np.ndarray:
    """(1 - cosine similarity) / 2 between every feature and proxy; in [0,1]."""
    features = np.asarray(features, dtype=float)
    proxies = np.asarray(proxies, dtype=float)
    fn = _row_norms(features)
    pn = _row_norms(proxies)
    if (fn == 0).any() or (pn == 0).any():
        raise ValueError("zero-norm vector in cost_matrix input")
    sim = (features / fn[:, None]) @ (proxies / pn[:, None]).T
    return np.clip((1.0 - sim) / 2.0, 0.0, 1.0)


@dataclass
class TransportPlan:
    entries: np.ndarray  # N x K, nonnegative
    row_marginals: np.ndarray  # length N (instances)
    col_marginals: np.ndarray  # length K (proxies)


@dataclass
class SinkhornResult:
    plan: TransportPlan
    iterations: int
    marginal_violation: float
    converged: bool


def _check_marginal(v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    total = v.sum()
    if (v < 0).any() or abs(total - 1.0) > 1e-9:
        raise ValueError(f"{name} must be a probability vector, got sum {total}")
    return v


def sinkhorn(
    cost: np.ndarray,
    p: np.ndarray,
    q: np.ndarray,
    epsilon: float = 0.05,
    max_iters: int = 1000,
    tol: float = 1e-6,
) -> SinkhornResult:
    """Entropic-regularized plan with column marginal p and row marginal q.

    Scales the kernel exp(-C/epsilon) directly while max|C|/epsilon stays
    under _KERNEL_MAX_EXPONENT; beyond that, or if a scaling stops being
    finite, restarts in the log domain. The marginal violation is checked
    every _CHECK_EVERY iterations and at max_iters.
    """
    cost = np.asarray(cost, dtype=float)
    n, k = cost.shape
    p = _check_marginal(p, "p")
    q = _check_marginal(q, "q")
    if p.shape != (k,) or q.shape != (n,):
        raise ValueError(f"marginal shapes {p.shape}/{q.shape} do not match cost {cost.shape}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")

    qp = np.concatenate((q, p))
    viol = np.nan
    if np.abs(cost).max() <= _KERNEL_MAX_EXPONENT * epsilon:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            P, iters, viol = _iterate(*_kernel_scaling(cost, p, q, epsilon), qp, max_iters, tol)
    if not math.isfinite(viol):
        P, iters, viol = _iterate(*_log_scaling(cost, p, q, epsilon), qp, max_iters, tol)
    return SinkhornResult(
        plan=TransportPlan(P, q, p),
        iterations=iters,
        marginal_violation=viol,
        converged=viol < tol,
    )


def _iterate(
    sweep: Callable[[int], None],
    plan: Callable[[], np.ndarray],
    qp: np.ndarray,
    max_iters: int,
    tol: float,
) -> tuple[np.ndarray, int, float]:
    """Sweep in blocks of _CHECK_EVERY until the plan meets tol or max_iters is hit.

    ``qp`` is the row marginal followed by the column marginal.
    """
    iters = 0
    P = plan()
    viol = _violation(P, qp)
    while viol >= tol and iters < max_iters:
        block = min(_CHECK_EVERY, max_iters - iters)
        sweep(block)
        iters += block
        P = plan()
        viol = _violation(P, qp)
    return P, iters, viol


def _violation(P: np.ndarray, qp: np.ndarray) -> float:
    # One reduction, so a NaN anywhere in the plan propagates to the result.
    # The ufunc reductions are those np.sum/np.max run, minus their wrappers.
    sums = np.concatenate((np.add.reduce(P, 1), np.add.reduce(P, 0)))
    return float(np.maximum.reduce(np.abs(sums - qp)))


def _kernel_scaling(
    cost: np.ndarray, p: np.ndarray, q: np.ndarray, epsilon: float
) -> tuple[Callable[[int], None], Callable[[], np.ndarray]]:
    """Cuturi's u = q / (K v), v = p / (K^T u); zero marginals keep zero scalings.

    The products go through bound ndarray.dot methods: like ``@`` they end
    in one BLAS gemv, with the same result bit for bit, but they skip the
    matmul ufunc's dispatch, which costs more than these tiny products.
    """
    K = np.exp(-cost / epsilon)
    Kt = K.T.copy()
    Kdot = K.dot
    Ktdot = Kt.dot
    u = (q > 0).astype(float)
    v = (p > 0).astype(float)

    def sweep(count: int) -> None:
        nonlocal u, v
        for _ in range(count):
            u = q / Kdot(v)
            v = p / Ktdot(u)

    def plan() -> np.ndarray:
        return u[:, None] * K * v

    return sweep, plan


def _log_scaling(
    cost: np.ndarray, p: np.ndarray, q: np.ndarray, epsilon: float
) -> tuple[Callable[[int], None], Callable[[], np.ndarray]]:
    """The same updates on log-scalings (log-sum-exp), safe for any epsilon."""
    with np.errstate(divide="ignore"):
        logp = np.log(p)
        logq = np.log(q)
    log_kernel = -cost / epsilon
    zero_rows = q == 0
    zero_cols = p == 0
    # A zero-mass row or column has scaling 0, i.e. log-scaling -inf, from the
    # start, as in the kernel domain.
    u = np.where(zero_rows, -np.inf, 0.0)
    v = np.where(zero_cols, -np.inf, 0.0)

    def sweep(count: int) -> None:
        nonlocal u, v
        with np.errstate(invalid="ignore"):
            for _ in range(count):
                u = logq - _logsumexp(log_kernel + v[None, :], axis=1)
                u[zero_rows] = -np.inf
                v = logp - _logsumexp(log_kernel + u[:, None], axis=0)
                v[zero_cols] = -np.inf

    def plan() -> np.ndarray:
        logP = u[:, None] + log_kernel + v[None, :]
        logP[zero_rows, :] = -np.inf
        logP[:, zero_cols] = -np.inf
        return np.exp(logP)

    return sweep, plan


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.maximum.reduce(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.add.reduce(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)


def transport_cost(cost: np.ndarray, plan: TransportPlan) -> float:
    """tr(C^T P)."""
    return float(np.add.reduce(np.asarray(cost) * plan.entries, axis=None))
