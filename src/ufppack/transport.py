"""Cosine cost matrices and entropic optimal-transport plans.

For at most _NEWTON_MAX_K columns with exp(-C/epsilon) safely representable,
the plan comes from a damped Newton iteration on the semi-dual (Cuturi & Peyre
2016; Brauer, Clason, Lorenz & Wirth 2017), which converges in a few steps
where Sinkhorn needs hundreds. Otherwise Sinkhorn scaling runs in the kernel
domain (Cuturi 2013), or in the log domain (log-sum-exp updates) when a small
regularization strength would underflow the kernel; the sweep is also the
fallback of a stalled Newton solve. Zero entries in either marginal are
legal; the corresponding plan rows/columns are identically zero.
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
# Most columns solved by Newton. Its (K-1)x(K-1) system is solved by
# Gaussian elimination in scalar Python, 2.5 us per call at K = 3 against
# 14 us of checks and set-up alone in np.linalg.solve. At 16 x K, epsilon
# 0.01 (2-core VM, NumPy 2.4.6, one BLAS thread) a converged Newton call
# took 200-390 us for K = 3..5, against 500-810 us for a sweep capped at
# 150 iterations. Wider problems keep the sweep.
_NEWTON_MAX_K = 5
# Levenberg-Marquardt damping, in units of the largest column sum: its start,
# and the value past which a stalled Newton solve gives way to the sweep.
_DAMPING_START = 1e-2
_DAMPING_MAX = 1e8
# Newton keeps stepping past tol down to tol * _POLISH while its steps still
# shrink the violation: quadratic convergence then leaves the plan well under
# tol, not just under it. Costs about half a step per solve.
_POLISH = 1e-3


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

    With at most _NEWTON_MAX_K columns and max|C|/epsilon within
    _KERNEL_MAX_EXPONENT, takes damped Newton steps on the semi-dual
    (``iterations`` counts them, rejected steps included). Otherwise the
    Sinkhorn sweep (``_sweep``) solves it, and ``iterations`` counts its
    sweeps. If the Newton steps stall, the sweep gets what is left of
    max_iters, and ``iterations`` counts both. Either way
    ``marginal_violation`` is that of the returned plan, over rows and
    columns, and ``converged`` says whether it is under tol.
    """
    cost = np.asarray(cost, dtype=float)
    n, k = cost.shape
    p = _check_marginal(p, "p")
    q = _check_marginal(q, "q")
    if p.shape != (k,) or q.shape != (n,):
        raise ValueError(f"marginal shapes {p.shape}/{q.shape} do not match cost {cost.shape}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")

    if k <= _NEWTON_MAX_K and np.abs(cost).max() <= _KERNEL_MAX_EXPONENT * epsilon:
        P, steps = _newton(cost, p, q, epsilon, max_iters, tol)
        if P is not None:
            viol = _violation(P, np.concatenate((q, p)))
            return SinkhornResult(plan=TransportPlan(P, q, p), iterations=steps,
                                  marginal_violation=viol, converged=viol < tol)
        res = _sweep(cost, p, q, epsilon, max_iters - steps, tol)
        res.iterations += steps
        return res
    return _sweep(cost, p, q, epsilon, max_iters, tol)


def _newton(
    cost: np.ndarray, p: np.ndarray, q: np.ndarray, epsilon: float, max_iters: int, tol: float
) -> tuple[np.ndarray | None, int]:
    """(plan, steps) from Newton on the semi-dual; the plan is None if the
    steps stall or the plan is not finite.

    The plan is P = diag(q / (K e^h)) K diag(e^h) with K = exp(-C/epsilon),
    so its row sums are q by construction; the unknowns are the column
    log-potentials h, from h = log p. The concave semi-dual
    F(h) = p.h - q.log(K e^h) has gradient p - c, c the plan's column sums,
    and Hessian -(diag(c) - P^T diag(1/q) P). Each step solves that system
    with the last potential held fixed (the shift gauge) and lam * max(c)
    added to its diagonal. A step is accepted when F does not drop, beyond
    rounding; lam then shrinks tenfold, so that the damping all but vanishes
    in the last steps, and it grows tenfold after a rejected step. Zero
    entries of p and q drop their columns and rows, which stay zero in the
    plan. With one column left, every row of the plan is its q entry from
    the start.
    """
    n, k = cost.shape
    # The marginals are nonnegative, so all() says whether all are positive.
    full = bool(q.all() and p.all())
    if not full:
        rows = q > 0
        cols = p > 0
        cost = cost[rows][:, cols]
        p = p[cols]
        q = q[rows]
    P, steps = _newton_steps(cost, p, q, epsilon, max_iters, tol)
    if P is None:
        return None, steps
    if not full:
        out = np.zeros((n, k))
        out[np.ix_(rows, cols)] = P
        P = out
    return P, steps


def _newton_steps(
    cost: np.ndarray, p: np.ndarray, q: np.ndarray, epsilon: float, max_iters: int, tol: float
) -> tuple[np.ndarray | None, int]:
    """The iteration of _newton, on positive marginals.

    Length-K quantities are Python lists: for K this small a NumPy call costs
    more in dispatch than the arithmetic.
    """
    m = p.size - 1
    p_list = p.tolist()
    qcol = q[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        K = np.exp(-cost / epsilon)
        Kdot = K.dot
        h = np.log(p)
        v = p
        Kv = Kdot(v)
        F = p.dot(h) - q.dot(np.log(Kv))
        lam = _DAMPING_START
        iters = 0
        last_viol = math.inf
        while True:
            B = K * v / Kv[:, None]  # the plan's rows divided by q
            P = B * qcol
            c = q.dot(B).tolist()
            # With q positive, a NaN or infinity anywhere in P reaches sum(c).
            if not math.isfinite(sum(c)):
                return None, iters
            g = [pj - cj for pj, cj in zip(p_list, c)]
            viol = max(map(abs, g))
            if iters >= max_iters or viol < tol * _POLISH or tol > viol >= last_viol:
                return P, iters
            last_viol = viol
            M = B.T.dot(P)[:m, :m]
            cmax = max(c)
            while True:
                step = _solve_scalar([cj + lam * cmax for cj in c[:m]], M, g[:m])
                iters += 1
                if step is not None:
                    ht = h.copy()
                    ht[:m] += step
                    vt = np.exp(ht)
                    Kvt = Kdot(vt)
                    Ft = p.dot(ht) - q.dot(np.log(Kvt))
                    # Accept unless F drops by more than its rounding error.
                    if F - 1e-13 * (1.0 + abs(F)) <= Ft < math.inf:
                        h, v, Kv, F = ht, vt, Kvt, Ft
                        lam /= 10.0
                        break
                if viol < tol or iters >= max_iters:  # keep the current plan
                    return P, iters
                lam *= 10.0
                if lam > _DAMPING_MAX:
                    return None, iters


def _solve_scalar(d: list[float], M: np.ndarray, g: list[float]) -> list[float] | None:
    """x with (diag(d) - M) x = g by Gaussian elimination; None if singular.

    The matrix is symmetric positive semi-definite plus damping, so
    elimination without pivoting is stable.
    """
    a = M.tolist()
    m = len(g)
    for i, row in enumerate(a):
        for j in range(m):
            row[j] = -row[j]
        row[i] += d[i]
    x = list(g)
    try:
        for j in range(m):
            rj = a[j]
            for i in range(j + 1, m):
                ri = a[i]
                f = ri[j] / rj[j]
                for col in range(j + 1, m):
                    ri[col] -= f * rj[col]
                x[i] -= f * x[j]
        for j in reversed(range(m)):
            rj = a[j]
            s = x[j]
            for col in range(j + 1, m):
                s -= rj[col] * x[col]
            x[j] = s / rj[j]
    except ZeroDivisionError:
        return None
    return x


def _sweep(
    cost: np.ndarray, p: np.ndarray, q: np.ndarray, epsilon: float, max_iters: int, tol: float
) -> SinkhornResult:
    """Sinkhorn scaling on checked inputs.

    Scales the kernel exp(-C/epsilon) directly while max|C|/epsilon stays
    under _KERNEL_MAX_EXPONENT; beyond that, or if a scaling stops being
    finite, restarts in the log domain. The marginal violation is checked
    every _CHECK_EVERY iterations and at max_iters.
    """
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
