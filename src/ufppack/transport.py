"""Cosine cost matrices and entropic optimal-transport plans.

Two solvers share the work. Wherever exp(-C/epsilon) is safely
representable, the plan comes from a damped Newton iteration on the
semi-dual (Cuturi & Peyre 2016; Brauer, Clason, Lorenz & Wirth 2017), which
converges in a few steps where Sinkhorn needs hundreds, for any number of
columns. Otherwise, and as the fallback of a stalled Newton solve, Sinkhorn
scaling (Cuturi 2013) runs in the log domain, with log-sum-exp updates that
no regularization strength can underflow. Zero entries in either marginal
are legal; the corresponding plan rows/columns are identically zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .proxies import _row_norms

# Largest max|C|/epsilon solved by Newton: exp(-200) ~ 1e-87 leaves the
# kernel and the scalings ample float64 range before they could underflow.
_KERNEL_MAX_EXPONENT = 200.0
# Sweeps between marginal-violation checks of the log-domain sweep.
_CHECK_EVERY = 10
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
class SinkhornResult:
    plan: np.ndarray  # N x K, nonnegative: N instances (rows), K proxies
    iterations: int
    marginal_violation: float
    converged: bool
    # K column log-potentials h of a Newton plan, P = diag(q / (K e^h)) K
    # diag(e^h) with K = exp(-C/epsilon); -inf on zero-mass columns. None when
    # the sweep produced the plan.
    potentials: np.ndarray | None = None


def _check_marginal(v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if (v < 0).any():  # checked first: the sum of inf and -inf would warn
        raise ValueError(f"{name} must be a probability vector, got a negative entry")
    total = v.sum()
    if not math.isfinite(total) or abs(total - 1.0) > 1e-9:
        raise ValueError(f"{name} must be a probability vector, got sum {total}")
    return v


def sinkhorn(
    cost: np.ndarray,
    p: np.ndarray,
    q: np.ndarray,
    epsilon: float = 0.05,
    max_iters: int = 1000,
    tol: float = 1e-6,
    init: np.ndarray | None = None,
) -> SinkhornResult:
    """Entropic-regularized plan with column marginal p and row marginal q.

    With max|C|/epsilon within _KERNEL_MAX_EXPONENT, takes damped Newton
    steps on the semi-dual (``iterations`` counts them, rejected steps
    included), and ``potentials`` holds the column log-potentials of the
    plan. The steps start from ``init``, K column log-potentials taken up to
    an additive constant, such as the ``potentials`` of a neighbouring
    problem, when it is finite on every column with mass; otherwise, and
    without ``init``, from log p. ``init`` of any other shape than (K,)
    raises ValueError. If the Newton steps stall or their plan is not finite,
    or if max|C|/epsilon is beyond _KERNEL_MAX_EXPONENT, the log-domain
    Sinkhorn sweep (``_sweep``) gets what is left of max_iters, ``iterations``
    counts the steps and sweeps together, and ``potentials`` is None. Either
    way ``marginal_violation`` is that of the returned plan, over rows and
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
    if init is not None:
        init = np.asarray(init, dtype=float)
        if init.shape != (k,):
            raise ValueError(f"init shape {init.shape} does not match cost {cost.shape}")

    if np.abs(cost).max() <= _KERNEL_MAX_EXPONENT * epsilon:
        P, h, steps = _newton(cost, p, q, epsilon, max_iters, tol, init)
        if P is not None:
            viol = _violation(P, np.concatenate((q, p)))
            return SinkhornResult(plan=P, iterations=steps, marginal_violation=viol,
                                  converged=viol < tol, potentials=h)
        res = _sweep(cost, p, q, epsilon, max_iters - steps, tol)
        res.iterations += steps
        return res
    return _sweep(cost, p, q, epsilon, max_iters, tol)


def _newton(
    cost: np.ndarray, p: np.ndarray, q: np.ndarray, epsilon: float, max_iters: int, tol: float,
    init: np.ndarray | None,
) -> tuple[np.ndarray | None, np.ndarray, int]:
    """(plan, column log-potentials, steps) from Newton on the semi-dual; the
    plan is None if the steps stall or the plan is not finite.

    The plan is P = diag(q / (K e^h)) K diag(e^h) with K = exp(-C/epsilon),
    so its row sums are q by construction; the unknowns are the column
    log-potentials h, from ``init`` (see sinkhorn) or h = log p. The concave
    semi-dual F(h) = p.h - q.log(K e^h) has gradient p - c, c the plan's
    column sums, and Hessian -(diag(c) - P^T diag(1/q) P). Each step solves
    that system with the last potential held fixed (the shift gauge) and
    lam * max(c) added to its diagonal. A step is accepted when F does not
    drop, beyond rounding; lam then shrinks tenfold, so that the damping all
    but vanishes in the last steps, and it grows tenfold after a rejected
    step. Zero
    entries of p and q drop their columns and rows, which stay zero in the
    plan and get potential -inf. With one column left, every row of the plan
    is its q entry from the start.
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
        if init is not None:
            init = init[cols]
    if init is not None:
        # A start with no finite potential on some column with mass is no
        # start; a finite one is shifted to a largest potential of 0, so that
        # e^h cannot overflow.
        init = init - init.max() if np.isfinite(init).all() else None
    P, h, steps = _newton_steps(cost, p, q, epsilon, max_iters, tol, init)
    if P is None:
        return None, h, steps
    if not full:
        out = np.zeros((n, k))
        out[np.ix_(rows, cols)] = P
        P = out
        full_h = np.full(k, -np.inf)
        full_h[cols] = h
        h = full_h
    return P, h, steps


def _newton_steps(
    cost: np.ndarray, p: np.ndarray, q: np.ndarray, epsilon: float, max_iters: int, tol: float,
    init: np.ndarray | None,
) -> tuple[np.ndarray | None, np.ndarray, int]:
    """The iteration of _newton, on positive marginals, from the finite
    potentials ``init`` or, if it is None, from log p.

    Length-K quantities are Python lists, and the system is solved by
    _solve_scalar: at the few columns of a training class a NumPy call costs
    more in dispatch than the arithmetic. The elimination's Python work grows
    as K cubed, so a call with dozens of columns takes milliseconds.
    """
    m = p.size - 1
    p_list = p.tolist()
    qcol = q[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        K = np.exp(-cost / epsilon)
        Kdot = K.dot
        if init is None:
            h = np.log(p)
            v = p
        else:
            h = init
            v = np.exp(h)
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
                return None, h, iters
            g = [pj - cj for pj, cj in zip(p_list, c)]
            viol = max(map(abs, g))
            if iters >= max_iters or viol < tol * _POLISH or tol > viol >= last_viol:
                return P, h, iters
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
                    return P, h, iters
                lam *= 10.0
                if lam > _DAMPING_MAX:
                    return None, h, iters


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
    """Sinkhorn scaling on checked inputs, on log-scalings (log-sum-exp), safe
    for any epsilon.

    Cuturi's u = q / (K v), v = p / (K^T u) from scalings 1, as log u and
    log v from 0; a zero-mass row or column has log-scaling -inf throughout,
    so its plan row or column is zero. The marginal violation of the plan is
    checked before the first sweep, every _CHECK_EVERY sweeps and at
    max_iters, until it falls under tol.
    """
    qp = np.concatenate((q, p))
    with np.errstate(divide="ignore"):
        logp = np.log(p)
        logq = np.log(q)
    log_kernel = -cost / epsilon
    zero_rows = q == 0
    zero_cols = p == 0
    u = np.where(zero_rows, -np.inf, 0.0)
    v = np.where(zero_cols, -np.inf, 0.0)
    iters = 0
    with np.errstate(invalid="ignore"):
        while True:
            logP = u[:, None] + log_kernel + v[None, :]
            logP[zero_rows, :] = -np.inf
            logP[:, zero_cols] = -np.inf
            P = np.exp(logP)
            viol = _violation(P, qp)
            if not viol >= tol or iters >= max_iters:
                break
            block = min(_CHECK_EVERY, max_iters - iters)
            for _ in range(block):
                u = logq - _logsumexp(log_kernel + v[None, :], axis=1)
                u[zero_rows] = -np.inf
                v = logp - _logsumexp(log_kernel + u[:, None], axis=0)
                v[zero_cols] = -np.inf
            iters += block
    return SinkhornResult(plan=P, iterations=iters, marginal_violation=viol,
                          converged=viol < tol)


def _violation(P: np.ndarray, qp: np.ndarray) -> float:
    # One reduction, so a NaN anywhere in the plan propagates to the result.
    # The ufunc reductions are those np.sum/np.max run, minus their wrappers.
    sums = np.concatenate((np.add.reduce(P, 1), np.add.reduce(P, 0)))
    return float(np.maximum.reduce(np.abs(sums - qp)))


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.maximum.reduce(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(np.add.reduce(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)


def transport_cost(cost: np.ndarray, plan: np.ndarray) -> float:
    """tr(C^T P)."""
    return float(np.add.reduce(np.asarray(cost) * plan, axis=None))
