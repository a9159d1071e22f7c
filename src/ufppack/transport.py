"""Cosine cost matrices and entropic optimal-transport plans.

One solver makes every plan: a damped Newton iteration on the semi-dual
(Cuturi & Peyre 2016; Brauer, Clason, Lorenz & Wirth 2017), which converges
in a few steps where Sinkhorn scaling (Cuturi 2013) needs hundreds, for any
number of columns and any regularization strength. Its kernel stays
representable because the potentials are absorbed into it whenever they
grow large (Schmitzer 2019), so no epsilon can underflow it. Zero entries in
either marginal are legal; the corresponding plan rows/columns are
identically zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .proxies import _row_norms

# Largest max|C|/epsilon at which the steps may start from the plain kernel
# exp(-C/epsilon): exp(-200) ~ 1e-87 leaves it and the scalings ample float64
# range. Beyond it they start from a kernel absorbed at the start potentials.
_KERNEL_MAX_EXPONENT = 200.0
# Largest potential offset a kernel carries: a trial step past it is taken on
# a kernel absorbed at the trial potentials. exp(+-300) stays within float64
# range next to any kernel entry at most 1 (exp(200) for the plain kernel).
_ABSORB = 300.0
# Levenberg-Marquardt damping, in units of the largest column sum: its start,
# and the value past which the steps have stalled.
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
    # K column log-potentials h of the plan, P_ij = q_i softmax_j(h_j - C_ij/epsilon)
    # over the columns with mass; -inf on zero-mass columns.
    potentials: np.ndarray


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

    Takes damped Newton steps on the semi-dual (``_newton``; ``iterations``
    counts them, rejected steps included) from ``init``, K column
    log-potentials taken up to an additive constant, such as the
    ``potentials`` of a neighbouring problem, when it is finite on every
    column with mass; otherwise, and without ``init``, from log p. Zero
    entries of p and q drop their columns and rows, which are zero in the
    plan and get potential -inf. ``potentials`` holds the column
    log-potentials of the returned plan: the last accepted one if the steps
    stall or max_iters runs out. ``marginal_violation`` is that of the
    returned plan, over rows and columns, and ``converged`` says whether it
    is under tol. A non-finite cost, and an ``init`` of any other shape than
    (K,), raise ValueError.
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
    cost_max = np.abs(cost).max()
    if not math.isfinite(cost_max):
        raise ValueError("cost must be finite")

    # The marginals are nonnegative, so all() says whether all are positive.
    full = bool(q.all() and p.all())
    pr, qr, cr = p, q, cost
    if not full:
        rows = q > 0
        cols = p > 0
        cr = cost[rows][:, cols]
        pr = p[cols]
        qr = q[rows]
        if init is not None:
            init = init[cols]
    # A start with no finite potential on some column with mass is no start;
    # a finite one is shifted to a largest potential of 0, like log p.
    if init is not None and np.isfinite(init).all():
        h = init - init.max()
        v = np.exp(h)
    else:
        h = np.log(pr)
        v = pr
    plain = cost_max <= _KERNEL_MAX_EXPONENT * epsilon and -h.min() <= _ABSORB
    P, h, steps = _newton(cr / -epsilon, pr, qr, h, v, plain, max_iters, tol)
    if not full:
        out = np.zeros((n, k))
        out[np.ix_(rows, cols)] = P
        P = out
        full_h = np.full(k, -np.inf)
        full_h[cols] = h
        h = full_h
    viol = _violation(P, np.concatenate((q, p)))
    return SinkhornResult(plan=P, iterations=steps, marginal_violation=viol,
                          converged=viol < tol, potentials=h)


def _absorbed(log_kernel: np.ndarray, h0: np.ndarray, p: np.ndarray, q: np.ndarray
              ) -> tuple[np.ndarray, float]:
    """The kernel absorbed at potentials h0, exp(log_kernel + h0 - r) with r
    its row maxima, so every row holds an entry 1; and the constant p.h0 - q.r
    that the semi-dual value carries with it."""
    a = log_kernel + h0
    r = np.maximum.reduce(a, axis=1)
    return np.exp(a - r[:, None]), p.dot(h0) - q.dot(r)


def _newton(
    log_kernel: np.ndarray, p: np.ndarray, q: np.ndarray, h: np.ndarray, v: np.ndarray,
    plain: bool, max_iters: int, tol: float,
) -> tuple[np.ndarray, np.ndarray, int]:
    """(plan, column log-potentials, steps) from Newton on the semi-dual, on
    positive marginals, from the finite potentials h with e^h = v.

    The plan is P = diag(q / (K e^h)) K diag(e^h) with K = exp(-C/epsilon),
    so its row sums are q by construction; the unknowns are the column
    log-potentials h. The concave semi-dual F(h) = p.h - q.log(K e^h) has
    gradient p - c, c the plan's column sums, and Hessian
    -(diag(c) - P^T diag(1/q) P). Each step solves that system with the last
    potential held fixed (the shift gauge) and lam * max(c) added to its
    diagonal. A step is accepted when F does not drop, beyond rounding; lam
    then shrinks tenfold, so that the damping all but vanishes in the last
    steps, and it grows tenfold after a rejected step. Past _DAMPING_MAX the
    steps have stalled, and the last accepted plan is returned. With one
    column, every row of the plan is its q entry from the start.

    The steps run on a kernel absorbed at potentials h0 (``_absorbed``), with
    h = h0 + d: the offset d then scales its columns, and F is evaluated with
    the absorbed constant. When ``plain``, h0 = 0 and the kernel is K itself;
    otherwise h0 is the start. A trial offset beyond +-_ABSORB is evaluated
    on a kernel absorbed at the trial potentials, kept if the step is.

    Length-K quantities are Python lists, and the system is solved by
    _solve_scalar: at the few columns of a training class a NumPy call costs
    more in dispatch than the arithmetic. The elimination's Python work grows
    as K cubed, so a call with dozens of columns takes milliseconds.
    """
    m = p.size - 1
    p_list = p.tolist()
    qcol = q[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if plain:
            h0, d, const = 0.0, h, 0.0
            K = np.exp(log_kernel)
        else:
            h0, d, v = h, np.zeros_like(h), np.ones_like(h)
            K, const = _absorbed(log_kernel, h0, p, q)
        Kv = K.dot(v)
        F = p.dot(d) - q.dot(np.log(Kv)) + const
        lam = _DAMPING_START
        iters = 0
        last_viol = math.inf
        while True:
            B = K * v / Kv[:, None]  # the plan's rows divided by q
            P = B * qcol
            c = q.dot(B).tolist()
            g = [pj - cj for pj, cj in zip(p_list, c)]
            viol = max(map(abs, g))
            if iters >= max_iters or viol < tol * _POLISH or tol > viol >= last_viol:
                return P, h0 + d, iters
            last_viol = viol
            M = B.T.dot(P)[:m, :m]
            cmax = max(c)
            while True:
                step = _solve_scalar([cj + lam * cmax for cj in c[:m]], M, g[:m])
                iters += 1
                if step is not None:
                    dt = d.copy()
                    dt[:m] += step
                    # A step that is not finite gives, on either branch, an
                    # Ft that fails the acceptance test below.
                    if max(map(abs, dt.tolist())) <= _ABSORB:
                        h0t, Kt, const_t = h0, K, const
                        vt = np.exp(dt)
                    else:
                        h0t, dt, vt = h0 + dt, np.zeros_like(dt), np.ones_like(dt)
                        Kt, const_t = _absorbed(log_kernel, h0t, p, q)
                    Kvt = Kt.dot(vt)
                    Ft = p.dot(dt) - q.dot(np.log(Kvt)) + const_t
                    # Accept unless F drops by more than its rounding error.
                    if F - 1e-13 * (1.0 + abs(F)) <= Ft < math.inf:
                        h0, d, v, K, Kv, F, const = h0t, dt, vt, Kt, Kvt, Ft, const_t
                        lam /= 10.0
                        break
                lam *= 10.0
                if viol < tol or iters >= max_iters or lam > _DAMPING_MAX:
                    return P, h0 + d, iters


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


def _violation(P: np.ndarray, qp: np.ndarray) -> float:
    # One reduction, so a NaN anywhere in the plan propagates to the result.
    # The ufunc reductions are those np.sum/np.max run, minus their wrappers.
    sums = np.concatenate((np.add.reduce(P, 1), np.add.reduce(P, 0)))
    return float(np.maximum.reduce(np.abs(sums - qp)))


def transport_cost(cost: np.ndarray, plan: np.ndarray) -> float:
    """tr(C^T P)."""
    return float(np.add.reduce(np.asarray(cost) * plan, axis=None))
