"""Cosine cost matrices and entropic optimal-transport plans.

One solver makes every plan: a damped Newton iteration on the semi-dual
(Cuturi & Peyre 2016; Brauer, Clason, Lorenz & Wirth 2017), which converges
in a few steps where Sinkhorn scaling (Cuturi 2013) needs hundreds, for any
number of columns and any regularization strength. Its kernel is always
exp(-C/epsilon) with the potentials absorbed into it and each row divided
by its largest entry (Schmitzer 2019), so no epsilon can underflow it. Zero
entries in either marginal are legal; the corresponding plan rows/columns
are identically zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .proxies import _row_norms

# Largest potential offset a kernel carries: potentials past it are evaluated
# on a kernel absorbed at them. exp(+-300) stays within float64 range next to
# kernel entries at most 1, and every kernel row holds an entry 1.
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
    """A plan from ``sinkhorn``. ``marginal_violation`` is the largest gap
    between a column sum of the plan and its p entry, as the last Newton
    evaluation sums the columns. The row sums are q by construction, so the
    violation recomputed from ``plan`` over rows and columns lies within
    1e-15 of it. ``converged`` says whether it is under tol."""

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
    entries of p drop their columns, which are zero in the plan and get
    potential -inf; the rows of zero entries of q are zero in the plan by
    construction. ``potentials`` holds the column log-potentials of the
    returned plan: the last accepted one if the steps stall or max_iters runs
    out. ``marginal_violation`` is the largest column-sum gap of the returned
    plan, taken from the sums of the step that made it (the row sums are q
    by construction), and ``converged`` says whether it is under tol. A
    non-finite cost, and an ``init`` of any other shape than (K,), raise
    ValueError.
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
    if not math.isfinite(np.abs(cost).max()):
        raise ValueError("cost must be finite")

    # p is nonnegative, so all() says whether all its entries are positive.
    full = bool(p.all())
    pr, cr = p, cost
    if not full:
        cols = p > 0
        cr, pr = cost[:, cols], p[cols]
        if init is not None:
            init = init[cols]
    # A start with no finite potential on some column with mass is no start;
    # a finite one is shifted to a largest potential of 0, like log p.
    if init is not None and np.isfinite(init).all():
        h = init - init.max()
    else:
        h = np.log(pr)
    P, h, steps, viol = _newton(cr / -epsilon, pr, q, h, max_iters, tol)
    if not full:
        out = np.zeros((n, k))
        out[:, cols] = P
        P = out
        full_h = np.full(k, -np.inf)
        full_h[cols] = h
        h = full_h
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
    log_kernel: np.ndarray, p: np.ndarray, q: np.ndarray, h: np.ndarray,
    max_iters: int, tol: float,
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """(plan, column log-potentials, steps, violation) from Newton on the
    semi-dual, on positive p, from the finite potentials h.

    The plan is P = diag(q) B with B = diag(1 / (K e^h)) K diag(e^h) and
    K = exp(-C/epsilon): the rows of B sum to 1, so the row sums of P are q
    by construction, and its rows with q_i = 0 are exactly 0. The unknowns
    are the column log-potentials h. The concave semi-dual
    F(h) = p.h - q.log(K e^h) has gradient p - c, c the plan's column sums,
    and Hessian -(diag(c) - B^T diag(q) B). The violation is max|p - c| of
    the returned plan. Each step solves that system with the last potential
    held fixed (the shift gauge) and lam * max(c) added to its diagonal. A
    step is accepted when F does not drop, beyond rounding; lam then shrinks
    tenfold, so that the damping all but vanishes in the last steps, and it
    grows tenfold after a rejected step. Past _DAMPING_MAX the steps have
    stalled, and the last accepted plan is returned. With one column, every
    row of the plan is its q entry from the start.

    Potentials h = h0 + d are evaluated on the kernel absorbed at h0
    (``_absorbed``), where the offset d scales its columns and F carries the
    absorbed constant. The start takes h0 = 0. Potentials, the start's or a
    trial step's, whose offset lies beyond +-_ABSORB are evaluated on a
    kernel absorbed at them, kept if the step is.

    Length-K quantities are Python lists, and the system is solved by
    _solve_scalar: at the few columns of a training class a NumPy call costs
    more in dispatch than the arithmetic. The elimination's Python work grows
    as K cubed, so a call with dozens of columns takes milliseconds.
    """
    m = p.size - 1
    p_list = p.tolist()
    qcol = q[:, None]

    def evaluate(h0, K, const, d):
        # (h0, d, v, K, Kv, F, const) at potentials h0 + d. A d that is not
        # finite gives, on either branch, an F that no step accepts.
        if max(map(abs, d.tolist())) <= _ABSORB:
            v = np.exp(d)
        else:
            h0, d, v = h0 + d, np.zeros_like(d), np.ones_like(d)
            K, const = _absorbed(log_kernel, h0, p, q)
        Kv = K.dot(v)
        return h0, d, v, K, Kv, p.dot(d) - q.dot(np.log(Kv)) + const, const

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        h0 = np.zeros_like(h)
        K, const = _absorbed(log_kernel, h0, p, q)
        h0, d, v, K, Kv, F, const = evaluate(h0, K, const, h)
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
                return P, h0 + d, iters, viol
            last_viol = viol
            M = B.T.dot(P)[:m, :m]
            cmax = max(c)
            while True:
                step = _solve_scalar([cj + lam * cmax for cj in c[:m]], M, g[:m])
                iters += 1
                if step is not None:
                    dt = d.copy()
                    dt[:m] += step
                    h0t, dt, vt, Kt, Kvt, Ft, const_t = evaluate(h0, K, const, dt)
                    # Accept unless F drops by more than its rounding error.
                    if F - 1e-13 * (1.0 + abs(F)) <= Ft < math.inf:
                        h0, d, v, K, Kv, F, const = h0t, dt, vt, Kt, Kvt, Ft, const_t
                        lam /= 10.0
                        break
                lam *= 10.0
                if viol < tol or iters >= max_iters or lam > _DAMPING_MAX:
                    return P, h0 + d, iters, viol


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


def transport_cost(cost: np.ndarray, plan: np.ndarray) -> float:
    """tr(C^T P)."""
    return float(np.add.reduce(np.asarray(cost) * plan, axis=None))
