"""Cosine cost matrices and entropic optimal-transport plans.

One solver makes every plan: a damped Newton iteration on the semi-dual
(Cuturi & Peyre 2016; Brauer, Clason, Lorenz & Wirth 2017), which converges
in a few steps where Sinkhorn scaling (Cuturi 2013) needs hundreds, for any
number of columns and any regularization strength. It evaluates the plan
from its potentials in the log domain (Peyre & Cuturi 2019, sec. 4.4), so
no epsilon can underflow it. Zero entries in either marginal are legal; the
corresponding plan rows/columns are identically zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .proxies import _unit_rows

# Levenberg-Marquardt damping, in units of the largest column sum: its start,
# and the value past which the steps have stalled.
_DAMPING_START = 1e-2
_DAMPING_MAX = 1e8
# Below this largest column gap, each Newton point first tries the undamped step.
_UNDAMPED_BELOW = 1e-3
# Newton keeps stepping past tol down to tol * _POLISH while its steps still
# shrink the violation: quadratic convergence then leaves the plan well under
# tol, not just under it. Costs about half a step per solve.
_POLISH = 1e-3


def cost_matrix(features: np.ndarray, proxies: np.ndarray) -> np.ndarray:
    """(1 - cosine similarity) / 2 between every feature and proxy; in [0,1]."""
    error = "zero-norm vector in cost_matrix input"
    x_hat, _ = _unit_rows(np.asarray(features, dtype=float), error)
    u, _ = _unit_rows(np.asarray(proxies, dtype=float), error)
    return _cosine_cost(x_hat @ u.T)


def _cosine_cost(sim: np.ndarray) -> np.ndarray:
    """The cost (1 - sim) / 2 of cosine similarities sim, clipped to [0, 1]."""
    return np.clip((1.0 - sim) / 2.0, 0.0, 1.0)


@dataclass
class SinkhornResult:
    """A plan from ``sinkhorn``. ``marginal_violation`` is the largest gap
    between a row or column sum of the plan and its q or p entry: the column
    sums as the last Newton evaluation holds them, the row sums taken from
    ``plan``, so a violation recomputed from ``plan`` lies within 1e-15 of
    it. ``converged`` says whether it is under tol."""

    plan: np.ndarray  # N x K, nonnegative: N instances (rows), K proxies
    iterations: int
    marginal_violation: float
    converged: bool
    # K column log-potentials h of the plan, P_ij = q_i softmax_j(h_j - C_ij/epsilon)
    # over the columns with mass; -inf on zero-mass columns.
    potentials: np.ndarray


def _check_marginal(v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    # Ufunc reductions, not the ndarray methods: they skip a Python wrapper
    # per call. Checked first: the sum of inf and -inf would warn.
    if np.logical_or.reduce(v < 0, axis=None):
        raise ValueError(f"{name} must be a probability vector, got a negative entry")
    total = np.add.reduce(v, axis=None)
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
    out. ``marginal_violation`` is the largest row- or column-sum gap of the
    returned plan, and ``converged`` says whether it is under tol. A
    non-finite cost, an epsilon that is not positive or at which
    max|C|/epsilon overflows, and an ``init`` of any other shape than (K,),
    raise ValueError.
    """
    cost = np.asarray(cost, dtype=float)
    n, k = cost.shape
    p = _check_marginal(p, "p")
    q = _check_marginal(q, "q")
    if p.shape != (k,) or q.shape != (n,):
        raise ValueError(f"marginal shapes {p.shape}/{q.shape} do not match cost {cost.shape}")
    if not epsilon > 0:  # written so that a NaN fails the test too
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if init is not None:
        init = np.asarray(init, dtype=float)
        if init.shape != (k,):
            raise ValueError(f"init shape {init.shape} does not match cost {cost.shape}")
    cmax = float(np.maximum.reduce(np.abs(cost), axis=None))
    if not math.isfinite(cmax):
        raise ValueError("cost must be finite")
    if not math.isfinite(cmax / float(epsilon)):  # a float division: no NumPy warning
        raise ValueError(f"epsilon {epsilon} is too small for costs up to {cmax}")

    # p is nonnegative, so this says whether all its entries are positive.
    full = bool(np.logical_and.reduce(p))
    pr, cr = p, cost
    if not full:
        cols = p > 0
        cr, pr = cost[:, cols], p[cols]
        if init is not None:
            init = init[cols]
    # A start with no finite potential on some column with mass is no start;
    # a finite one is shifted to a largest potential of 0, like log p.
    if init is not None and np.logical_and.reduce(np.isfinite(init)):
        h = init - np.maximum.reduce(init)
    else:
        h = np.log(pr)
    P, h, steps, viol = _newton(cr / -epsilon, pr, q, h, max_iters, tol)
    # The log-sum-exps leave the row sums q only up to rounding.
    viol = max(viol, *map(abs, (np.add.reduce(P, axis=1) - q).tolist()))
    if not full:
        out = np.zeros((n, k))
        out[:, cols] = P
        P = out
        full_h = np.full(k, -np.inf)
        full_h[cols] = h
        h = full_h
    return SinkhornResult(plan=P, iterations=steps, marginal_violation=viol,
                          converged=viol < tol, potentials=h)


def _newton(
    log_kernel: np.ndarray, p: np.ndarray, q: np.ndarray, h: np.ndarray,
    max_iters: int, tol: float,
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """(plan, column log-potentials, steps, violation) from Newton on the
    semi-dual, on positive p, from the finite potentials h.

    The plan is P = diag(q) B with B_ij = softmax_j(h_j + L_ij) and
    L = log_kernel = -C/epsilon: the rows of B sum to 1, so the row sums of P
    are q up to rounding, and its rows with q_i = 0 are exactly 0. The
    unknowns are the column log-potentials h. The concave semi-dual
    F(h) = p.h - q.lse(L + h), lse the row-wise log-sum-exp, has gradient
    p - c, c the plan's column sums, and Hessian -(diag(c) - B^T diag(q) B).
    Each step solves that system with the last potential held fixed (the
    shift gauge) and lam * max(c) added to its diagonal. A step is accepted
    when F does not drop, beyond rounding. lam then follows Nielsen's gain
    ratio rule (IMM-REP-1999-05): rho, the rise of F over the rise
    0.5 * x.(g + lam * max(c) * x) that the damped quadratic model predicts,
    clamped to [0, 1] since a step accepted within rounding makes it noise,
    scales lam by max(1/3, 1 - (2 rho - 1)^3), so that the damping all but
    vanishes in the last steps; after a rejected step lam grows by nu, which
    doubles with each rejection in a row. Past _DAMPING_MAX the steps have
    stalled, and the last accepted plan is returned. With one column, every
    row of the plan is its q entry from the start.

    Since lam falls by at most a third per step, damped steps converge only
    linearly. So once the largest column gap is below _UNDAMPED_BELOW, each
    Newton point first tries the undamped step (lam = 0): near a
    non-degenerate maximum, full Newton steps are accepted and converge
    quadratically (Nocedal & Wright, Numerical Optimization, 2006, Thm 3.5).
    If its solve meets a zero pivot, as at a saturated column, or F drops,
    the point takes the damped step at the current lam instead. The failed
    try counts as a step and leaves lam and nu as they are; an accepted one
    updates lam by the gain ratio like any other.

    Every point is evaluated from its potentials alone, in the log domain
    (Peyre & Cuturi 2019, sec. 4.4), on L shifted to a largest entry of 0 in
    each row, which leaves the plan as it is: a = L + h, lse the row-wise
    log-sum-exp of a, F = p.h - q.lse. A trial point is h plus the step with
    a 0 appended for the gauge column, a new array, so no step copies h. An
    h that is not finite gives an F that no step accepts. The violation is
    the largest column gap max|p - c| of the returned plan.

    Length-K quantities are Python lists, and the system is solved by
    _solve_scalar: at the few columns of a training class a NumPy call costs
    more in dispatch than the arithmetic. The elimination's Python work grows
    as K cubed, so a call with dozens of columns takes milliseconds.
    """
    m = p.size - 1
    p_list = p.tolist()
    qcol = q[:, None]
    log_kernel = log_kernel - np.maximum.reduce(log_kernel, axis=1)[:, None]

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = log_kernel + h
        lse = np.logaddexp.reduce(a, axis=1)
        F = p.dot(h) - q.dot(lse)
        lam, nu = _DAMPING_START, 2.0
        iters = 0
        last_viol = math.inf
        while True:
            B = np.exp(a - lse[:, None])  # the plan's rows divided by q
            P = B * qcol
            c = q.dot(B).tolist()
            g = [pj - cj for pj, cj in zip(p_list, c)]
            viol = max(map(abs, g))
            if iters >= max_iters or viol < tol * _POLISH or tol > viol >= last_viol:
                return P, h, iters, viol
            last_viol = viol
            M = B.T.dot(P)[:m, :m]
            cmax = max(c)
            undamped = viol < _UNDAMPED_BELOW
            while True:
                damp = 0.0 if undamped else lam * cmax
                step = _solve_scalar([cj + damp for cj in c[:m]], M, g[:m])
                iters += 1
                if step is not None:
                    step.append(0.0)
                    ht = h + step
                    at = log_kernel + ht
                    lset = np.logaddexp.reduce(at, axis=1)
                    Ft = p.dot(ht) - q.dot(lset)
                    # Accept unless F drops by more than its rounding error.
                    if F - 1e-13 * (1.0 + abs(F)) <= Ft < math.inf:
                        # The gain ratio rho; pred > 0 unless the step is zero.
                        # The gauge entry of the step adds 0 to pred.
                        pred = 0.5 * sum(x * (gj + damp * x) for x, gj in zip(step, g))
                        rho = min(max((Ft - F) / pred, 0.0), 1.0) if pred > 0 else 0.0
                        h, a, lse, F = ht, at, lset, Ft
                        lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                        nu = 2.0
                        break
                if not undamped:
                    lam *= nu
                    nu *= 2.0
                if iters >= max_iters or lam > _DAMPING_MAX or (viol < tol and not undamped):
                    return P, h, iters, viol
                undamped = False


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
