"""Lp norms, the generalized top-(q,k) norm, and the k-support norm.

The top-(q,k) norm of a dual vector is the lq norm of its k absolutely
largest entries.  The k-support norm is its dual: the gauge of the closed
convex hull of all k-sparse points of the lp unit ball.  Closed forms are
used where they exist (p = 1, p = inf, k = 1, k = d); otherwise the value
is obtained by maximizing ``<x, y>`` over the top-norm ball, either through
the sign/ordering symmetry reduction (exact, default: on sorted |x| the
maximizer keeps the top entries as singletons and pools the tail into one
block, whose start has a closed form) or by literal projected gradient
ascent with Dykstra projections (``dual_ascent_ksupport``).
An independent decomposition program (``ksupport_norm_oracle``) certifies
values at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import optimize as _sciopt

from .core import (
    DEFAULT_TOL,
    ConvergenceError,
    InvalidInputError,
    ScaleLimitError,
    Tolerance,
    as_vector,
    k_subsets,
)

__all__ = [
    "NormSpec",
    "EvalReport",
    "lp_norm",
    "top_norm",
    "ksupport_norm",
    "ksupport_value",
    "dual_ascent_ksupport",
    "ksupport_norm_oracle",
    "project_top_ball",
    "project_lq_ball",
]


@dataclass(frozen=True)
class NormSpec:
    """Source exponent ``p`` and sparsity budget ``k`` of a norm pair.

    ``q`` is the Hoelder conjugate of ``p`` (the dual exponent the top norm
    measures with).  ``k`` has to be validated against the dimension at the
    call sites, since the record itself is dimension free.
    """

    p: float
    k: int

    def __post_init__(self) -> None:
        if not (self.p >= 1):
            raise InvalidInputError(f"p={self.p} must lie in [1, inf]")
        if int(self.k) != self.k or self.k < 1:
            raise InvalidInputError(f"k={self.k} must be a positive integer")
        object.__setattr__(self, "k", int(self.k))

    @property
    def q(self) -> float:
        if self.p == 1:
            return math.inf
        if math.isinf(self.p):
            return 1.0
        return self.p / (self.p - 1.0)

    def check_dim(self, d: int) -> None:
        if self.k > d:
            raise InvalidInputError(f"k={self.k} exceeds dimension {d}")


@dataclass(frozen=True)
class EvalReport:
    """A norm value together with how it was obtained.

    ``certified_gap`` is the width of a rigorous bracket around the true
    value (zero for closed forms).
    """

    value: float
    method: str  # closed_form | symmetry_reduction | dual_ascent | decomposition_oracle
    certified_gap: float = 0.0


def lp_norm(x: Sequence[float], p: float) -> float:
    """The lp norm for p in [1, inf] (max of absolute values at p = inf)."""
    arr = as_vector(x)
    if not p >= 1:
        raise InvalidInputError(f"p={p} must lie in [1, inf]")
    return _lp_of_abs(np.abs(arr), p)


def _lp_of_abs(a: np.ndarray, p: float) -> float:
    if math.isinf(p):
        return float(a.max()) if a.size else 0.0
    m = float(a.max()) if a.size else 0.0
    if m == 0.0:
        return 0.0
    if p == 1:
        return float(a.sum())
    if p == 2:
        return float(np.linalg.norm(a))
    return m * float(np.sum((a / m) ** p)) ** (1.0 / p)


def top_norm(y: Sequence[float], spec: NormSpec) -> float:
    """lq norm of the k absolutely largest entries of ``y``.

    Equals ``sup { ||pi_K y||_q : |K| <= k }``, the support function of the
    k-support unit ball.
    """
    arr = as_vector(y)
    spec.check_dim(arr.size)
    a = np.sort(np.abs(arr))[::-1][: spec.k]
    return _lp_of_abs(a, spec.q)


# ---------------------------------------------------------------------------
# lq ball projections (the cylinder sections used by Dykstra)


def project_lq_ball(v: np.ndarray, q: float, tol: float = 1e-12) -> np.ndarray:
    """Euclidean projection of ``v`` onto the unit lq ball.

    Closed form for q in {1, 2, inf}; for general q the KKT multiplier is
    bracketed by a monotone search with per-coordinate Newton solves.
    """
    v = np.asarray(v, dtype=float)
    if _lp_of_abs(np.abs(v), q) <= 1.0:
        return v.copy()
    if q == 2:
        return v / np.linalg.norm(v)
    if math.isinf(q):
        return np.clip(v, -1.0, 1.0)
    if q == 1:
        # sort and threshold: theta is the soft threshold with sum(max(a - theta, 0)) = 1
        a = np.abs(v)
        u = np.sort(a)[::-1]
        excess = np.cumsum(u) - 1.0
        r = np.flatnonzero(u * np.arange(1, u.size + 1) > excess)[-1]
        return np.sign(v) * np.maximum(a - excess[r] / (r + 1), 0.0)
    return np.sign(v) * _lq_ball_project_abs(np.abs(v), q, tol)


def _coord_root(a: float, c: float, q: float, w0: float) -> float:
    # root of w + c w^{q-1} = a on (0, a]: Newton with a bisection safeguard
    if a <= 0.0:
        return 0.0
    lo, hi = 0.0, a
    w = w0 if 0.0 < w0 <= a else a
    for _ in range(100):
        fw = w + c * w ** (q - 1.0) - a
        if fw < 0.0:
            lo = w
        else:
            hi = w
        if hi - lo <= 1e-16 * a:
            break
        dw = 1.0 + c * (q - 1.0) * w ** (q - 2.0)
        wn = w - fw / dw
        if not lo < wn < hi:
            wn = 0.5 * (lo + hi)
        if abs(wn - w) <= 1e-17 * a:
            w = wn
            break
        w = wn
    return w


def _lq_ball_project_abs(a: np.ndarray, q: float, tol: float) -> np.ndarray:
    # KKT: w_i + lam q w_i^{q-1} = a_i with lam >= 0 chosen so sum w^q = 1;
    # safeguarded Newton on lam, per-coordinate Newton inside.
    avals = [float(v) for v in a]
    ws = list(avals)

    def phi_dphi(lam: float) -> tuple[float, float]:
        c = lam * q
        tot = 0.0
        dtot = 0.0
        for i, ai in enumerate(avals):
            w = _coord_root(ai, c, q, ws[i])
            ws[i] = w
            if w > 0.0:
                wq1 = w ** (q - 1.0)
                tot += w * wq1
                dtot += -(q * wq1) ** 2 / (1.0 + c * (q - 1.0) * w ** (q - 2.0))
        return tot - 1.0, dtot

    lo_l, hi_l = 0.0, 1.0
    val, _ = phi_dphi(hi_l)
    while val > 0.0:
        lo_l, hi_l = hi_l, hi_l * 2.0
        if hi_l > 1e18:
            raise ConvergenceError("lq ball projection: multiplier bracket failed")
        val, _ = phi_dphi(hi_l)
    lam = 0.5 * (lo_l + hi_l)
    for _ in range(100):
        val, dval = phi_dphi(lam)
        if val > 0.0:
            lo_l = lam
        else:
            hi_l = lam
        if abs(val) <= tol or hi_l - lo_l <= 1e-16 * max(1.0, hi_l):
            break
        lam_n = lam - val / dval if dval < 0.0 else 0.5 * (lo_l + hi_l)
        lam = lam_n if lo_l < lam_n < hi_l else 0.5 * (lo_l + hi_l)
    return np.array(ws)


# ---------------------------------------------------------------------------
# projection onto the top-(q,k) ball


def project_top_ball(
    y0: Sequence[float],
    spec: NormSpec,
    tol: Tolerance = DEFAULT_TOL,
    max_sweeps: int = 10_000,
) -> np.ndarray:
    """Euclidean projection onto ``{ y : top_norm(y, spec) <= 1 }``.

    The ball is the intersection of the C(d,k) cylinders
    ``{ ||pi_K y||_q <= 1 }``; Dykstra's alternating projections over them
    converge to the exact projection.  Iteration stops once a full sweep
    moves the iterate by less than ``tol.abs`` and the result is feasible
    within ``tol.abs``.
    """
    y = as_vector(y0)
    d = y.size
    spec.check_dim(d)
    if top_norm(y, spec) <= 1.0 + tol.abs:
        return y.copy()
    if math.comb(d, spec.k) > 20_000:
        raise ScaleLimitError(f"C({d},{spec.k}) cylinders exceed the desk-scale guard")
    supports = [np.array(K, dtype=int) - 1 for K in k_subsets(d, spec.k)]
    q = spec.q
    x = y.copy()
    corr = [np.zeros(spec.k) for _ in supports]
    for _ in range(max_sweeps):
        x_prev = x.copy()
        for j, idx in enumerate(supports):
            v = x[idx] + corr[j]
            w = project_lq_ball(v, q)
            corr[j] = v - w
            x[idx] = w
        if float(np.max(np.abs(x - x_prev))) < tol.abs and top_norm(x, spec) <= 1.0 + tol.abs:
            return x
    raise ConvergenceError("Dykstra projection did not converge within the sweep cap")


# ---------------------------------------------------------------------------
# k-support norm


def ksupport_value(x: Sequence[float], spec: NormSpec) -> float:
    """The k-support norm value alone (no certificate): fast path.

    Same dispatch as :func:`ksupport_norm` without building the LP
    decomposition certificate.
    """
    return _ksupport(as_vector(x), spec)[0]


def ksupport_norm(
    x: Sequence[float],
    spec: NormSpec,
    tol: Tolerance = DEFAULT_TOL,
) -> EvalReport:
    """The k-support norm of ``x`` (dual of the top-(q,k) norm).

    Closed forms: p = 1 or k = 1 give the l1 norm, p = inf gives
    ``max(||x||_1 / k, ||x||_inf)``, k = d gives the plain lp norm.  In the
    remaining regime ``1 < p < inf`` the value is ``max <x, y>`` over the
    top ball; permutation/sign invariance of the ball reduces this to a
    k-dimensional chain-ordered concave program with a closed-form solution
    (:func:`_reduced_ksupport`), and the linear-programming decomposition
    certificate built at the maximizer bounds the value from above
    (``certified_gap`` is the bracket width).
    """
    arr = as_vector(x)
    value, method, y_star = _ksupport(arr, spec)
    if y_star is None:
        return EvalReport(value, method)
    gap = max(0.0, _decomposition_upper_bound(arr, spec, y_star, tol) - float(arr @ y_star))
    return EvalReport(value, method, gap)


def _ksupport(arr: np.ndarray, spec: NormSpec) -> tuple[float, str, np.ndarray | None]:
    """Value, method label and, on the reduced path, the dual maximizer."""
    d = arr.size
    spec.check_dim(d)
    p, k = spec.p, spec.k
    a = np.abs(arr)
    if p == 1 or k == 1:
        return float(a.sum()), "closed_form", None
    if math.isinf(p):
        return max(float(a.sum()) / k, float(a.max())), "closed_form", None
    if k == d:
        return lp_norm(arr, p), "closed_form", None
    if float(a.max()) == 0.0:
        return 0.0, "closed_form", None
    value, y_star = _reduced_ksupport(arr, spec)
    return value, "symmetry_reduction", y_star


def _reduced_ksupport(x: np.ndarray, spec: NormSpec) -> tuple[float, np.ndarray]:
    """Exact maximizer of <x, y> over the top ball, via symmetry reduction.

    With |x| sorted decreasingly the optimal y shares the signs and ordering
    of x and its entries beyond position k all tie with entry k, so the
    problem collapses to maximizing ``<c, u>`` over the sorted part of the
    lq sphere, where c pools the tail of x into the k-th slot.  The solution
    keeps the first j sorted entries as singletons and spreads the rest of
    |x| evenly over the last k - j slots (:func:`_pooled_tail`), which gives
    the value ``(sum_{i<j} s_i^p + (k - j) m^p)^{1/p}`` and ``y ~ s^{p-1}``.
    """
    p, k, q = spec.p, spec.k, spec.q
    a = np.abs(x)
    scale = float(a.max())  # homogeneity: evaluate at unit sup-norm scale
    a = a / scale
    order = np.argsort(-a, kind="stable")
    s = a[order]
    j, m = _pooled_tail(s, k)
    total = float(np.sum(s[:j] ** p)) + (k - j) * m**p
    value = scale * float(total ** (1.0 / p))
    # the maximizer: t_i = kappa s_i^{p/q} on the singletons, kappa m^{p/q} on the tail
    kappa = float(total ** (-1.0 / q))
    y_sorted = np.full(x.size, kappa * m ** (p / q))
    y_sorted[:j] = kappa * s[:j] ** (p / q)
    y = np.empty(x.size)
    y[order] = y_sorted
    return value, np.sign(x) * y


def _pooled_tail(s: np.ndarray, k: int) -> tuple[int, float]:
    """Start j of the pooled block on decreasing ``s`` and its mean over k - j slots.

    j is the largest index below k with ``j == 0 or s[j-1] > tail[j] / (k-j)``,
    where ``tail[j] = sum(s[j:])``.  This is where pool-adjacent-violators on
    ``(s_0, ..., s_{k-2}, sum(s[k-1:]))`` stops: the entries before j stay
    singletons and all lie above the mean of the pooled tail.
    """
    tail = np.cumsum(s[::-1])[::-1][:k]
    top = np.flatnonzero(s[: k - 1] > tail[1:] / np.arange(k - 1, 0, -1))
    j = int(top[-1]) + 1 if top.size else 0
    return j, float(tail[j]) / (k - j)


def _decomposition_upper_bound(
    x: np.ndarray, spec: NormSpec, y_feas: np.ndarray, tol: Tolerance
) -> float:
    """Rigorous upper bound on the k-support norm from a dual maximizer.

    The exposed-face vertices of the unit ball at ``y_feas`` span ``x`` with
    nonnegative weights whose sum is the norm; the weights come from a small
    LP, and any residual is patched with 1-sparse atoms at l1 cost.
    ``||x||_1`` is the fallback bound.
    """
    from .faces import optimal_supports, v_p

    fallback = float(np.abs(x).sum())
    try:
        sups = optimal_supports(y_feas, spec, tol)
    except InvalidInputError:
        return fallback
    if not sups or len(sups) > 1000:
        return fallback
    cols = []
    for K in sups:
        yk = np.zeros_like(y_feas)
        idx = np.array(K, dtype=int) - 1
        yk[idx] = y_feas[idx]
        if float(np.abs(yk).max()) == 0.0:
            continue
        cols.append(v_p(yk, spec.p))
    if not cols:
        return fallback
    V = np.column_stack(cols)
    try:
        res = _sciopt.linprog(
            np.ones(V.shape[1]), A_eq=V, b_eq=x, bounds=(0, None), method="highs"
        )
    except Exception:
        res = None
    if res is not None and res.status == 0:
        beta = np.maximum(res.x, 0.0)
        resid = x - V @ beta
        return float(beta.sum() + np.abs(resid).sum())
    beta, _ = _sciopt.nnls(V, x)
    resid = x - V @ beta
    return min(fallback, float(beta.sum() + np.abs(resid).sum()))


def dual_ascent_ksupport(
    x: Sequence[float],
    spec: NormSpec,
    tol: Tolerance = DEFAULT_TOL,
    max_iter: int = 5000,
) -> EvalReport:
    """k-support norm by full-space projected gradient ascent.

    Iterates ``y <- proj(y + x / ||x||_2)`` with the Dykstra projection onto
    the top ball, from the warm start ``sign(x) |x|^{q/p}`` normalized to the
    ball boundary.  The linear objective makes every fixed point a global
    maximizer.  Slower than :func:`ksupport_norm`; kept as the unreduced
    cross-validation path.  Raises :class:`ConvergenceError` at the cap.
    """
    arr = as_vector(x)
    spec.check_dim(arr.size)
    p = spec.p
    if not 1 < p < math.inf:
        return ksupport_norm(arr, spec, tol)
    if float(np.abs(arr).max()) == 0.0:
        return EvalReport(0.0, "dual_ascent")
    q = spec.q
    y = np.sign(arr) * np.abs(arr) ** (q / p)
    y = y / top_norm(y, spec)
    eta = 1.0 / float(np.linalg.norm(arr))
    proj_tol = Tolerance(abs=min(tol.abs, 1e-10), rel=tol.rel)
    best = float(arr @ y)
    converged = False
    for it in range(max_iter):
        y_new = project_top_ball(y + eta * arr, spec, proj_tol)
        move = float(np.max(np.abs(y_new - y)))
        y = y_new
        best = max(best, float(arr @ y))
        if move < max(tol.abs, 1e-11) and it >= 2:
            converged = True
            break
    if not converged:
        raise ConvergenceError("dual ascent did not converge within the iteration cap")
    scale = max(1.0, top_norm(y, spec))
    lower = float(arr @ (y / scale))
    upper = _decomposition_upper_bound(arr, spec, y / scale, tol)
    return EvalReport(lower, "dual_ascent", max(0.0, upper - lower))


# ---------------------------------------------------------------------------
# decomposition oracle


def _prox_lp_norm(v: np.ndarray, p: float, mu: float) -> np.ndarray:
    """prox of ``mu * ||.||_p`` via the Moreau identity with the lq ball."""
    if mu <= 0.0:
        return v.copy()
    if p == 2:
        nrm = float(np.linalg.norm(v))
        if nrm <= mu:
            return np.zeros_like(v)
        return v * (1.0 - mu / nrm)
    if p == 1:
        return np.sign(v) * np.maximum(np.abs(v) - mu, 0.0)
    q = 1.0 if math.isinf(p) else p / (p - 1.0)
    return v - mu * project_lq_ball(v / mu, q)


def ksupport_norm_oracle(
    x: Sequence[float],
    spec: NormSpec,
    target_gap: float = 1e-8,
    max_iter: int = 200_000,
) -> EvalReport:
    """Independent k-support value via the decomposition program.

    Solves ``min sum_K ||z_K||_p`` over all C(d,k) blocks supported on the
    size-k sets with ``sum_K z_K = x`` by block proximal minimization of the
    augmented Lagrangian in sharing form: every pass applies the lp-norm
    prox to each block against the averaged residual, then updates the
    multiplier.  The decomposition value plus an l1 patch of the residual is
    the upper bound; the multiplier, rescaled onto the top-ball boundary, is
    a feasible dual point pairing to the lower bound.  Stops once the
    certified gap is below ``target_gap``, else raises
    :class:`ConvergenceError`.

    Desk scale only: d <= 8 and k <= 3.
    """
    arr = as_vector(x)
    d = arr.size
    spec.check_dim(d)
    if d > 8 or spec.k > 3:
        raise ScaleLimitError("decomposition oracle is limited to d <= 8, k <= 3")
    p, k = spec.p, spec.k
    scale = float(np.abs(arr).max())
    if scale == 0.0:
        return EvalReport(0.0, "decomposition_oracle", 0.0)
    xs = arr / scale
    supports = [np.array(K, dtype=int) - 1 for K in k_subsets(d, k)]
    m = len(supports)
    z = np.zeros((m, d))
    u = np.zeros(d)
    target = target_gap / scale
    upper = float(np.abs(xs).sum())
    lower = 0.0
    for it in range(max_iter):
        zbar = z.mean(axis=0)
        base = xs / m - u - zbar
        for j, idx in enumerate(supports):
            v = z[j][idx] + base[idx]
            z[j] = 0.0
            z[j][idx] = _prox_lp_norm(v, p, 1.0)
        u = u + z.mean(axis=0) - xs / m
        if it % 20 == 19 or it == max_iter - 1:
            for cand in (m * u, -m * u):
                t = top_norm(cand, spec)
                if t > 0:
                    lower = max(lower, float(xs @ cand) / t)
            resid = xs - z.sum(axis=0)
            cand_up = sum(_lp_of_abs(np.abs(z[j]), p) for j in range(m))
            cand_up += float(np.abs(resid).sum())
            upper = min(upper, cand_up)
            if upper - lower <= target:
                return EvalReport(
                    scale * upper, "decomposition_oracle", scale * max(0.0, upper - lower)
                )
    raise ConvergenceError(
        f"decomposition oracle gap {scale * (upper - lower):.3e} above target {target_gap:.1e}"
    )
