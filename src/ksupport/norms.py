"""Lp norms, the generalized top-(q,k) norm, and the k-support norm.

The top-(q,k) norm of a dual vector is the lq norm of its k absolutely
largest entries.  The k-support norm is its dual: the gauge of the closed
convex hull of all k-sparse points of the lp unit ball.  Closed forms are
used where they exist (p = 1, p = inf, k = 1, k = d); otherwise the value
is the maximum of ``<x, y>`` over the top-norm ball, which the sign/ordering
symmetry reduction gives exactly: on sorted |x| the maximizer keeps the top
entries as singletons and pools the tail into one block, whose start has a
closed form.  That tail writes x as a convex combination of at most d + 1
k-sparse points of lp norm the value (:func:`ksupport_decomposition`), the
primal certificate.  It also gives the exact Euclidean projection onto the
top-norm ball (one monotone search in the level of its k-th entry: a finite
breakpoint search at q = 1, Newton for 1 < q < inf), and through the
Moreau identity the prox of the k-support norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import InvalidInputError, as_vector

__all__ = [
    "NormSpec",
    "EvalReport",
    "lp_norm",
    "top_norm",
    "ksupport_norm",
    "ksupport_value",
    "ksupport_decomposition",
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
    method: str  # closed_form | symmetry_reduction; oracles: dual_ascent | decomposition_oracle
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
    top = np.partition(np.abs(arr), arr.size - spec.k)[arr.size - spec.k :]
    return _lp_of_abs(np.sort(top)[::-1], spec.q)


# ---------------------------------------------------------------------------
# projections onto the lq ball and the top-(q,k) ball


def _lq_roots(a: np.ndarray, c: float, q: float) -> np.ndarray:
    """Entrywise root w of ``w + c w^{q-1} = a`` for a > 0, c >= 0 and 1 <= q < inf.

    The equation is solved in its convex form ``alpha z + beta z^e = a``: in
    w for q > 2, in ``u = w^{q-1}`` (``c u + u^{p-1} = a``) for q < 2.
    Closed forms at q = 1, q = 2 and where e = 2 (q = 3 and q = 3/2);
    otherwise Newton descends monotonically from an upper bound.
    """
    if q == 1:
        return a - c
    if q == 2:
        return a / (1.0 + c)
    alpha, beta, e = (1.0, c, q - 1.0) if q > 2 else (c, 1.0, 1.0 / (q - 1.0))
    if e == 2:
        z = 2.0 * a / (alpha + np.hypot(alpha, 2.0 * np.sqrt(beta) * np.sqrt(a)))
    else:
        with np.errstate(divide="ignore"):
            z = np.minimum(a / alpha, (a / beta) ** (1.0 / e))
        for _ in range(100):
            ze = z ** (e - 1.0)
            step = (alpha * z + beta * z * ze - a) / (alpha + e * beta * ze)
            z = z - step
            if np.all(step <= 1e-15 * z):
                break
    return z if q > 2 else z**e


def _newton_increasing(fun, lo: float, hi: float, x: float) -> tuple[float, tuple]:
    """Root in ``[lo, hi]`` of an increasing function ``fun`` -> (value, slope, ...).

    Newton steps from x that fall back to bisection of the bracket whenever
    they leave it; stops once a step is below the rounding of x.  Returns
    the root and the evaluation of ``fun`` there.
    """
    for _ in range(200):
        ev = fun(x)
        g, dg = ev[0], ev[1]
        if g > 0.0:
            hi = x
        elif g < 0.0:
            lo = x
        else:
            return x, ev
        step = g / dg if dg > 0.0 else math.inf
        if abs(step) <= 4e-16 * x or hi - lo <= 4e-16 * hi:
            return x, ev
        x = x - step if lo < x - step < hi else 0.5 * (lo + hi)
    return x, fun(x)


def project_lq_ball(v: np.ndarray, q: float) -> np.ndarray:
    """Euclidean projection of ``v`` onto the unit lq ball; of each row of a 2-D ``v``.

    Closed form for q in {1, 2, inf}, on the last axis.  Otherwise every
    entry solves ``w + c w^{q-1} = |v|`` (:func:`_lq_roots`) for the one
    multiplier c that puts w on the unit sphere (:func:`_project_lq_newton`,
    one row at a time).
    """
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        return v.copy()
    if math.isinf(q):
        return np.clip(v, -1.0, 1.0)
    if q == 2:
        # the 1-D norm is the dot-product form of np.linalg.norm, rows reduce on the last axis
        nrm = np.linalg.norm(v, axis=None if v.ndim == 1 else -1, keepdims=True)
        return v / np.maximum(nrm, 1.0)
    if q == 1:
        # sort and threshold: theta is the soft threshold with sum(max(a - theta, 0)) = 1,
        # read at the last index r with u_r (r + 1) > excess_r
        a = np.abs(v)
        u = np.sort(a, axis=-1)[..., ::-1]
        excess = np.cumsum(u, axis=-1) - 1.0
        hit = u * np.arange(1, u.shape[-1] + 1) > excess
        r = u.shape[-1] - 1 - np.argmax(hit[..., ::-1], axis=-1)[..., None]
        theta = np.take_along_axis(excess, r, axis=-1) / (r + 1)
        inside = a.sum(axis=-1, keepdims=True) <= 1.0
        return np.where(inside, v, np.sign(v) * np.maximum(a - theta, 0.0))
    if v.ndim == 1:
        return _project_lq_newton(v, q)
    return np.stack([_project_lq_newton(row, q) for row in v])


def _project_lq_newton(v: np.ndarray, q: float) -> np.ndarray:
    """:func:`project_lq_ball` of a vector for 1 < q < inf, q != 2.

    The q-th power sum of w decreases in c, which is bracketed by
    ``[0, ||v||_p]``.
    """
    a = np.abs(v)
    if _lp_of_abs(a, q) <= 1.0:
        return v.copy()
    pos = a > 0.0
    ap = a[pos]

    def outside(c: float) -> tuple[float, float]:
        # 1 / ||w(c)||_q - 1, close to linear in c, and its derivative
        w = _lq_roots(ap, c, q)
        wq1 = w ** (q - 1.0)
        s = float(np.sum(w * wq1))
        ds = float(np.sum(wq1**2 / (1.0 + c * (q - 1.0) * w ** (q - 2.0))))
        return s ** (-1.0 / q) - 1.0, s ** (-1.0 / q - 1.0) * ds

    with np.errstate(divide="ignore"):  # entries that underflow to 0 have slope 0
        c, _ = _newton_increasing(outside, 0.0, _lp_of_abs(ap, q / (q - 1.0)), 0.0)
    w = np.zeros_like(a)
    w[pos] = _lq_roots(ap, c, q)
    return np.sign(v) * w


def project_top_ball(y0: Sequence[float], spec: NormSpec) -> np.ndarray:
    """Euclidean projection onto ``{ y : top_norm(y, spec) <= 1 }``.

    The ball is invariant under permutations and sign flips, so the
    projection keeps the signs and the order of ``|y|`` and is computed on
    sorted ``a = |y|`` (:func:`_top_ball_abs`).  At q = inf or k = 1 the
    ball is a box, and the projection a clip.
    """
    y = as_vector(y0)
    spec.check_dim(y.size)
    q, k = spec.q, spec.k
    a = np.abs(y)
    order = np.argsort(-a, kind="stable")
    a = a[order]
    if _lp_of_abs(a[:k], q) <= 1.0:
        return y.copy()
    if math.isinf(q) or k == 1:
        return np.clip(y, -1.0, 1.0)
    w = np.empty(y.size)
    w[order] = _top_ball_abs(a, k, q)
    return np.sign(y) * w


def _top_ball_abs(a: np.ndarray, k: int, q: float) -> np.ndarray:
    """Projection of decreasing ``a >= 0``, outside the top ball, onto it (k >= 2).

    The k-th entry of the projection sits at a level theta.  At a level
    theta, t, the pooled tail mean of ``(a - theta)_+`` (:func:`_pooled_tail`),
    splits the entries: those above ``theta + t`` solve
    ``w + c w^{q-1} = a`` with ``c = t / theta^{q-1}``, those in between tie
    at theta, and the rest stay as they are.  For 1 < q < inf the top norm
    of that point increases with theta and is 1 at the answer, which
    safeguarded Newton finds in ``(0, a[k])``; if it is at most 1 at
    ``theta = a[k]``, the lq projection of the top k stays at or above
    ``a[k]`` and is the answer.  At q = 1 the search is a finite breakpoint
    search (:func:`_top1_ball_abs`).
    """
    if k == a.size:
        return project_lq_ball(a, q)
    if q == 1:
        return _top1_ball_abs(a, k)
    w = a.copy()
    neg = -a

    def level(theta: float) -> tuple[float, float, int, int, np.ndarray]:
        # top_norm - 1 at level theta, its derivative, the singleton count j,
        # the count n of entries above theta and the singleton values
        n = int(neg.searchsorted(-theta))
        top = a[:k] - theta
        j, t = _pooled_tail(np.maximum(top, 0.0, out=top), float((a[k:n] - theta).sum()))
        dt = -(n - j) / (k - j)
        c, dc = t / theta ** (q - 1.0), (dt * theta - (q - 1.0) * t) / theta**q
        ws = _lq_roots(a[:j], c, q)
        wq1 = ws ** (q - 1.0)
        dws = -wq1 / (1.0 + c * (q - 1.0) * ws ** (q - 2.0))
        s = float((ws * wq1).sum()) + (k - j) * theta**q
        ds = float((wq1 * dws).sum()) * dc + (k - j) * theta ** (q - 1.0)
        return s ** (1.0 / q) - 1.0, s ** (1.0 / q - 1.0) * ds, j, n, ws

    # the level is an entry of a point of the ball; past 1 the top norm exceeds 1 for k >= 2
    hi = min(float(a[k]), 1.0)
    g_hi = level(hi)[0] if hi > 0.0 else 0.0
    if g_hi <= 0.0:
        w[:k] = project_lq_ball(a[:k], q)
        return w
    theta, (_, _, j, n, ws) = _newton_increasing(level, 0.0, hi, hi / (g_hi + 1.0))
    w[:j] = ws
    w[j:n] = theta
    return w


def _top1_ball_abs(a: np.ndarray, k: int) -> np.ndarray:
    """The q = 1 case of :func:`_top_ball_abs`, by an exact breakpoint search.

    The answer is ``a - clip(a - theta, 0, t)`` at the root of the decreasing,
    piecewise linear ``F(theta) = sum_{i<k} min(a_i - theta, t) - R``, where
    ``R = sum(a[:k]) - 1`` and ``k t = R + sum_{i>=k} (a_i - theta)_+``.  A
    vectorized search over the tail entries brackets the root on a piece with
    n of them above theta.  There F is the least of the lines in which t
    applies to the s largest entries, so its root is the least of theirs.
    """
    C = np.zeros(a.size + 1)  # prefix sums
    a.cumsum(out=C[1:])

    def F(theta, n):  # at levels theta with n tail entries above each
        t = (C[k + n] - 1.0 - n * theta) / k
        s = (-a[:k]).searchsorted(-(theta + t))
        return s * t + 1.0 - C[s] - (k - s) * theta

    if a[k - 1] - (C[k] - 1.0) / k >= a[k]:  # F(a[k]) >= 0: the l1 projection of the top k
        return np.concatenate((a[:k] - (C[k] - 1.0) / k, a[k:]))
    if F(0.0, a.size - k) <= 0.0:  # the l1 projection of the whole vector
        return project_lq_ball(a, 1.0)
    # n: the first m with F(a[k + m], m) >= 0 (a[d] reads 0), 1024 points a round
    lo, up = 1, a.size - k
    while lo < up:
        m = np.arange(lo, up, -(-(up - lo) // 1024))
        r = int((F(a[k + m], m) < 0.0).sum())
        lo, up = (m[r - 1] + 1 if r else lo), (m[r] if r < m.size else up)
    s = np.arange(k)  # s = k leaves no entry at the level: not the root
    theta = (s * (C[k + lo] - 1.0) - k * (C[:k] - 1.0)) / (s * lo + k * (k - s))
    s = int(np.argmin(theta))
    w = a.copy()
    w[:s] -= (C[k + lo] - 1.0 - lo * theta[s]) / k
    w[s : k + lo] = theta[s]
    return w


# ---------------------------------------------------------------------------
# k-support norm


def ksupport_value(x: Sequence[float], spec: NormSpec) -> float:
    """The k-support norm value alone (no certificate): fast path.

    Same dispatch as :func:`ksupport_norm`, without the dual maximizer and
    the certificate; the reduction reads only a partial sort of the k
    largest entries and the sum of the others.
    """
    return _ksupport(as_vector(x), spec, dual=False)[0]


def ksupport_norm(x: Sequence[float], spec: NormSpec) -> EvalReport:
    """The k-support norm of ``x`` (dual of the top-(q,k) norm).

    Closed forms: p = 1 or k = 1 give the l1 norm, p = inf gives
    ``max(||x||_1 / k, ||x||_inf)``, k = d gives the plain lp norm.  In the
    remaining regime ``1 < p < inf`` the value is ``max <x, y>`` over the
    top ball; permutation/sign invariance of the ball reduces this to a
    k-dimensional chain-ordered concave program with a closed-form solution
    (:func:`_reduced_ksupport`).  The maximizer y* bounds the value from
    below by ``<x, y*> / top_norm(y*)``; the pooled tail writes x as k-sparse
    atoms of norm exactly the value (:func:`ksupport_decomposition`, not
    built here), and ``certified_gap`` is the value minus that lower bound.
    """
    arr = as_vector(x)
    value, method, y_star = _ksupport(arr, spec)
    if y_star is None:
        return EvalReport(value, method)
    lower = float(arr @ y_star) / top_norm(y_star, spec)
    return EvalReport(value, method, max(0.0, value - lower))


def _ksupport(
    arr: np.ndarray, spec: NormSpec, dual: bool = True
) -> tuple[float, str, np.ndarray | None]:
    """Value, method label and, on the reduced path with ``dual``, the dual maximizer."""
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
    value, y_star = _reduced_ksupport(arr, spec, dual)
    return value, "symmetry_reduction", y_star


def _reduced_ksupport(
    x: np.ndarray, spec: NormSpec, dual: bool = True
) -> tuple[float, np.ndarray | None]:
    """Exact maximizer of <x, y> over the top ball, via symmetry reduction.

    With |x| sorted decreasingly the optimal y shares the signs and ordering
    of x and its entries beyond position k all tie with entry k, so the
    problem collapses to maximizing ``<c, u>`` over the sorted part of the
    lq sphere, where c pools the tail of x into the k-th slot.  The solution
    keeps the first j sorted entries as singletons and spreads the rest of
    |x| evenly over the last k - j slots (:func:`_pooled_tail`), which gives
    the value ``(sum_{i<j} s_i^p + (k - j) m^p)^{1/p}`` and ``y ~ s^{p-1}``.
    The value reads only a partial sort of the k largest entries; the full
    sort is made for the maximizer, which is None without ``dual``.
    """
    p, k, q = spec.p, spec.k, spec.q
    a = np.abs(x)
    amax = float(a.max())
    a = a / amax
    part = np.partition(a, a.size - k)
    top = np.sort(part[a.size - k :])[::-1]
    j, m = _pooled_tail(top, float(np.sum(part[: a.size - k])))
    if dual and top[j] > m * (1.0 + 1e-14):  # j gives top[j] <= m up to a few roundings
        raise ArithmeticError(f"pooled tail entry {top[j]!r} exceeds its mean {m!r}")
    # homogeneity: take the powers at unit scale, which the pooled mean can
    # exceed (it overflows at large p otherwise)
    unit = max(1.0, m)
    s_top, m = top[:j] / unit, m / unit
    total = float(np.sum(s_top**p)) + (k - j) * m**p
    value = amax * unit * float(total ** (1.0 / p))
    if not dual:
        return value, None
    # the maximizer: t_i = kappa s_i^{p/q} on the singletons, kappa m^{p/q} on the tail
    kappa = float(total ** (-1.0 / q))
    y_sorted = np.full(x.size, kappa * m ** (p / q))
    y_sorted[:j] = kappa * s_top ** (p / q)
    y = np.empty(x.size)
    # tied |x| entries get equal y values, so any sorting order scatters the same y
    y[np.argsort(-a)] = y_sorted
    return value, np.sign(x) * y


def _pooled_tail(top: np.ndarray, rest: float) -> tuple[int, float]:
    """Start j of the pooled block and its mean over k - j slots.

    ``top`` holds the k largest entries of a nonnegative vector in decreasing
    order and ``rest`` the sum of the others.  j is the largest index below k
    with ``j == 0 or top[j-1] > tail[j] / (k-j)``, where
    ``tail[j] = sum(top[j:]) + rest``.  This is where pool-adjacent-violators
    on ``(top_0, ..., top_{k-2}, tail[k-1])`` stops: the entries before j
    stay singletons and all lie above the mean of the pooled tail.
    """
    k = top.size
    tail = top[::-1].cumsum()[::-1] + rest
    above = (top[:-1] > tail[1:] / np.arange(k - 1, 0, -1)).nonzero()[0]
    j = int(above[-1]) + 1 if above.size else 0
    return j, float(tail[j]) / (k - j)


def ksupport_decomposition(x: Sequence[float], spec: NormSpec) -> tuple[np.ndarray, np.ndarray]:
    """Primal witness of the k-support norm: ``x = weights @ atoms``.

    At most d + 1 nonnegative weights summing to 1; every row of ``atoms``
    has at most k nonzeros and lp norm equal to the norm of x, for every p.
    On sorted |x| the pooled tail (:func:`_pooled_tail`) keeps j singletons
    H and pools the rest T at its mean m >= every entry of T, so
    ``w = |x_T| / m`` has entries in [0, 1] summing to k - j.  Madow's
    systematic sampling lays the w_i end to end on ``[0, k - j)``: for t in
    [0, 1) the k - j entries hit by t, t + 1, ... give the atom
    ``x_H + sign(x_T) m 1_K(t)``, constant between consecutive fractional
    parts of the partial sums of w.  m = 0 gives the single atom x.  The
    atoms fill a dense array: desk scale.
    """
    arr = as_vector(x)
    d, k = arr.size, spec.k
    spec.check_dim(d)
    a = np.abs(arr)
    amax = float(a.max())
    order = np.argsort(-a)
    s = a[order] / (amax or 1.0)
    j, m = _pooled_tail(s[:k], float(s[k:].sum()))
    if m == 0.0:
        return np.ones(1), arr[None, :].copy()
    C = np.concatenate(([0.0], np.cumsum(np.minimum(s[j:] / m, 1.0))))
    b = np.unique(np.concatenate((C % 1.0, [1.0])))
    t = (b[:-1] + b[1:])[:, None] / 2.0
    hits = np.ceil(C[1:] - t) - np.ceil(C[:-1] - t)  # times t, t + 1, ... fall in w_i's slot
    # partial sums a hair off k - j, or an entry a hair over 1, leave slivers
    # of t with a wrong hit count: rounding, dropped
    keep = (hits.max(axis=1) <= 1.0) & (hits.sum(axis=1) == k - j)
    weights = np.diff(b)[keep] / np.diff(b)[keep].sum()
    atoms = np.zeros((weights.size, d))
    atoms[:, order[:j]] = arr[order[:j]]
    atoms[:, order[j:]] = hits[keep] * (np.sign(arr[order[j:]]) * (m * amax))
    return weights, atoms


def __getattr__(name: str):
    # the decomposition oracle lives in ksupport.oracles; its old name here still resolves
    if name == "ksupport_norm_oracle":
        from .oracles import ksupport_norm_oracle

        return ksupport_norm_oracle
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
