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
primal certificate.  The exact Euclidean projection onto the top-norm ball
finds the level of its k-th entry on the sorted |y| by one Newton search at
every q (a box needs none): at q = 1 on the line of the level's piece, whose
root a step lands on, and for 1 < q < inf with one binary search per step
over keys built once from the prefix sums of the top k.  One entrywise map
of |y| writes the projection, another what it removes, the prox of the
k-support norm (Moreau).  The solver starts the search at its last level.
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
    method: str  # closed_form | symmetry_reduction; oracles: decomposition_oracle
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
        # outside this range the squares overflow or underflow: take them at unit scale
        return float(np.linalg.norm(a)) if 1e-140 <= m <= 1e140 else m * float(np.linalg.norm(a / m))
    return m * float(np.sum((a / m) ** p)) ** (1.0 / p)


def top_norm(y: Sequence[float], spec: NormSpec) -> float:
    """lq norm of the k absolutely largest entries of ``y``.

    Equals ``sup { ||pi_K y||_q : |K| <= k }``, the support function of the
    k-support unit ball.
    """
    arr = as_vector(y)
    spec.check_dim(arr.size)
    return _top_norm(arr, spec)


def _top_norm(y: np.ndarray, spec: NormSpec) -> float:
    """:func:`top_norm` of a float vector with at least k entries, unchecked.

    ``np.partition`` places NaN and +-inf among the top k, so a vector with a
    non-finite entry gets a non-finite value.
    """
    top = np.partition(np.abs(y), y.size - spec.k)[y.size - spec.k :]
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
    if beta == 0.0:  # the root is a; Newton would take a^q, which can overflow
        return a.copy()
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


def _newton_increasing(fun, lo: float, hi: float, x: float, ev: tuple) -> tuple[float, tuple]:
    """Root in ``[lo, hi]`` of an increasing function ``fun`` -> (value, slope, ...).

    Newton steps from x, where ``ev = fun(x)``, that fall back to bisection
    of the bracket whenever they leave it; stops once a step is below the
    rounding of x.  Returns the root and the evaluation of ``fun`` there.
    """
    for _ in range(200):
        g, dg = ev[0], ev[1]
        if g > 0.0:
            hi = x
        elif g < 0.0:
            lo = x
        else:
            return x, ev
        step = g / dg if 0.0 < dg < math.inf else math.inf
        if abs(step) <= 4e-16 * x or hi - lo <= 4e-16 * hi:
            return x, ev
        x = x - step if lo < x - step < hi else 0.5 * (lo + hi)
        ev = fun(x)
    return x, ev


def project_lq_ball(v: np.ndarray, q: float) -> np.ndarray:
    """Euclidean projection of ``v`` onto the unit lq ball; of each row of a 2-D ``v``.

    Closed form for q in {1, 2, inf}, on the last axis.  Otherwise every
    entry solves ``w + c w^{q-1} = |v|`` (:func:`_level_map` at level 0) for
    the one multiplier c that puts w on the unit sphere (:func:`_lq_multiplier`,
    one row at a time).  Raises :class:`InvalidInputError` unless ``v`` is a
    nonempty finite vector or matrix and q lies in [1, inf], or if, at q != 2 in
    (1, inf), ``2 ||v||_p`` over all entries (p = q / (q - 1): c's bound) overflows.
    """
    v = np.asarray(v, dtype=float)
    if v.size == 0 or v.ndim not in (1, 2):
        raise InvalidInputError("expected a nonempty vector or matrix")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("entries must be finite")
    if not q >= 1:
        raise InvalidInputError(f"q={q} must lie in [1, inf]")
    if 1 < q < math.inf and q != 2 and not 2.0 * _lp_of_abs(np.abs(v), q / (q - 1.0)) < math.inf:
        raise InvalidInputError(f"entries too large to project onto the l{q} ball: the multiplier overflows")
    return _project_lq_ball(v, q)


def _project_lq_ball(v: np.ndarray, q: float) -> np.ndarray:
    """:func:`project_lq_ball` of a nonempty finite float vector or matrix, unchecked."""
    if math.isinf(q):
        return np.clip(v, -1.0, 1.0)
    if q == 2:
        # rows past 1e140 are normed at unit scale, as their squares overflow (a vector's norm
        # is the dot-product form of np.linalg.norm, rows reduce on the last axis)
        m = np.abs(v).max(axis=-1, keepdims=True)
        unit = np.where(m > 1e140, m, 1.0)
        u = v / unit
        nrm = np.linalg.norm(u, axis=None if v.ndim == 1 else -1, keepdims=True)
        return u / np.maximum(nrm, 1.0 / unit)
    if q == 1:
        a = np.abs(v)
        theta = _l1_threshold(np.sort(a, axis=-1)[..., ::-1])
        inside = a.sum(axis=-1, keepdims=True) <= 1.0
        return np.where(inside, v, np.sign(v) * np.maximum(a - theta, 0.0))
    if v.ndim == 2:
        return np.stack([_project_lq_ball(row, q) for row in v])
    a = np.abs(v)
    if _lp_of_abs(a, q) <= 1.0:
        return v.copy()
    return _level_map(v, a, 0.0, 0.0, _lq_multiplier(a[a > 0.0], q), q)


def _l1_threshold(u: np.ndarray) -> np.ndarray:
    """Soft threshold theta of decreasing ``u >= 0`` with ``sum((u - theta)_+) = 1``, on the last axis.

    Sort and threshold (Duchi et al., ICML 2008): with ``excess = cumsum(u) - 1``,
    ``excess_r / (r + 1)`` at the last r with ``u_r (r + 1) > excess_r``.
    """
    excess = np.cumsum(u, axis=-1) - 1.0
    hit = u * np.arange(1, u.shape[-1] + 1) > excess
    r = u.shape[-1] - 1 - np.argmax(hit[..., ::-1], axis=-1)[..., None]
    return np.take_along_axis(excess, r, axis=-1) / (r + 1)


def _lq_multiplier(a: np.ndarray, q: float) -> float:
    """The multiplier c whose roots of ``w + c w^{q-1} = a > 0`` lie on the unit lq sphere.

    Closed form at q = 2; else the q-th power sum of w decreases in c, within ``[0, ||a||_p]``.
    """
    if q == 2:
        return _lp_of_abs(a, 2.0) - 1.0

    def outside(c: float) -> tuple[float, float]:
        # 1 / ||w(c)||_q - 1, close to linear in c, and its derivative
        w = _lq_roots(a, c, q)
        wq1 = w ** (q - 1.0)
        s = float(np.sum(w * wq1))
        wq2 = w if q == 3 else w ** (q - 2.0)  # w ** 1 would copy w
        ds = float(np.sum(wq1**2 / (1.0 + c * (q - 1.0) * wq2)))
        return s ** (-1.0 / q) - 1.0, s ** (-1.0 / q - 1.0) * ds

    # entries that underflow to 0 have slope 0; overflowing power sums read g = -1: bisect
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _newton_increasing(outside, 0.0, _lp_of_abs(a, q / (q - 1.0)), 0.0, outside(0.0))[0]


def _level_map(y: np.ndarray, a: np.ndarray, theta: float, t: float, c: float, q: float) -> np.ndarray:
    """The projection at the level ``(theta, t, c)``, written on ``a = |y|`` with y's signs.

    Entries with ``a - theta > t`` take the root of ``w + c w^{q-1} = a`` (:func:`_lq_roots`,
    ``a - c`` at q = 1), the other entries above theta tie at theta, and the rest stay.
    """
    w = np.minimum(a, theta)
    hit = a - theta > t
    if hit.any():  # none in a box; _lq_roots has a fixed cost even on no entries
        w[hit] = _lq_roots(a[hit], c, q)
    return np.sign(y) * w


def _level_excess(a: np.ndarray, theta: float, t: float, c: float, q: float) -> np.ndarray:
    """What the projection at the level ``(theta, t, c)`` removes from ``a = |y|``, ``a - |P(y)|``.

    ``(a - theta)_+``, but ``a - w`` past ``a - theta > t`` (:func:`_level_map`).  At q = 1
    that is c, and no other entry exceeds c, so the excess is ``min((a - theta)_+, c)``.
    """
    x = np.maximum(a - theta, 0.0)
    if q == 1:
        return np.minimum(x, c, out=x)
    hit = x > t
    if hit.any():  # as in _level_map
        x[hit] = a[hit] - _lq_roots(a[hit], c, q)
    return x


def project_top_ball(y0: Sequence[float], spec: NormSpec) -> np.ndarray:
    """Euclidean projection onto ``{ y : top_norm(y, spec) <= 1 }``.

    The ball is invariant under permutations and sign flips: the level of its
    k-th entry is found from ``|y|`` (:func:`_top_ball_level`), and the
    projection is an entrywise map of ``|y|`` (:func:`_level_map`).  At
    q = inf or k = 1 the ball is a box, and the map a clip.
    """
    y = as_vector(y0)
    spec.check_dim(y.size)
    a = np.abs(y)
    level = _top_ball_level(a, spec)
    return y.copy() if level is None else _level_map(y, a, *level, spec.q)


def _top_ball_level(a: np.ndarray, spec: NormSpec, start: float = 0.0) -> tuple[float, float, float] | None:
    """Level ``(theta, t, c)`` of the projection of y onto the top ball, or None inside it.

    ``a = |y|``, unsorted and finite, with at least k entries (unchecked).  The box at
    q = inf or k = 1 is the level ``(1, inf, inf)``; otherwise Newton searches a's descending sort,
    in :func:`_top1_level` (q = 1) or, outside the ball, :func:`_top_level`, from ``start``.
    """
    q, k = spec.q, spec.k
    if math.isinf(q) or k == 1:
        return None if a.max() <= 1.0 else (1.0, math.inf, math.inf)
    s = np.sort(a)[::-1]
    if q == 1:
        return _top1_level(s, k, start)
    return None if _lp_of_abs(s[:k], q) <= 1.0 else _top_level(s, k, q, start)


def _top_level(a: np.ndarray, k: int, q: float, start: float = 0.0) -> tuple[float, float, float]:
    """Level ``(theta, t, c)`` of the projection of decreasing ``a >= 0`` onto the top ball.

    For a outside the ball, 2 <= k <= d (``a[d]`` reads 0) and 1 < q < inf.  At
    a level theta with n entries above it, the pooled tail of ``(a - theta)_+``
    (:func:`_pooled_tail`) starts at the j-th entry and has mean t, and
    ``c = t / theta^{q-1}`` (:func:`_level_map` reads the level).
    With ``C[j] = sum(a[:j])``, the test of :func:`_pooled_tail` at j <= n,
    ``a[j-1] - theta > tail[j] / (k - j)``, reads ``P_j > B`` for the keys
    ``P_j = a[j-1] (k - j) + C[j]`` (0 < j < k), which never increase in j
    (``P_{j+1} - P_j = (k - j) (a[j] - a[j-1])``), and
    ``B = C[m] + (k - m) theta + sum_{k <= i < n} (a_i - theta)``, ``m = min(n, k)``.
    So j is the number of keys above B, at most n: the keys are built once
    and each level takes one binary search.  The top norm of that point
    increases with theta and is 1 at the answer, which safeguarded Newton
    finds in ``(0, a[k])``, from ``start`` if it lies there; if it is at most
    1 at ``theta = a[k]``, the lq projection of the top k is the answer:
    ``(a[k], 0, c)``, with c the lq multiplier of the positive top-k entries.
    A start is evaluated first, and where the top norm there exceeds 1 the
    root lies below it, so ``a[k]`` is not evaluated.
    """
    neg = -a
    csum = a[:k].cumsum()  # csum[j - 1] = C[j]
    keys = a[k - 2 :: -1] * np.arange(1.0, k) + csum[k - 2 :: -1]  # P_{k-1}, ..., P_1: increasing

    def level(theta: float) -> tuple[float, float, float, float]:
        # top_norm - 1 at level theta, its derivative, t and c
        n = int(neg.searchsorted(-theta))
        m = min(n, k)
        over = a[:n] - theta
        rest = float(over[k:].sum()) if n > k else 0.0
        bound = (csum[m - 1] if m else 0.0) + (k - m) * theta + rest
        j = min(k - 1 - int(keys.searchsorted(bound, "right")), n)
        pooled = np.add.accumulate(over[j:k][::-1])  # from the smallest up, as in _pooled_tail
        t = ((float(pooled[-1]) if pooled.size else 0.0) + rest) / (k - j)
        dt = -(n - j) / (k - j)
        c, dc = t / theta ** (q - 1.0), (dt * theta - (q - 1.0) * t) / theta**q
        ws = _lq_roots(a[:j], c, q)
        wq1 = ws if q == 2 else ws ** (q - 1.0)  # the powers are exact at q = 2
        s = float((ws * wq1).sum()) + (k - j) * theta**q
        # minus the slope of ws in c; ws ** 0 and ws ** 1 (q = 2, 3) are left out, the latter a copy
        dws = wq1 / (1.0 + c if q == 2 else 1.0 + c * (q - 1.0) * (ws if q == 3 else ws ** (q - 2.0)))
        ds = (k - j) * theta ** (q - 1.0) - float((wq1 * dws).sum()) * dc
        return s ** (1.0 / q) - 1.0, s ** (1.0 / q - 1.0) * ds, t, c

    # the level is an entry of a point of the ball; past 1 the top norm exceeds 1 for k >= 2
    ak = float(a[k]) if k < a.size else 0.0
    hi = min(ak, 1.0)
    ev = level(start) if 0.0 < start < hi else None
    if ev is None or ev[0] <= 0.0:  # else the root lies below start, so below hi
        g_hi = level(hi)[0] if hi > 0.0 else 0.0
        if g_hi <= 0.0:
            return ak, 0.0, _lq_multiplier(a[:k][a[:k] > 0.0], q)
        if ev is None:
            start = hi / (g_hi + 1.0)
            ev = level(start)
    theta, (_, _, t, c) = _newton_increasing(level, 0.0, hi, start, ev)
    return theta, t, c


def _top1_level(a: np.ndarray, k: int, start: float = 0.0) -> tuple[float, float, float] | None:
    """The q = 1 case of :func:`_top_level` (2 <= k <= d), by Newton on the line of each piece.

    None if a lies in the ball, ``C[k] <= 1`` for the prefix sums C of a.  Else the level
    ``(theta, t, t)`` of :func:`_level_map`.  With n entries above theta,
    ``k t = C[n] - 1 - (n - k) theta``, and s < k of the top k above ``theta + t``, the top
    norm less 1 is linear on theta's piece (:func:`_top_level`'s, the tail pooled from s), of
    slope ``(k - s) + s (n - s) / (k - s)`` and root ``(s (C[n] - 1) - k (C[s] - 1)) / (s (n - k) + k (k - s))``.
    Newton on it, from ``start`` if that lies in ``(0, min(a[k], 1))``, steps to the root, and
    the level is the root of the line it ends on or, if the line just below has a lower root,
    of the line read at that root.  It is ``(a[k], 0, R / k)``, ``R = C[k] - 1``, the l1
    projection of the top k, if that stays at or above a[k]; and ``(0, t, t)``, the l1
    projection of the whole vector (:func:`_l1_threshold`), if a[k] = 0 or the line at 0 has
    its root at or below 0.  Where the top norm at the start is below 1, 0 is not read.
    """
    C = np.zeros(a.size + 1)  # prefix sums
    np.add.accumulate(a, out=C[1:])
    if float(C[k]) <= 1.0:
        return None
    rk = (float(C[k]) - 1.0) / k
    ak = float(a[k]) if k < a.size else 0.0
    if k < a.size and float(a[k - 1]) - rk >= ak:  # the l1 projection of the top k
        return ak, 0.0, rk
    asc = np.ascontiguousarray(a[::-1])  # no copy where a reverses a sort
    top = asc[a.size - k :]

    def level(theta: float) -> tuple[float, float, float, float]:
        # the line of theta's piece (n entries above theta, s of the top k above theta + t)
        # at theta, its slope, its root and t at the root
        n = a.size - int(asc.searchsorted(theta, "right"))
        total = float(C[n]) - 1.0  # k t + (n - k) theta
        s = min(k - int(top.searchsorted(theta + (total - (n - k) * theta) / k, "right")), k - 1)
        root = (s * total - k * (float(C[s]) - 1.0)) / (s * (n - k) + k * (k - s))
        slope = (k - s) + s * (n - s) / (k - s)
        return slope * (theta - root), slope, root, (total - (n - k) * root) / k

    hi = min(ak, 1.0)  # the level is an entry of a point of the ball
    ev = level(start) if 0.0 < start < hi else None
    if ev is None or ev[0] > 0.0:  # else the root lies above start, so above 0
        total = float(C[-1]) - 1.0  # the line at 0, as level(0.0) reads it
        s = min(k - int(top.searchsorted(total / k, "right")), k - 1)
        if hi == 0.0 or s * total <= k * (float(C[s]) - 1.0):  # the l1 projection of the whole vector
            t = float(_l1_threshold(a)[0])
            return 0.0, t, t
        if ev is None:
            start, ev = 0.0, level(0.0)
    _, (_, _, theta, t) = _newton_increasing(level, 0.0, hi, start, ev)
    # lines tied at the level can hold roots a few roundings apart, each on its own side of the
    # tie, so the search could end on either: the level is the root of the line read from below
    below = level(theta * (1.0 - 1e-15))[2]
    if below < theta:
        _, _, theta, t = level(below)
    return theta, t, t


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
    The value reads only a partial sort of the k largest entries, and the
    maximizer, None without ``dual``, is an entrywise map of |x|.
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
    # the maximizer: kappa s^{p/q} on the singletons, above the pooled mean m, else kappa m^{p/q}
    kappa = float(total ** (-1.0 / q))
    return value, np.sign(x) * kappa * np.maximum((a / unit) ** (p / q), m ** (p / q))


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
    tail = np.add.accumulate(top[::-1])[::-1] + rest
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
