"""Penalized minimization ``f(x) + gamma * ksupport(x)`` by conditional gradient.

The linear minimization oracle over the k-support unit ball is the exposed
face vertex of the negative gradient, so the face machinery turns directly
into a solver: atoms are collected greedily, a plane search sets the step
toward the new atom and the shrink toward the origin, and a fully corrective
reweighting over the collected atoms runs periodically.  The optimality
certificate and the support identification read the dual information at the
solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    InvalidInputError,
    ScaleLimitError,
    Tolerance,
    ZeroVectorError,
    as_vector,
    level_index,
)
from .faces import optimal_supports, v_p
from .norms import NormSpec, _pooled_tail, ksupport_value, top_norm

__all__ = [
    "SmoothObjective",
    "SolveOptions",
    "SolveReport",
    "SupportIdentification",
    "ZeroGradientError",
    "quadratic_objective",
    "logistic_objective",
    "check_gradient",
    "lmo_sp_ball",
    "solve_penalized",
    "certify_optimality",
    "identified_support",
]


class ZeroGradientError(InvalidInputError):
    """Gradient vanished: interior optimum, support identification is vacuous."""


@dataclass
class SmoothObjective:
    """A smooth convex objective given by value and gradient oracles.

    ``lipschitz`` is an estimate of the gradient Lipschitz constant (may be
    refined by backtracking).  ``quad`` carries ``(A, b)`` when the objective
    is exactly ``0.5 * ||A x - b||^2``, enabling closed-form line searches.
    """

    dim: int
    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    lipschitz: float | None = None
    quad: tuple[np.ndarray, np.ndarray] | None = None


def quadratic_objective(A: Sequence[Sequence[float]], b: Sequence[float]) -> SmoothObjective:
    """``f(x) = 0.5 * ||A x - b||^2`` with its exact gradient."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.size:
        raise InvalidInputError("A must be (m, d) and b length m")

    def value(x: np.ndarray) -> float:
        r = A @ x - b
        return 0.5 * float(r @ r)

    def grad(x: np.ndarray) -> np.ndarray:
        return A.T @ (A @ x - b)

    L = float(np.linalg.norm(A, 2)) ** 2
    return SmoothObjective(dim=A.shape[1], value=value, grad=grad, lipschitz=L, quad=(A, b))


def logistic_objective(X: Sequence[Sequence[float]], labels: Sequence[float]) -> SmoothObjective:
    """Logistic loss ``sum log(1 + exp(-labels * (X x)))`` with labels in {-1, +1}."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(labels, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
        raise InvalidInputError("X must be (m, d) and labels length m")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise InvalidInputError("labels must be -1 or +1")

    def value(x: np.ndarray) -> float:
        margins = y * (X @ x)
        return float(np.logaddexp(0.0, -margins).sum())

    def grad(x: np.ndarray) -> np.ndarray:
        margins = y * (X @ x)
        sig = 0.5 * (1.0 + np.tanh(-0.5 * margins))  # overflow-safe sigmoid(-m)
        return -X.T @ (y * sig)

    L = 0.25 * float(np.linalg.norm(X, 2)) ** 2
    return SmoothObjective(dim=X.shape[1], value=value, grad=grad, lipschitz=L)


def check_gradient(
    obj: SmoothObjective,
    points: Sequence[Sequence[float]],
    step: float = 1e-6,
    rtol: float = 1e-4,
) -> float:
    """Max relative error between the gradient oracle and central differences."""
    worst = 0.0
    for pt in points:
        x = as_vector(pt)
        g = obj.grad(x)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = step
            fd = (obj.value(x + e) - obj.value(x - e)) / (2.0 * step)
            scale = max(1.0, abs(fd), abs(g[i]))
            worst = max(worst, abs(fd - g[i]) / scale)
    if worst > rtol:
        raise InvalidInputError(f"gradient oracle disagrees with finite differences ({worst:.2e})")
    return worst


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-6
    max_iter: int = 50_000
    corrective_every: int = 10
    master_max_iter: int = 500


@dataclass(frozen=True)
class SupportIdentification:
    """Optimal supports of a dual vector and the induced primal support bound."""

    supports: tuple[tuple[int, ...], ...]
    unique: tuple[int, ...] | None
    bound: tuple[int, ...]


@dataclass(frozen=True)
class SolveReport:
    x_star: np.ndarray
    objective: float
    fw_gap: float
    iterations: int
    converged: bool
    identified_supports: tuple[tuple[int, ...], ...]
    unique_support: tuple[int, ...] | None
    support_bound: tuple[int, ...]


def lmo_sp_ball(
    u: Sequence[float],
    spec: NormSpec,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Extreme point of the k-support unit ball maximizing ``<a, u>``.

    For 1 < p < inf this is the exposed-face vertex ``v_p(pi_K u)`` at the
    lexicographically smallest optimal support K; for p = inf a k-sparse
    sign pattern on the k largest entries; for p = 1 a signed coordinate
    vector.  Satisfies ``<lmo(u), u> = top_norm(u)`` by construction.
    Passing ``rng`` randomizes the tie-break among exactly tied optimal
    supports (for stress tests); by default it is deterministic.
    """
    arr = as_vector(u)
    d = arr.size
    spec.check_dim(d)
    if float(np.abs(arr).max()) == 0.0:
        raise ZeroVectorError("LMO direction must be nonzero")
    p, k = spec.p, spec.k
    out = np.zeros(d)
    if p == 1:
        tied = np.nonzero(np.abs(arr) == np.abs(arr).max())[0]
        i = int(rng.choice(tied)) if rng is not None else int(tied[0])
        out[i] = 1.0 if arr[i] >= 0 else -1.0
        return out
    li = level_index(arr, k, Tolerance(0.0, 0.0))
    strict = list(li.strict)
    pool = sorted(set(li.weak) - set(strict))
    take = k - len(strict)
    if rng is not None and len(pool) > take:
        chosen = list(rng.choice(pool, size=take, replace=False))
    else:
        chosen = pool[:take]
    K = tuple(sorted(strict + chosen))
    if math.isinf(p):
        for i in K:
            out[i - 1] = 1.0 if arr[i - 1] >= 0 else -1.0
        return out
    proj = np.zeros(d)
    idx = np.array(K, dtype=int) - 1
    proj[idx] = arr[idx]
    return v_p(proj, p)


def identified_support(
    x: Sequence[float],
    g: Sequence[float],
    spec: NormSpec,
    tol: Tolerance = DEFAULT_TOL,
) -> SupportIdentification:
    """Support identification from the dual vector ``g = -grad f(x)``.

    The supports are the optimal supports of g; their union bounds the
    support of any optimum exposed by g, and a unique optimal support
    certifies a k-sparse optimum.
    """
    xarr = as_vector(x)
    garr = as_vector(g)
    if xarr.size != garr.size:
        raise InvalidInputError("x and g must have the same dimension")
    if float(np.abs(garr).max()) <= tol.abs:
        raise ZeroGradientError("zero gradient: support identification is vacuous")
    sups = optimal_supports(garr, spec, tol)
    bound: set[int] = set()
    for K in sups:
        bound.update(K)
    unique = sups[0] if len(sups) == 1 else None
    return SupportIdentification(supports=sups, unique=unique, bound=tuple(sorted(bound)))


def _fermat_gap(x: np.ndarray, g: np.ndarray, gamma: float, spec: NormSpec) -> float:
    # -g must lie in gamma * top-ball (dual feasibility) and pair with x at
    # gamma * ksupport(x) (alignment); both violations vanish iff x is optimal.
    topg = top_norm(g, spec)
    dual_viol = max(0.0, topg - gamma)
    if float(np.abs(x).max()) == 0.0:
        return dual_viol
    ks = ksupport_value(x, spec)
    align_viol = max(0.0, gamma * ks - float(-g @ x))
    return max(dual_viol, align_viol)


def certify_optimality(
    x: Sequence[float],
    obj: SmoothObjective,
    gamma: float,
    spec: NormSpec,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[bool, float]:
    """Check the two-branch Fermat condition at ``x``.

    At x = 0 the requirement is ``top_norm(-grad f(0)) <= gamma``; otherwise
    ``x`` must expose itself: ``<x, -grad f> = ksupport(x) * top_norm(grad f)``
    (alignment) together with ``top_norm(-grad f) = gamma`` (dual feasibility
    at the kink).  Returns (certified, worst violation).
    """
    if gamma <= 0:
        raise InvalidInputError("gamma must be positive")
    xarr = as_vector(x)
    spec.check_dim(xarr.size)
    g = obj.grad(xarr)
    topg = top_norm(g, spec)
    if float(np.abs(xarr).max()) <= tol.abs:
        gap = max(0.0, topg - gamma)
        return topg <= gamma * (1.0 + tol.rel) + tol.abs, gap
    ks = ksupport_value(xarr, spec)
    pairing = float(-g @ xarr)
    align_ok = pairing >= ks * topg * (1.0 - tol.rel) - tol.abs
    dual_ok = abs(topg - gamma) <= gamma * tol.rel + tol.abs
    gap = max(0.0, ks * topg - pairing, abs(topg - gamma))
    return align_ok and dual_ok, gap


# ---------------------------------------------------------------------------
# generalized conditional gradient


def _plane_search(
    obj: SmoothObjective,
    x: np.ndarray,
    surrogate: float,
    atom: np.ndarray | None,
    gamma: float,
) -> tuple[float, float]:
    """Minimize ``f((1 - beta) x + alpha a) + gamma ((1 - beta) surrogate + alpha)``
    over alpha >= 0, beta in [0, 1]."""
    if atom is None:
        atom = np.zeros_like(x)

    if obj.quad is not None:
        return _plane_search_quadratic(obj, x, surrogate, atom, gamma)

    def phi(alpha: float, beta: float) -> float:
        z = (1.0 - beta) * x + alpha * atom
        return obj.value(z) + gamma * ((1.0 - beta) * surrogate + alpha)

    def dphi(alpha: float, beta: float) -> tuple[float, float]:
        z = (1.0 - beta) * x + alpha * atom
        g = obj.grad(z)
        return float(g @ atom) + gamma, float(-(g @ x)) - gamma * surrogate

    alpha, beta = 0.0, 0.0
    for _ in range(12):
        # 1-d convex minimization in alpha by derivative bisection
        da, _ = dphi(0.0, beta)
        if da >= 0.0:
            alpha = 0.0
        else:
            hi = 1.0
            while dphi(hi, beta)[0] < 0.0 and hi < 1e12:
                hi *= 2.0
            lo = 0.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if dphi(mid, beta)[0] < 0.0:
                    lo = mid
                else:
                    hi = mid
            alpha = 0.5 * (lo + hi)
        _, db = dphi(alpha, 0.0)
        if db >= 0.0:
            beta = 0.0
        else:
            lo, hi = 0.0, 1.0
            if dphi(alpha, 1.0)[1] < 0.0:
                beta = 1.0
            else:
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if dphi(alpha, mid)[1] < 0.0:
                        lo = mid
                    else:
                        hi = mid
                beta = 0.5 * (lo + hi)
        if phi(alpha, beta) <= phi(0.0, 0.0) - 1e-18:
            break
    return alpha, beta


def _plane_search_quadratic(
    obj: SmoothObjective,
    x: np.ndarray,
    surrogate: float,
    atom: np.ndarray,
    gamma: float,
) -> tuple[float, float]:
    A, b = obj.quad
    Au = A @ atom
    Av = -(A @ x)
    r0 = A @ x - b
    # phi(alpha, beta) = 0.5 ||r0 + alpha Au + beta Av||^2
    #                    + gamma ((1 - beta) surrogate + alpha)
    H = np.array([[Au @ Au, Au @ Av], [Au @ Av, Av @ Av]])
    lin = np.array([float(r0 @ Au) + gamma, float(r0 @ Av) - gamma * surrogate])

    def val(a: float, be: float) -> float:
        t = np.array([a, be])
        return 0.5 * float(t @ H @ t) + float(lin @ t)

    cands: list[tuple[float, float]] = [(0.0, 0.0)]
    try:
        sol = np.linalg.lstsq(H, -lin, rcond=None)[0]
        cands.append((float(sol[0]), float(sol[1])))
    except np.linalg.LinAlgError:
        pass
    # 1-d edges: alpha = 0, beta in [0,1]; beta = 0 or 1, alpha >= 0
    if H[1, 1] > 0:
        cands.append((0.0, float(-lin[1] / H[1, 1])))
    for be in (0.0, 1.0):
        if H[0, 0] > 0:
            cands.append((float(-(lin[0] + H[0, 1] * be) / H[0, 0]), be))
    cands.append((0.0, 1.0))
    best = None
    for a, be in cands:
        a = max(0.0, a)
        be = min(1.0, max(0.0, be))
        v = val(a, be)
        if best is None or v < best[0]:
            best = (v, a, be)
    return best[1], best[2]


def _master_weights(
    obj: SmoothObjective,
    atoms: list[np.ndarray],
    w: np.ndarray,
    gamma: float,
    max_iter: int,
) -> np.ndarray:
    """Fully corrective reweighting: min over c >= 0 of f(sum c_j a_j) + gamma sum c."""
    P = np.column_stack(atoms)
    if obj.quad is not None:
        A, b = obj.quad
        return _nn_quadratic(A @ P, b, gamma, w, max_iter)
    c = w.copy()
    L = obj.lipschitz if obj.lipschitz else 1.0
    PtP_scale = float(np.linalg.norm(P, 2)) ** 2
    step = 1.0 / max(L * PtP_scale, 1e-12)
    for _ in range(max_iter):
        g = P.T @ obj.grad(P @ c) + gamma
        c_new = np.maximum(c - step * g, 0.0)
        if float(np.max(np.abs(c_new - c))) < 1e-14:
            c = c_new
            break
        c = c_new
    return c


def _nn_quadratic(
    N: np.ndarray, b: np.ndarray, gamma: float, w0: np.ndarray, max_iter: int
) -> np.ndarray:
    """Active-set solve of ``min_{c >= 0} 0.5 ||N c - b||^2 + gamma 1'c``.

    Lawson-Hanson style from the empty active set (cold start: the atom Gram
    is often singular, e.g. +/- atom pairs, and warm starts can cycle); a
    tiny ridge stabilizes the subset solves and a projected-gradient pass
    guards the exit.
    """
    m = N.shape[1]
    G = N.T @ N
    h = N.T @ b - gamma
    ridge = 1e-12 * max(1.0, float(np.trace(G)) / max(m, 1))
    c = np.zeros(m)
    active = np.zeros(m, dtype=bool)
    kkt_tol = 1e-12 * max(1.0, float(np.abs(h).max()))
    for _ in range(max_iter):
        grad = G @ c - h
        viol = np.where(~active, -grad, 0.0)
        j = int(np.argmax(viol))
        if viol[j] <= kkt_tol:
            break
        active[j] = True
        for _ in range(4 * m + 16):
            idx = np.nonzero(active)[0]
            Gs = G[np.ix_(idx, idx)] + ridge * np.eye(idx.size)
            sol = np.linalg.solve(Gs, h[idx])
            if np.all(sol >= -1e-13):
                c = np.zeros(m)
                c[idx] = np.maximum(sol, 0.0)
                break
            cur = c[idx]
            diff = sol - cur
            bad = sol < -1e-13
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(bad & (diff < 0), cur / np.maximum(-diff, 1e-300), np.inf)
            theta = min(1.0, float(ratios.min()))
            cur = np.maximum(cur + theta * diff, 0.0)
            drop = cur <= 1e-13
            c = np.zeros(m)
            c[idx] = np.where(drop, 0.0, cur)
            active = c > 0
            if not active.any():
                break
    # safeguard: a few projected-gradient sweeps never hurt and catch stalls
    L = float(np.linalg.norm(N, 2)) ** 2
    if L > 0:
        step = 1.0 / L
        for _ in range(200):
            c_new = np.maximum(c - step * (G @ c - h), 0.0)
            if float(np.max(np.abs(c_new - c))) < 1e-16:
                c = c_new
                break
            c = c_new
    return c


def _pattern_polish(
    obj: SmoothObjective,
    x: np.ndarray,
    gamma: float,
    spec: NormSpec,
) -> np.ndarray:
    """Smooth refinement of x on its current stratum (1 < p < inf only).

    With the support, the signs, and the pooled tail of sorted |x| (the
    blocks of :func:`ksupport.norms._pooled_tail`, singletons above it)
    frozen, the k-support norm is a smooth function of the remaining
    variables, so a quasi-Newton solve reaches the stratum optimum; the
    result is kept only if the true penalized objective improves.  This is
    what lets the conditional gradient iteration exit the sublinear tail on
    the curved faces.
    """
    from scipy import optimize as _sciopt

    d = x.size
    p, k = spec.p, spec.k
    a = np.abs(x)
    zero_tol = 1e-10 * max(1.0, float(a.max()))
    if float(a.max()) <= zero_tol:
        return x
    order = np.argsort(-a, kind="stable")
    j, _ = _pooled_tail(a[order], k)
    nb = j + 1
    bid = np.empty(d, dtype=int)
    bid[order] = np.minimum(np.arange(d), j)
    sup = np.nonzero(a > zero_tol)[0]
    if sup.size == 0:
        return x
    sign = np.sign(x[sup])
    nvec = np.append(np.ones(j), k - j)
    sup_bid = bid[sup]

    def penalty(z: np.ndarray) -> tuple[float, np.ndarray]:
        C = np.zeros(nb)
        np.add.at(C, sup_bid, sign * z)
        Cp = np.maximum(C, 0.0)
        total = float(np.sum(Cp**p * nvec ** (1.0 - p)))
        if total <= 0.0:
            return 0.0, np.zeros_like(z)
        val = total ** (1.0 / p)
        gC = val ** (1.0 - p) * Cp ** (p - 1.0) * nvec ** (1.0 - p)
        return val, gC[sup_bid] * sign

    def fun(z: np.ndarray) -> tuple[float, np.ndarray]:
        xf = np.zeros(d)
        xf[sup] = z
        pv, pg = penalty(z)
        return obj.value(xf) + gamma * pv, obj.grad(xf)[sup] + gamma * pg

    res = _sciopt.minimize(
        fun,
        x[sup],
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 300, "ftol": 1e-18, "gtol": 1e-14},
    )
    xf = np.zeros(d)
    xf[sup] = res.x
    h_old = obj.value(x) + gamma * ksupport_value(x, spec)
    h_new = obj.value(xf) + gamma * ksupport_value(xf, spec)
    return xf if h_new <= h_old else x


def _polytope_atoms(d: int, spec: NormSpec, cap: int = 1024) -> list[np.ndarray] | None:
    """Full vertex list of the k-support ball when it is a small polytope.

    p = 1 gives the signed coordinate vectors, p = inf the k-sparse sign
    patterns.  Returns None above the cap or for curved balls.
    """
    import itertools

    p, k = spec.p, spec.k
    if p == 1:
        if 2 * d > cap:
            return None
        out = []
        for i in range(d):
            for s in (1.0, -1.0):
                a = np.zeros(d)
                a[i] = s
                out.append(a)
        return out
    if math.isinf(p):
        if math.comb(d, k) * 2**k > cap:
            return None
        out = []
        for K in itertools.combinations(range(d), k):
            for signs in itertools.product((1.0, -1.0), repeat=k):
                a = np.zeros(d)
                for i, s in zip(K, signs):
                    a[i] = s
                out.append(a)
        return out
    return None


def solve_penalized(
    obj: SmoothObjective,
    gamma: float,
    spec: NormSpec,
    opts: SolveOptions | None = None,
) -> SolveReport:
    """Generalized conditional gradient for ``min f(x) + gamma ksupport(x)``.

    Maintains x as a nonnegative combination of unit-norm LMO atoms; each
    iteration adds the exposed-face atom of the negative gradient and plane
    searches the (step toward atom, shrink toward zero) pair, with a fully
    corrective reweighting every ``corrective_every`` iterations.  Stops when
    the Fermat gap drops below ``opts.tol``; hitting the iteration cap is
    flagged on the report rather than raised.
    """
    if gamma <= 0:
        raise InvalidInputError("gamma must be positive")
    opts = opts or SolveOptions()
    d = obj.dim
    spec.check_dim(d)
    x = np.zeros(d)
    atoms: list[np.ndarray] = []
    weights = np.zeros(0)
    surrogate = 0.0
    gap = math.inf
    converged = False
    iterations = 0
    poly_added = False
    for it in range(1, opts.max_iter + 1):
        iterations = it
        g = obj.grad(x)
        gap = _fermat_gap(x, g, gamma, spec)
        if gap <= opts.tol:
            converged = True
            break
        if float(np.abs(g).max()) > 0 and top_norm(g, spec) > gamma * 1e-12:
            atom = lmo_sp_ball(-g, spec)
        else:
            atom = None
        alpha, beta = _plane_search(obj, x, surrogate, atom, gamma)
        weights = weights * (1.0 - beta)
        x = (1.0 - beta) * x
        surrogate = (1.0 - beta) * surrogate
        if atom is not None and alpha > 0.0:
            key = None
            for j, a in enumerate(atoms):
                if float(np.max(np.abs(a - atom))) < 1e-12:
                    key = j
                    break
            if key is None:
                atoms.append(atom)
                weights = np.append(weights, alpha)
            else:
                weights[key] += alpha
            x = x + alpha * atom
            surrogate += alpha
        if atoms and (it % opts.corrective_every == 0):
            # polytopal balls at desk scale: let the master see every vertex
            if not poly_added:
                poly_added = True
                extra = _polytope_atoms(d, spec)
                if extra is not None:
                    known = {tuple(np.round(a, 9)) for a in atoms}
                    for a in extra:
                        if tuple(np.round(a, 9)) not in known:
                            atoms.append(a)
                            weights = np.append(weights, 0.0)
            weights = _master_weights(obj, atoms, weights, gamma, opts.master_max_iter)
            keep = weights > 1e-14
            atoms = [a for a, k in zip(atoms, keep) if k]
            weights = weights[keep]
            x = (
                np.column_stack(atoms) @ weights if atoms else np.zeros(d)
            )
            surrogate = float(weights.sum())
            if 1 < spec.p < math.inf and atoms:
                polished = _pattern_polish(obj, x, gamma, spec)
                if polished is not x:
                    ksv = ksupport_value(polished, spec)
                    if ksv > 0.0:
                        x = polished
                        atoms = [polished / ksv]
                        weights = np.array([ksv])
                        surrogate = ksv
    g = obj.grad(x)
    gap = _fermat_gap(x, g, gamma, spec)
    if gap <= opts.tol:
        converged = True
    # tie detection in the dual vector must not be finer than the achieved
    # accuracy, else tied coordinates carrying mass of x fall out of the bound
    tie_abs = max(DEFAULT_TOL.abs, 200.0 * gap, 1e-8 * top_norm(g, spec))
    try:
        ident = identified_support(x, -g, spec, Tolerance(abs=tie_abs, rel=DEFAULT_TOL.rel))
        supports, unique, bound = ident.supports, ident.unique, ident.bound
    except ZeroGradientError:
        supports, unique, bound = (), None, ()
    except ScaleLimitError:
        # tie group too wide to enumerate (can happen far from convergence);
        # fall back to the trivial, always-valid bound
        supports, unique, bound = (), None, tuple(range(1, d + 1))
    objective = obj.value(x) + gamma * ksupport_value(x, spec)
    return SolveReport(
        x_star=x,
        objective=objective,
        fw_gap=gap,
        iterations=iterations,
        converged=converged,
        identified_supports=supports,
        unique_support=unique,
        support_bound=bound,
    )
