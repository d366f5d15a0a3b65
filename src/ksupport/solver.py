"""Penalized minimization ``f(x) + gamma * ksupport(x)`` by accelerated proximal gradient.

The prox of the k-support norm is, through the Moreau identity, what the exact
projection onto the top-norm ball (:func:`ksupport.norms.project_top_ball`)
removes, written from its level, so FISTA with adaptive restart solves the
penalized problem directly.  The optimality certificate and the support
identification read only ``x*`` and the dual vector ``-grad f(x*)``, so they
do not depend on the solver.  The linear minimization oracle over the
k-support ball (:func:`lmo_sp_ball`) is the exposed-face vertex of a dual vector.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import InvalidInputError, Tolerance, ZeroVectorError, as_vector
from .faces import SupportLattice, support_lattice, v_p
from .norms import NormSpec, _ksupport, _level_excess, _top_ball_level, _top_norm, ksupport_value, top_norm

__all__ = [
    "SmoothObjective",
    "SolveOptions",
    "SolveReport",
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

    ``lipschitz`` is an estimate of the gradient Lipschitz constant.
    ``quad`` carries ``(A, b)`` when the objective is exactly
    ``0.5 * ||A x - b||^2``; then ``lipschitz`` is exact and the solver takes
    the fixed step ``1 / lipschitz``, else it backtracks.
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
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise InvalidInputError("A and b must be finite")

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
    if not np.isfinite(X).all():
        raise InvalidInputError("X must be finite")
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


def check_gradient(obj: SmoothObjective, points: Sequence[Sequence[float]]) -> float:
    """Max relative error between the gradient oracle and central differences
    of step 1e-6; raises :class:`InvalidInputError` above 1e-4."""
    worst = 0.0
    for pt in points:
        x = as_vector(pt)
        g = obj.grad(x)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = 1e-6
            fd = (obj.value(x + e) - obj.value(x - e)) / 2e-6
            scale = max(1.0, abs(fd), abs(g[i]))
            worst = max(worst, abs(fd - g[i]) / scale)
    if worst > 1e-4:
        raise InvalidInputError(f"gradient oracle disagrees with finite differences ({worst:.2e})")
    return worst


@dataclass(frozen=True)
class SolveOptions:
    """``tol``: stop once the relative Fermat gap (``SolveReport.fw_gap``) is
    at most this, finite and at least 0; ``max_iter``: the iteration cap, an
    integer at least 0."""

    tol: float = 1e-6
    max_iter: int = 50_000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise InvalidInputError(f"tol={self.tol} must be finite and nonnegative")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 0:
            raise InvalidInputError(f"max_iter={self.max_iter} must be a nonnegative integer")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of :func:`solve_penalized`.

    ``x_star``: the last iterate; ``objective``: its ``f + gamma * ksupport``;
    ``fw_gap``: the relative Fermat gap there, in units of gamma, the
    residual that ``certify_optimality`` reads (the name is kept from an
    earlier Frank-Wolfe solver); ``iterations``: iterations run;
    ``converged``: the gap reached ``SolveOptions.tol``; ``stop``: why the
    iterations ended: ``"tol"`` (converged), ``"face"`` (converged: the
    descent on the face read from the iterate reached a point that met the
    tolerance, for a least-squares f at p = inf), ``"fixed_point"`` (the
    prox-gradient step left x exactly where it was, short of the tolerance)
    or ``"max_iter"``; ``face_sizes``: ``(|T|, |F|)`` of the face a
    ``"face"`` stop ended on (T the entries tied at max|x|, F the rest of the
    support), None for every other stop.
    ``identified_supports``: the lattice of optimal supports of
    ``-grad f(x_star)``, None for a zero gradient; ``unique_support``: its
    single member, if any; ``support_bound``: its union (empty for a zero
    gradient), which bounds ``supp(x_star)`` at an optimum.
    """

    x_star: np.ndarray
    objective: float
    fw_gap: float
    iterations: int
    converged: bool
    identified_supports: SupportLattice | None
    stop: str
    face_sizes: tuple[int, int] | None = None

    @property
    def unique_support(self) -> tuple[int, ...] | None:
        return None if self.identified_supports is None else self.identified_supports.unique

    @property
    def support_bound(self) -> tuple[int, ...]:
        return () if self.identified_supports is None else self.identified_supports.bound


def lmo_sp_ball(u: Sequence[float], spec: NormSpec) -> np.ndarray:
    """Extreme point of the k-support unit ball maximizing ``<a, u>``.

    The support K is the lexicographically first member of largest size of
    ``support_lattice(u, spec, 0.0)``: the core plus the first indices of
    the bound outside it, k in all (one for p = 1).  Ties are those of
    :func:`ksupport.core.level_index` at tie 0, that is exact.  On K the
    point is the exposed-face vertex ``v_p(pi_K u)`` for 1 < p < inf and the
    sign pattern of ``u`` (+1 at a zero entry) for p = 1 and p = inf.
    Satisfies ``<lmo(u), u> = top_norm(u)`` by construction.
    """
    arr = as_vector(u)
    spec.check_dim(arr.size)
    if not arr.any():
        raise ZeroVectorError("lmo_sp_ball requires a nonzero direction")
    lattice = support_lattice(arr, spec, 0.0)
    core, free = np.array(lattice.core, dtype=int) - 1, np.zeros(arr.size, dtype=bool)
    free[np.array(lattice.bound, dtype=int) - 1] = True
    free[core] = False
    idx = np.sort(np.concatenate((core, np.flatnonzero(free)[: lattice.sizes[-1] - core.size])))
    out = np.zeros(arr.size)
    if 1 < spec.p < math.inf:
        out[idx] = v_p(arr[idx], spec.p)
    else:
        out[idx] = np.where(arr[idx] >= 0, 1.0, -1.0)
    return out


def identified_support(
    x: Sequence[float], g: Sequence[float], spec: NormSpec, tie: float = 1e-9
) -> SupportLattice:
    """Support identification from the dual vector ``g = -grad f(x)``.

    The lattice of optimal supports of g, with ties within ``tie * max|g|``:
    its union bounds the support of any optimum exposed by g, and a unique
    optimal support certifies a k-sparse optimum.
    """
    xarr = as_vector(x)
    garr = as_vector(g)
    if xarr.size != garr.size:
        raise InvalidInputError("x and g must have the same dimension")
    if not garr.any():
        raise ZeroGradientError("zero gradient: support identification is vacuous")
    return support_lattice(garr, spec, tie)


def _fermat_gap(
    x: np.ndarray, g: np.ndarray, top: float, gamma: float, spec: NormSpec, tol: float = math.inf
) -> float:
    """Relative Fermat residual of ``f + gamma * ksupport`` at x, with ``g = grad f(x)``.

    ``max(top - gamma, gamma - <-g, x> / ksupport(x))_+ / gamma`` with
    ``top = top_norm(g)``, the second term for x != 0 only: -g must lie in
    gamma times the top-norm ball and expose x.  By Hoelder's inequality it
    is 0 exactly at an optimum, and it does not change when f and gamma are
    scaled together or x* is scaled.  Once the first term alone, over gamma,
    exceeds ``tol`` it is returned without ``ksupport(x)``: the residual is
    at least that, so it is above ``tol`` too.  x must be finite and g a
    float vector of its length; a non-finite entry of g gives a non-finite
    ``top`` (:func:`ksupport.norms._top_norm`), which is rejected.
    """
    r = top - gamma
    if not math.isfinite(r):
        raise InvalidInputError("the gradient must be finite, with a finite top norm")
    if r / gamma > tol:
        return r / gamma
    if x.any():
        r = max(r, gamma + float(g @ x) / _ksupport(x, spec, dual=False)[0])
    return max(r, 0.0) / gamma


def _gradient(obj: SmoothObjective, x: np.ndarray) -> np.ndarray:
    """``obj.grad(x)`` as a float array, checked to have x's shape; finiteness is the gap's."""
    g = np.asarray(obj.grad(x), dtype=float)
    if g.shape != x.shape:
        raise InvalidInputError(f"the gradient has shape {g.shape}, expected {x.shape}")
    return g


def _check_gamma(gamma: float) -> None:
    if not (math.isfinite(gamma) and gamma > 0):
        raise InvalidInputError(f"gamma={gamma} must be finite and positive")


def certify_optimality(
    x: Sequence[float],
    obj: SmoothObjective,
    gamma: float,
    spec: NormSpec,
    tol: Tolerance = Tolerance(),
) -> tuple[bool, float]:
    """Check the Fermat condition of ``f + gamma * ksupport`` at ``x``.

    Reads the relative residual r of the solver's stop rule: -grad f(x) must
    lie in gamma times the top-norm ball and, for x != 0, pair with x at
    ``gamma * ksupport(x)``.  Certified when ``gamma * r <= tol.abs +
    tol.rel * gamma``, so a solve that converged at ``SolveOptions.tol`` is
    certified by ``Tolerance(0, tol)``.  Returns (certified, r).
    """
    _check_gamma(gamma)
    xarr = as_vector(x)
    spec.check_dim(xarr.size)
    g = _gradient(obj, xarr)
    r = _fermat_gap(xarr, g, top_norm(g, spec), gamma, spec)
    return gamma * r <= tol.abs + tol.rel * gamma, r


# ---------------------------------------------------------------------------
# accelerated proximal gradient


def _prox(v: np.ndarray, lam: float, spec: NormSpec, theta: float = 0.0) -> tuple[np.ndarray, float]:
    """prox of ``lam * ksupport`` at v: ``v - lam * project_top_ball(v / lam)``, and its level.

    By the Moreau identity, what the projection of ``u = v / lam`` removes, times lam with
    u's signs (:func:`ksupport.norms._level_excess`): exactly zero where it keeps u.  The level
    search starts at ``theta``, the level the last call returned, which carries over between
    iterations since the prox input changes little.  v must be finite; it is not checked here.
    """
    u = v / lam
    a = np.abs(u)
    level = _top_ball_level(a, spec, theta)
    if level is None:  # u lies in the ball
        return np.zeros_like(v), theta
    x = np.copysign(lam * _level_excess(a, *level, spec.q), u)
    x += 0.0  # no -0.0 where the projection keeps a negative entry
    return x, level[0]


_FACE_PERIOD = 10  # iterations between two readings of the face; one read twice running is descended on


def _face_descent(quad: tuple[np.ndarray, np.ndarray], gamma: float, k: int, x: np.ndarray) -> np.ndarray | None:
    """Descend on the ridge face of x for ``0.5 ||A x - b||^2 + gamma * ksupport(x)`` at p = inf.

    The face reads T, the entries tied at M = max|x| (which the prox writes bitwise alike),
    F, the rest of the support, and the signs s.  On a ridge face, ``|T| < k <= |T| + |F|``,
    the norm is both M and ``||x||_1 / k``, so with ``z = (M, |x_F|)`` the objective is
    ``0.5 ||B z - b||^2 + gamma z_0`` subject to ``<c, z> = 0``, with ``B = [A_T s_T, A_F s_F]``
    and ``c = (|T| - k, 1, ..., 1)``.  For |F| > m each move follows -e_0 projected on
    ``null([B; c])``, which keeps ``B z - b`` and lowers M (one (m + 1)-square solve); else it
    is the Newton step of the KKT system (size |F| + 2), the constraint residual restored.
    Each move stops where an F entry reaches 0 (it drops out) or M (it joins T), so there are
    at most |F| + 1 moves, none raising the objective from a point on the face; an unblocked
    Newton step ends on the face minimizer, which is returned.  None off the ridge, when M
    reaches 0, or for a failed or non-finite solve; an x whose ``||x||_1 - k max|x|`` exceeds
    its rounding is off the ridge before any solve.  The point is not checked for optimality
    or descent; the caller does that.
    """
    A, b = quad
    a = np.abs(x)
    if abs(float(a.sum()) - k * float(a.max())) > 4e-16 * a.size * k * float(a.max()):
        return None
    x = x.copy()
    while True:
        a = np.abs(x)
        M = float(a.max())
        tied, free = a == M, (a > 0.0) & (a < M)
        n_tied, n_free = int(np.count_nonzero(tied)), int(np.count_nonzero(free))
        if not (M > 0.0 and n_tied < k <= n_tied + n_free):
            return None
        s = np.sign(x)
        B = np.column_stack((A[:, tied] @ s[tied], A[:, free] * s[free]))
        c = np.concatenate(([n_tied - k], np.ones(n_free)))
        z = np.concatenate(([M], a[free]))
        try:
            if n_free > A.shape[0]:
                C = np.vstack((B, c))
                dz, cap = C.T @ np.linalg.solve(C @ C.T, C[:, 0]), math.inf
                dz[0] -= 1.0
            else:
                kkt = np.zeros((n_free + 2, n_free + 2))
                kkt[:-1, :-1] = B.T @ B
                kkt[:-1, -1] = kkt[-1, :-1] = c
                rhs = np.append(B.T @ (b - B @ z), -float(c @ z))
                rhs[0] -= gamma
                dz, cap = np.linalg.solve(kkt, rhs)[:-1], 1.0
        except np.linalg.LinAlgError:
            return None
        u, v = z[1:], dz[1:]
        with np.errstate(divide="ignore", invalid="ignore"):  # ratio test: first F entry at 0 or at M
            to_zero = np.where(v < 0.0, -u / v, math.inf)
            to_top = np.where(v > dz[0], (M - u) / (v - dz[0]), math.inf)
        i = int(np.argmin(np.minimum(to_zero, to_top)))
        t = min(to_zero[i], to_top[i], cap)
        M = z[0] + t * dz[0]
        if not (math.isfinite(t) and M > 0.0):
            return None
        u = np.clip(u + t * v, 0.0, M)
        if t < cap:
            u[i] = 0.0 if to_zero[i] <= to_top[i] else M
        x[tied] = M * s[tied]
        x[free] = u * s[free] + 0.0  # no -0.0 where an entry drops out
        if t == cap:
            return x if np.isfinite(x).all() else None


def solve_penalized(
    obj: SmoothObjective,
    gamma: float,
    spec: NormSpec,
    opts: SolveOptions | None = None,
) -> SolveReport:
    """FISTA with adaptive restart for ``min f(x) + gamma ksupport(x)``.

    Proximal gradient steps from an extrapolated point, with the momentum
    dropped whenever the step turns against the last move (O'Donoghue and
    Candes' gradient restart).  The step is ``1 / obj.lipschitz`` for a
    quadratic objective; otherwise it starts there (or at 1) and halves
    until the quadratic upper bound holds.  Stops when the relative Fermat
    gap drops below ``opts.tol``, or at an exact fixed point of the step (a
    tolerance below the rounding of ``grad f`` cannot be met); the stop
    reason is on the report, and hitting the iteration cap is flagged there
    rather than raised.  Each prox starts its Newton level search at the
    level of the one before; at q = 1 (p = inf) the search then mostly
    takes one step and, on every input tested, finds the level a cold
    search would, bit for bit.

    For a least-squares f (``obj.quad``) at p = inf and k >= 2 the solve also
    descends on its identified face: every 10th iteration it reads the face
    of x (the signs and the entries tied at max|x|, which the prox writes
    bitwise alike), and from a ridge face unchanged since the reading before
    it runs, once per face, an active-set descent that stays on the face and
    drops or ties one entry per blocked move (:func:`_face_descent`).  If the
    point reached meets ``opts.tol`` the solve returns it with stop
    ``"face"``; if its objective is no higher than x's, FISTA restarts from
    it, momentum dropped; otherwise the iterates go on untouched.  Every
    other solve takes the same iterations as without this check.
    """
    _check_gamma(gamma)
    opts = opts or SolveOptions()
    d = obj.dim
    spec.check_dim(d)
    backtrack = obj.quad is None or obj.lipschitz is None
    affine = obj.quad is not None  # the gradient is affine in x
    step = 1.0 / obj.lipschitz if obj.lipschitz else 1.0
    x = z = np.zeros(d)
    g = gz = _gradient(obj, x)
    momentum = 1.0
    level = 0.0  # of the last prox; 0 starts its first search cold
    finish = obj.quad is not None and spec.q == 1 and spec.k >= 2  # least squares at p = inf

    def energy(v: np.ndarray) -> float:
        return obj.value(v) + gamma * _ksupport(v, spec, dual=False)[0]

    face, tried = None, set()
    stop = "max_iter"
    iterations = 0
    for it in range(1, opts.max_iter + 1):
        iterations = it
        if _fermat_gap(x, g, _top_norm(g, spec), gamma, spec, opts.tol) <= opts.tol:
            break
        if finish and it % _FACE_PERIOD == 0:
            # a face that held for a period is solved on, once
            a = np.abs(x)
            last, face = face, np.sign(x) * (1.0 + (a == a.max()))
            if np.array_equal(face, last) and face.tobytes() not in tried:
                tried.add(face.tobytes())
                y = _face_descent(obj.quad, gamma, spec.k, x)
                if y is not None:
                    gy = obj.grad(y)
                    top = _top_norm(gy, spec)
                    if math.isfinite(top) and _fermat_gap(y, gy, top, gamma, spec, opts.tol) <= opts.tol:
                        x, g, stop = y, gy, "face"
                        break
                    if energy(y) <= energy(x):  # restart from the lower point
                        x = z = y
                        g = gz = gy
                        momentum = 1.0
        while True:
            x_new, level = _prox(z - step * gz, step * gamma, spec, level)
            move = x_new - z
            g_new = obj.grad(x_new)
            # the quadratic upper bound of f holds along the move (by convexity);
            # gradients keep the test clear of the rounding of f near the optimum;
            # a NaN passes, for the gap to reject the gradient
            if not backtrack or not float((g_new - gz) @ move) > 0.5 / step * float(move @ move):
                break
            step *= 0.5
        if not move.any() and np.array_equal(x_new, x):
            stop = "fixed_point"
            break
        if float(move @ (x_new - x)) < 0.0:  # the step opposes the last move
            momentum, z, gz = 1.0, x_new, g_new
        else:
            nxt = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * momentum**2))
            beta = (momentum - 1.0) / nxt
            z = x_new + beta * (x_new - x)
            # the prox does not validate, so a gradient the gap has not read is checked here
            gz = g_new + beta * (g_new - g) if affine else as_vector(obj.grad(z))
            momentum = nxt
        x, g = x_new, g_new
    top = _top_norm(g, spec)
    gap = _fermat_gap(x, g, top, gamma, spec)
    converged = gap <= opts.tol
    if converged and stop != "face":
        stop = "tol"
    # tie detection in the dual vector must not be finer than the achieved
    # accuracy, else tied coordinates carrying mass of x fall out of the bound;
    # an accuracy that cannot tell -g from a constant vector ties every coordinate
    gmax = float(np.abs(g).max())
    lattice = None
    if gmax > 0.0:
        tie = max(200.0 * gamma * gap, 1e-8 * top) / gmax
        lattice = support_lattice(np.ones(d), spec) if tie >= 1.0 else identified_support(x, -g, spec, tie)
    objective = obj.value(x) + gamma * ksupport_value(x, spec)
    face_sizes = None
    if stop == "face":
        n_tied = int(np.count_nonzero(np.abs(x) == np.abs(x).max()))
        face_sizes = (n_tied, int(np.count_nonzero(x)) - n_tied)
    return SolveReport(
        x_star=x,
        objective=objective,
        fw_gap=gap,
        iterations=iterations,
        converged=converged,
        identified_supports=lattice,
        stop=stop,
        face_sizes=face_sizes,
    )
