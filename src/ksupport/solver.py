"""Penalized minimization ``f(x) + gamma * ksupport(x)`` by accelerated proximal gradient.

The prox of the k-support norm is, through the Moreau identity, the exact
projection onto the top-norm ball (:func:`ksupport.norms.project_top_ball`),
so FISTA with adaptive restart solves the penalized problem directly.  The
optimality certificate and the support identification read only ``x*`` and
the dual vector ``-grad f(x*)``, so they do not depend on the solver.  The
linear minimization oracle over the k-support ball (:func:`lmo_sp_ball`) is
the exposed-face vertex of a dual vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import InvalidInputError, Tolerance, ZeroVectorError, as_vector
from .faces import SupportLattice, support_lattice, v_p
from .norms import NormSpec, ksupport_value, project_top_ball, top_norm

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
    """``tol``: stop once the relative Fermat gap (``SolveReport.fw_gap``) is
    at most this; ``max_iter``: the iteration cap."""

    tol: float = 1e-6
    max_iter: int = 50_000


@dataclass(frozen=True)
class SolveReport:
    """Outcome of :func:`solve_penalized`.

    ``x_star``: the last iterate; ``objective``: its ``f + gamma * ksupport``;
    ``fw_gap``: the relative Fermat gap there, in units of gamma, the
    residual that ``certify_optimality`` reads (the name is kept from an
    earlier Frank-Wolfe solver); ``iterations``: iterations run;
    ``converged``: the gap reached ``SolveOptions.tol``; ``stop``: why the
    iterations ended: ``"tol"`` (converged), ``"fixed_point"`` (the
    prox-gradient step left x exactly where it was, short of the tolerance)
    or ``"max_iter"``.
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

    @property
    def unique_support(self) -> tuple[int, ...] | None:
        return None if self.identified_supports is None else self.identified_supports.unique

    @property
    def support_bound(self) -> tuple[int, ...]:
        return () if self.identified_supports is None else self.identified_supports.bound


def lmo_sp_ball(
    u: Sequence[float],
    spec: NormSpec,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Extreme point of the k-support unit ball maximizing ``<a, u>``.

    The support K is the lexicographically first member of largest size in
    the exact-tie support lattice of ``u``: k largest entries, or for p = 1
    one largest entry.  On K the point is the exposed-face vertex
    ``v_p(pi_K u)`` for 1 < p < inf and the sign pattern of ``u`` for p = 1
    and p = inf.  Satisfies ``<lmo(u), u> = top_norm(u)`` by construction.
    Passing ``rng`` randomizes the tie-break among exactly tied optimal
    supports (for stress tests); by default it is deterministic.
    """
    arr = as_vector(u)
    spec.check_dim(arr.size)
    k, a = (1 if spec.p == 1 else spec.k), np.abs(arr)
    level = np.partition(a, a.size - k)[a.size - k]
    if level == 0.0 and not a.any():
        raise ZeroVectorError("lmo_sp_ball requires a nonzero direction")
    core, tied = np.flatnonzero(a > level), np.flatnonzero(a == level)
    take = k - core.size
    if rng is not None and tied.size > take:
        tied = rng.choice(tied, size=take, replace=False)
    idx = np.concatenate((core, tied[:take]))
    out = np.zeros(arr.size)
    if 1 < spec.p < math.inf:
        out[idx] = arr[idx]
        return v_p(out, spec.p)
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


def _fermat_gap(x: np.ndarray, g: np.ndarray, gamma: float, spec: NormSpec) -> float:
    """Relative Fermat residual of ``f + gamma * ksupport`` at x, with ``g = grad f(x)``.

    ``max(top_norm(g) - gamma, gamma - <-g, x> / ksupport(x))_+ / gamma``, the
    second term for x != 0 only: -g must lie in gamma times the top-norm ball
    and expose x.  By Hoelder's inequality it is 0 exactly at an optimum, and
    it does not change when f and gamma are scaled together or x* is scaled.
    """
    r = top_norm(g, spec) - gamma
    if x.any():
        r = max(r, gamma + float(g @ x) / ksupport_value(x, spec))
    return max(r, 0.0) / gamma


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
    if gamma <= 0:
        raise InvalidInputError("gamma must be positive")
    xarr = as_vector(x)
    spec.check_dim(xarr.size)
    r = _fermat_gap(xarr, obj.grad(xarr), gamma, spec)
    return gamma * r <= tol.abs + tol.rel * gamma, r


# ---------------------------------------------------------------------------
# accelerated proximal gradient


def _prox(v: np.ndarray, lam: float, spec: NormSpec) -> np.ndarray:
    """prox of ``lam * ksupport`` at v: ``v - lam * project_top_ball(v / lam)``.

    Entries the projection leaves unchanged are exactly zero in the prox.
    """
    u = v / lam
    w = project_top_ball(u, spec)
    return np.where(w == u, 0.0, v - lam * w)


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
    rather than raised.
    """
    if gamma <= 0:
        raise InvalidInputError("gamma must be positive")
    opts = opts or SolveOptions()
    d = obj.dim
    spec.check_dim(d)
    backtrack = obj.quad is None or obj.lipschitz is None
    affine = obj.quad is not None  # the gradient is affine in x
    step = 1.0 / obj.lipschitz if obj.lipschitz else 1.0
    x = z = np.zeros(d)
    g = gz = obj.grad(x)
    momentum = 1.0
    stop = "max_iter"
    iterations = 0
    for it in range(1, opts.max_iter + 1):
        iterations = it
        if _fermat_gap(x, g, gamma, spec) <= opts.tol:
            break
        while True:
            x_new = _prox(z - step * gz, step * gamma, spec)
            move = x_new - z
            g_new = obj.grad(x_new)
            # the quadratic upper bound of f holds along the move (by convexity);
            # gradients keep the test clear of the rounding of f near the optimum
            if not backtrack or float((g_new - gz) @ move) <= 0.5 / step * float(move @ move):
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
            gz = g_new + beta * (g_new - g) if affine else obj.grad(z)
            momentum = nxt
        x, g = x_new, g_new
    gap = _fermat_gap(x, g, gamma, spec)
    converged = gap <= opts.tol
    if converged:
        stop = "tol"
    # tie detection in the dual vector must not be finer than the achieved
    # accuracy, else tied coordinates carrying mass of x fall out of the bound;
    # an accuracy that cannot tell -g from a constant vector ties every coordinate
    gmax = float(np.abs(g).max())
    lattice = None
    if gmax > 0.0:
        tie = max(200.0 * gamma * gap, 1e-8 * top_norm(g, spec)) / gmax
        lattice = support_lattice(np.ones(d), spec) if tie >= 1.0 else identified_support(x, -g, spec, tie)
    objective = obj.value(x) + gamma * ksupport_value(x, spec)
    return SolveReport(
        x_star=x,
        objective=objective,
        fw_gap=gap,
        iterations=iterations,
        converged=converged,
        identified_supports=lattice,
        stop=stop,
    )
