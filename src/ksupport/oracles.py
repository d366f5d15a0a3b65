"""Brute-force ground truth used by the test and verification suites.

Everything here is deliberately simple and exhaustive: the scans over
explicit lists of vertices, supports and atoms pick their maximizers with
one argmax, :func:`_argmax`; beside them sit closed-form soft thresholding,
sampled gauge bounds by linear programming, Dykstra's alternating
projections over all C(d,k) cylinders of the top-norm ball, projected
gradient ascent on that ball, the decomposition program over all C(d,k)
blocks, an exact-rational double description (vertex and facet enumeration,
and both p = inf balls built with it), and the face lattice of a polytope
as the closure of its facets under intersection.  These never call the
analytic paths they validate.  Dykstra projects onto each cylinder with
:func:`ksupport.norms.project_lq_ball`, which the tests check on its own;
dual ascent shares with :func:`ksupport.norms.ksupport_norm` only the
closed forms at p = 1 and p = inf and the primal decomposition behind its
upper bound; the double description shares with :mod:`ksupport.polytopes`
only the generator lists, the input guard and the exact rank.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Sequence

import numpy as np

from .core import (
    ConvergenceError,
    InvalidInputError,
    ScaleLimitError,
    ZeroVectorError,
    as_vector,
    k_subsets,
)
from .norms import (
    EvalReport,
    NormSpec,
    _lp_of_abs,
    ksupport_decomposition,
    ksupport_norm,
    lp_norm,
    project_lq_ball,
    top_norm,
)
from .polytopes import (
    Halfspace,
    RationalPolytope,
    Vec,
    _check_scale,
    _cube_corners,
    _dot,
    _rank,
    _signed_units,
    affine_rank,
)

__all__ = [
    "OracleReport",
    "atomset_face",
    "brute_exposed_face",
    "brute_face_lattice",
    "brute_optimal_supports",
    "dd_balls",
    "dykstra_top_ball",
    "dual_ascent_ksupport",
    "facet_enumeration",
    "ksupport_norm_oracle",
    "lasso_closed_form",
    "sampled_gauge_upper_bound",
    "sampled_exposed_face",
    "vertex_enumeration",
]


@dataclass(frozen=True)
class OracleReport:
    """Payload of a brute-force computation plus its reproducibility data."""

    payload: Any
    method: str
    params: dict


def _argmax(items: Iterable, score, slack=0) -> list:
    """The items whose score is within ``slack`` of the best, in input order.

    At ``slack = 0`` the comparison is exact, so Fraction scores stay exact.
    """
    items = list(items)
    scores = [score(x) for x in items]
    best = max(scores)
    return [x for x, s in zip(items, scores) if s >= best - slack]


def _restrict(v: Sequence, K: tuple[int, ...]) -> tuple:
    # pi_K v; 0 * v[i] keeps the coordinate type (Fraction stays Fraction)
    members = set(K)
    return tuple(c if i in members else 0 * c for i, c in enumerate(v, start=1))


def brute_exposed_face(
    vertices: Sequence[Sequence], y: Sequence, tol: float = 1e-9
) -> list[tuple]:
    """Vertices maximizing ``<v, y>`` within ``tol`` of the maximum.

    The coordinates keep their type; with Fractions and ``tol = 0`` the
    argmax is exact.
    """
    verts = [tuple(v) for v in vertices]
    if not verts:
        raise InvalidInputError("empty vertex list")
    y = tuple(y)
    return _argmax(verts, lambda v: _dot(v, y), tol)


def atomset_face(
    atoms: Sequence[Sequence],
    k: int,
    y: Sequence,
    tol: float = 0,
):
    """Sparse-atom face of ``conv(union of pi_K(atoms))`` exposed by ``y``.

    Scans every support K with ``|K| <= k``: the optimal supports maximize
    ``max_{x in atoms} <x, pi_K y>`` and the returned points are the
    projections onto each optimal support of the atoms attaining that
    maximum.  The exposed face itself is the convex hull of the returned
    points.  Works on exact (Fraction) or float coordinates; ``tol = 0``
    means exact comparisons.

    Returns ``(points, optimal_supports)``.
    """
    atoms = [tuple(a) for a in atoms]
    if not atoms:
        raise InvalidInputError("atom set must be nonempty")
    d = len(atoms[0])
    if any(len(a) != d for a in atoms) or len(y) != d:
        raise InvalidInputError("dimension mismatch between atoms and dual vector")
    y = tuple(y)

    def score(K):
        py = _restrict(y, K)
        return max(_dot(a, py) for a in atoms)

    winners = _argmax(k_subsets(d, k, at_most=True), score, tol)
    points: list[tuple] = []
    for K in winners:
        py = _restrict(y, K)
        for a in _argmax(atoms, lambda a: _dot(a, py), tol):
            pa = _restrict(a, K)
            if all(max(abs(u - v) for u, v in zip(pa, other)) > tol for other in points):
                points.append(pa)
    return sorted(points), tuple(winners)


def _q_norm(vals: Sequence[float], q: float) -> float:
    if not vals:
        return 0.0
    if math.isinf(q):
        return max(abs(v) for v in vals)
    if q == 1:
        return sum(abs(v) for v in vals)
    m = max(abs(v) for v in vals)
    if m == 0.0:
        return 0.0
    return m * sum((abs(v) / m) ** q for v in vals) ** (1.0 / q)


def brute_optimal_supports(
    y: Sequence[float],
    spec: NormSpec,
    tol: float = 1e-9,
) -> tuple[tuple[int, ...], ...]:
    """Exhaustive argmax of ``||pi_K y||_q`` over every K with 1 <= |K| <= k.

    Returns every maximizer within ``tol`` (including non-minimal ones
    for q = inf, where the argmax family is closed upward).
    """
    arr = as_vector(y)
    d = arr.size
    if spec.k > d:
        raise InvalidInputError(f"k={spec.k} exceeds dimension {d}")
    if d > 16:
        raise ScaleLimitError("brute support scan limited to d <= 16")
    if float(np.abs(arr).max()) <= tol:
        raise ZeroVectorError("optimal supports are undefined for the zero vector")
    supports = k_subsets(d, spec.k, at_most=True)[1:]
    return tuple(_argmax(supports, lambda K: _q_norm([arr[i - 1] for i in K], spec.q), tol))


def lasso_closed_form(a: Sequence[float], gamma: float) -> np.ndarray:
    """Minimizer of ``0.5 ||x - a||^2 + gamma ||x||_1``: soft thresholding."""
    arr = as_vector(a)
    if gamma < 0:
        raise InvalidInputError("gamma must be nonnegative")
    return np.sign(arr) * np.maximum(np.abs(arr) - gamma, 0.0)


def _to_sphere(g: np.ndarray, p: float) -> np.ndarray:
    # every nonzero row scaled to unit lp norm; zero rows stay zero
    if math.isinf(p):
        scale = np.abs(g).max(axis=1)
    else:
        scale = (np.abs(g) ** p).sum(axis=1) ** (1.0 / p)
    scale[scale == 0.0] = 1.0
    return g / scale[:, None]


def _sphere_points(rng: np.random.Generator, n: int, dim: int, p: float) -> np.ndarray:
    g = rng.standard_normal((n, dim))
    g[np.all(g == 0.0, axis=1)] = 1.0
    return _to_sphere(g, p)


def sampled_gauge_upper_bound(
    x: Sequence[float],
    spec: NormSpec,
    atom_samples: int = 20_000,
    seed: int = 0,
) -> OracleReport:
    """Upper bound on the k-support norm by a gauge LP over sampled atoms.

    Samples k-sparse points of the source-norm unit sphere, always including
    the signed coordinate vectors, and minimizes the total weight of a
    nonnegative combination reproducing ``x``.  Converges to the norm from
    above with sample density.  Desk scale: d <= 4.
    """
    from scipy.optimize import linprog  # the only scipy user; kept off ``import ksupport``

    arr = as_vector(x)
    d = arr.size
    if spec.k > d:
        raise InvalidInputError(f"k={spec.k} exceeds dimension {d}")
    if d > 4:
        raise ScaleLimitError("sampled gauge bound limited to d <= 4")
    params = {"d": d, "k": spec.k, "p": spec.p, "atom_samples": atom_samples, "seed": seed}
    if float(np.abs(arr).max()) == 0.0:
        return OracleReport(0.0, "sampled_gauge_lp", params)
    rng = np.random.default_rng(seed)
    supports = list(itertools.combinations(range(d), spec.k))
    per = max(1, atom_samples // len(supports))
    cols = []
    for K in supports:
        pts = _sphere_points(rng, per, spec.k, spec.p)
        block = np.zeros((pts.shape[0], d))
        block[:, list(K)] = pts
        cols.append(block)
    for i in range(d):
        e = np.zeros((2, d))
        e[0, i] = 1.0
        e[1, i] = -1.0
        cols.append(e)
    atoms = np.vstack(cols)
    res = linprog(
        np.ones(atoms.shape[0]),
        A_eq=atoms.T,
        b_eq=arr,
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise InvalidInputError("gauge LP infeasible for the sampled atom set")
    value = float(res.fun)
    return OracleReport(value, "sampled_gauge_lp", params)


def sampled_exposed_face(
    y: Sequence[float],
    spec: NormSpec,
    n_atoms: int = 100_000,
    seed: int = 0,
    rounds: int = 10,
) -> OracleReport:
    """Brute-force face finder: argmax of ``<., y>`` over sampled sparse atoms.

    Allocates the atom budget across every size-k support and across
    progressively narrowing sampling rounds around the per-support incumbent
    (the objective restricted to one support is linear, hence unimodal on
    the sphere patch, so refinement cannot be trapped).  Returns the sampled
    argmax points of every support whose maximum ties the global one, plus
    the best value found.
    """
    arr = as_vector(y)
    d = arr.size
    if spec.k > d:
        raise InvalidInputError(f"k={spec.k} exceeds dimension {d}")
    if float(np.abs(arr).max()) == 0.0:
        raise ZeroVectorError("face sampling needs a nonzero dual vector")
    rng = np.random.default_rng(seed)
    supports = list(itertools.combinations(range(d), spec.k))
    per = max(30, n_atoms // (len(supports) * rounds))
    best_pts: list[np.ndarray | None] = [None] * len(supports)
    best_vals = np.full(len(supports), -np.inf)
    for j, K in enumerate(supports):
        yk = arr[list(K)]
        incumbent = None
        for t in range(rounds):
            if incumbent is None:
                pts = _sphere_points(rng, per, spec.k, spec.p)
            else:
                step = 0.35**t * rng.standard_normal((per, spec.k))
                pts = _to_sphere(incumbent[None, :] + step, spec.p)
            vals = pts @ yk
            i = int(np.argmax(vals))
            if vals[i] > best_vals[j]:
                best_vals[j] = float(vals[i])
                incumbent = pts[i]
        full = np.zeros(d)
        full[list(K)] = incumbent
        best_pts[j] = full
    top = float(best_vals.max())
    winners = [
        best_pts[j]
        for j in range(len(supports))
        if best_vals[j] >= top - 1e-7 * max(1.0, abs(top))
    ]
    points: list[np.ndarray] = []
    for w in winners:
        if all(float(np.max(np.abs(w - o))) > 1e-6 for o in points):
            points.append(w)
    params = {"d": d, "k": spec.k, "p": spec.p, "n_atoms": n_atoms, "seed": seed, "rounds": rounds}
    return OracleReport({"points": points, "value": top}, "sampled_face_argmax", params)


def dykstra_top_ball(
    y0: Sequence[float],
    spec: NormSpec,
    tol: float = 1e-9,
    max_sweeps: int = 100_000,
) -> np.ndarray:
    """Euclidean projection onto ``{ y : top_norm(y, spec) <= 1 }`` by Dykstra.

    The ball is the intersection of the C(d,k) cylinders
    ``{ ||pi_K y||_q <= 1 }``; Dykstra's alternating projections over them
    converge to the projection.  A sweep ends the iteration only when it
    changes no intermediate iterate and no correction by more than
    ``tol``: the iterate at the end of a sweep can repeat while the
    corrections still move.  Raises :class:`ConvergenceError` at the cap.
    Desk scale: C(d,k) <= 20 000.
    """
    y = as_vector(y0)
    d = y.size
    spec.check_dim(d)
    if top_norm(y, spec) <= 1.0:
        return y.copy()
    if math.comb(d, spec.k) > 20_000:
        raise ScaleLimitError(f"C({d},{spec.k}) cylinders exceed the desk-scale guard")
    supports = [np.array(K, dtype=int) - 1 for K in k_subsets(d, spec.k)]
    x = y.copy()
    corr = np.zeros((len(supports), spec.k))
    for _ in range(max_sweeps):
        moved = 0.0
        for j, idx in enumerate(supports):
            v = x[idx] + corr[j]
            w = project_lq_ball(v, spec.q)
            moved = max(moved, float(np.max(np.abs(w - x[idx]))), float(np.max(np.abs(v - w - corr[j]))))
            corr[j] = v - w
            x[idx] = w
        if moved <= tol:
            return x
    raise ConvergenceError("Dykstra projection did not converge within the sweep cap")


def dual_ascent_ksupport(
    x: Sequence[float],
    spec: NormSpec,
    tol: float = 1e-9,
    max_iter: int = 5000,
) -> EvalReport:
    """k-support norm by full-space projected gradient ascent.

    Iterates ``y <- proj(y + x / ||x||_2)`` with the Dykstra projection onto
    the top ball, from the warm start ``sign(x) |x|^{q/p}`` normalized to the
    ball boundary.  The linear objective makes every fixed point a global
    maximizer.  The unreduced cross-check of the symmetry reduction in
    :func:`ksupport.norms.ksupport_norm`; closed-form cases (p = 1, p = inf)
    are passed to it.  The value is the pairing with the final y, and the
    upper bound sums the weighted lp norms of the primal decomposition's
    atoms.  Raises :class:`ConvergenceError` at the cap.
    """
    arr = as_vector(x)
    spec.check_dim(arr.size)
    p = spec.p
    if not 1 < p < math.inf:
        return ksupport_norm(arr, spec)
    if float(np.abs(arr).max()) == 0.0:
        return EvalReport(0.0, "dual_ascent")
    q = spec.q
    y = np.sign(arr) * np.abs(arr) ** (q / p)
    y = y / top_norm(y, spec)
    eta = 1.0 / float(np.linalg.norm(arr))
    converged = False
    for it in range(max_iter):
        y_new = dykstra_top_ball(y + eta * arr, spec, min(tol, 1e-10))
        move = float(np.max(np.abs(y_new - y)))
        y = y_new
        if move < max(tol, 1e-11) and it >= 2:
            converged = True
            break
    if not converged:
        raise ConvergenceError("dual ascent did not converge within the iteration cap")
    scale = max(1.0, top_norm(y, spec))
    lower = float(arr @ (y / scale))
    weights, atoms = ksupport_decomposition(arr, spec)
    upper = float(sum(w * lp_norm(atom, p) for w, atom in zip(weights, atoms)))
    return EvalReport(lower, "dual_ascent", max(0.0, upper - lower))


def ksupport_norm_oracle(
    x: Sequence[float],
    spec: NormSpec,
    target_gap: float = 1e-8,
    max_iter: int = 200_000,
) -> EvalReport:
    """Independent k-support value via the decomposition program.

    Solves ``min sum_K ||z_K||_p`` over all C(d,k) blocks supported on the
    size-k sets with ``sum_K z_K = x`` by proximal minimization of the
    augmented Lagrangian in Jacobi sharing form.  The blocks are the rows of
    one ``(m, k)`` array, and every pass updates all of them at once against
    the averaged residual: the lp-norm prox of each row, by the Moreau
    identity ``v - project_lq_ball(v, q)`` (a soft threshold at p = 1), then
    the multiplier.  The decomposition value plus an l1 patch of the
    residual is the upper bound; the multiplier, rescaled onto the top-ball
    boundary, is a feasible dual point pairing to the lower bound.  Stops
    once the certified gap is below ``target_gap``, else raises
    :class:`ConvergenceError`.

    Desk scale only: d <= 8 and k <= 3.
    """
    arr = as_vector(x)
    d = arr.size
    spec.check_dim(d)
    if d > 8 or spec.k > 3:
        raise ScaleLimitError("decomposition oracle is limited to d <= 8, k <= 3")
    p, q, k = spec.p, spec.q, spec.k
    scale = float(np.abs(arr).max())
    if scale == 0.0:
        return EvalReport(0.0, "decomposition_oracle", 0.0)
    xs = arr / scale
    blocks = np.array(k_subsets(d, k)) - 1
    m = blocks.shape[0]
    flat = blocks.ravel()
    z = np.zeros((m, k))
    zsum = np.zeros(d)  # the column sums of the blocks, in ascending block order
    u = np.zeros(d)
    target = target_gap / scale
    upper = float(np.abs(xs).sum())
    lower = 0.0
    for it in range(max_iter):
        base = xs / m - u - zsum / m
        v = z + base[blocks]
        z = v - project_lq_ball(v, q)
        zsum = np.bincount(flat, z.ravel(), minlength=d)
        u = u + zsum / m - xs / m
        if it % 20 == 19 or it == max_iter - 1:
            for cand in (m * u, -m * u):
                t = top_norm(cand, spec)
                if t > 0:
                    lower = max(lower, float(xs @ cand) / t)
            cand_up = sum(_lp_of_abs(row, p) for row in np.abs(z))
            cand_up += float(np.abs(xs - zsum).sum())
            upper = min(upper, cand_up)
            if upper - lower <= target:
                return EvalReport(
                    scale * upper, "decomposition_oracle", scale * max(0.0, upper - lower)
                )
    raise ConvergenceError(
        f"decomposition oracle gap {scale * (upper - lower):.3e} above target {target_gap:.1e}"
    )


def _frac_vec(seq: Iterable) -> Vec:
    return tuple(Fraction(a) for a in seq)


def vertex_enumeration(
    halfspaces: Sequence[Halfspace], d: int, box: Fraction | int = 4
) -> tuple[Vec, ...]:
    """Vertices of ``{ x : <a, x> <= b for all (a, b) }`` (incremental DD).

    The polytope must be full-dimensional and strictly contained in the
    starting box ``[-box, box]^d``.  Each halfspace is inserted in turn; cut
    points arise on edges, detected exactly by the rank of the common active
    normals.
    """
    box = Fraction(box)
    hs: list[Halfspace] = []
    for i in range(d):
        e = [Fraction(0)] * d
        e[i] = Fraction(1)
        hs.append((tuple(e), box))
        e = [Fraction(0)] * d
        e[i] = Fraction(-1)
        hs.append((tuple(e), box))
    hs.extend((_frac_vec(n), Fraction(b)) for n, b in halfspaces)

    verts: list[Vec] = [
        tuple(Fraction(s) * box for s in signs) for signs in itertools.product((-1, 1), repeat=d)
    ]
    act: list[set[int]] = [
        {j for j in range(2 * d) if _dot(hs[j][0], v) == hs[j][1]} for v in verts
    ]

    for idx in range(2 * d, len(hs)):
        a, b = hs[idx]
        vals = [b - _dot(a, v) for v in verts]
        if all(v >= 0 for v in vals):
            for i, v in enumerate(vals):
                if v == 0:
                    act[i].add(idx)
            continue
        ins = [i for i, v in enumerate(vals) if v > 0]
        ons = [i for i, v in enumerate(vals) if v == 0]
        outs = [i for i, v in enumerate(vals) if v < 0]
        new_pts: list[Vec] = []
        new_act: list[set[int]] = []
        seen: set[Vec] = set()
        for i in ins:
            for j in outs:
                common = act[i] & act[j]
                if len(common) < d - 1:
                    continue
                if _rank([hs[c][0] for c in common], d) != d - 1:
                    continue
                u, w = verts[i], verts[j]
                lam = vals[i] / (vals[i] - vals[j])
                x = tuple(ut + lam * (wt - ut) for ut, wt in zip(u, w))
                if x in seen:
                    continue
                seen.add(x)
                tight = {c for c in range(idx + 1) if _dot(hs[c][0], x) == hs[c][1]}
                new_pts.append(x)
                new_act.append(tight)
        keep_idx = ins + ons
        verts = [verts[i] for i in keep_idx] + new_pts
        act = [act[i] | ({idx} if i in ons else set()) for i in keep_idx] + new_act

    for i, v in enumerate(verts):
        if any(j < 2 * d for j in act[i]):
            raise InvalidInputError("polytope is not strictly inside the starting box")
    return tuple(sorted(set(verts)))


def facet_enumeration(vertices: Sequence[Vec], box: Fraction | int = 16) -> tuple[Halfspace, ...]:
    """Facets ``<n, x> <= 1`` of ``conv(vertices)`` (0 must be interior).

    Works through polarity: the facet normals are the vertices of the polar
    polytope ``{ y : <v, y> <= 1 }``, enumerated by the DD kernel.  ``box``
    must exceed the sup-norm radius of the polar.
    """
    vertices = [_frac_vec(v) for v in vertices]
    d = len(vertices[0])
    polar_hs = [(v, Fraction(1)) for v in vertices]
    normals = vertex_enumeration(polar_hs, d, box=box)
    return tuple(sorted((n, Fraction(1)) for n in normals))


def brute_face_lattice(poly: RationalPolytope) -> tuple[tuple[tuple[Vec, ...], int], ...]:
    """All proper nonempty faces as (vertex list, dimension) records.

    Faces are the closure under intersection of the facet vertex sets
    (every proper face of a polytope is the intersection of the facets
    containing it).
    """
    verts = poly.vertices
    facet_sets = []
    for n, b in poly.facet_inequalities:
        members = frozenset(i for i, v in enumerate(verts) if _dot(n, v) == b)
        if members:
            facet_sets.append(members)
    faces: set[frozenset[int]] = set(facet_sets)
    frontier = set(facet_sets)
    while frontier:
        nxt: set[frozenset[int]] = set()
        for F in frontier:
            for G in facet_sets:
                H = F & G
                if H and H not in faces:
                    faces.add(H)
                    nxt.add(H)
        frontier = nxt
    out = []
    for F in faces:
        pts = tuple(sorted(verts[i] for i in F))
        out.append((pts, affine_rank(pts)))
    return tuple(sorted(out))


def dd_balls(d: int, k: int) -> tuple[RationalPolytope, RationalPolytope]:
    """:func:`ksupport.polytopes.top1k_ball` and its polar
    :func:`ksupport.polytopes.ksup_inf_ball` by double description.

    The facets of the top-(1,k) ball are those of the hull of every
    generator, the signed units and the corners of ``{-1/k, 1/k}^d``; its
    vertices are enumerated back from the facets, which prunes the redundant
    generators.  The polar halfspaces ``<v, x> <= 1`` of the generators are
    the H-description ``|x_i| <= 1``, ``<s, x> <= k`` of the k-support ball,
    so one run gives both balls: the polar's vertices are the facet normals
    and its facet normals the vertices.
    """
    _check_scale(d, k)
    cand = _signed_units(d) + [tuple(c / k for c in corner) for corner in _cube_corners(d)]
    facets = facet_enumeration(cand, box=Fraction(4 * d))
    verts = vertex_enumeration(facets, d, box=Fraction(2))
    polar = RationalPolytope(tuple(n for n, _ in facets), tuple((v, Fraction(1)) for v in verts))
    return RationalPolytope(verts, facets), polar
