"""Brute-force ground truth used by the test and verification suites.

Everything here is deliberately simple and exhaustive: the scans over
explicit lists of vertices, supports and atoms pick their maximizers with
one argmax, :func:`_argmax`; beside them sit closed-form soft thresholding,
an exposed face found by sampling sparse atoms, the decomposition program
over all C(d,k) blocks, an exact double description (vertex and facet
enumeration, and both p = inf balls built with it), and the face lattice
of a polytope as the closure of its facets under intersection.  The last
two run on Python integers and take and return rationals.  These never
call the analytic paths they validate.  The support scan scores each
support with the lq norm of ``norms`` and shares nothing with
:func:`ksupport.faces.support_lattice`; the decomposition program reads
from ``norms`` only the lq-ball projection of its prox and the top norm
of its dual bound, never a k-support value; the double description
shares with :mod:`ksupport.polytopes` only the generator lists, the input
guard and the integer rank.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

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
    _project_lq_ball,
    top_norm,
)
from .polytopes import (
    Halfspace,
    RationalPolytope,
    Vec,
    _as_fractions,
    _check_scale,
    _clear,
    _cube_corners,
    _dot,
    _rank,
    _signed_units,
)

__all__ = [
    "atomset_face",
    "brute_exposed_face",
    "brute_face_lattice",
    "brute_optimal_supports",
    "dd_balls",
    "facet_enumeration",
    "ksupport_norm_oracle",
    "lasso_closed_form",
    "sampled_exposed_face",
    "vertex_enumeration",
]


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


_SUPPORT_SCAN_MAX_D = 16  # largest d of brute_optimal_supports


def brute_optimal_supports(y: Sequence[float], spec: NormSpec) -> tuple[tuple[int, ...], ...]:
    """Exhaustive argmax of ``||pi_K y||_q`` over every K with 1 <= |K| <= k.

    Returns every maximizer within 1e-9 (including non-minimal ones
    for q = inf, where the argmax family is closed upward).
    """
    mags = np.abs(as_vector(y))
    d = mags.size
    spec.check_dim(d)
    if d > _SUPPORT_SCAN_MAX_D:
        raise ScaleLimitError(f"brute support scan limited to d <= {_SUPPORT_SCAN_MAX_D}")
    if float(mags.max()) <= 1e-9:
        raise ZeroVectorError("optimal supports are undefined for the zero vector")
    supports = k_subsets(d, spec.k, at_most=True)[1:]
    return tuple(_argmax(supports, lambda K: _lp_of_abs(mags[[i - 1 for i in K]], spec.q), 1e-9))


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


def sampled_exposed_face(
    y: Sequence[float],
    spec: NormSpec,
    n_atoms: int = 100_000,
    seed: int = 0,
) -> tuple[list[np.ndarray], float]:
    """Brute-force face finder: argmax of ``<., y>`` over sampled sparse atoms.

    Allocates the atom budget across every size-k support and across ten
    progressively narrowing sampling rounds around the per-support incumbent
    (the objective restricted to one support is linear, hence unimodal on
    the sphere patch, so refinement cannot be trapped).  Returns
    ``(points, value)``: the sampled argmax points of every support whose
    maximum ties the global one, and the best value found.
    """
    arr = as_vector(y)
    d = arr.size
    spec.check_dim(d)
    if float(np.abs(arr).max()) == 0.0:
        raise ZeroVectorError("face sampling needs a nonzero dual vector")
    rng = np.random.default_rng(seed)
    supports = list(itertools.combinations(range(d), spec.k))
    per = max(30, n_atoms // (len(supports) * 10))
    best_pts: list[np.ndarray | None] = [None] * len(supports)
    best_vals = np.full(len(supports), -np.inf)
    for j, K in enumerate(supports):
        yk = arr[list(K)]
        incumbent = None
        for t in range(10):
            if incumbent is None:
                g = rng.standard_normal((per, spec.k))
                g[np.all(g == 0.0, axis=1)] = 1.0
            else:
                g = incumbent[None, :] + 0.35**t * rng.standard_normal((per, spec.k))
            pts = _to_sphere(g, spec.p)
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
    return points, top


_NORM_ORACLE_MAX_D = 8  # largest d of ksupport_norm_oracle


def ksupport_norm_oracle(x: Sequence[float], spec: NormSpec) -> EvalReport:
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
    once the certified gap is below 1e-8, checked every 20 passes, and
    raises :class:`ConvergenceError` after 200 000 passes.

    Desk scale only: d <= 8 and k <= 3.
    """
    arr = as_vector(x)
    d = arr.size
    spec.check_dim(d)
    if d > _NORM_ORACLE_MAX_D or spec.k > 3:
        raise ScaleLimitError(f"decomposition oracle is limited to d <= {_NORM_ORACLE_MAX_D}, k <= 3")
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
    target = 1e-8 / scale
    upper = float(np.abs(xs).sum())
    lower = 0.0
    for it in range(200_000):
        base = xs / m - u - zsum / m
        v = z + base[blocks]
        z = v - _project_lq_ball(v, q)
        zsum = np.bincount(flat, z.ravel(), minlength=d)
        u = u + zsum / m - xs / m
        if it % 20 == 19:
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
    raise ConvergenceError(f"decomposition oracle gap {scale * (upper - lower):.3e} above target 1.0e-08")


def vertex_enumeration(
    halfspaces: Sequence[Halfspace], d: int, box: Fraction | int = 4
) -> tuple[Vec, ...]:
    """Vertices of ``{ x : <a, x> <= b for all (a, b) }`` (incremental DD).

    The polytope must be full-dimensional and strictly contained in the
    starting box ``[-box, box]^d``; otherwise :class:`InvalidInputError`.
    Each halfspace is inserted in turn; cut points arise on edges, detected
    exactly by the rank of the common active normals.  The run is on
    integers: every halfspace is scaled to an integer row ``(a, b)`` and
    every point is held as a gcd-normalized homogeneous ``(x, w)`` with
    ``w > 0``, whose slack is ``b w - <a, x>``; the vertices become
    Fractions on output.
    """
    box = Fraction(box)
    rows = [(tuple(s * box.denominator if j == i else 0 for j in range(d)), box.numerator)
            for i in range(d) for s in (1, -1)]
    for n, b in halfspaces:
        *a, b = _clear([Fraction(c) for c in (*n, b)])
        rows.append((tuple(a), b))

    def slack(c: int, x: tuple[int, ...]) -> int:
        return rows[c][1] * x[d] - _dot(rows[c][0], x)

    verts = [tuple(s * box.numerator for s in signs) + (box.denominator,)
             for signs in itertools.product((-1, 1), repeat=d)]
    act: list[set[int]] = [{j for j in range(2 * d) if slack(j, v) == 0} for v in verts]

    for idx in range(2 * d, len(rows)):
        vals = [slack(idx, v) for v in verts]
        if all(v >= 0 for v in vals):
            for i, v in enumerate(vals):
                if v == 0:
                    act[i].add(idx)
            continue
        ins = [i for i, v in enumerate(vals) if v > 0]
        ons = [i for i, v in enumerate(vals) if v == 0]
        outs = [i for i, v in enumerate(vals) if v < 0]
        new_pts: list[tuple[int, ...]] = []
        new_act: list[set[int]] = []
        seen: set[tuple[int, ...]] = set()
        for i in ins:
            for j in outs:
                common = act[i] & act[j]
                if len(common) < d - 1:
                    continue
                if _rank([rows[c][0] for c in common]) != d - 1:
                    continue
                x = tuple(vals[i] * u - vals[j] * w for u, w in zip(verts[j], verts[i]))
                g = math.gcd(*x)
                x = tuple(c // g for c in x)
                if x in seen:
                    continue
                seen.add(x)
                new_pts.append(x)
                # both ends satisfy every earlier row, so x is tight exactly on the common ones
                new_act.append(common | {idx})
        keep_idx = ins + ons
        verts = [verts[i] for i in keep_idx] + new_pts
        act = [act[i] | ({idx} if i in ons else set()) for i in keep_idx] + new_act

    if any(j < 2 * d for a in act for j in a):
        raise InvalidInputError("polytope is not strictly inside the starting box")
    if _rank(verts) != d + 1:
        raise InvalidInputError("polytope is empty or not full-dimensional")
    return tuple(sorted({tuple(Fraction(c, x[d]) for c in x[:d]) for x in verts}))


def facet_enumeration(vertices: Sequence[Vec], box: Fraction | int = 16) -> tuple[Halfspace, ...]:
    """Facets ``<n, x> <= 1`` of ``conv(vertices)`` (0 must be interior).

    Works through polarity: the facet normals are the vertices of the polar
    polytope ``{ y : <v, y> <= 1 }``, enumerated by the DD kernel.  ``box``
    must exceed the sup-norm radius of the polar.
    """
    try:
        normals = vertex_enumeration([(v, 1) for v in vertices], len(vertices[0]), box=box)
    except InvalidInputError as exc:  # the polar always holds a ball around 0
        raise InvalidInputError(
            f"box = {box} must exceed the sup-norm radius of the polar (unbounded unless 0 is interior)"
        ) from exc
    return tuple((n, Fraction(1)) for n in normals)


def brute_face_lattice(poly: RationalPolytope) -> tuple[tuple[tuple[Vec, ...], int], ...]:
    """All proper nonempty faces as (vertex list, dimension) records.

    Faces are the closure under intersection of the facet vertex sets
    (every proper face of a polytope is the intersection of the facets
    containing it).  Membership and ranks are tested on the homogeneous
    vertices ``(v, 1)`` and facet rows ``(n, -b)``, each scaled to integers.
    """
    verts = sorted(poly.vertices)
    lifted = [_clear((*v, 1)) for v in verts]
    facet_sets = []
    for n, b in poly.facet_inequalities:
        row = _clear((*n, -b))
        members = frozenset(i for i, v in enumerate(lifted) if _dot(row, v) == 0)
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
    # indices into the sorted vertex list sort like the vertex tuples they name
    out = sorted((tuple(sorted(F)), _rank([lifted[i] for i in F]) - 1) for F in faces)
    return tuple((tuple(verts[i] for i in F), dim) for F, dim in out)


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
    cand = _signed_units(d) + list(_as_fractions(_cube_corners(d), k))
    facets = facet_enumeration(cand, box=Fraction(4 * d))
    verts = vertex_enumeration(facets, d, box=Fraction(2))
    polar = RationalPolytope(tuple(n for n, _ in facets), tuple((v, Fraction(1)) for v in verts))
    return RationalPolytope(verts, facets), polar
