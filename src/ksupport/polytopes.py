"""Exact combinatorics of the p = inf / q = 1 unit balls.

The top-(1,k) ball is the convex hull of the cross-polytope and the scaled
hypercube; its polar, the k-support ball for the sup source norm, is the
intersection of the scaled cross-polytope with the hypercube.  Both are
written down from their vertex lists: the signed units and the corners of
``{-1/k, 1/k}^d`` for the top-(1,k) ball, the k-sparse sign vectors for its
polar, and polarity makes each list the other ball's facet normals.  On top
of them sit the sign-vector facet description, the proper faces built from
sign vectors, the hypersimplex test and the normal-fan refinement check.
Inside, every list is integer (the top-(1,k) ball's scaled by k) and ranks
come from fraction-free elimination; results leave as exact rationals.  The
double description and the brute-force face lattice that check these lists
live in :mod:`ksupport.oracles`.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import InvalidInputError, ScaleLimitError, level_index

__all__ = [
    "RationalPolytope",
    "FanRefinementReport",
    "top1k_ball",
    "ksup_inf_ball",
    "sign_vectors",
    "facet_from_sign_vector",
    "enumerate_proper_faces_top1k",
    "is_hypersimplex",
    "fan_refinement_check",
]

Vec = tuple[Fraction, ...]
Halfspace = tuple[Vec, Fraction]

_MAX_DIM = 6
_FACE_LATTICE_MAX_D = 5  # largest d of enumerate_proper_faces_top1k


@dataclass(frozen=True)
class RationalPolytope:
    """V- and H-representation of a full-dimensional polytope with 0 interior.

    Facet inequalities are canonicalized to ``<n, x> <= 1``.
    """

    vertices: tuple[Vec, ...]
    facet_inequalities: tuple[Halfspace, ...]


@dataclass(frozen=True)
class FanRefinementReport:
    """Outcome of the sampled normal-fan refinement check: it holds when
    ``violations`` is empty."""

    generators: int
    violations: tuple


def _dot(a: Sequence, b: Sequence):
    # most entries of these vectors are 0; ints stay ints, Fractions stay exact
    return sum(ai * bi for ai, bi in zip(a, b) if ai and bi)


def _clear(row: Sequence) -> list[int]:
    """A positive integer multiple of a row of ints and Fractions."""
    m = math.lcm(*(c.denominator for c in row))
    return [c.numerator * (m // c.denominator) for c in row]


def _rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of integer rows by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    rank, prev = 0, 1
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank]
        # each entry below the pivot row is a minor of the input: the division is exact
        m[rank + 1 :] = [[(p[col] * x - r[col] * y) // prev for x, y in zip(r, p)] for r in m[rank + 1 :]]
        prev = p[col]
        rank += 1
    return rank


def affine_rank(points: Sequence[Sequence]) -> int:
    """Dimension of the affine hull of exact rational or integer points.

    One less than the rank of the homogeneous rows ``(p, 1)``, each scaled
    to integers; 0 for an empty list.
    """
    return max(0, _rank([_clear((*p, 1)) for p in points]) - 1)


# ---------------------------------------------------------------------------
# the two polytope families


def _check_scale(d: int, k: int) -> None:
    if not 1 <= k <= d:
        raise InvalidInputError(f"need 1 <= k <= d, got k={k}, d={d}")
    if d > _MAX_DIM:
        raise ScaleLimitError(f"exact polytope routines are limited to d <= {_MAX_DIM}")


def _signed_units(d: int) -> list[tuple[int, ...]]:
    return [tuple(s if j == i else 0 for j in range(d)) for i in range(d) for s in (1, -1)]


def _cube_corners(d: int) -> list[tuple[int, ...]]:
    return list(itertools.product((-1, 1), repeat=d))


def _as_fractions(points: Sequence[tuple[int, ...]], k: int = 1) -> tuple[Vec, ...]:
    """Integer points divided by k, as Fraction tuples (one Fraction per value)."""
    frac = {c: Fraction(c, k) for c in set().union(*points)}
    return tuple(tuple(frac[c] for c in p) for p in points)


def _sign_vectors(d: int, k: int) -> list[tuple[int, ...]]:
    # the product of a sorted tuple comes out in sorted order
    return [s for s in itertools.product((-1, 0, 1), repeat=d) if s.count(0) == d - k]


def sign_vectors(d: int, k: int) -> tuple[Vec, ...]:
    """The 2^k C(d,k) k-sparse vectors of ``{-1, 0, 1}^d``, sorted."""
    return _as_fractions(_sign_vectors(d, k))


def _top1k_points(cross: list, cube: list, d: int, k: int) -> list[tuple[int, ...]]:
    """Signed units ``cross`` and corners ``cube`` that are vertices, pruned at
    k = 1 and k = d as :func:`facet_from_sign_vector` says, sorted and scaled
    by k: the integers ``k e`` and the corners themselves."""
    cross = [tuple(k * c for c in e) for e in cross]
    if k == 1 and d > 1:
        pts = cube
    elif k == d and d > 1:
        pts = cross
    else:
        pts = cross + cube
    return sorted(set(pts))


def _vertex_lists(d: int, k: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Vertices of the top-(1,k) ball scaled by k, and of its polar, the
    k-sparse sign vectors: both integer and sorted."""
    _check_scale(d, k)
    return _top1k_points(_signed_units(d), _cube_corners(d), d, k), _sign_vectors(d, k)


def _facets(normals: tuple[Vec, ...]) -> tuple[Halfspace, ...]:
    return tuple((n, Fraction(1)) for n in normals)


def top1k_ball(d: int, k: int) -> RationalPolytope:
    """The unit ball of the top-(1,k) norm: conv of the cross-polytope and
    the hypercube scaled by 1/k.

    Its vertices are the signed units and the corners of ``{-1/k, 1/k}^d``;
    it coincides with the hypercube at k = 1 and the cross-polytope at
    k = d, where the other list drops out.  Its facets are ``<s, x> <= 1``
    over the k-sparse sign vectors s.
    """
    top, ksup = _vertex_lists(d, k)
    return RationalPolytope(_as_fractions(top, k), _facets(_as_fractions(ksup)))


def ksup_inf_ball(d: int, k: int) -> RationalPolytope:
    """The k-support unit ball for the sup source norm: ``k B_1 \\cap B_inf``.

    The polar of :func:`top1k_ball`, so the two vertex lists swap: the
    vertices are the k-sparse sign vectors and the facet normals are the
    vertices of the top-(1,k) ball.
    """
    top, ksup = _vertex_lists(d, k)
    return RationalPolytope(_as_fractions(ksup), _facets(_as_fractions(top, k)))


# ---------------------------------------------------------------------------
# sign-vector face description


def _validate_sign_vector(s: Sequence[int], d: int, k: int) -> tuple[int, ...]:
    s = tuple(int(v) for v in s)
    if len(s) != d or any(v not in (-1, 0, 1) for v in s):
        raise InvalidInputError("sign vector must lie in {-1,0,1}^d")
    if sum(1 for v in s if v != 0) != k:
        raise InvalidInputError(f"sign vector must have exactly {k} nonzero entries")
    return s


def _cross_face(s: Sequence[int], d: int) -> list[tuple[int, ...]]:
    return [tuple(si if j == i else 0 for j in range(d)) for i, si in enumerate(s) if si]


def _cube_face(s: Sequence[int], d: int) -> list[tuple[int, ...]]:
    free = [i for i, si in enumerate(s) if si == 0]
    pts = []
    for signs in itertools.product((-1, 1), repeat=len(free)):
        v = list(s)
        for i, sg in zip(free, signs):
            v[i] = sg
        pts.append(tuple(v))
    return pts


def facet_from_sign_vector(s: Sequence[int], d: int, k: int) -> tuple[Vec, ...]:
    """Vertex list of the top-(1,k) facet exposed by a k-sparse sign vector.

    The facet is ``conv(F(beta, s) u (1/k) F(gamma, s))``.  At k = 1 the
    signed unit lies in the relative interior of the cube face, and at k = d
    the scaled corner lies inside the simplex face, so those points are
    dropped from the vertex list.
    """
    _check_scale(d, k)
    s = _validate_sign_vector(s, d, k)
    return _as_fractions(_top1k_points(_cross_face(s, d), _cube_face(s, d), d, k), k)


def enumerate_proper_faces_top1k(d: int, k: int) -> tuple[tuple[tuple[Vec, ...], int], ...]:
    """All proper faces of the top-(1,k) ball, built from sign vectors.

    For each k-sparse sign vector s the faces are ``conv(F u (1/k) G)`` with
    F, G exposed faces of the cross-polytope/cube faces of s, not both
    empty, and F full exactly when G is full.  Faces are deduplicated across
    sign vectors and tagged with their affine dimension.  Inside, a face is
    the tuple of its indices into the sorted vertex list, and the ranks are
    taken on the vertices scaled by k, which are integers.
    """
    _check_scale(d, k)
    if d > _FACE_LATTICE_MAX_D:
        raise ScaleLimitError(f"face-lattice enumeration is limited to d <= {_FACE_LATTICE_MAX_D}")
    scaled = _top1k_points(_signed_units(d), _cube_corners(d), d, k)
    # the scaled points that are not vertices (signed units at k = 1, corners
    # at k = d) get no index: they only occur in a facet, which drops them
    index = {v: i for i, v in enumerate(scaled)}
    faces: dict[tuple[int, ...], int] = {}
    for s in _sign_vectors(d, k):
        free = [i for i in range(d) if s[i] == 0]
        cross_full = [index.get(tuple(k * c for c in e)) for e in _cross_face(s, d)]
        cube_full = [(v, index.get(v)) for v in _cube_face(s, d)]
        # exposed faces of the simplex F(beta, s): all vertex subsets
        cross_subs = [T for r in range(k + 1) for T in itertools.combinations(cross_full, r)]
        # exposed faces of the subcube F(gamma, s): fix signs on any free subset
        cube_subs: list[list] = [[]]
        for r in range(len(free) + 1):
            for U in itertools.combinations(free, r):
                for sigma in itertools.product((-1, 1), repeat=r):
                    cube_subs.append([i for v, i in cube_full if all(v[u] == sg for u, sg in zip(U, sigma))])
        for F in cross_subs:
            for G in cube_subs:
                if (F or G) and (len(F) == k) == (len(G) == len(cube_full)):
                    face = tuple(sorted({i for i in (*F, *G) if i is not None}))
                    if face not in faces:
                        faces[face] = affine_rank([scaled[i] for i in face])
    # the index order is the vertex order, so sorting indices sorts the faces
    verts = _as_fractions(scaled, k)
    return tuple((tuple(verts[i] for i in face), dim) for face, dim in sorted(faces.items()))


# ---------------------------------------------------------------------------
# hypersimplex recognition


def is_hypersimplex(face_vertices: Sequence[Sequence[float]]) -> bool:
    """Is this vertex set a hypersimplex up to the face normalization?

    The admissible normalization drops coordinates that are constant across
    the vertices, flips signs per coordinate, and rescales by the common
    magnitude; the result must be exactly the 0/1 vectors with a fixed
    number of ones.  A single point counts as a 0-dimensional hypersimplex.
    Coordinates are compared within ``tol = 1e-9``.
    """
    tol = 1e-9
    uniq: list[tuple[float, ...]] = []
    for v in face_vertices:
        p = tuple(map(float, v))
        if all(max(abs(a - b) for a, b in zip(p, o)) > tol for o in uniq):
            uniq.append(p)
    if not uniq:
        raise InvalidInputError("empty vertex list")
    if len(uniq) == 1:
        return True
    x = np.array(uniq)
    x = x[:, np.ptp(x, axis=0) > tol]
    pos, neg = x > tol, x < -tol
    # a coordinate needs an entry above tol, and all of them of one sign
    if not (pos.any(axis=0) ^ neg.any(axis=0)).all():
        return False
    nz = pos | neg
    # the sign flips leave the nonzero entries as their magnitudes, read in row-major order
    mags = np.abs(x[nz])
    if (np.abs(mags - mags[0]) > tol * max(1.0, mags[0])).any():
        return False
    ones = nz.sum(axis=1)
    if (ones != ones[0]).any() or len(nz) != math.comb(nz.shape[1], int(ones[0])):
        return False
    rows = nz[np.lexsort(nz.T)]  # equal rows end up next to each other
    return not (rows[1:] == rows[:-1]).all(axis=1).any()


# ---------------------------------------------------------------------------
# normal-fan refinement


def _top1k_exact(y: Sequence[int], k: int) -> int:
    return sum(sorted(map(abs, y), reverse=True)[:k])


def fan_refinement_check(
    d: int,
    k: int,
    p: float,
    sample_count: int = 1000,
    seed: int = 0,
) -> FanRefinementReport:
    """Sampled check that the smooth-ball normal fan refines the polytopal one.

    For each sampled rational dual direction y the generator set of the
    normal cone of the k-support ball (1 < p < inf) at the face exposed by y
    is sampled, and every generator g is tested for membership in the normal
    cone of the sup-norm k-support ball spanned by one sign-vector facet s of
    the top-(1,k) ball: membership holds iff ``<s, g>`` equals the exact
    top-(1,k) norm of g.  The cone data does not depend on p.  The test is
    positively homogeneous, so it runs on each generator's integer multiple
    ``g * den / num``; a reported violation carries the rational g.
    """
    _check_scale(d, k)
    if not 1 < p < math.inf:
        raise InvalidInputError("refinement concerns 1 < p < inf")
    rng = random.Random(seed)
    violations: list[tuple] = []
    generators = 0
    for _ in range(sample_count):
        y = [0] * d
        while all(c == 0 for c in y):
            mags = [rng.randint(0, 3) for _ in range(d)]
            y = [rng.choice((-1, 1)) * m for m in mags]
        # small integers: the float level data is exact
        li = level_index([float(c) for c in y], k)
        m_k, weak = int(li.m_k), set(li.weak)
        z = tuple(c if i + 1 in weak else 0 for i, c in enumerate(y))
        # lexicographically first optimal support of size k (padded if m_k = 0)
        pad = [i for i in li.weak if i not in li.strict][: k - len(li.strict)]
        kstar = set(li.strict).union(pad)
        s = tuple((1 if c >= 0 else -1) if i + 1 in kstar else 0 for i, c in enumerate(z))
        # generators of the cone at z: z itself, positive scalings, and
        # perturbations below the level off the weak set; each is held as
        # (g, num, den), an integer g and the rational generator g * num / den
        gens = [(z, 1, 1), (z, 2, 1), (z, 1, 3)]
        if m_k > 0:
            off = [i for i in range(d) if i + 1 not in weak]
            for _ in range(4):
                g = [4 * c for c in z]
                for i in off:
                    g[i] = m_k * rng.randint(-3, 3)
                gens.append((tuple(g), rng.randint(1, 5), 4 * rng.randint(1, 3)))
        for g, num, den in gens:
            generators += 1
            if _dot(s, g) != _top1k_exact(g, k):
                violations.append((tuple(map(Fraction, y)), s, tuple(Fraction(num * c, den) for c in g)))
    return FanRefinementReport(generators, tuple(violations))


def __getattr__(name: str):
    # the brute face lattice lives in ksupport.oracles; its old name here still resolves
    if name == "brute_face_lattice":
        from .oracles import brute_face_lattice

        return brute_face_lattice
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
