"""Exposed faces and normal cones of k-support unit balls.

For a nonzero dual vector the optimal supports are the cardinality-at-most-k
index sets maximizing the dual norm of the projected vector.  They form a
lattice interval between the strict and weak level sets ``L_k`` and
``Lbar_k``, which :class:`SupportLattice` carries by its two ends and its
sizes; its members are listed only on request.  The union ``Lbar_k`` bounds
the support of every point of the exposed face.  The exposed face of the
k-support ball (1 < p < inf) is the convex hull of the Hoelder-equality
points of the projections onto the optimal supports.  A finite atom-set
engine provides the same face computation for arbitrary finite atom
collections.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    InvalidInputError,
    ScaleLimitError,
    ZeroVectorError,
    LevelIndexData,
    as_vector,
    level_index,
    project_support,
)
from .norms import NormSpec

__all__ = [
    "FaceDescription",
    "NormalConeDescription",
    "SupportLattice",
    "support_lattice",
    "optimal_supports",
    "v_p",
    "exposed_face_sp",
    "normal_cone_membership",
    "normal_cone_of",
    "optimal_support_lattice_bounds",
    "atomset_face",
]

_ENUMERATION_CAP = 200_000


@dataclass(frozen=True)
class FaceDescription:
    """Vertex description of an exposed face of the k-support unit ball.

    ``vertices`` and ``generating_supports`` correspond one to one (after
    deduplication each kept vertex carries its lexicographically smallest
    generating support); ``dual`` is the exposing vector.
    """

    vertices: tuple[np.ndarray, ...]
    generating_supports: tuple[tuple[int, ...], ...]
    dual: np.ndarray


@dataclass(frozen=True)
class NormalConeDescription:
    """Generator data of a normal cone: the unit base direction and its level sets."""

    base: np.ndarray
    level: LevelIndexData


@dataclass(frozen=True)
class SupportLattice:
    """The optimal supports of a dual vector as a lattice interval.

    The members are the sets K with ``core <= K <= bound`` and ``|K|`` in
    ``sizes``; ``core`` is their intersection and ``bound`` their union.
    For q < inf the union is the weak level set ``Lbar_k``; the intersection
    is the strict set ``L_k`` when ``m_k = 0`` or the level is tied
    (``|Lbar_k| > k``), and otherwise the single optimal support ``Lbar_k``.
    ``count`` is exact however large, and iteration yields the members as
    sorted tuples in lexicographic order.  There is deliberately no
    ``__len__``: counts such as C(200, 100) do not fit an index.
    """

    core: tuple[int, ...]
    bound: tuple[int, ...]
    sizes: range

    @property
    def count(self) -> int:
        # C(free, j) summed over the sizes, each term from the one before (one
        # math.comb per size takes a minute at d = 1e5, k = 1e4 when m_k = 0)
        free, c = len(self.bound) - len(self.core), len(self.core)
        term, total = math.comb(free, self.sizes[0] - c), 0
        for j in range(self.sizes[0] - c, self.sizes[-1] - c + 1):
            total += term
            term = term * (free - j) // (j + 1)
        return total

    @property
    def unique(self) -> tuple[int, ...] | None:
        """The single optimal support, or None when there are several."""
        return self.bound if self.core == self.bound else None

    def __iter__(self):
        # at one size, K = core + E orders as E does (min of K1 ^ K2 decides)
        core = list(self.core)
        pool = sorted(set(self.bound).difference(core))
        per_size = (
            (tuple(sorted(core + list(extra))) for extra in itertools.combinations(pool, s - len(core)))
            for s in self.sizes
        )
        return heapq.merge(*per_size)


def support_lattice(y: Sequence[float], spec: NormSpec, tie: float = 1e-9) -> SupportLattice:
    """The supports of cardinality <= k maximizing ``||pi_K y||_q``.

    For q < inf these are the sets K with ``L_k(y) <= K <= Lbar_k(y)`` that
    have k elements, except that when ``m_k(y) = 0`` any cardinality from
    ``|L_k|`` to k qualifies.  For q = inf (source norm l1) the argmax
    family is closed upward; its inclusion-minimal members, the singletons
    of the absolute-value argmax, are the lattice at k = 1.  Ties are those
    of :func:`ksupport.core.level_index`.
    """
    arr = as_vector(y)
    spec.check_dim(arr.size)
    k = 1 if math.isinf(spec.q) else spec.k
    li = level_index(arr, k, tie)
    if li.m_k == 0.0:
        return SupportLattice(li.strict, li.weak, range(len(li.strict), k + 1))
    core = li.weak if len(li.weak) == k else li.strict
    return SupportLattice(core, li.weak, range(k, k + 1))


def optimal_supports(
    y: Sequence[float], spec: NormSpec, tie: float = 1e-9
) -> tuple[tuple[int, ...], ...]:
    """The members of :func:`support_lattice`, listed in lexicographic order.

    Refuses (``ScaleLimitError``) to list more than 200 000 of them.
    """
    lattice = support_lattice(y, spec, tie)
    if lattice.count > _ENUMERATION_CAP:
        raise ScaleLimitError(f"more than {_ENUMERATION_CAP} tied optimal supports; see support_lattice")
    return tuple(lattice)


def v_p(y: Sequence[float], p: float) -> np.ndarray:
    """The unique point of the lp unit sphere exposed by ``y`` (1 < p < inf).

    Componentwise it carries the sign of ``y`` and the magnitude
    ``(|y_i| / ||y||_q)^{q/p}``, the equality case of Hoelder's inequality;
    for p = 2 this is just ``y / ||y||_2``.
    """
    arr = as_vector(y)
    if not 1 < p < math.inf:
        raise InvalidInputError("v_p requires 1 < p < inf")
    if float(np.abs(arr).max()) == 0.0:
        raise ZeroVectorError("v_p is undefined at the zero vector")
    q = p / (p - 1.0)
    a = np.abs(arr)
    m = a.max()
    nq = m * float(np.sum((a / m) ** q)) ** (1.0 / q)
    return np.sign(arr) * (a / nq) ** (q / p)


def exposed_face_sp(y: Sequence[float], spec: NormSpec, tie: float = 1e-9) -> FaceDescription:
    """Exposed face of the k-support unit ball at dual vector ``y``.

    Vertices are ``v_p(pi_K y)`` over the optimal supports K, deduplicated
    by l-infinity distance below ``tie`` (they lie on the unit sphere),
    keeping the lexicographically smallest representative.  Only
    1 < p < inf; the polytopal p = inf case lives in :mod:`ksupport.polytopes`.
    """
    arr = as_vector(y)
    if not 1 < spec.p < math.inf:
        raise InvalidInputError("exposed_face_sp requires 1 < p < inf")
    kept: list[tuple[np.ndarray, tuple[int, ...]]] = []
    for K in optimal_supports(arr, spec, tie):
        vk = v_p(project_support(arr, K), spec.p)
        for i, (vo, Ko) in enumerate(kept):
            if float(np.max(np.abs(vk - vo))) < tie:
                rep = min((tuple(vo), Ko), (tuple(vk), K))
                kept[i] = (np.array(rep[0]), rep[1])
                break
        else:
            kept.append((vk, K))
    kept.sort(key=lambda item: tuple(item[0]))
    return FaceDescription(
        vertices=tuple(v for v, _ in kept),
        generating_supports=tuple(K for _, K in kept),
        dual=arr.copy(),
    )


def normal_cone_membership(z: Sequence[float], y: Sequence[float], spec: NormSpec) -> bool:
    """Does ``y`` generate the normal cone of the k-support ball based at ``z``?

    True iff some positive multiple y' of y satisfies
    ``pi_{Lbar_k(z)} y' = z`` and ``Lbar_k(y') = Lbar_k(z)``.  This is the
    pre-closure generator condition; boundary directions added by the
    closure are deliberately not decided here.  ``z`` must satisfy its own
    projection identity ``pi_{Lbar_k(z)} z = z`` (any positive scaling of
    ``z`` is accepted since membership is invariant under it).  Both vectors
    are scaled to ``max |.| = 1`` first; ties are those of
    :func:`ksupport.core.level_index`, and both identities are judged at 1e-9.
    """
    zarr = as_vector(z)
    yarr = as_vector(y)
    spec.check_dim(zarr.size)
    if not zarr.any():
        raise ZeroVectorError("cone base must be nonzero")
    zarr = zarr / np.abs(zarr).max()
    li_z = level_index(zarr, spec.k)
    off = sorted(set(range(1, zarr.size + 1)) - set(li_z.weak))
    if off and float(np.abs(project_support(zarr, off)).max()) > 1e-9:
        raise InvalidInputError("z fails its own projection identity pi_Lbar(z) z = z")
    if not yarr.any():
        return False
    yarr = yarr / np.abs(yarr).max()
    li_y = level_index(yarr, spec.k)
    if set(li_y.weak) != set(li_z.weak):
        return False
    py = project_support(yarr, li_z.weak)
    denom = float(py @ py)
    if denom == 0.0:
        return False
    t = float(py @ zarr) / denom
    if t <= 0.0:
        return False
    return float(np.max(np.abs(t * py - zarr))) <= 1e-9


def normal_cone_of(y: Sequence[float], spec: NormSpec) -> NormalConeDescription:
    """Canonical generator data of the normal cone containing ``y``.

    The base is ``pi_{Lbar_k(y)} y`` scaled to unit Euclidean length.
    """
    arr = as_vector(y)
    base = project_support(arr, level_index(arr, spec.k).weak)
    base = base / float(np.linalg.norm(base))
    return NormalConeDescription(base=base, level=level_index(base, spec.k))


def optimal_support_lattice_bounds(
    y: Sequence[float], spec: NormSpec
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Intersection and union of the optimal supports of ``y``: the two ends
    of :func:`support_lattice`."""
    lattice = support_lattice(y, spec)
    return lattice.core, lattice.bound


# ---------------------------------------------------------------------------
# finite atom sets


def _dot(a: Sequence, b: Sequence):
    return sum(ai * bi for ai, bi in zip(a, b))


def _restrict(v: Sequence, K: tuple[int, ...], d: int) -> tuple:
    # 0 * v[i] keeps the coordinate type (Fraction stays Fraction)
    members = set(K)
    return tuple(v[i] if (i + 1) in members else 0 * v[i] for i in range(d))


def atomset_face(
    atoms: Sequence[Sequence],
    k: int,
    y: Sequence,
    tol: float | None = None,
):
    """Sparse-atom face of ``conv(union of pi_K(atoms))`` exposed by ``y``.

    Scans every support K with ``|K| <= k``: the optimal supports maximize
    ``max_{x in atoms} <x, pi_K y>`` and the returned points are the
    projections onto each optimal support of the atoms attaining that
    maximum.  The exposed face itself is the convex hull of the returned
    points.  Works on exact (Fraction) or float coordinates; ``tol=None``
    means exact comparisons.

    Returns ``(points, optimal_supports)``.
    """
    atoms = [tuple(a) for a in atoms]
    if not atoms:
        raise InvalidInputError("atom set must be nonempty")
    d = len(atoms[0])
    if any(len(a) != d for a in atoms) or len(y) != d:
        raise InvalidInputError("dimension mismatch between atoms and dual vector")
    if not 0 <= k <= d:
        raise InvalidInputError(f"k={k} outside [0, {d}]")
    y = tuple(y)
    slack = 0 if tol is None else tol

    subsets = []
    for j in range(k + 1):
        subsets.extend(itertools.combinations(range(1, d + 1), j))
    scores = {}
    for K in subsets:
        py = _restrict(y, K, d)
        scores[K] = max(_dot(a, py) for a in atoms)
    best = max(scores.values())
    winners = sorted(K for K, s in scores.items() if s >= best - slack)

    points: list[tuple] = []
    for K in winners:
        py = _restrict(y, K, d)
        smax = scores[K]
        for a in atoms:
            if _dot(a, py) >= smax - slack:
                pa = _restrict(a, K, d)
                if tol is None:
                    if pa not in points:
                        points.append(pa)
                else:
                    if all(
                        max(abs(u - v) for u, v in zip(pa, other)) > tol for other in points
                    ):
                        points.append(pa)
    return sorted(points), tuple(winners)
