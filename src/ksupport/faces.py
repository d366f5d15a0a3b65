"""Exposed faces and normal cones of k-support unit balls.

For a nonzero dual vector the optimal supports are the cardinality-at-most-k
index sets maximizing the dual norm of the projected vector.  They form a
lattice interval between the strict and weak level sets ``L_k`` and
``Lbar_k``, which :class:`SupportLattice` carries by its two ends and its
sizes; its members are listed only on request.  The union ``Lbar_k`` bounds
the support of every point of the exposed face.  The exposed face of the
k-support ball (1 < p < inf) is the convex hull of the Hoelder-equality
points of the projections onto the optimal supports, one vertex per
support.  The brute-force face of a finite atom set,
:func:`ksupport.oracles.atomset_face`, lives with the other oracles.
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
    as_vector,
    level_index,
    project_support,
)
from .norms import NormSpec

__all__ = [
    "FaceDescription",
    "SupportLattice",
    "support_lattice",
    "optimal_supports",
    "v_p",
    "exposed_face_sp",
    "normal_cone_membership",
    "optimal_support_lattice_bounds",
]

_ENUMERATION_CAP = 200_000


@dataclass(frozen=True)
class FaceDescription:
    """Vertex description of an exposed face of the k-support unit ball.

    ``vertices`` and ``generating_supports`` correspond one to one, sorted
    by vertex.
    """

    vertices: tuple[np.ndarray, ...]
    generating_supports: tuple[tuple[int, ...], ...]


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
    return _members(support_lattice(y, spec, tie))


def _members(lattice: SupportLattice) -> tuple[tuple[int, ...], ...]:
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

    Vertices are ``v_p(pi_K y)`` over the optimal supports K.  At a
    positive level every member has k entries of ``y`` that are nonzero, so
    distinct members give distinct vertices: one per member.  Near p = 1
    ``v_p`` can underflow entries to 0, so equal neighbours of the sorted
    list are merged.  At ``m_k = 0`` the members differ only by
    entries counted as 0, and the face is the single vertex of the core.
    ``tie`` is the tie of :func:`ksupport.core.level_index`.  Only
    1 < p < inf; the polytopal p = inf case lives in
    :mod:`ksupport.polytopes`.
    """
    arr = as_vector(y)
    if not 1 < spec.p < math.inf:
        raise InvalidInputError("exposed_face_sp requires 1 < p < inf")
    lattice = support_lattice(arr, spec, tie)
    supports = [lattice.core] if len(lattice.sizes) > 1 else _members(lattice)
    kept = sorted(((tuple(v_p(project_support(arr, K), spec.p)), K) for K in supports))
    kept = [vk for i, vk in enumerate(kept) if i == 0 or vk[0] != kept[i - 1][0]]
    return FaceDescription(tuple(np.array(v) for v, _ in kept), tuple(K for _, K in kept))


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


def optimal_support_lattice_bounds(
    y: Sequence[float], spec: NormSpec
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Intersection and union of the optimal supports of ``y``: the two ends
    of :func:`support_lattice`."""
    lattice = support_lattice(y, spec)
    return lattice.core, lattice.bound
