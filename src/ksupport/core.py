"""Vector/support primitives shared by the rest of the package.

Indices are 1-based everywhere in the public API (supports are sorted
tuples of integers in ``[1, d]``); conversion to 0-based numpy indexing
happens internally.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "InvalidInputError",
    "ZeroVectorError",
    "ConvergenceError",
    "ScaleLimitError",
    "Tolerance",
    "LevelIndexData",
    "as_vector",
    "support_of",
    "l0",
    "project_support",
    "level_index",
    "k_subsets",
]


class InvalidInputError(ValueError):
    """Raised when an argument violates an operation's precondition."""


class ZeroVectorError(InvalidInputError):
    """Raised when an operation requires a nonzero vector."""


class ConvergenceError(RuntimeError):
    """Raised when an iterative routine exhausts its iteration cap."""


class ScaleLimitError(InvalidInputError):
    """Raised when a desk-scale routine is called beyond its size guard."""


@dataclass(frozen=True)
class Tolerance:
    """Tolerances of the optimality certificate,
    :func:`ksupport.solver.certify_optimality`: it accepts ``gamma`` times the
    relative Fermat gap up to ``abs + rel * gamma`` (relative only, by default).

    Ties in level sets are judged by one relative float instead; see
    :func:`level_index`.
    """

    abs: float = 0.0
    rel: float = 1e-9

    def __post_init__(self) -> None:
        if not (np.isfinite(self.abs) and np.isfinite(self.rel)):
            raise InvalidInputError("tolerances must be finite")
        if self.abs < 0 or self.rel < 0:
            raise InvalidInputError("tolerances must be nonnegative")


@dataclass(frozen=True)
class LevelIndexData:
    """k-th level value of ``|y|`` with the strict/weak index sets around it.

    ``m_k`` is the k-th largest absolute value, ``strict`` the indices with
    ``|y_i|`` strictly above it, ``weak`` the indices with ``|y_i|`` at or
    above it (all 1-based, tie-grouped relative to ``max|y|``).
    """

    m_k: float
    strict: tuple[int, ...]
    weak: tuple[int, ...]


def as_vector(x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Validate and return ``x`` as a 1-d float array (finite, d >= 1)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInputError("expected a nonempty 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("vector entries must be finite")
    return arr


def _check_support(K: Iterable[int], d: int) -> tuple[int, ...]:
    K = tuple(int(i) for i in K)
    if any(i < 1 or i > d for i in K):
        raise InvalidInputError(f"support index out of range [1, {d}]: {K}")
    if len(set(K)) != len(K):
        raise InvalidInputError(f"support has duplicate indices: {K}")
    return tuple(sorted(K))


def support_of(x: Sequence[float], tie: float = 1e-9) -> tuple[int, ...]:
    """Indices j with ``|x_j| > tie * max|x|`` (1-based, sorted); empty for x = 0."""
    a = np.abs(as_vector(x))
    return _one_based(a > _check_tie(tie) * a.max()) if a.any() else ()


def l0(x: Sequence[float], tie: float = 1e-9) -> int:
    """Number of entries of :func:`support_of`."""
    return len(support_of(x, tie))


def project_support(x: Sequence[float], K: Iterable[int]) -> np.ndarray:
    """Zero out every coordinate of ``x`` outside the support set ``K``.

    ``K`` may be empty, in which case the zero vector is returned.  The
    mapping is idempotent and self-adjoint.
    """
    arr = as_vector(x)
    K = _check_support(K, arr.size)
    out = np.zeros_like(arr)
    if K:
        idx = np.array(K, dtype=int) - 1
        out[idx] = arr[idx]
    return out


def level_index(y: Sequence[float], k: int, tie: float = 1e-9) -> LevelIndexData:
    """Level data of a nonzero dual vector at sparsity budget ``k``.

    ``m_k`` is the k-th largest absolute value of ``y``.  ``strict`` collects
    the indices with ``|y_i| > m_k`` and ``weak`` those with ``|y_i| >= m_k``.
    This is the package's one tie rule: entries within ``tie * max|y|`` of
    the level count as tied, and a level at most that far from 0 counts as
    ``m_k = 0`` (fewer than ``k`` effectively nonzero entries), when the weak
    set is all of ``{1..d}``.  So the output does not change when y is scaled
    by any t > 0.
    """
    arr = as_vector(y)
    d = arr.size
    if not 1 <= k <= d:
        raise InvalidInputError(f"k={k} outside [1, {d}]")
    a = np.abs(arr)
    if not a.any():
        raise ZeroVectorError("level_index requires a nonzero vector")
    eps = _check_tie(tie) * float(a.max())
    m = float(np.partition(a, d - k)[d - k])
    if m <= eps:
        return LevelIndexData(0.0, _one_based(a > eps), tuple(range(1, d + 1)))
    return LevelIndexData(m, _one_based(a > m + eps), _one_based(a >= m - eps))


def _check_tie(tie: float) -> float:
    if not 0.0 <= tie < 1.0:
        raise InvalidInputError(f"tie must lie in [0, 1), got {tie}")
    return tie


def _one_based(mask: np.ndarray) -> tuple[int, ...]:
    return tuple((np.flatnonzero(mask) + 1).tolist())


def k_subsets(d: int, k: int, at_most: bool = False) -> tuple[tuple[int, ...], ...]:
    """All supports of ``{1..d}`` with cardinality exactly (or at most) ``k``.

    Lexicographic order; with ``at_most=True`` the empty set comes first.
    """
    if not 0 <= k <= d:
        raise InvalidInputError(f"k={k} outside [0, {d}]")
    if at_most:
        subsets: list[tuple[int, ...]] = []
        for j in range(k + 1):
            subsets.extend(itertools.combinations(range(1, d + 1), j))
        return tuple(sorted(subsets))
    return tuple(itertools.combinations(range(1, d + 1), k))
