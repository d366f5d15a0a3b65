import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksupport.core import (
    InvalidInputError,
    ZeroVectorError,
    k_subsets,
    l0,
    level_index,
    project_support,
    support_of,
)

finite_vec = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=8,
)


def test_support_of_examples():
    assert support_of([0, 0, 0]) == ()
    assert support_of([3, 0, -2]) == (1, 3)
    assert support_of([1e-12, 1, 0], 1e-9) == (2,)


def test_l0_examples():
    assert l0([0, 0, 0]) == 0
    assert l0([3, 0, -2]) == 2
    assert l0([1, 1, 1, 1]) == 4


def test_project_support_examples():
    assert project_support([5, 6, 7], (1, 3)).tolist() == [5, 0, 7]
    assert project_support([5, 6, 7], ()).tolist() == [0, 0, 0]
    assert project_support([5, 6, 7], (1, 2, 3)).tolist() == [5, 6, 7]


def test_project_support_rejects_bad_indices():
    with pytest.raises(InvalidInputError):
        project_support([1, 2], (0,))
    with pytest.raises(InvalidInputError):
        project_support([1, 2], (3,))
    with pytest.raises(InvalidInputError):
        project_support([1, 2], (1, 1))


def test_vector_validation():
    with pytest.raises(InvalidInputError):
        support_of([])
    with pytest.raises(InvalidInputError):
        support_of([np.nan, 1.0])
    with pytest.raises(InvalidInputError):
        support_of([np.inf, 1.0])


def test_level_index_examples():
    li = level_index([3, 2, 2, 1], 2)
    assert (li.m_k, li.strict, li.weak) == (2.0, (1,), (1, 2, 3))
    li = level_index([1, 1, 1], 1)
    assert (li.m_k, li.strict, li.weak) == (1.0, (), (1, 2, 3))
    li = level_index([5, 0, 0], 2)
    assert (li.m_k, li.strict, li.weak) == (0.0, (1,), (1, 2, 3))


def test_level_index_rejects_zero_and_bad_k():
    with pytest.raises(ZeroVectorError):
        level_index([0.0, 0.0], 1)
    with pytest.raises(InvalidInputError):
        level_index([1.0, 2.0], 3)
    with pytest.raises(InvalidInputError):
        level_index([1.0, 2.0], 0)
    for tie in (-1e-9, 1.0, float("nan")):
        with pytest.raises(InvalidInputError):
            level_index([1.0, 2.0], 1, tie)
        with pytest.raises(InvalidInputError):
            support_of([1.0, 2.0], tie)


def test_ties_are_relative_to_max():
    # every nonzero vector has level data, and ties scale with it
    li = level_index(1e-10 * np.array([3, 2, 2, 1]), 2)
    assert (li.strict, li.weak) == ((1,), (1, 2, 3))
    assert support_of(1e-10 * np.array([3, 2, 2, 1])) == (1, 2, 3, 4)
    for t in (1.0, 1e12):
        li = level_index(t * np.array([1, 1 + 1e-12, 5e-12]), 1)
        assert (li.strict, li.weak) == ((), (1, 2))
    li = level_index([2e-300, 1e-300, 0], 2)
    assert (li.m_k, li.strict, li.weak) == (1e-300, (1,), (1, 2))
    # an entry below 1e-9 * max|y| counts as zero
    li = level_index([1, 1e-10, 0], 2)
    assert (li.m_k, li.strict, li.weak) == (0.0, (1,), (1, 2, 3))


def test_k_subsets_examples():
    assert k_subsets(3, 2) == ((1, 2), (1, 3), (2, 3))
    assert k_subsets(3, 0) == ((),)
    assert len(k_subsets(4, 2)) == 6
    upto = k_subsets(3, 1, at_most=True)
    assert upto == ((), (1,), (2,), (3,))


@settings(max_examples=150, deadline=None)
@given(finite_vec, finite_vec, st.data())
def test_projection_self_adjoint(x, y, data):
    d = min(len(x), len(y))
    x, y = np.array(x[:d]), np.array(y[:d])
    K = data.draw(st.sets(st.integers(min_value=1, max_value=d)))
    K = tuple(sorted(K))
    px, py = project_support(x, K), project_support(y, K)
    assert abs(px @ y - x @ py) <= 1e-12 * (1 + abs(px @ y))
    assert abs(px @ y - px @ py) <= 1e-12 * (1 + abs(px @ y))


@settings(max_examples=100, deadline=None)
@given(finite_vec, st.data())
def test_projection_idempotent(x, data):
    x = np.array(x)
    K = tuple(sorted(data.draw(st.sets(st.integers(min_value=1, max_value=len(x))))))
    once = project_support(x, K)
    assert project_support(once, K).tolist() == once.tolist()


@settings(max_examples=150, deadline=None)
@given(finite_vec, st.integers(min_value=1, max_value=8))
def test_level_index_consistency(x, k):
    x = np.array(x)
    if k > x.size or not x.any():
        return
    li = level_index(x, k)
    assert set(li.strict) <= set(li.weak)
    if li.m_k > 0:
        assert len(li.strict) < k <= len(li.weak)
        mags = np.sort(np.abs(x))[::-1]
        assert li.m_k == mags[k - 1]
    else:
        assert li.weak == tuple(range(1, x.size + 1))


def test_k_sparse_vectors_decompose():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = int(rng.integers(2, 8))
        k = int(rng.integers(1, d + 1))
        x = rng.standard_normal(d)
        x[rng.permutation(d)[: d - k]] = 0.0
        assert l0(x) <= k
        K = support_of(x)
        assert project_support(x, K).tolist() == x.tolist()
