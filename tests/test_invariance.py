"""The level-set family does not change under positive scaling, permutation
or sign flips of its input, the norms and the prox scale with it, and for
1 <= p < inf the top-ball projection is finite, feasible and optimal at
every scale and moves with the permutation and the signs.

Inputs are small integers, so ties are exact; each draw applies a
permutation, a sign flip and a scale of 2^e (e in [-660, 660]) or 10^e
(e in [-200, 200]) at once, and maps the answer back to the original
coordinates.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksupport.core import level_index, project_support, support_of
from ksupport.faces import exposed_face_sp, normal_cone_membership, optimal_supports, support_lattice
from ksupport.norms import NormSpec, ksupport_value, project_top_ball, top_norm
from ksupport.solver import _prox

from certificate import certificate_parts, certificate_residual

int_vec = st.lists(st.integers(-4, 4), min_size=1, max_size=7).filter(any).map(
    lambda v: np.array(v, dtype=float)
)
scales = st.one_of(
    st.integers(-660, 660).map(lambda e: 2.0**e),
    st.integers(-200, 200).map(lambda e: 10.0**e),
)


@st.composite
def transforms(draw, d):
    """(t, perm, signs) for y -> t * signs * y[perm]."""
    perm = np.array(draw(st.permutations(range(d))), dtype=int)
    signs = np.array(draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=d, max_size=d)))
    return draw(scales), perm, signs


@st.composite
def cases(draw, ps):
    y = draw(int_vec)
    k = draw(st.integers(1, y.size))
    return y, NormSpec(draw(st.sampled_from(ps)), k), draw(transforms(y.size))


def _apply(y, tr):
    t, perm, signs = tr
    return t * signs * y[perm]


def _unmap(K, tr):
    # index j of the transformed vector is index perm[j - 1] + 1 of the original
    return tuple(sorted(int(tr[1][j - 1]) + 1 for j in K))


def _unmap_point(v, tr):
    _, perm, signs = tr
    w = np.empty_like(v)
    w[perm] = signs * v
    return w


@settings(max_examples=200, deadline=None)
@given(cases((1.0, 1.5, 2.0, 3.0, np.inf)))
def test_support_lattice_and_optimal_supports_invariant(case):
    y, spec, tr = case
    want, got = support_lattice(y, spec), support_lattice(_apply(y, tr), spec)
    assert (_unmap(got.core, tr), _unmap(got.bound, tr), got.sizes) == (want.core, want.bound, want.sizes)
    mapped = sorted(_unmap(K, tr) for K in optimal_supports(_apply(y, tr), spec))
    assert tuple(mapped) == optimal_supports(y, spec)


@settings(max_examples=200, deadline=None)
@given(int_vec.flatmap(lambda y: st.tuples(st.just(y), transforms(y.size))))
def test_support_of_invariant(case):
    y, tr = case
    assert _unmap(support_of(_apply(y, tr)), tr) == support_of(y)


@settings(max_examples=150, deadline=None)
@given(cases((1.5, 2.0, 3.0)))
def test_exposed_face_vertices_invariant(case):
    y, spec, tr = case
    want = exposed_face_sp(y, spec).vertices
    got = [_unmap_point(v, tr) for v in exposed_face_sp(_apply(y, tr), spec).vertices]
    assert len(got) == len(want)
    for v in got:
        assert min(float(np.max(np.abs(v - w))) for w in want) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(cases((2.0,)), int_vec, st.booleans(), scales)
def test_normal_cone_membership_invariant(case, y2, inside, t2):
    y, spec, tr = case
    d = y.size
    z = project_support(y, level_index(y, spec.k).weak)
    y2 = np.resize(y2, d)
    if inside or not y2.any():
        # 4z plus entries below 4 m_k off the weak set: a generator of the cone at z
        off = np.ones(d, dtype=bool)
        off[np.array(level_index(z, spec.k).weak) - 1] = False
        y2 = 4.0 * z + np.where(off, np.clip(y2, -3, 3), 0.0)
        assert normal_cone_membership(z, y2, spec)
    want = normal_cone_membership(z, y2, spec)
    assert normal_cone_membership(_apply(z, tr), _apply(y2, (t2,) + tr[1:]), spec) == want


@settings(max_examples=300, deadline=None)
@given(cases((1.0, 1.5, 2.0, 3.0, np.inf)))
def test_norm_values_invariant(case):
    y, spec, tr = case
    for norm in (top_norm, ksupport_value):
        want = tr[0] * norm(y, spec)
        assert abs(norm(_apply(y, tr), spec) - want) <= 1e-12 * want, norm.__name__


@settings(max_examples=200, deadline=None)
@given(cases((1.0, 1.5, 2.0, 3.0, np.inf)), st.sampled_from((0.25, 0.5, 0.75, 1.0, 1.5, 3.0)), st.integers(-500, 500))
def test_prox_positively_homogeneous(case, lam, e):
    # a power of two scales every rounding step exactly
    y, spec, _ = case
    t = 2.0**e
    (x, level), (x1, level1) = _prox(t * y, t * lam, spec), _prox(y, lam, spec)
    assert np.array_equal(x, t * x1) and level == level1


def _check_projection(y, spec):
    # finite, in the ball, and y - w in its normal cone at w: <y - w, w> is the
    # support function of the ball at y - w, the k-support norm
    w = project_top_ball(y, spec)
    assert np.all(np.isfinite(w))
    excess, gap, ks = certificate_parts(y, w, spec)
    assert excess <= 1e-12
    assert gap <= 1e-10 * ks
    return w


@settings(max_examples=300, deadline=None)
@given(cases((1.0, 1.25, 1.5, 2.0, 3.0)))
def test_project_top_ball_at_every_scale(case):
    # p = inf is not drawn: its q = 1 level (theta, t) stores t, about max|y|,
    # and writes a - t, so the radius 1 drowns in the rounding of t once
    # max|y| passes about 1e4
    y, spec, tr = case
    w = _check_projection(tr[0] * y, spec)
    moved = _unmap_point(_check_projection(_apply(y, tr), spec), tr)
    assert np.max(np.abs(moved - w)) <= 1e-12


def test_project_top_ball_huge_entries():
    for p in (1.25, 1.5, 2.0, 3.0):
        spec = NormSpec(p, 2)
        w = _check_projection(np.array([1e200, 1e200, 0.0]), spec)
        want = 2.0 ** (-1.0 / spec.q)
        assert np.max(np.abs(w - [want, want, 0.0])) <= 1e-15, p


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: the p = inf (q = 1) projection is not scale-free; at max|y| = 2e16 "
    "the level's t rounds the radius 1 away and the answer leaves the ball",
)
def test_project_top1_ball_at_huge_scale():
    y = 1e16 * np.array([2.0, -2.0, 1.0])
    spec = NormSpec(np.inf, 3)
    assert certificate_residual(y, project_top_ball(y, spec), spec) <= 1e-13
