import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ksupport.core import InvalidInputError, ZeroVectorError, l0, level_index, project_support
from ksupport.faces import (
    exposed_face_sp,
    normal_cone_membership,
    optimal_support_lattice_bounds,
    optimal_supports,
    support_lattice,
    v_p,
)
from ksupport.norms import NormSpec, ksupport_value, top_norm
from ksupport.oracles import atomset_face, brute_exposed_face, brute_optimal_supports

INF = math.inf


def test_optimal_supports_examples():
    assert optimal_supports([3, 2, 2, 1], NormSpec(2.0, 2)) == ((1, 2), (1, 3))
    assert optimal_supports([5, 0, 0], NormSpec(2.0, 1)) == ((1,),)
    assert optimal_supports([1, 1, 1], NormSpec(2.0, 2)) == ((1, 2), (1, 3), (2, 3))
    # m_k = 0: any superset of the support up to size k qualifies
    assert optimal_supports([5, 0, 0], NormSpec(2.0, 2)) == ((1,), (1, 2), (1, 3))
    with pytest.raises(ZeroVectorError):
        optimal_supports([0.0, 0.0], NormSpec(2.0, 1))
    # ties are judged relative to max|y|, so scaling keeps the answer
    assert optimal_supports(1e-10 * np.array([3, 2, 2, 1]), NormSpec(2.0, 2)) == ((1, 2), (1, 3))
    y = np.array([1, 1 + 1e-12, 5e-12])
    assert support_lattice(1e12 * y, NormSpec(2.0, 1)) == support_lattice(y, NormSpec(2.0, 1))


def test_optimal_supports_q_inf_minimal_representatives():
    # source norm l1: the argmax family is upward closed; singletons returned
    assert optimal_supports([3, 1, 0], NormSpec(1.0, 2)) == ((1,),)
    assert optimal_supports([2, 2, 1], NormSpec(1.0, 2)) == ((1,), (2,))


def _check_lattice_against_scan(y, spec):
    lattice = support_lattice(y, spec)
    brute = brute_optimal_supports(y, spec)
    if spec.q == INF:  # the scan lists the whole upward-closed family
        brute = tuple(K for K in brute if len(K) == 1)
    assert tuple(lattice) == brute
    assert optimal_supports(y, spec) == brute
    assert lattice.count == len(brute)
    assert set(lattice.core) == set.intersection(*map(set, brute))
    assert set(lattice.bound) == set.union(*map(set, brute))
    assert lattice.unique == (brute[0] if len(brute) == 1 else None)


def test_optimal_supports_match_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(80):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, d + 1))
        p = float(rng.choice([2.0, INF, 1.5, 3.0]))
        spec = NormSpec(p, k)
        if rng.random() < 0.5:
            y = rng.integers(-3, 4, size=d).astype(float)
            if not np.abs(y).max():
                y[0] = 1.0
        else:
            y = rng.standard_normal(d)
        assert optimal_supports(y, spec) == brute_optimal_supports(y, spec)
        _check_lattice_against_scan(y, spec)
    # integer vectors: tied levels, zeros, m_k = 0 (fewer than k nonzeros),
    # q = inf (p = 1), and every k
    for y in ([3, 2, 2, 1], [1, 1, 1], [5, 0, 0], [2, -2, 1, 0, 0], [0, 3, 0, -3, 3],
              [1, 0, 0, 0, 0, 0], [-2, 2, 2, -2], [4, 1, 1, 1, 0, 1, 0, 1]):
        for p in (1.0, 1.5, 2.0, INF):
            for k in range(1, len(y) + 1):
                _check_lattice_against_scan(np.array(y, dtype=float), NormSpec(p, k))


def test_v_p_examples_and_identities():
    y = np.array([1.5, -2.0, 0.5])
    v2 = v_p(y, 2.0)
    assert np.allclose(v2, y / np.linalg.norm(y), atol=1e-15)
    e = v_p([0, -3.0], 4.0)
    assert e.tolist() == [0.0, -1.0]
    z = v_p([1.0, 1.0], 4.0)
    q = 4 / 3
    assert np.allclose(np.abs(z), (1 / 2 ** (3 / 4)) ** (1 / 3))
    rng = np.random.default_rng(1)
    for _ in range(60):
        d = int(rng.integers(2, 7))
        p = float(rng.uniform(1.1, 6.0))
        q = p / (p - 1)
        y = rng.standard_normal(d)
        z = v_p(y, p)
        assert abs(np.sum(np.abs(z) ** p) - 1.0) <= 1e-12
        yq = float(np.sum(np.abs(y) ** q)) ** (1 / q)
        assert abs(float(z @ y) - yq) <= 1e-12 * max(1, yq)
    with pytest.raises(InvalidInputError):
        v_p([1.0, 2.0], 1.0)
    with pytest.raises(ZeroVectorError):
        v_p([0.0, 0.0], 2.0)


def test_exposed_face_examples():
    f = exposed_face_sp([3, 0, 0], NormSpec(2.0, 2))
    assert len(f.vertices) == 1
    assert np.allclose(f.vertices[0], [1, 0, 0])

    f = exposed_face_sp([1, 1, 1], NormSpec(2.0, 2))
    got = sorted(tuple(np.round(v, 12)) for v in f.vertices)
    r = 1 / math.sqrt(2)
    want = sorted([(0.0, r, r), (r, 0.0, r), (r, r, 0.0)])
    assert np.allclose(got, want)

    f = exposed_face_sp([2, 1, 0], NormSpec(2.0, 2))
    assert len(f.vertices) == 1
    assert np.allclose(f.vertices[0], np.array([2, 1, 0]) / math.sqrt(5))

    with pytest.raises(InvalidInputError):
        exposed_face_sp([1, 0], NormSpec(INF, 1))


def test_exposed_face_fully_tied_has_one_vertex_per_support():
    # 924 and 3 432 vertices; the cost is linear in the number of supports
    for d, k in ((12, 6), (14, 7)):
        f = exposed_face_sp(np.ones(d), NormSpec(2.0, k))
        assert len(f.vertices) == math.comb(d, k)
        assert sorted(f.generating_supports) == list(itertools.combinations(range(1, d + 1), k))
        for v, K in zip(f.vertices, f.generating_supports):
            assert tuple(np.nonzero(v)[0] + 1) == K
        assert [tuple(v) for v in f.vertices] == sorted(tuple(v) for v in f.vertices)


def test_exposed_face_keeps_vertices_closer_than_the_tie():
    # the level 1e-8 is above the tie, so the face is the segment between two
    # vertices, although v_p maps 1e-8 to 1e-16 at p = 1.5
    f = exposed_face_sp([1.0, 1e-8, 1e-8], NormSpec(1.5, 2))
    assert f.generating_supports == ((1, 3), (1, 2))
    assert f.vertices[0][2] == f.vertices[1][1] > 0
    # at p = 1.01 v_p maps 1e-8 to (1e-8)^100 = 0: both supports give the
    # vertex e_1, listed once
    f = exposed_face_sp([1.0, 1e-8, 1e-8], NormSpec(1.01, 2))
    assert f.generating_supports == ((1, 2),)
    assert f.vertices[0].tolist() == [1.0, 0.0, 0.0]


def test_exposed_face_at_zero_level_is_one_vertex():
    # m_k = 0: every member K of the lattice gives the same face point
    y = np.zeros(40)
    y[3] = 2.0
    f = exposed_face_sp(y, NormSpec(2.0, 20))
    assert f.generating_supports == ((4,),)  # the core of the lattice
    assert np.array_equal(f.vertices[0], np.eye(40)[3])
    # entries within tie * max|y| of 0 count as 0 at every p, however large
    # v_p makes them, and wherever they stand
    for p in (1.1, 1.5, 2.0, 3.0, 10.0, 1e3):
        f = exposed_face_sp([1.0, 1e-12, 0.0], NormSpec(p, 2))
        assert f.generating_supports == ((1,),)
        assert f.vertices[0].tolist() == [1.0, 0.0, 0.0]
        f = exposed_face_sp([1e-12, 1.0, 0.0], NormSpec(p, 2))
        assert f.generating_supports == ((2,),)
        assert f.vertices[0].tolist() == [0.0, 1.0, 0.0]


def test_face_value_consistency_and_sparsity():
    rng = np.random.default_rng(2)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, d + 1))
        p = float(rng.choice([2.0, 1.5, 3.0]))
        spec = NormSpec(p, k)
        if rng.random() < 0.5:
            y = rng.integers(-3, 4, size=d).astype(float)
            if not np.abs(y).max():
                y[0] = 1.0
        else:
            y = rng.standard_normal(d)
        f = exposed_face_sp(y, spec)
        tv = top_norm(y, spec)
        for v, K in zip(f.vertices, f.generating_supports):
            assert abs(float(v @ y) - tv) <= 1e-9 * max(1.0, tv)
            assert abs(ksupport_value(v, spec) - 1.0) <= 1e-6
            assert l0(v) <= k  # faces of the smooth ball are k-sparse, no projection
            assert set(np.nonzero(np.abs(v) > 1e-12)[0] + 1) <= set(K)


def test_lattice_bounds_examples():
    assert optimal_support_lattice_bounds([3, 2, 2, 1], NormSpec(2.0, 2)) == ((1,), (1, 2, 3))
    assert optimal_support_lattice_bounds([5, 0, 0], NormSpec(2.0, 1)) == ((1,), (1,))
    assert optimal_support_lattice_bounds([1, 1, 1], NormSpec(2.0, 2)) == ((), (1, 2, 3))


def test_lattice_bounds_vs_level_sets():
    # union = weak always; intersection = strict unless the level is untied
    rng = np.random.default_rng(3)
    for _ in range(200):
        d = int(rng.integers(2, 8))
        k = int(rng.integers(1, d + 1))
        y = rng.integers(-4, 5, size=d).astype(float)
        if not np.abs(y).max():
            y[0] = 1.0
        inter, union = optimal_support_lattice_bounds(y, NormSpec(2.0, k))
        li = level_index(y, k)
        assert union == li.weak
        if li.m_k == 0.0 or len(li.weak) > k:
            assert inter == li.strict
        else:
            assert inter == li.weak
        brute = [set(K) for K in brute_optimal_supports(y, NormSpec(2.0, k))]
        assert set(union) == set.union(*brute)
        assert set(inter) == set.intersection(*brute)


def test_normal_cone_membership_examples():
    spec = NormSpec(2.0, 1)
    assert normal_cone_membership([1, 0], [1, 0], spec) is True
    assert normal_cone_membership([1, 0], [2, 1], spec) is True  # rescaling y/2 works
    assert normal_cone_membership([1, 0], [1, 1], spec) is False  # weak sets differ
    with pytest.raises(InvalidInputError):
        normal_cone_membership([1, 0.5], [1, 0], spec)  # z breaks its projection identity
    with pytest.raises(ZeroVectorError):
        normal_cone_membership([0, 0], [1, 0], spec)


def test_cone_face_adjunction():
    # membership of y in the cone based at z implies identical exposed faces
    rng = np.random.default_rng(4)
    hits = 0
    for _ in range(300):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, d + 1))
        spec = NormSpec(2.0, k)
        y = rng.integers(-3, 4, size=d).astype(float)
        if not np.abs(y).max():
            y[0] = 1.0
        z = project_support(y, level_index(y, k).weak)
        y2 = rng.integers(-3, 4, size=d).astype(float)
        if not np.abs(y2).max():
            y2[0] = 1.0
        if normal_cone_membership(z, y2, spec):
            hits += 1
            fa = exposed_face_sp(y, spec)
            fb = exposed_face_sp(y2, spec)
            A = sorted(tuple(np.round(v, 9)) for v in fa.vertices)
            B = sorted(tuple(np.round(v, 9)) for v in fb.vertices)
            assert len(A) == len(B)
            assert np.allclose(A, B, atol=1e-9)
    assert hits > 0  # the property must actually fire


def test_atomset_face_examples():
    # symmetric sphere sample containing the signed units
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((40, 2))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    X = [tuple(p) for p in pts] + [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
    points, sups = atomset_face(X, 1, (1.0, 0.0), tol=1e-12)
    assert points == [(1.0, 0.0)]

    points, sups = atomset_face([(1, 1)], 1, (1.0, 0.0))
    assert sups == ((1,),)
    assert points == [(1, 0)]

    # k = d on a symmetric atom set reduces to the plain argmax
    X = [(2, 1), (-2, -1), (1, 2), (-1, -2)]
    points, sups = atomset_face(X, 2, (1, 0))
    best = max(X, key=lambda a: a[0])
    assert (2, 1) in points and sups[-1] == (1, 2)
    with pytest.raises(InvalidInputError):
        atomset_face([], 1, (1.0,))


def test_orthant_monotone_linf_faces_match_polytope():
    # Orthant-monotone source (sup norm): the k-sparse points of the ball face
    # are the union over optimal supports K* of the projected cube-face pieces
    # pi_K*(S_inf n F(B_inf, pi_K* y)).  Compared at the vertex level in exact
    # arithmetic: a ball vertex v lies in a piece iff supp(v) <= K* and v
    # matches sign(y) on K* n supp(y).
    import random

    from ksupport.polytopes import ksup_inf_ball

    rng = random.Random(7)
    for _ in range(25):
        d = rng.randint(2, 4)
        k = rng.randint(1, d)
        ball = ksup_inf_ball(d, k)
        y = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
        if not any(y):
            y[0] = Fraction(1)
        verts = [tuple(map(Fraction, v)) for v in ball.vertices]
        lhs = set(brute_exposed_face(verts, y, 0))
        subsets = []
        for r in range(1, k + 1):
            subsets.extend(itertools.combinations(range(d), r))
        sub_scores = {K: sum(abs(y[i]) for i in K) for K in subsets}
        mx = max(sub_scores.values())
        optimal = [set(K) for K, sc in sub_scores.items() if sc == mx]
        rhs = set()
        for v in verts:
            supp_v = {i for i in range(d) if v[i] != 0}
            for K in optimal:
                if supp_v <= K and all(
                    v[i] == (1 if y[i] > 0 else -1) for i in K if y[i] != 0
                ):
                    rhs.add(v)
                    break
        assert lhs == rhs
