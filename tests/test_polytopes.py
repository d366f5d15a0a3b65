import itertools
import math
from fractions import Fraction

import pytest

from ksupport.core import InvalidInputError, ScaleLimitError
from ksupport.oracles import brute_face_lattice, facet_enumeration, vertex_enumeration
from ksupport.polytopes import (
    RationalPolytope,
    affine_rank,
    enumerate_proper_faces_top1k,
    facet_from_sign_vector,
    fan_refinement_check,
    is_hypersimplex,
    ksup_inf_ball,
    top1k_ball,
)

F = Fraction


def test_dd_kernel_on_cube_and_crosspolytope():
    # cube from halfspaces
    d = 3
    hs = []
    for i in range(d):
        for s in (1, -1):
            n = [F(0)] * d
            n[i] = F(s)
            hs.append((tuple(n), F(1)))
    verts = vertex_enumeration(hs, d, box=2)
    assert len(verts) == 8
    assert all(all(abs(c) == 1 for c in v) for v in verts)
    facets = facet_enumeration(verts)
    assert len(facets) == 6
    # crosspolytope from sign halfspaces
    hs = [(tuple(F(s) for s in signs), F(1)) for signs in itertools.product((-1, 1), repeat=d)]
    verts = vertex_enumeration(hs, d, box=2)
    assert len(verts) == 6


def test_top1k_ball_extremes():
    cube = top1k_ball(3, 1)
    assert len(cube.vertices) == 8
    assert len(cube.facet_inequalities) == 6
    cross = top1k_ball(3, 3)
    assert len(cross.vertices) == 6
    assert len(cross.facet_inequalities) == 8


def test_top1k_ball_d3k2_counts():
    p = top1k_ball(3, 2)
    assert len(p.facet_inequalities) == 12
    assert len(p.vertices) == 14  # 6 signed units + 8 scaled corners
    # every vertex satisfies every facet inequality
    for n, b in p.facet_inequalities:
        for v in p.vertices:
            assert sum(a * c for a, c in zip(n, v)) <= b


def test_ksup_inf_ball_examples():
    oct3 = ksup_inf_ball(3, 1)
    assert len(oct3.vertices) == 6
    ball = ksup_inf_ball(3, 2)
    assert len(ball.vertices) == 12
    assert all(sum(1 for c in v if c != 0) == 2 for v in ball.vertices)
    assert all(all(c in (F(1), F(-1), F(0)) for c in v) for v in ball.vertices)
    cube = ksup_inf_ball(3, 3)
    assert len(cube.vertices) == 8


def test_facet_counts_match_sign_vectors():
    for d in range(1, 7):
        for k in range(1, d + 1):
            p = top1k_ball(d, k)
            assert len(p.facet_inequalities) == 2**k * math.comb(d, k)
            q = ksup_inf_ball(d, k)
            assert len(q.vertices) == 2**k * math.comb(d, k)


def test_polarity():
    for d in range(2, 5):
        for k in range(1, d + 1):
            top = top1k_ball(d, k)
            ksp = ksup_inf_ball(d, k)
            assert {n for n, _ in top.facet_inequalities} == set(ksp.vertices)
            assert {n for n, _ in ksp.facet_inequalities} == set(top.vertices)
            for v in top.vertices:
                for w in ksp.vertices:
                    assert sum(a * b for a, b in zip(v, w)) <= 1


def test_facet_from_sign_vector_examples():
    pts = facet_from_sign_vector((1, 1, 0), 3, 2)
    want = {
        (F(1), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(1, 2), F(1, 2), F(1, 2)),
        (F(1, 2), F(1, 2), F(-1, 2)),
    }
    assert set(pts) == want
    # k = 1: the ball is the cube; the facet is the cube face
    pts = facet_from_sign_vector((1, 0), 2, 1)
    assert set(pts) == {(F(1), F(1)), (F(1), F(-1))}
    # k = d: the scaled corner is interior to the simplex facet and drops out
    pts = facet_from_sign_vector((1, 1, 1), 3, 3)
    assert set(pts) == {(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))}
    with pytest.raises(InvalidInputError):
        facet_from_sign_vector((1, 0, 0), 3, 2)
    with pytest.raises(InvalidInputError):
        facet_from_sign_vector((2, 1, 0), 3, 2)


def test_facets_are_brute_facets():
    for d in range(1, 7):
        for k in range(1, d + 1):
            top = top1k_ball(d, k)
            brute = set()
            for n, b in top.facet_inequalities:
                members = tuple(
                    sorted(v for v in top.vertices if sum(a * c for a, c in zip(n, v)) == b)
                )
                brute.add(members)
            thm = set()
            for supp in itertools.combinations(range(d), k):
                for signs in itertools.product((1, -1), repeat=k):
                    s = [0] * d
                    for i, sg in zip(supp, signs):
                        s[i] = sg
                    thm.add(tuple(sorted(facet_from_sign_vector(s, d, k))))
            assert brute == thm


def test_face_lattice_square():
    faces = enumerate_proper_faces_top1k(2, 1)
    dims = sorted(dim for _, dim in faces)
    assert dims == [0, 0, 0, 0, 1, 1, 1, 1]  # 4 vertices + 4 edges


def test_face_lattice_matches_brute():
    for d in range(1, 5):
        for k in range(1, d + 1):
            cor = set(enumerate_proper_faces_top1k(d, k))
            brute = set(brute_face_lattice(top1k_ball(d, k)))
            assert cor == brute


def test_lattice_vertices_at_dim_zero():
    faces = enumerate_proper_faces_top1k(3, 2)
    verts = {pts[0] for pts, dim in faces if dim == 0}
    ball = top1k_ball(3, 2)
    assert verts == set(ball.vertices)


def test_affine_rank():
    assert affine_rank([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]) == 2
    assert affine_rank([(F(0), F(0)), (F(2), F(2))]) == 1
    assert affine_rank([(F(1), F(1))]) == 0


def test_is_hypersimplex_examples():
    assert is_hypersimplex([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) is True
    r = 1 / math.sqrt(2)
    assert is_hypersimplex([(r, r, 0), (r, 0, r), (0, r, r)]) is True
    assert is_hypersimplex([(1, 1), (1, -1), (-1, 1), (-1, -1)]) is False
    assert is_hypersimplex([(0.3, -0.4)]) is True
    with pytest.raises(InvalidInputError):
        is_hypersimplex([])


def test_scale_guards():
    with pytest.raises(ScaleLimitError):
        top1k_ball(7, 2)
    with pytest.raises(ScaleLimitError):
        ksup_inf_ball(7, 2)
    with pytest.raises(InvalidInputError):
        top1k_ball(3, 4)
    with pytest.raises(InvalidInputError):
        ksup_inf_ball(3, 4)
    for build in (top1k_ball, ksup_inf_ball):
        with pytest.raises(InvalidInputError):
            build(3, 0)
    with pytest.raises(ScaleLimitError):
        enumerate_proper_faces_top1k(6, 2)


def test_fan_refinement_small():
    rep = fan_refinement_check(3, 2, 2.0, sample_count=200, seed=1)
    assert rep.ok
    assert rep.generators >= 200
    rep = fan_refinement_check(2, 1, 1.5, sample_count=100, seed=2)
    assert rep.ok
    with pytest.raises(InvalidInputError):
        fan_refinement_check(3, 2, 1.0, sample_count=10)


def test_rational_polytope_invariant():
    p = top1k_ball(2, 1)
    assert isinstance(p, RationalPolytope)
    for n, b in p.facet_inequalities:
        tight = [v for v in p.vertices if sum(a * c for a, c in zip(n, v)) == b]
        assert len(tight) >= 2  # full-dimensional in the plane: facets are edges
