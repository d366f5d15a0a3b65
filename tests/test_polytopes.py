import itertools
import math
import random
from fractions import Fraction

import pytest

from ksupport import polytopes
from ksupport.core import InvalidInputError, ScaleLimitError, level_index
from ksupport.oracles import facet_enumeration, vertex_enumeration
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
    assert is_hypersimplex([(1, 0), (0, 1), (1, 5e-10)]) is True  # a repeat within tol counts once
    # a flipped and scaled simplex in exact rationals, next to a constant coordinate
    assert is_hypersimplex([(F(-1, 3), F(0), F(2)), (F(0), F(1, 3), F(2))]) is True
    # one input per way to fail: unequal magnitudes, unequal counts of ones,
    # a missing combination, a varying coordinate with no entry above tol
    assert is_hypersimplex([(1, 0), (0, 2)]) is False
    assert is_hypersimplex([(1, 0, 0), (1, 1, 0)]) is False
    assert is_hypersimplex([(1, 1, 0, 0), (0, 0, 1, 1)]) is False
    assert is_hypersimplex([(1, 6e-10), (0, -6e-10)]) is False
    # inputs that only one check refuses: a column of both signs (the rows of
    # C(3, 2) otherwise), three rows for C(3, 1) with unequal counts, a lone
    # coordinate with no entry above tol, and the combination {1, 2} twice
    # (its copies are 1.8e-9 apart, each within tol of 1)
    assert is_hypersimplex([(1, 1, 0), (-1, 0, 1), (0, 1, 1)]) is False
    assert is_hypersimplex([(1, 0, 0), (0, 1, 0), (1, 1, 1)]) is False
    assert is_hypersimplex([(6e-10,), (-6e-10,)]) is False
    lo, hi = 1 - 9e-10, 1 + 9e-10
    pairs = [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1), (hi, hi, 0, 0), (lo, lo, 0, 0)]
    assert is_hypersimplex(pairs) is False
    assert is_hypersimplex(pairs[:5] + [(0, 0, 1, 1)]) is True
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
    assert not rep.violations
    assert rep.generators >= 200
    rep = fan_refinement_check(2, 1, 1.5, sample_count=100, seed=2)
    assert not rep.violations
    with pytest.raises(InvalidInputError):
        fan_refinement_check(3, 2, 1.0, sample_count=10)


def test_rational_polytope_invariant():
    p = top1k_ball(2, 1)
    assert isinstance(p, RationalPolytope)
    for n, b in p.facet_inequalities:
        tight = [v for v in p.vertices if sum(a * c for a, c in zip(n, v)) == b]
        assert len(tight) >= 2  # full-dimensional in the plane: facets are edges


# ---------------------------------------------------------------------------
# the integer double description, rank and fan test against rational references


def _fraction_solve(rows, rhs):
    """The unique solution of a square Fraction system, or None if singular."""
    n = len(rows)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(m[i][n] / m[i][i] for i in range(n))


def _fraction_rank(rows):
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            f = m[r][col] / m[rank][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _subset_vertices(hs, d):
    """Every feasible solution of d tight halfspaces, solved in Fractions."""
    pts = set()
    for sub in itertools.combinations(hs, d):
        x = _fraction_solve([a for a, _ in sub], [b for _, b in sub])
        if x is not None and all(sum(ai * xi for ai, xi in zip(a, x)) <= b for a, b in hs):
            pts.add(x)
    return tuple(sorted(pts))


def _random_polytope(rng, d):
    """A rational box of half-widths in (0, 3], random cuts with 0 inside,
    cuts through a vertex, which leave it with more than d tight facets, and
    a rescaled copy of one halfspace, whose normal then counts twice among
    the tight ones but adds nothing to their rank."""
    hs = []
    for i in range(d):
        for s in (1, -1):
            den = rng.randint(1, 7)
            hs.append((tuple(F(s) if j == i else F(0) for j in range(d)), F(rng.randint(1, 3 * den), den)))
    for _ in range(rng.randint(1, 3)):
        a = tuple(F(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(d))
        hs.append((a, F(rng.randint(1, 10), rng.randint(1, 7))))
    for _ in range(2):
        v = rng.choice(_subset_vertices(hs, d))
        a = tuple(F(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(d))
        b = sum(ai * vi for ai, vi in zip(a, v))
        if b > 0:
            hs.append((a, b))
    i = rng.randrange(2 * d)  # a box row, so that the cuts after it meet the copy
    c = F(rng.randint(1, 7), rng.randint(1, 7))
    return hs[: i + 1] + [(tuple(c * ai for ai in hs[i][0]), c * hs[i][1])] + hs[i + 1 :]


def _cube_cut_through_vertices(d):
    # x_1 + ... + x_d <= d - 2 passes through the d cube vertices with one -1
    cube = [(tuple(F(s) if j == i else F(0) for j in range(d)), F(1)) for i in range(d) for s in (1, -1)]
    return cube + [(tuple(F(1) for _ in range(d)), F(d - 2))]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_vertex_enumeration_matches_subset_reference(d):
    rng = random.Random(100 + d)
    cases = [_random_polytope(rng, d) for _ in range(8)]
    if d > 2:
        cases.append(_cube_cut_through_vertices(d))
    degenerate = 0
    for hs in cases:
        want = _subset_vertices(hs, d)
        got = vertex_enumeration(hs, d)
        assert got == want
        assert all(type(c) is Fraction for v in got for c in v)
        tight = [[v for v in got if sum(ai * vi for ai, vi in zip(a, v)) == b] for a, b in hs]
        degenerate += any(sum(v in t for t in tight) > d for v in got)
        # round trip: the facets are the halfspaces tight on an affine (d-1)-set, as <a/b, x> <= 1
        facets = sorted(
            {tuple(ai / b for ai in a) for (a, b), t in zip(hs, tight) if polytopes.affine_rank(t) == d - 1}
        )
        box = 1 + max(abs(c) for n in facets for c in n)
        assert facet_enumeration(got, box=box) == tuple((n, F(1)) for n in facets)
        assert vertex_enumeration(facet_enumeration(got, box=box), d) == got
    assert degenerate >= 2


def test_vertex_enumeration_rejects_empty_and_lower_dimensional_input():
    e1, e2 = (F(1), F(0)), (F(0), F(1))
    neg = lambda v: tuple(-c for c in v)  # noqa: E731
    with pytest.raises(InvalidInputError, match="empty or not full-dimensional"):
        vertex_enumeration([(e1, F(-1)), (neg(e1), F(-1))], 2)
    with pytest.raises(InvalidInputError, match="empty or not full-dimensional"):
        vertex_enumeration([(e1, F(0)), (neg(e1), F(0)), (e2, F(1)), (neg(e2), F(1))], 2)


def test_facet_enumeration_names_the_polar_radius():
    # the polar of the cube [-1, 1]^3 is the cross-polytope, of sup-norm radius 1
    cube = [tuple(F(s) for s in signs) for signs in itertools.product((-1, 1), repeat=3)]
    with pytest.raises(InvalidInputError, match="sup-norm radius of the polar"):
        facet_enumeration(cube, box=1)
    assert len(facet_enumeration(cube, box=F(3, 2))) == 6


def test_affine_rank_on_large_coprime_denominators():
    big = 2**70
    rng = random.Random(7)

    def point(d):
        # numerators near 2^70 over 3, 7 and 21 (the last in steps of 2 / 21)
        return tuple(F((big + rng.randint(-1000, 1000)) * (1, 1, 2)[i % 3], (3, 7, 21)[i % 3]) for i in range(d))

    for d in (2, 3, 4):
        pts = [point(d) for _ in range(d + 1)]
        assert polytopes.affine_rank(pts) == d
        # a point of the first d points' affine hull, with weights 1/3, 1/7 and 2/21, adds no dimension
        w = (F(1, 3), F(1, 7), F(2, 21))
        extra = tuple(
            pts[0][i] + sum(wj * (pts[j + 1][i] - pts[0][i]) for j, wj in enumerate(w[: d - 1])) for i in range(d)
        )
        deficient = pts[:d] + [extra]
        assert polytopes.affine_rank(deficient) == d - 1
        # one entry moved by 1 / (21 * 2^70) restores full rank
        nudged = list(deficient)
        nudged[-1] = (extra[0] + F(1, 21 * big),) + extra[1:]
        assert polytopes.affine_rank(nudged) == d
        for p in (pts, deficient, nudged):
            want = _fraction_rank([tuple(x - y for x, y in zip(q, p[0])) for q in p[1:]])
            assert polytopes.affine_rank(p) == want


def _rational_fan_generators(d, k, sample_count, seed):
    """The fan check's draws made in Fractions: (s, rational generator) pairs."""
    rng = random.Random(seed)
    out = []
    for _ in range(sample_count):
        y = [F(0)] * d
        while all(c == 0 for c in y):
            mags = [rng.randint(0, 3) for _ in range(d)]
            y = [F(rng.choice((-1, 1)) * m) for m in mags]
        li = level_index([float(c) for c in y], k)
        m_k, weak = F(li.m_k), set(li.weak)
        z = tuple(c if i + 1 in weak else F(0) for i, c in enumerate(y))
        pad = [i for i in li.weak if i not in li.strict][: k - len(li.strict)]
        kstar = set(li.strict).union(pad)
        s = tuple((1 if c >= 0 else -1) if i + 1 in kstar else 0 for i, c in enumerate(z))
        gens = [z, tuple(2 * c for c in z), tuple(c / 3 for c in z)]
        if m_k > 0:
            off = [i for i in range(d) if i + 1 not in weak]
            for _ in range(4):
                g = list(z)
                for i in off:
                    g[i] = m_k * F(rng.randint(-3, 3), 4)
                scale = F(rng.randint(1, 5), rng.randint(1, 3))
                gens.append(tuple(scale * c for c in g))
        out += [(s, g) for g in gens]
    return out


def _rational_member(s, g, k):
    return sum(a * b for a, b in zip(s, g)) == sum(sorted((abs(c) for c in g), reverse=True)[:k])


@pytest.mark.parametrize("d,k,seed", [(3, 2, 0), (3, 2, 1), (2, 1, 2), (4, 2, 3), (5, 3, 4), (4, 4, 5)])
def test_fan_check_verdicts_equal_the_rational_ones(monkeypatch, d, k, seed):
    want = _rational_fan_generators(d, k, 60, seed)
    seen = []
    exact = polytopes._top1k_exact
    monkeypatch.setattr(polytopes, "_top1k_exact", lambda g, k: seen.append(g) or exact(g, k))
    rep = fan_refinement_check(d, k, 2.0, sample_count=60, seed=seed)
    assert not rep.violations and rep.generators == len(want) == len(seen)
    for (s, g), gi in zip(want, seen):
        assert all(type(c) is int for c in gi)
        # the integer generator is a positive multiple of the rational one
        c = next(a / b for a, b in zip(g, gi) if b)
        assert c > 0 and g == tuple(c * b for b in gi)
        for t in (s, tuple(-x for x in s)):
            assert (polytopes._dot(t, gi) == exact(gi, k)) == _rational_member(t, g, k)
    # a violation reports the rational direction, sign vector and generator
    monkeypatch.setattr(polytopes, "_top1k_exact", lambda g, k: -1)
    rep = fan_refinement_check(d, k, 2.0, sample_count=60, seed=seed)
    assert [(s, g) for _, s, g in rep.violations] == want
    assert all(type(c) is Fraction for y, _, g in rep.violations for c in y + g)
