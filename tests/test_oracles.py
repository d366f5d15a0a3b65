import random
from fractions import Fraction

import numpy as np
import pytest

from ksupport import verify
from ksupport.core import InvalidInputError, ZeroVectorError, k_subsets
from ksupport.norms import NormSpec, top_norm
from ksupport.oracles import (
    _restrict,
    brute_exposed_face,
    brute_optimal_supports,
    lasso_closed_form,
    sampled_exposed_face,
)


def test_brute_exposed_face_examples():
    square = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    got = brute_exposed_face(square, (1, 0))
    assert sorted(got) == [(1.0, -1.0), (1.0, 1.0)]
    beta3 = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    got = brute_exposed_face(beta3, (1, 1, 0))
    assert sorted(got) == [(0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]
    assert len(brute_exposed_face(square, (0, 0))) == 4
    with pytest.raises(InvalidInputError):
        brute_exposed_face([], (1, 0))


def test_brute_exposed_face_keeps_fractions_exact():
    # the scores 1 and 1 - 1e-20 / 2 are equal once rounded to floats
    eps = Fraction(1, 10**20)
    verts = [(Fraction(1), Fraction(0)), (1 - eps, Fraction(1, 3))]
    y = (Fraction(1), 3 * eps / 2)
    got = brute_exposed_face(verts, y, 0)
    assert got == [verts[0]] and all(type(c) is Fraction for c in got[0])
    assert brute_exposed_face(verts, y) == verts  # within the default 1e-9


def test_brute_optimal_supports_examples():
    assert brute_optimal_supports([3, 2, 2, 1], NormSpec(2.0, 2)) == ((1, 2), (1, 3))
    assert brute_optimal_supports([5, 0, 0], NormSpec(2.0, 1)) == ((1,),)
    assert brute_optimal_supports([1, 1, 1], NormSpec(2.0, 2)) == ((1, 2), (1, 3), (2, 3))
    with pytest.raises(ZeroVectorError):
        brute_optimal_supports([0.0], NormSpec(2.0, 1))


def test_lasso_closed_form_examples():
    got = lasso_closed_form([2, 1, 0], 1.5)
    assert got.tolist() == [0.5, 0.0, 0.0]
    a = np.array([0.3, -2.0, 1.1])
    assert lasso_closed_form(a, 0.0).tolist() == a.tolist()
    assert lasso_closed_form(a, 2.5).tolist() == [0.0, 0.0, 0.0]


def test_sampled_exposed_face_converges():
    rng = np.random.default_rng(4)
    for _ in range(5):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(1, min(3, d) + 1))
        spec = NormSpec(2.0, k)
        y = rng.standard_normal(d)
        pts, value = sampled_exposed_face(y, spec, n_atoms=30_000, seed=7)
        assert value == pytest.approx(top_norm(y, spec), abs=1e-6)
        from ksupport.faces import exposed_face_sp

        face = exposed_face_sp(y, spec)
        assert len(pts) == len(face.vertices)
        for v in face.vertices:
            assert min(float(np.linalg.norm(v - p)) for p in pts) <= 1e-3
    with pytest.raises(ZeroVectorError):
        sampled_exposed_face([0.0, 0.0], NormSpec(2.0, 1))


def test_commutation_suite_faces_are_six_times_the_rational_faces(monkeypatch):
    # the suite draws integer atoms; redrawn from the same stream as the
    # rationals a / b, every face it computes is exactly 6 times the rational one
    calls = []

    def spy(vertices, y, tol=1e-9):
        face = brute_exposed_face(vertices, y, tol)
        calls.append((list(vertices), tuple(y), face))
        return face

    def times6(v):
        return tuple(6 * c for c in v)

    monkeypatch.setattr(verify, "brute_exposed_face", spy)
    trials = 12
    for seed in range(51):
        calls.clear()
        assert verify.suite_commutation(trials=trials, seed=seed)["passed"]
        rng, replay = random.Random(seed), iter(calls)
        for _ in range(trials):
            d = rng.randint(2, 4)
            n = rng.randint(2, 6)
            atoms = [tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)) for _ in range(n)]
            y = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d))
            for K in k_subsets(d, 2, at_most=True):
                for verts, dual in (([_restrict(a, K) for a in atoms], y), (atoms, _restrict(y, K))):
                    got_verts, got_dual, got_face = next(replay)
                    assert got_verts == [times6(v) for v in verts] and got_dual == times6(dual)
                    assert got_face == [times6(v) for v in brute_exposed_face(verts, dual, 0)]
                    assert all(type(c) is int for v in got_face for c in v)
        assert next(replay, None) is None
