import math

import numpy as np
import pytest

from ksupport.core import InvalidInputError, Tolerance, ZeroVectorError, l0, support_of
from ksupport.norms import NormSpec, ksupport_value, top_norm
from ksupport.solver import (
    SolveOptions,
    ZeroGradientError,
    certify_optimality,
    check_gradient,
    identified_support,
    lmo_sp_ball,
    logistic_objective,
    quadratic_objective,
    solve_penalized,
)

INF = math.inf


def test_lmo_examples():
    a = lmo_sp_ball([3, 1, 0], NormSpec(2.0, 1))
    assert np.allclose(a, [1, 0, 0])
    a = lmo_sp_ball([1, 1, 1], NormSpec(2.0, 2))
    r = 1 / math.sqrt(2)
    assert np.allclose(a, [r, r, 0])  # lexicographic tie-break picks {1,2}
    with pytest.raises(ZeroVectorError):
        lmo_sp_ball([0.0, 0.0], NormSpec(2.0, 1))


def test_lmo_support_function_identity():
    rng = np.random.default_rng(0)
    for _ in range(150):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, d + 1))
        p = float(rng.choice([1.0, 2.0, INF, 1.5, 3.0]))
        spec = NormSpec(p, k)
        u = rng.standard_normal(d)
        a = lmo_sp_ball(u, spec)
        assert float(a @ u) == pytest.approx(top_norm(u, spec), abs=1e-9)
        assert ksupport_value(a, spec) == pytest.approx(1.0, abs=1e-6)


def test_gradient_checker():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((5, 4))
    b = rng.standard_normal(5)
    obj = quadratic_objective(A, b)
    assert check_gradient(obj, [rng.standard_normal(4) for _ in range(3)]) < 1e-4
    X = rng.standard_normal((6, 3))
    labels = np.sign(rng.standard_normal(6))
    lg = logistic_objective(X, labels)
    assert check_gradient(lg, [rng.standard_normal(3) for _ in range(3)]) < 1e-4

    bad = quadratic_objective(A, b)
    bad.grad = lambda x: A.T @ (A @ x - b) + 0.05
    with pytest.raises(InvalidInputError):
        check_gradient(bad, [rng.standard_normal(4)])


def test_solve_lasso_example():
    a = np.array([2.0, 1.0, 0.0])
    obj = quadratic_objective(np.eye(3), a)
    rep = solve_penalized(obj, 1.5, NormSpec(1.0, 1))
    assert rep.converged
    assert np.max(np.abs(rep.x_star - [0.5, 0, 0])) <= 1e-9
    ok, gap = certify_optimality(rep.x_star, obj, 1.5, NormSpec(1.0, 1), Tolerance(1e-8, 1e-8))
    assert ok and gap <= 1e-8
    assert rep.support_bound == (1,)


def test_solve_zero_threshold_example():
    # gamma at least the dual norm of the gradient at zero gives x* = 0
    a = np.array([2.0, 1.0, 0.0])
    obj = quadratic_objective(np.eye(3), a)
    rep = solve_penalized(obj, 2.5, NormSpec(2.0, 1))
    assert rep.converged
    assert np.max(np.abs(rep.x_star)) == 0.0
    rep = solve_penalized(obj, 1.9, NormSpec(2.0, 1))
    assert np.max(np.abs(rep.x_star)) > 0  # below the threshold the solution moves


def test_solve_vanishing_penalty():
    a = np.array([2.0, 1.0, 0.0])
    obj = quadratic_objective(np.eye(3), a)
    rep = solve_penalized(obj, 1e-8, NormSpec(2.0, 2), SolveOptions(tol=1e-9))
    assert np.max(np.abs(rep.x_star - a)) <= 1e-6
    # the tolerance is below the rounding of grad f: the solve ends at the
    # exact fixed point of its step, flagged and not converged
    assert rep.stop == "fixed_point" and not rep.converged and rep.iterations == 2


def test_certify_examples():
    a = np.array([2.0, 1.0, 0.0])
    obj = quadratic_objective(np.eye(3), a)
    ok, gap = certify_optimality([0.5, 0, 0], obj, 1.5, NormSpec(1.0, 1), Tolerance(1e-8, 1e-8))
    assert ok and gap <= 1e-8
    ok, gap = certify_optimality([0, 0, 0], obj, 0.5, NormSpec(1.0, 1))
    assert not ok and gap > 0
    with pytest.raises(InvalidInputError):
        certify_optimality([0, 0, 0], obj, 0.0, NormSpec(1.0, 1))


def test_certificate_soundness_against_probes():
    rng = np.random.default_rng(2)
    for _ in range(5):
        d = 5
        A = rng.standard_normal((7, d))
        b = rng.standard_normal(7)
        obj = quadratic_objective(A, b)
        spec = NormSpec(2.0, 2)
        gamma = 0.8
        rep = solve_penalized(obj, gamma, spec, SolveOptions(tol=1e-9))
        ok, _ = certify_optimality(rep.x_star, obj, gamma, spec, Tolerance(1e-6, 1e-6))
        assert ok
        fstar = obj.value(rep.x_star) + gamma * ksupport_value(rep.x_star, spec)
        for _ in range(2000):
            z = rep.x_star + rng.standard_normal(d) * rng.uniform(0, 0.5)
            assert obj.value(z) + gamma * ksupport_value(z, spec) >= fstar - 1e-9


def test_identified_support_examples():
    ident = identified_support(np.zeros(4), [3, 2, 2, 1], NormSpec(2.0, 2))
    assert tuple(ident) == ((1, 2), (1, 3))
    assert ident.unique is None
    assert ident.bound == (1, 2, 3)
    ident = identified_support(np.zeros(3), [3, 1, 0], NormSpec(2.0, 1))
    assert ident.unique == (1,)
    # a fully tied gradient: C(30, 10) supports, carried by their two ends
    ident = identified_support(np.zeros(30), np.ones(30), NormSpec(2.0, 10))
    assert ident.count == 30_045_015
    assert ident.core == () and ident.bound == tuple(range(1, 31))
    with pytest.raises(ZeroGradientError):
        identified_support(np.zeros(2), [0.0, 0.0], NormSpec(2.0, 1))


def test_prox_satisfies_fermat_condition():
    # x = prox of s * ksupport at v minimizes 0.5 ||x - v||^2 + s ksupport(x),
    # so (v - x) / s is a subgradient of the norm at x
    from ksupport.solver import _prox

    rng = np.random.default_rng(3)
    for _ in range(40):
        d = int(rng.integers(2, 9))
        spec = NormSpec(float(rng.choice([1.0, 1.5, 2.0, 3.0, INF])), int(rng.integers(1, d + 1)))
        v = rng.standard_normal(d) * 3
        s = float(rng.uniform(0.2, 2.0))
        x = _prox(v, s, spec)
        obj = quadratic_objective(np.eye(d), v)
        ok, gap = certify_optimality(x, obj, s, spec, Tolerance(1e-9, 1e-9))
        assert ok, gap


def test_solver_support_identification_bound():
    rng = np.random.default_rng(4)
    for _ in range(25):
        d = int(rng.integers(4, 9))
        A = rng.standard_normal((d + 2, d))
        b = rng.standard_normal(d + 2)
        obj = quadratic_objective(A, b)
        spec = NormSpec(float(rng.choice([2.0, INF])), int(rng.integers(1, 4)))
        gamma = float(rng.uniform(0.3, 2.0))
        rep = solve_penalized(obj, gamma, spec, SolveOptions(tol=1e-8))
        assert rep.converged
        supp = set(support_of(rep.x_star, 1e-6))
        assert supp <= set(rep.support_bound) or not supp
        if rep.unique_support is not None:
            assert l0(rep.x_star, 1e-6) <= spec.k


def test_solver_iteration_cap_flagged():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((8, 6))
    b = rng.standard_normal(8)
    obj = quadratic_objective(A, b)
    rep = solve_penalized(obj, 0.5, NormSpec(2.0, 2), SolveOptions(tol=1e-16, max_iter=3))
    assert not rep.converged
    assert rep.iterations == 3
    assert rep.fw_gap > 0
    # at this accuracy every coordinate of the gradient ties, and the bound
    # must still hold every coordinate that carries mass
    assert set(support_of(rep.x_star)) <= set(rep.support_bound)


def test_solver_polytope_bound_is_not_trivial():
    # the p = inf planted least-squares setup of the solve-polytope benchmark
    rng = np.random.default_rng(7)
    d, m, k = 100, 50, 10
    A = rng.standard_normal((m, d))
    w = np.zeros(d)
    w[rng.choice(d, k, replace=False)] = rng.standard_normal(k)
    obj = quadratic_objective(A, A @ w + 0.01 * rng.standard_normal(m))
    spec = NormSpec(INF, k)
    rep = solve_penalized(obj, 1.0, spec, SolveOptions(tol=1e-6))
    ok, _ = certify_optimality(rep.x_star, obj, 1.0, spec, Tolerance(1e-6, 1e-6))
    assert rep.converged and ok
    assert len(rep.support_bound) < d
    assert set(support_of(rep.x_star, 1e-6)) <= set(rep.support_bound)


def test_logistic_solve_smoke():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((30, 5))
    w_true = np.array([1.5, -2.0, 0.0, 0.0, 0.0])
    labels = np.sign(X @ w_true + 0.1 * rng.standard_normal(30))
    obj = logistic_objective(X, labels)
    rep = solve_penalized(obj, 1.0, NormSpec(2.0, 2), SolveOptions(tol=1e-5, max_iter=2000))
    assert rep.fw_gap <= 1e-5
    ok, _ = certify_optimality(rep.x_star, obj, 1.0, NormSpec(2.0, 2), Tolerance(1e-4, 1e-4))
    assert ok


def test_lmo_randomized_tie_break_stays_optimal():
    rng = np.random.default_rng(7)
    u = np.array([2.0, 1.0, 1.0, 1.0])  # exact tie group below the top entry
    for spec in (NormSpec(2.0, 2), NormSpec(INF, 2), NormSpec(1.0, 2)):
        seen = set()
        for _ in range(20):
            a = lmo_sp_ball(u, spec, rng=rng)
            assert float(a @ u) == pytest.approx(top_norm(u, spec), abs=1e-12)
            assert ksupport_value(a, spec) == pytest.approx(1.0, abs=1e-9)
            seen.add(tuple(np.round(a, 12)))
        if spec.p != 1.0:
            assert len(seen) > 1  # the tie is actually explored
    # deterministic without rng
    a1 = lmo_sp_ball(u, NormSpec(2.0, 2))
    a2 = lmo_sp_ball(u, NormSpec(2.0, 2))
    assert np.array_equal(a1, a2)


def _lattice(rep):
    lat = rep.identified_supports
    return lat.core, lat.bound, tuple(lat.sizes)


@pytest.mark.parametrize("p", [1.5, 2.0, INF])
def test_solver_is_scale_free(p):
    # (sA, sb, s^2 gamma) has the same minimizer and (A, sb, s gamma) the
    # minimizer scaled by s; the relative Fermat gap sees neither scaling
    rng = np.random.default_rng(0)
    A = rng.standard_normal((12, 10))
    b = rng.standard_normal(12)
    spec = NormSpec(p, 3)
    base = solve_penalized(quadratic_objective(A, b), 1.0, spec)
    assert base.converged
    if p == 2.0:  # an absolute stop rule returned x = 0 here at s = 1e-6
        assert l0(base.x_star, 1e-6) == 8
    for s in (1e-6, 1.0, 1e3):
        for obj, gamma, x_scale in (
            (quadratic_objective(s * A, s * b), s * s, 1.0),
            (quadratic_objective(A, s * b), s, s),
        ):
            rep = solve_penalized(obj, gamma, spec)
            assert rep.converged and rep.iterations == base.iterations, (s, rep.iterations)
            assert _lattice(rep) == _lattice(base)
            err = np.max(np.abs(rep.x_star / x_scale - base.x_star))
            assert err <= 1e-9 * np.max(np.abs(base.x_star))


def test_converged_solve_is_certified_at_its_tolerance():
    # the generator of acceptance criterion 11; the certificate reads the
    # same relative gap as the stop rule, so converged implies certified
    rng = np.random.default_rng(111)
    small_gamma = 0
    for _ in range(50):
        d = int(rng.integers(4, 11))
        A = rng.standard_normal((d + 2, d))
        b = rng.standard_normal(d + 2)
        obj = quadratic_objective(A, b)
        spec = NormSpec(float(rng.choice([2.0, INF])), int(rng.integers(1, 4)))
        gamma = float(rng.uniform(0.2, 2.5))
        for tol in (1e-4, 1e-6):
            rep = solve_penalized(obj, gamma, spec, SolveOptions(tol=tol, max_iter=5000))
            if rep.converged:
                ok, r = certify_optimality(rep.x_star, obj, gamma, spec, Tolerance(0.0, tol))
                assert ok and r == rep.fw_gap
        small_gamma += gamma < 1
    assert small_gamma > 0
