import math

import numpy as np
import pytest

from ksupport.core import InvalidInputError, Tolerance, ZeroVectorError, l0, support_of
from ksupport.faces import support_lattice
from ksupport.norms import NormSpec, ksupport_value, project_top_ball, top_norm
from ksupport.solver import (
    SmoothObjective,
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


def test_hessian_checker():
    # the Hessian oracles, restricted to an index set, against their closed forms and
    # central differences of the gradient; a wrong one raises
    rng = np.random.default_rng(3)
    A, b = rng.standard_normal((5, 4)), rng.standard_normal(5)
    obj = quadratic_objective(A, b)
    idx = np.array([0, 2, 3])
    assert np.array_equal(obj.hess(rng.standard_normal(4), idx), A[:, idx].T @ A[:, idx])
    assert check_gradient(obj, [rng.standard_normal(4) for _ in range(3)]) < 1e-8
    X, labels = rng.standard_normal((6, 3)), np.sign(rng.standard_normal(6))
    lg = logistic_objective(X, labels)
    x = rng.standard_normal(3)
    sig = 1.0 / (1.0 + np.exp(-(X @ x)))
    assert np.allclose(lg.hess(x, np.arange(3)), X.T @ np.diag(sig * (1.0 - sig)) @ X, rtol=1e-12, atol=1e-14)
    assert np.allclose(lg.hess(x, idx[:2]), lg.hess(x, np.arange(3))[np.ix_(idx[:2], idx[:2])], rtol=1e-14)
    assert check_gradient(lg, [3.0 * rng.standard_normal(3) for _ in range(3)]) < 1e-6
    for bad in (quadratic_objective(A, b), logistic_objective(X, labels)):
        hess = bad.hess
        bad.hess = lambda x, idx: 1.05 * hess(x, idx)
        with pytest.raises(InvalidInputError, match="Hessian"):
            check_gradient(bad, [rng.standard_normal(bad.dim)])


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
    for gamma in (0.0, -1.0, INF, math.nan):
        with pytest.raises(InvalidInputError):
            certify_optimality([0, 0, 0], obj, gamma, NormSpec(1.0, 1))


@pytest.mark.parametrize("gamma", [0.0, -1.0, INF, math.nan])
def test_solve_rejects_gamma_not_finite_positive(gamma):
    obj = quadratic_objective(np.eye(3), [2.0, 1.0, 0.0])
    with pytest.raises(InvalidInputError, match="gamma"):
        solve_penalized(obj, gamma, NormSpec(2.0, 2))


def test_solve_options_validation():
    for tol in (math.nan, INF, -INF, -1.0):
        with pytest.raises(InvalidInputError, match="tol"):
            SolveOptions(tol=tol)
    for max_iter in (-1, 2.5, 10.0, "10", None):
        with pytest.raises(InvalidInputError, match="max_iter"):
            SolveOptions(max_iter=max_iter)
    assert SolveOptions(tol=0.0, max_iter=0) == SolveOptions(0.0, 0)
    assert SolveOptions(max_iter=np.int64(7)).max_iter == 7


def test_objectives_reject_nonfinite_data():
    A, b = np.eye(3), np.array([2.0, 1.0, 0.0])
    for bad in (math.nan, INF):
        A_bad, b_bad = A.copy(), b.copy()
        A_bad[1, 2], b_bad[0] = bad, bad
        with pytest.raises(InvalidInputError, match="finite"):
            quadratic_objective(A_bad, b)
        with pytest.raises(InvalidInputError, match="finite"):
            quadratic_objective(A, b_bad)
        with pytest.raises(InvalidInputError, match="finite"):
            logistic_objective(A_bad, [1.0, -1.0, 1.0])


def test_early_exit_gap_decides_as_the_full_gap():
    # the solver's stop test reads the gap with its tolerance, which skips
    # ksupport(x) once top_norm(g) alone settles the test
    from ksupport.solver import _fermat_gap

    rng = np.random.default_rng(12)
    checked = early = 0
    for _ in range(300):
        d = int(rng.integers(1, 9))
        spec = NormSpec(float(rng.choice([1.0, 1.5, 2.0, 3.0, INF])), int(rng.integers(1, d + 1)))
        g = rng.integers(-3, 4, size=d).astype(float) if rng.random() < 0.5 else rng.standard_normal(d)
        if not g.any():
            g[0] = 1.0
        x = np.zeros(d) if rng.random() < 0.3 else rng.integers(-2, 3, size=d).astype(float)
        gamma = top_norm(g, spec) * float(rng.choice([0.5, 0.9, 1.0, 1.1, 2.0]))
        full = _fermat_gap(x, g, top_norm(g, spec), gamma, spec)
        head = (top_norm(g, spec) - gamma) / gamma
        for tol in (0.0, 1e-9, 1e-3, 0.5, full, np.nextafter(full, 0.0), np.nextafter(full, INF), abs(head)):
            got = _fermat_gap(x, g, top_norm(g, spec), gamma, spec, tol)
            assert (got <= tol) == (full <= tol), (g, x, gamma, tol)
            if full <= tol:
                assert got == full
            checked += 1
            early += got != full
    assert early > 0 and checked - early > 0


@pytest.mark.parametrize("bad_call", [2, 3, 4, 5, 6])
def test_nan_gradient_raises_in_solve(bad_call):
    # a gradient that turns NaN, or gets one NaN, +inf or -inf entry, at a given
    # call, with and without backtracking (the call may be the one at the new
    # iterate or at the extrapolated point): the prox does not validate, so the
    # solver must reject it
    rng = np.random.default_rng(8)
    A = rng.standard_normal((8, 6))
    b = rng.standard_normal(8)
    quad = quadratic_objective(A, b)
    for spec in (NormSpec(2.0, 2), NormSpec(1.5, 3), NormSpec(INF, 2), NormSpec(1.0, 1)):
        for keep_quad in (True, False):
            for bad in ("all NaN", math.nan, math.inf, -math.inf):
                calls = [0]

                def grad(x):
                    calls[0] += 1
                    g = quad.grad(x)
                    if calls[0] >= bad_call:
                        if bad == "all NaN":
                            g = g * math.nan
                        else:
                            g[calls[0] % g.size] = bad
                    return g

                obj = SmoothObjective(6, quad.value, grad, quad.lipschitz, quad.quad if keep_quad else None)
                # arithmetic on an inf entry warns before the gap rejects the gradient
                with pytest.raises(InvalidInputError, match="finite"), np.errstate(invalid="ignore"):
                    solve_penalized(obj, 0.1, spec, SolveOptions(tol=1e-12, max_iter=100))
                assert calls[0] <= bad_call + 3, (spec, keep_quad, bad)  # at the next stop test


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

    from ksupport import norms

    rng = np.random.default_rng(3)
    for _ in range(40):
        d = int(rng.integers(2, 9))
        spec = NormSpec(float(rng.choice([1.0, 1.5, 2.0, 3.0, INF])), int(rng.integers(1, d + 1)))
        v = rng.standard_normal(d) * 3
        s = float(rng.uniform(0.2, 2.0))
        x, _ = _prox(v, s, spec)
        obj = quadratic_objective(np.eye(d), v)
        ok, gap = certify_optimality(x, obj, s, spec, Tolerance(1e-9, 1e-9))
        assert ok, gap
    # the prox written from the projection's level is v - s * project_top_ball(v / s):
    # d up to 300, tied integer entries, inputs inside the ball, k = d and scales 1e-3
    # to 1e3; 300 draws at p = inf and k >= 2 (the q = 1 level search), then 300
    # at every p with k = 1 (the box) and k = d among them
    seen = {(q1, kind): 0 for q1 in (True, False) for kind in ("inside", "top k", "search")}
    seen |= {"box": 0, "k = d": 0, "ties": 0}
    for i in range(600):
        d = int(rng.integers(2, 301))
        if i < 300:
            spec = NormSpec(INF, d if i % 5 == 0 else int(rng.integers(2, d + 1)))
        else:
            k = d if i % 5 == 0 else 1 if i % 5 == 1 else int(rng.integers(2, d + 1))
            spec = NormSpec(float(rng.choice([1.0, 1.5, 2.0, 3.0, INF])), k)
        v = rng.integers(-3, 4, d).astype(float) if i % 2 else rng.standard_normal(d)
        if not v.any():
            v[0] = 1.0
        s = 10.0 ** float(rng.uniform(-3.0, 3.0))
        v *= s * float(rng.choice([0.5, 1.005, 1.05, 1.3, 3.0])) / top_norm(v, spec)
        x, level = _prox(v, s, spec)
        w = project_top_ball(v / s, spec)
        assert np.max(np.abs(x - (v - s * w))) <= 1e-12 * np.max(np.abs(v)), (i, d, spec)
        assert not x[w == v / s].any(), (i, d, spec)
        found = norms._top_ball_level(np.abs(v / s), spec)
        box = np.isinf(spec.q) or spec.k == 1
        if found is not None and not box:  # the level is the (k+1)-th largest |w|, 0 past d
            assert level == np.append(np.sort(np.abs(w))[::-1], 0.0)[spec.k], (i, d, spec)
        obj = quadratic_objective(np.eye(d), v)
        ok, gap = certify_optimality(x, obj, s, spec, Tolerance(1e-9, 1e-9))
        assert ok, (i, gap)
        if box:
            seen["box"] += found is not None
        else:
            seen[spec.q == 1, "inside" if found is None else "top k" if found[1] == 0.0 else "search"] += 1
        seen["k = d"] += spec.k == d
        seen["ties"] += i % 2
    assert min(seen.values()) >= 10, seen


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


def _planted_pinf(d, k=10):
    # the p = inf planted least-squares setup of the solve-polytope benchmark
    rng = np.random.default_rng(7)
    A = rng.standard_normal((d // 2, d))
    w = np.zeros(d)
    w[rng.choice(d, k, replace=False)] = rng.standard_normal(k)
    return quadratic_objective(A, A @ w + 0.01 * rng.standard_normal(d // 2)), NormSpec(INF, k)


def test_solver_polytope_bound_is_not_trivial():
    d = 100
    obj, spec = _planted_pinf(d)
    rep = solve_penalized(obj, 1.0, spec, SolveOptions(tol=1e-6))
    ok, _ = certify_optimality(rep.x_star, obj, 1.0, spec, Tolerance(1e-6, 1e-6))
    assert rep.converged and ok
    assert len(rep.support_bound) < d
    assert set(support_of(rep.x_star, 1e-6)) <= set(rep.support_bound)


@pytest.mark.parametrize("d", [60, 100])
def test_pinf_least_squares_finishes_on_its_face(d):
    # the face read from x held for a period; the descent on it lands on the optimum
    obj, spec = _planted_pinf(d)
    rep = solve_penalized(obj, 1.0, spec, SolveOptions(tol=1e-6))
    ok, _ = certify_optimality(rep.x_star, obj, 1.0, spec, Tolerance(1e-6, 1e-6))
    assert rep.stop == "face" and rep.converged and ok
    assert rep.fw_gap <= 1e-12
    assert set(support_of(rep.x_star)) <= set(rep.support_bound)
    a = np.abs(rep.x_star)
    n_tied = int(np.count_nonzero(a == a.max()))
    assert rep.face_sizes == (n_tied, int(np.count_nonzero(a)) - n_tied)
    assert n_tied < spec.k <= sum(rep.face_sizes)  # a ridge face


def _energy(obj, gamma, spec, x):
    return obj.value(x) + gamma * ksupport_value(x, spec)


def _ridge_point(signed, d=12):
    # H = {0} at M = 1 and six tail entries whose magnitudes sum to k - |H| = 4, exactly
    x = np.zeros(d)
    x[[0, 2, 3, 5, 7, 8, 10]] = signed
    return x


def _piece_step(A, b, k, x):
    # one try of the piece finish at p = inf, from the piece read from x
    from ksupport import solver

    spec = NormSpec(INF, k)
    return solver._piece_newton(quadratic_objective(A, b), 1.0, spec, x, solver._piece(x, spec))


def test_face_descent_drops_spare_free_entries():
    # |T| = m + 2 free entries: the descent stays on the face, keeps every sign and lowers the objective
    rng = np.random.default_rng(0)
    m, k = 4, 5
    A, b = rng.standard_normal((m, 12)), rng.standard_normal(m)
    x = _ridge_point([1.0, -0.875, 0.75, -0.625, 0.5, 0.75, -0.5])
    y = _piece_step(A, b, k, x)
    assert y is not None
    assert np.count_nonzero(y) < np.count_nonzero(x)
    assert np.all((np.sign(y) == np.sign(x)) | (y == 0.0))
    obj, spec = quadratic_objective(A, b), NormSpec(INF, k)
    assert _energy(obj, 1.0, spec, y) <= _energy(obj, 1.0, spec, x)
    a = np.abs(y)
    assert a.sum() == pytest.approx(k * a.max(), rel=1e-12)  # still on the ridge


def test_face_descent_ties_an_entry_blocked_at_the_top():
    # x_2 sits 2^-20 below -M: a move stops where it reaches -M, and it stays in H from then on
    rng = np.random.default_rng(0)
    m, k = 4, 5
    A, b = rng.standard_normal((m, 12)), rng.standard_normal(m)
    x = _ridge_point([1.0, -(1.0 - 2.0**-20), 0.75, -0.625, 0.5, 0.625 + 2.0**-20, -0.5])
    y = _piece_step(A, b, k, x)
    assert y is not None
    assert y[2] == -np.abs(y).max() == -y[0]
    obj, spec = quadratic_objective(A, b), NormSpec(INF, k)
    assert _energy(obj, 1.0, spec, y) <= _energy(obj, 1.0, spec, x)


def test_face_descent_refuses_an_off_ridge_point(monkeypatch):
    # ||x||_1 = 4.75 < k max|x| = 5: x is off its ridge, so no piece system is solved
    def no_solve(*args):
        raise AssertionError("a piece system was solved")

    rng = np.random.default_rng(0)
    A, b = rng.standard_normal((4, 12)), rng.standard_normal(4)
    x = _ridge_point([1.0, -0.875, 0.75, -0.625, 0.5, 0.75, -0.25])
    monkeypatch.setattr(np.linalg, "solve", no_solve)
    assert _piece_step(A, b, 5, x) is None


def test_face_descent_on_duplicated_columns(monkeypatch):
    # singular piece systems: every p = inf solve is certified, and a point the solve
    # takes (its "face" stop, or the start of a restart) never raises the objective
    from ksupport import solver

    calls, proxed = [], set()
    newton, prox = solver._piece_newton, solver._prox

    def spy_newton(obj, gamma, spec, x, piece):
        calls.append((x.copy(), newton(obj, gamma, spec, x, piece)))
        return calls[-1][1]

    def spy_prox(v, *args):
        proxed.add(v.tobytes())
        return prox(v, *args)

    monkeypatch.setattr(solver, "_piece_newton", spy_newton)
    monkeypatch.setattr(solver, "_prox", spy_prox)
    rng = np.random.default_rng(2)
    taken = 0
    for _ in range(200):
        d = int(rng.integers(4, 10))
        m, k = int(rng.integers(d, 2 * d + 1)), int(rng.integers(2, d))
        A = rng.integers(-2, 3, size=(m, d)).astype(float)
        i, j = rng.choice(d, 2, replace=False)
        A[:, j] = rng.choice([-1.0, 1.0]) * A[:, i]
        obj, spec = quadratic_objective(A, rng.integers(-3, 4, size=m).astype(float)), NormSpec(INF, k)
        gamma = float(rng.choice([0.1, 0.5, 1.0, 2.0]))
        calls.clear()
        proxed.clear()
        rep = solve_penalized(obj, gamma, spec, SolveOptions(tol=1e-8, max_iter=20_000))
        ok, _ = certify_optimality(rep.x_star, obj, gamma, spec, Tolerance(1e-6, 1e-6))
        assert rep.converged and ok
        for x, y in calls:
            if y is None:
                continue
            # a restart from y proxes exactly y - step * grad f(y), the step fixed at 1 / L
            restart = (y - 1.0 / obj.lipschitz * obj.grad(y)).tobytes() in proxed
            if restart or rep.x_star.tobytes() == y.tobytes():
                taken += 1
                assert _energy(obj, gamma, spec, y) <= _energy(obj, gamma, spec, x)
    assert taken >= 5


def test_piece_newton_on_a_singular_p2_system():
    # H = {0} and seven pooled tail entries, more than the m = 4 rows of A: s A_S^T A_S (rank 4)
    # plus the norm's Hessian (rank at most 3) is singular on the 8 entries of S, with a null
    # direction that lowers the norm; every step keeps the signs and does not raise the objective
    from ksupport import solver

    rng = np.random.default_rng(1)
    m, k, spec = 4, 5, NormSpec(2.0, 5)
    for _ in range(100):
        A, b = rng.standard_normal((m, 12)), rng.standard_normal(m)
        obj, x, on = quadratic_objective(A, b), np.zeros(12), rng.choice(12, 8, replace=False)
        x[on] = rng.choice([-1.0, 1.0], 8) * np.append(1.0, rng.uniform(0.3, 0.5, 7))
        piece = solver._piece(x, spec)
        assert np.array_equal(np.abs(piece[on]), [2, 1, 1, 1, 1, 1, 1, 1])
        y = solver._piece_newton(obj, 1.0, spec, x, piece)
        assert y is not None and np.isfinite(y).all()
        assert np.all((np.sign(y) == np.sign(x)) | (y == 0.0))
        assert _energy(obj, 1.0, spec, y) <= _energy(obj, 1.0, spec, x)


def test_only_objectives_with_a_hessian_try_a_piece(monkeypatch):
    # the piece finish runs for an objective that carries a Hessian, at p > 1 and 2 <= k < d:
    # least squares at p = 2 and p = inf and logistic loss at p = inf, and for no other
    from ksupport import solver

    newton, pieces = solver._piece_newton, []

    def spy_newton(*args):
        pieces.append(args[-1])
        return newton(*args)

    monkeypatch.setattr(solver, "_piece_newton", spy_newton)
    obj, _ = _planted_pinf(60)
    no_hess = SmoothObjective(obj.dim, obj.value, obj.grad, obj.lipschitz, obj.quad)
    rng = np.random.default_rng(9)
    X = rng.standard_normal((40, 15))
    labels = np.sign(X @ (2.0 * rng.standard_normal(15) * (rng.random(15) < 0.3)) + 0.5 * rng.standard_normal(40))
    logistic = logistic_objective(X, labels)
    cases = [(obj, NormSpec(p, k), True) for p, k in ((2.0, 10), (INF, 10))]
    cases += [(obj, NormSpec(1.0, 10), False), (obj, NormSpec(INF, 1), False), (logistic, NormSpec(INF, 3), True)]
    cases += [(no_hess, NormSpec(2.0, 10), False), (no_hess, NormSpec(INF, 10), False)]
    for f, spec, tried in cases:
        pieces.clear()
        rep = solve_penalized(f, 1.0, spec, SolveOptions(tol=1e-8, max_iter=3000))
        assert rep.iterations > 20, spec  # past two readings of the piece
        if tried:
            assert pieces, spec
            if f is obj:
                assert rep.stop == "face" and rep.face_sizes is not None, spec
        else:
            assert not pieces and rep.face_sizes is None, spec


def _planted_curved(seed, d=50, k=10):
    # the planted least squares of the solve-curved benchmark: m = d / 2
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d // 2, d))
    w = np.zeros(d)
    w[rng.choice(d, k, replace=False)] = rng.standard_normal(k)
    return quadratic_objective(A, A @ w + 0.01 * rng.standard_normal(d // 2))


def _planted_logistic(seed, d=20, m=60, k=3):
    # shaped like the logistic-d20-p2 case of solve-curved
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, d))
    w = np.zeros(d)
    w[rng.choice(d, k, replace=False)] = 2.0 * rng.standard_normal(k)
    return logistic_objective(X, np.where(X @ w + 0.5 * rng.standard_normal(m) >= 0.0, 1.0, -1.0))


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_curved_least_squares_finishes_on_its_piece(p):
    # Newton on the piece read from x lands on the optimum, far below the tolerance
    spec = NormSpec(p, 10)
    for seed in range(3):
        obj = _planted_curved(seed)
        rep = solve_penalized(obj, 1.0, spec, SolveOptions(tol=1e-6))
        ok, _ = certify_optimality(rep.x_star, obj, 1.0, spec, Tolerance(0.0, 1e-10))
        assert rep.stop == "face" and rep.converged and ok, (seed, rep.fw_gap)
        n_single, n_pooled = rep.face_sizes
        assert n_single < spec.k and n_single + n_pooled == np.count_nonzero(rep.x_star)
        assert set(support_of(rep.x_star)) <= set(rep.support_bound)


def test_logistic_finish_ends_inside_the_cap(monkeypatch):
    # the logistic-d20-p2 shape: plain FISTA stops at the cap of 150 on most
    # instances, and the piece finish ends every one inside it, certified
    from ksupport import solver

    spec, opts = NormSpec(2.0, 3), SolveOptions(tol=1e-6, max_iter=150)
    objs = [_planted_logistic(seed) for seed in range(6)]
    for obj in objs:
        rep = solve_penalized(obj, 1.0, spec, opts)
        ok, _ = certify_optimality(rep.x_star, obj, 1.0, spec, Tolerance(0.0, 1e-10))
        assert rep.stop == "face" and ok and rep.iterations < 150
    monkeypatch.setattr(solver, "_FACE_PERIOD", 10**9)
    assert sum(solve_penalized(obj, 1.0, spec, opts).stop == "max_iter" for obj in objs) >= 4


def test_pinf_logistic_finishes_on_its_face():
    # the logistic-d20-pinf shape: a solve whose face is a ridge ends there, certified far
    # below the tolerance; one whose face is off its ridge goes on to "tol"
    spec, opts = NormSpec(INF, 3), SolveOptions(tol=1e-6, max_iter=1000)
    stops = []
    for seed in range(8):
        obj = _planted_logistic(seed)
        rep = solve_penalized(obj, 1.0, spec, opts)
        ok, _ = certify_optimality(rep.x_star, obj, 1.0, spec, Tolerance(0.0, 1e-10))
        assert rep.converged, seed
        if rep.stop == "face":
            a = np.abs(rep.x_star)
            assert ok and rep.face_sizes[0] == np.count_nonzero(a == a.max()) < spec.k, seed
        stops.append(rep.stop)
    assert stops.count("face") >= 6, stops


def test_logistic_finish_takes_a_step_lost_in_rounding():
    # solve-curved's logistic-d20-p2 draw at seed 0, pass 2: its try reaches a Newton step
    # whose decrease f cannot resolve, so backtracking cannot accept it; taken in full, it
    # ends the try and the solve far below the tolerance
    rng = np.random.default_rng([0, 2, 4])
    X, w = rng.standard_normal((60, 20)), np.zeros(20)
    support = rng.choice(20, 3, replace=False)
    w[support] = 2.0 * rng.standard_normal(3)
    obj = logistic_objective(X, np.where(X @ w + 0.5 * rng.standard_normal(60) >= 0.0, 1.0, -1.0))
    spec = NormSpec(2.0, 3)
    rep = solve_penalized(obj, 1.0, spec, SolveOptions(tol=1e-6, max_iter=150))
    ok, _ = certify_optimality(rep.x_star, obj, 1.0, spec, Tolerance(0.0, 1e-10))
    assert rep.stop == "face" and ok, rep.fw_gap


@pytest.mark.parametrize("wrong", ["an H entry in the tail", "a flipped sign", "a higher objective"])
def test_a_wrong_piece_is_refused(monkeypatch, wrong):
    # a piece that does not hold at x (at p = 2, or a face at p = inf) is refused before
    # any solve, and a point that fails the gap test and does not lower the objective is
    # left, so the iterates are those of plain FISTA, which never reads a piece
    from ksupport import solver

    newton, tries = solver._piece_newton, []

    def wrong_piece(obj, gamma, spec, x, piece):
        if wrong == "a higher objective":
            tries.append(2.0 * x)
            assert _energy(obj, gamma, spec, tries[-1]) > _energy(obj, gamma, spec, x)
            return tries[-1]
        piece = piece.copy()
        marked = np.flatnonzero(np.abs(piece) == (2.0 if wrong == "an H entry in the tail" else 1.0))
        if not marked.size:  # no entry to move: the piece stands
            return newton(obj, gamma, spec, x, piece)
        i = marked[0]
        piece[i] = np.sign(piece[i]) if wrong == "an H entry in the tail" else -piece[i]
        tries.append(newton(obj, gamma, spec, x, piece))
        return tries[-1]

    opts = SolveOptions(tol=1e-6)
    for obj, spec in ((_planted_curved(0), NormSpec(2.0, 10)), _planted_pinf(100)):
        monkeypatch.setattr(solver, "_FACE_PERIOD", 10**9)
        plain = solve_penalized(obj, 1.0, spec, opts)
        monkeypatch.undo()
        tries.clear()
        monkeypatch.setattr(solver, "_piece_newton", wrong_piece)
        rep = solve_penalized(obj, 1.0, spec, opts)
        monkeypatch.undo()
        assert len(tries) >= (6 if spec.p == INF else 3), spec
        assert wrong == "a higher objective" or all(y is None for y in tries), spec
        assert plain.stop == rep.stop == "tol" and rep.face_sizes is None
        assert rep.iterations == plain.iterations and rep.x_star.tobytes() == plain.x_star.tobytes()


@pytest.mark.parametrize("wrong", ["no point"])
def test_a_wrong_face_is_refused(monkeypatch, wrong):
    # a p = inf face whose solve returns no point leaves the iterates as plain FISTA,
    # which never reads a face, leaves them
    from ksupport import solver

    obj, spec = _planted_pinf(100)
    opts = SolveOptions(tol=1e-6)
    monkeypatch.setattr(solver, "_FACE_PERIOD", 10**9)
    plain = solve_penalized(obj, 1.0, spec, opts)
    monkeypatch.undo()
    faces = []

    def wrong_face(obj, gamma, spec, x, piece):
        faces.append(piece)
        return None

    monkeypatch.setattr(solver, "_piece_newton", wrong_face)
    rep = solve_penalized(obj, 1.0, spec, opts)
    assert len(faces) > 5
    assert plain.stop == rep.stop == "tol" and rep.face_sizes is None
    assert rep.iterations == plain.iterations and rep.x_star.tobytes() == plain.x_star.tobytes()


def test_solve_without_a_hessian_is_plain_fista(monkeypatch):
    # an objective without hess never reads a piece: its iterates are those of
    # the same objective with its Hessian and the piece never read
    from ksupport import solver

    def bare(obj):
        return SmoothObjective(obj.dim, obj.value, obj.grad, obj.lipschitz, obj.quad)

    cases = [(_planted_curved(1), NormSpec(p, 10)) for p in (1.5, 2.0)]
    cases.append((_planted_logistic(1), NormSpec(2.0, 3)))
    opts = SolveOptions(tol=1e-6, max_iter=3000)
    piece = solver._piece
    monkeypatch.setattr(solver, "_piece", lambda *a: pytest.fail("a piece was read"))
    got = [solve_penalized(bare(obj), 1.0, spec, opts) for obj, spec in cases]
    monkeypatch.setattr(solver, "_piece", piece)
    monkeypatch.setattr(solver, "_FACE_PERIOD", 10**9)
    for (obj, spec), rep in zip(cases, got):
        plain = solve_penalized(obj, 1.0, spec, opts)
        assert rep.stop == plain.stop == "tol" and rep.face_sizes is None
        assert rep.iterations == plain.iterations and rep.x_star.tobytes() == plain.x_star.tobytes()


def test_pinf_solves_are_bitwise_without_the_level_warm_start(monkeypatch):
    # at p = inf the prox's level search starts at the last iteration's level;
    # started cold instead, the solves are the same bytes
    from ksupport import norms, solver

    rng = np.random.default_rng(8)
    cases = []
    for d, k in ((60, 5), (120, 10)):  # planted least squares, as in the solve-polytope benchmark
        A = rng.standard_normal((d // 2, d))
        w = np.zeros(d)
        w[rng.choice(d, k, replace=False)] = rng.standard_normal(k)
        b = A @ w + 0.01 * rng.standard_normal(d // 2)
        cases.append((quadratic_objective(A, b), NormSpec(INF, k)))
    X = rng.standard_normal((40, 15))  # logistic: the step backtracks
    w = 2.0 * rng.standard_normal(15) * (rng.random(15) < 0.3)
    labels = np.sign(X @ w + 0.5 * rng.standard_normal(40))
    logistic = logistic_objective(X, labels)  # without its Hessian: no piece finish cuts the solve short
    cases.append((SmoothObjective(logistic.dim, logistic.value, logistic.grad, logistic.lipschitz), NormSpec(INF, 3)))

    def solve_all():
        reps = [solve_penalized(obj, 1.0, spec, SolveOptions(tol=1e-8, max_iter=3000)) for obj, spec in cases]
        return [(r.x_star.tobytes(), r.iterations, r.stop, r.identified_supports) for r in reps]

    warm = solve_all()
    searches = [0]

    top1_level = norms._top1_level

    def cold(a, k, start=0.0):
        searches[0] += 1
        return top1_level(a, k)

    monkeypatch.setattr(norms, "_top1_level", cold)
    assert solve_all() == warm
    assert searches[0] >= sum(it - 1 for _, it, _, _ in warm)  # a prox in every iteration but a converged last
    assert all(it > 50 for _, it, _, _ in warm)


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


def test_lmo_tie_break_is_first_lattice_member():
    # exact ties (tie 0): the core, then the rest of the bound in index order
    rng = np.random.default_rng(7)
    for _ in range(400):
        d = int(rng.integers(1, 9))
        spec = NormSpec(float(rng.choice([1.0, 1.5, 2.0, INF])), int(rng.integers(1, d + 1)))
        u = rng.integers(-2, 3, size=d).astype(float)
        if not u.any():
            u[0] = 1.0
        lat = support_lattice(u, spec, 0.0)
        free = [i for i in lat.bound if i not in lat.core]
        on = np.zeros(d, dtype=bool)
        on[np.array(lat.core + tuple(free[: lat.sizes[-1] - len(lat.core)])) - 1] = True
        a = lmo_sp_ball(u, spec)
        assert not a[~on].any()
        if spec.p in (1.0, INF):
            assert np.array_equal(a[on], np.where(u[on] >= 0, 1.0, -1.0))
        else:
            assert np.array_equal(np.sign(a[on]), np.sign(u[on]))
        assert float(a @ u) == pytest.approx(top_norm(u, spec), abs=1e-12)
        assert ksupport_value(a, spec) == pytest.approx(1.0, abs=1e-9)


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
