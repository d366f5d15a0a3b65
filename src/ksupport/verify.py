"""Seeded verification suites pairing analytic paths with brute-force oracles.

Each suite returns a dict with the suite name, trial counts, failure count,
and a short detail string; ``passed`` is True when no trial failed.  The
CLI ``verify`` subcommand runs them at user scale and the acceptance tests
run them at the contract scale.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .core import ScaleLimitError, Tolerance, k_subsets, l0, level_index, support_of
from .faces import exposed_face_sp, optimal_support_lattice_bounds
from .norms import NormSpec, ksupport_norm, ksupport_value, lp_norm, top_norm
from .oracles import (
    _NORM_ORACLE_MAX_D,
    _SUPPORT_SCAN_MAX_D,
    _restrict,
    brute_exposed_face,
    brute_face_lattice,
    brute_optimal_supports,
    dd_balls,
    ksupport_norm_oracle,
    lasso_closed_form,
    sampled_exposed_face,
)
from .polytopes import (
    _FACE_LATTICE_MAX_D,
    _clear,
    _dot,
    enumerate_proper_faces_top1k,
    facet_from_sign_vector,
    fan_refinement_check,
    is_hypersimplex,
    ksup_inf_ball,
    sign_vectors,
    top1k_ball,
)
from .solver import (
    SolveOptions,
    certify_optimality,
    lmo_sp_ball,
    quadratic_objective,
    solve_penalized,
)

__all__ = ["SUITES", "run_all"]


def _result(name: str, trials: int, failures: list) -> dict:
    return {
        "suite": name,
        "trials": trials,
        "failures": len(failures),
        "passed": not failures,
        "detail": str(failures[:3]) if failures else "",
    }


def _random_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    if rng.random() < 0.5:
        mags = rng.integers(0, 4, size=d).astype(float)
        if not mags.any():
            mags[rng.integers(0, d)] = 1.0
        return mags * rng.choice([-1.0, 1.0], size=d)
    x = rng.standard_normal(d)
    if not np.abs(x).max():
        x[0] = 1.0
    return x


def suite_degeneracies(trials: int = 200, seed: int = 0) -> dict:
    """Closed-form degeneracies of the norm pair, exact to 1e-12."""
    rng = np.random.default_rng(seed)
    failures = []
    for t in range(trials):
        d = int(rng.integers(2, 9))
        x = rng.standard_normal(d) * rng.uniform(0.1, 10)
        k = int(rng.integers(1, d + 1))
        p = float(rng.choice([1.0, 2.0, np.inf, 1.7, 3.0]))
        l1 = float(np.abs(x).sum())
        linf = float(np.abs(x).max())
        checks = [
            (ksupport_value(x, NormSpec(1.0, k)), l1),
            (ksupport_value(x, NormSpec(p, 1)), l1),
            (top_norm(x, NormSpec(p, 1)), linf),
            (ksupport_value(x, NormSpec(p, d)), lp_norm(x, p)),
            (top_norm(x, NormSpec(p, d)), lp_norm(x, NormSpec(p, d).q)),
        ]
        for got, want in checks:
            if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                failures.append((t, d, k, p, got, want))
    return _result("degeneracies", trials, failures)


def suite_duality(
    trials: int = 10_000, d_max: int = 8, seed: int = 0, equality_trials: int = 500
) -> dict:
    """Generalized Hoelder: <x,y> <= ksup(x) top(y), with equality at the
    exposed-face vertices of y."""
    rng = np.random.default_rng(seed)
    failures = []
    for t in range(trials):
        d = int(rng.integers(2, d_max + 1))
        k = int(rng.integers(1, d + 1))
        p = float(rng.choice([1.0, 2.0, np.inf, 1.5, 3.0]))
        spec = NormSpec(p, k)
        x = rng.standard_normal(d)
        y = rng.standard_normal(d)
        lhs = float(x @ y)
        rhs = ksupport_value(x, spec) * top_norm(y, spec)
        if lhs > rhs + 1e-9:
            failures.append(("pairing", t, lhs - rhs))
    for t in range(equality_trials):
        d = int(rng.integers(2, d_max + 1))
        k = int(rng.integers(1, d + 1))
        p = float(rng.choice([1.0, 2.0, np.inf, 1.5, 3.0]))
        spec = NormSpec(p, k)
        y = _random_vector(rng, d)
        x = lmo_sp_ball(y, spec)
        lhs = float(x @ y)
        rhs = ksupport_value(x, spec) * top_norm(y, spec)
        if abs(lhs - rhs) > 1e-6 * max(1.0, abs(rhs)):
            failures.append(("equality", t, lhs - rhs))
    return _result("duality", trials + equality_trials, failures)


def suite_norm_oracle(
    trials: int = 100,
    d_max: int = 6,
    k_max: int = 3,
    seed: int = 0,
    p_values: tuple = (2.0, math.inf),
    tol: float = 1e-6,
) -> dict:
    """Analytic k-support evaluation against the decomposition oracle."""
    if d_max > _NORM_ORACLE_MAX_D:
        raise ScaleLimitError(f"decomposition oracle is limited to d <= {_NORM_ORACLE_MAX_D}")
    rng = np.random.default_rng(seed)
    failures = []
    for t in range(trials):
        d = int(rng.integers(2, d_max + 1))
        k = int(rng.integers(1, min(k_max, d) + 1))
        p = float(rng.choice(list(p_values)))
        spec = NormSpec(p, k)
        x = rng.standard_normal(d)
        a = ksupport_norm(x, spec)
        o = ksupport_norm_oracle(x, spec)
        if abs(a.value - o.value) > tol:
            failures.append((t, d, k, p, a.value, o.value))
    return _result("norm-oracle", trials, failures)


def _hausdorff(A: list[np.ndarray], B: list[np.ndarray]) -> float:
    def one_sided(P, Q):
        return max(min(float(np.linalg.norm(p - q)) for q in Q) for p in P)

    return max(one_sided(A, B), one_sided(B, A))


def suite_faces(
    trials: int = 200,
    d_max: int = 6,
    seed: int = 0,
    n_atoms: int = 100_000,
    hausdorff_tol: float = 1e-3,
) -> dict:
    """Exposed-face vertices against the sampled-atom argmax (1 < p < inf)."""
    rng = np.random.default_rng(seed)
    failures = []
    for t in range(trials):
        d = int(rng.integers(2, d_max + 1))
        k = int(rng.integers(1, min(3, d) + 1))
        p = float(rng.choice([2.0, 1.5, 3.0]))
        spec = NormSpec(p, k)
        y = _random_vector(rng, d)
        face = exposed_face_sp(y, spec)
        topv = top_norm(y, spec)
        for v in face.vertices:
            if abs(float(v @ y) - topv) > 1e-9 * max(1.0, topv):
                failures.append(("value", t, d, k, p))
                break
        points, _ = sampled_exposed_face(y, spec, n_atoms=n_atoms, seed=seed + t)
        dist = _hausdorff(list(face.vertices), points)
        if dist > hausdorff_tol:
            failures.append(("hausdorff", t, d, k, p, dist))
    return _result("faces", trials, failures)


def suite_lattice(trials: int = 500, d_max: int = 8, seed: int = 0) -> dict:
    """Intersection/union of optimal supports against the level sets and
    against an exhaustive scan of every support.

    The union always equals the weak set.  The intersection equals the
    strict set exactly when the level is degenerate (m_k = 0) or tied
    (|weak| > k); with exactly k indices at or above the level the argmax is
    the single set weak itself, which is the correct intersection.  The
    scan (:func:`ksupport.oracles.brute_optimal_supports`) checks both
    without reading the level sets.
    """
    if d_max > _SUPPORT_SCAN_MAX_D:
        raise ScaleLimitError(f"brute support scan limited to d <= {_SUPPORT_SCAN_MAX_D}")
    rng = np.random.default_rng(seed)
    failures = []
    for t in range(trials):
        d = int(rng.integers(2, d_max + 1))
        k = int(rng.integers(1, d + 1))
        y = rng.integers(-4, 5, size=d).astype(float)
        if not np.abs(y).max():
            y[0] = 1.0
        spec = NormSpec(2.0, k)
        inter, union = optimal_support_lattice_bounds(y, spec)
        li = level_index(y, k)
        brute = [set(K) for K in brute_optimal_supports(y, spec)]
        if union != li.weak or set(union) != set.union(*brute):
            failures.append(("union", t, tuple(y), k))
            continue
        tied = li.m_k == 0.0 or len(li.weak) > k
        want_inter = li.strict if tied else li.weak
        if inter != want_inter or set(inter) != set.intersection(*brute):
            failures.append(("intersection", t, tuple(y), k))
    return _result("lattice", trials, failures)


def suite_polytope(d_max: int = 4) -> dict:
    """Closed-form balls against the double description, sign-vector facet
    description, brute hull, polarity, and face lattice."""
    if d_max > _FACE_LATTICE_MAX_D:
        raise ScaleLimitError(f"face-lattice enumeration is limited to d <= {_FACE_LATTICE_MAX_D}")
    failures = []
    checked = 0
    for d in range(1, d_max + 1):
        for k in range(1, d + 1):
            checked += 1
            top = top1k_ball(d, k)
            ksup = ksup_inf_ball(d, k)
            # the vertex lists equal the double description of the generators
            # and its polar swap, sort order included
            dd_top, dd_ksup = dd_balls(d, k)
            if top != dd_top:
                failures.append(("double-description-top1k", d, k))
            if ksup != dd_ksup:
                failures.append(("double-description-ksupinf", d, k))
            # facet normals of the top ball are exactly the k-sparse sign vectors, in sorted order
            normals = sign_vectors(d, k)
            if tuple(n for n, _ in top.facet_inequalities) != normals:
                failures.append(("facet-normals", d, k))
            # sign-vector facets equal the brute lattice's facets (as sorted vertex lists)
            brute = brute_face_lattice(top)
            brute_facets = sorted(pts for pts, dim in brute if dim == d - 1)
            thm_facets = sorted(tuple(sorted(facet_from_sign_vector(s, d, k))) for s in normals)
            if brute_facets != thm_facets:
                failures.append(("facets", d, k))
            # polarity: ksup ball vertices are the top ball facet normals and
            # all cross pairings stay within the polar inequality
            if ksup.vertices != normals:
                failures.append(("polarity-vertices", d, k))
            # on integers: with (x, a) a multiple of (v, 1) and (y, b) of (w, 1),
            # <w, v> <= 1 reads <y, x> <= a b
            lifted = [_clear((*v, 1)) for v in top.vertices]
            signs = [_clear((*w, 1)) for w in ksup.vertices]
            if any(_dot(w[:-1], v[:-1]) > v[-1] * w[-1] for v in lifted for w in signs):
                failures.append(("polar-inequality", d, k))
            # constructed face lattice equals the brute lattice
            if brute != enumerate_proper_faces_top1k(d, k):
                failures.append(("lattice", d, k))
    return _result("polytope", checked, failures)


def suite_hypersimplex(trials: int = 500, d_max: int = 5, seed: int = 0) -> dict:
    """Every exposed face of the p = 2 ball is a hypersimplex with the
    predicted vertex count."""
    rng = np.random.default_rng(seed)
    failures = []
    for t in range(trials):
        d = int(rng.integers(2, d_max + 1))
        k = int(rng.integers(1, d + 1))
        spec = NormSpec(2.0, k)
        y = _random_vector(rng, d)
        face = exposed_face_sp(y, spec)
        if not is_hypersimplex([tuple(v) for v in face.vertices]):
            failures.append(("hypersimplex", t, tuple(np.round(y, 6)), k))
            continue
        li = level_index(y, k)
        if li.m_k > 0:
            want = math.comb(len(li.weak) - len(li.strict), k - len(li.strict))
            if len(face.vertices) != want:
                failures.append(("count", t, tuple(np.round(y, 6)), k, len(face.vertices), want))
    return _result("hypersimplex", trials, failures)


def suite_fan(samples: int = 1000, d: int = 3, k: int = 2, p: float = 2.0, seed: int = 0) -> dict:
    """Normal-fan refinement: smooth-ball cones sit inside polytopal cones."""
    rep = fan_refinement_check(d, k, p, sample_count=samples, seed=seed)
    failures = list(rep.violations)
    return _result("fan", rep.generators, failures)


def suite_solver(trials: int = 50, seed: int = 0, tol: float = 1e-6) -> dict:
    """Solver convergence, certificates, and support identification."""
    rng = np.random.default_rng(seed)
    failures = []
    for t in range(trials):
        d = int(rng.integers(4, 11))
        m = d + 2
        A = rng.standard_normal((m, d))
        b = rng.standard_normal(m)
        obj = quadratic_objective(A, b)
        spec = NormSpec(float(rng.choice([2.0, np.inf])), int(rng.integers(1, 4)))
        gamma = float(rng.uniform(0.2, 2.5))
        rep = solve_penalized(obj, gamma, spec, SolveOptions(tol=min(tol, 1e-8), max_iter=5000))
        if rep.fw_gap > tol:
            failures.append(("gap", t, rep.fw_gap))
            continue
        ok, _ = certify_optimality(rep.x_star, obj, gamma, spec, Tolerance(1e-6, 1e-6))
        if not ok:
            failures.append(("certificate", t))
            continue
        supp = set(support_of(rep.x_star, 1e-6))
        bound_ok = supp <= set(rep.support_bound) if rep.support_bound else not supp
        if not bound_ok:
            failures.append(("bound", t))
            continue
        if rep.unique_support is not None and l0(rep.x_star, 1e-6) > spec.k:
            failures.append(("unique-sparsity", t))
    return _result("solver", trials, failures)


def suite_lasso(trials: int = 100, seed: int = 0, tol: float = 1e-6) -> dict:
    """l1 specialization: solver equals soft thresholding; the support bound
    is the argmax of the gradient magnitudes."""
    rng = np.random.default_rng(seed)
    failures = []
    for t in range(trials):
        d = int(rng.integers(2, 11))
        a = rng.standard_normal(d) * rng.uniform(0.5, 3)
        gamma = float(rng.uniform(0.1, 1.2) * np.abs(a).max())
        obj = quadratic_objective(np.eye(d), a)
        spec = NormSpec(1.0, 1)
        rep = solve_penalized(obj, gamma, spec, SolveOptions(tol=1e-10))
        want = lasso_closed_form(a, gamma)
        if float(np.max(np.abs(rep.x_star - want))) > tol:
            failures.append(("value", t))
            continue
        g = np.abs(obj.grad(rep.x_star))
        expected = tuple(
            int(j) + 1 for j in np.nonzero(g >= g.max() * (1 - 1e-6) - 1e-12)[0]
        )
        if set(rep.support_bound) != set(expected):
            failures.append(("bound", t, rep.support_bound, expected))
    return _result("lasso", trials, failures)


def suite_commutation(trials: int = 500, seed: int = 0) -> dict:
    """Projection/argmax commutation on exact rational atom sets: the argmax
    of ``<., y>`` over the projected atoms is the projection of the argmax
    of ``<., pi_K y>`` over the atoms.

    Each coordinate is drawn as the rational ``a / b`` (a in [-4, 4], b in
    [1, 3]) but held as the integer ``6 a / b``: both sides commute with a
    positive scale, so the verdicts are those of the rational atoms."""
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        d = rng.randint(2, 4)
        n = rng.randint(2, 6)
        atoms = [tuple(rng.randint(-4, 4) * (6 // rng.randint(1, 3)) for _ in range(d)) for _ in range(n)]
        y = tuple(rng.randint(-4, 4) * (6 // rng.randint(1, 3)) for _ in range(d))
        for K in k_subsets(d, 2, at_most=True):
            lhs = set(brute_exposed_face([_restrict(a, K) for a in atoms], y, 0))
            rhs = {_restrict(a, K) for a in brute_exposed_face(atoms, _restrict(y, K), 0)}
            if lhs != rhs:
                failures.append((t, K))
    return _result("commutation", trials, failures)


SUITES = {
    "degeneracies": suite_degeneracies,
    "duality": suite_duality,
    "norm-oracle": suite_norm_oracle,
    "faces": suite_faces,
    "lattice": suite_lattice,
    "polytope": suite_polytope,
    "hypersimplex": suite_hypersimplex,
    "fan": suite_fan,
    "solver": suite_solver,
    "lasso": suite_lasso,
    "commutation": suite_commutation,
}


def run_all(seed: int = 0, scale: float = 0.2) -> list[dict]:
    """Run every suite at a reduced trial scale (for the CLI)."""
    out = []
    out.append(suite_degeneracies(trials=max(10, int(200 * scale)), seed=seed))
    out.append(suite_duality(trials=max(100, int(10_000 * scale)), seed=seed,
                             equality_trials=max(20, int(500 * scale))))
    out.append(suite_norm_oracle(trials=max(5, int(100 * scale)), seed=seed))
    out.append(suite_faces(trials=max(3, int(200 * scale)), seed=seed,
                           n_atoms=max(5000, int(100_000 * scale))))
    out.append(suite_lattice(trials=max(20, int(500 * scale)), seed=seed))
    out.append(suite_polytope(d_max=3))
    out.append(suite_hypersimplex(trials=max(20, int(500 * scale)), seed=seed))
    out.append(suite_fan(samples=max(50, int(1000 * scale)), seed=seed))
    out.append(suite_solver(trials=max(5, int(50 * scale)), seed=seed))
    out.append(suite_lasso(trials=max(10, int(100 * scale)), seed=seed))
    out.append(suite_commutation(trials=max(20, int(500 * scale)), seed=seed))
    return out
