"""Acceptance criteria, one test per criterion, printed as PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances and trial counts are pinned here and nowhere else.
"""

import math

import numpy as np

from ksupport.norms import NormSpec, ksupport_value
from ksupport.verify import (
    suite_commutation,
    suite_degeneracies,
    suite_duality,
    suite_faces,
    suite_fan,
    suite_hypersimplex,
    suite_lasso,
    suite_lattice,
    suite_norm_oracle,
    suite_polytope,
    suite_solver,
)

INF = math.inf


def _report(num: int, label: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {num:2d} [{status}] {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def test_criterion_01_closed_form_degeneracies():
    r = suite_degeneracies(trials=200, seed=101)
    _report(1, "closed-form degeneracies exact to 1e-12, 200 trials d in 2..8",
            r["passed"], f"failures={r['failures']}")


def test_criterion_02_pinf_closed_form_vs_oracle():
    r = suite_norm_oracle(trials=100, d_max=6, k_max=3, seed=102, p_values=(INF,), tol=1e-6)
    _report(2, "p=inf closed form vs decomposition oracle within 1e-6, 100 trials",
            r["passed"], f"failures={r['failures']}")


def test_criterion_03_p2_evaluation_vs_oracle():
    r = suite_norm_oracle(trials=100, d_max=6, k_max=3, seed=103, p_values=(2.0,), tol=1e-6)
    sym_ok = True
    for d in range(2, 9):
        for k in range(1, min(3, d) + 1):
            got = ksupport_value(np.ones(d), NormSpec(2.0, k))
            if abs(got - d / math.sqrt(k)) > 1e-8:
                sym_ok = False
    _report(3, "p=2 evaluation vs oracle within 1e-6 (100 trials); all-ones = d/sqrt(k) to 1e-8",
            r["passed"] and sym_ok, f"failures={r['failures']}, symmetric={sym_ok}")


def test_criterion_04_duality_pairing():
    r = suite_duality(trials=10_000, d_max=8, seed=104, equality_trials=500)
    _report(4, "Hoelder pairing on 1e4 pairs (tol 1e-9) and equality at face vertices (1e-6)",
            r["passed"], f"failures={r['failures']}")


def test_criterion_05_exposed_faces_vs_sampled_atoms():
    r = suite_faces(trials=200, d_max=6, seed=105, n_atoms=100_000, hausdorff_tol=1e-3)
    _report(5, "exposed faces match sampled-atom argmax (Hausdorff 1e-3, values 1e-9), 200 trials",
            r["passed"], f"failures={r['failures']}")


def test_criterion_06_optimal_support_lattice():
    # The union of optimal supports always equals the weak level set.  The
    # intersection equals the strict set whenever the level is zero or tied;
    # with a positive untied level the argmax is the single set equal to the
    # weak set, which is then the intersection.  Asserted on every sample.
    r = suite_lattice(trials=500, d_max=8, seed=106)
    _report(6, "optimal-support lattice bounds vs (L_k, Lbar_k), 500 integer trials (tie-corrected)",
            r["passed"], f"failures={r['failures']}")


def test_criterion_07_polytope_combinatorics():
    from ksupport.polytopes import ksup_inf_ball, top1k_ball

    counts_ok = (
        len(top1k_ball(3, 2).facet_inequalities) == 12
        and len(ksup_inf_ball(3, 2).vertices) == 12
    )
    r = suite_polytope(d_max=4)
    _report(7, "exact combinatorics: 12 facets / 12 vertices at d=3,k=2; facets+polarity for d<=4",
            counts_ok and r["passed"], f"failures={r['failures']}")


def test_criterion_08_face_lattice_equality():
    from ksupport.polytopes import brute_face_lattice, enumerate_proper_faces_top1k, top1k_ball

    ok = True
    for d in range(1, 5):
        for k in range(1, d + 1):
            cor = set(enumerate_proper_faces_top1k(d, k))
            brute = set(brute_face_lattice(top1k_ball(d, k)))
            if cor != brute:
                ok = False
    _report(8, "sign-vector face lattice equals brute-force lattice, all d<=4", ok)


def test_criterion_09_hypersimplex_faces():
    r = suite_hypersimplex(trials=500, d_max=5, seed=109)
    _report(9, "all exposed faces of the p=2 ball are hypersimplices with predicted counts, 500 trials",
            r["passed"], f"failures={r['failures']}")


def test_criterion_10_fan_refinement():
    r = suite_fan(samples=1000, d=3, k=2, p=2.0, seed=110)
    _report(10, "normal-fan refinement: zero violations over 1000 sampled directions (d=3,k=2,p=2)",
            r["passed"], f"generators={r['trials']}")


def test_criterion_11_solver_support_identification():
    r = suite_solver(trials=50, seed=111, tol=1e-6)
    _report(11, "solver: fw_gap<=1e-6, certified, supp(x*) in bound, unique => k-sparse, 50 runs",
            r["passed"], f"failures={r['failures']}")


def test_criterion_12_l1_specialization():
    r = suite_lasso(trials=100, seed=112, tol=1e-6)
    _report(12, "l1 specialization: soft-threshold match within 1e-6 and argmax support bound, 100 runs",
            r["passed"], f"failures={r['failures']}")


def test_criterion_13_projection_argmax_commutation():
    r = suite_commutation(trials=500, seed=113)
    _report(13, "projection/argmax commutation, exact set equality on 500 rational atom sets",
            r["passed"], f"failures={r['failures']}")
