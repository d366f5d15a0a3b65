"""What the benchmark measures: workloads, metrics, traced functions.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-manifest``) and checked against it by the
self-tests, so the two cannot drift apart.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from tracer import Target

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 25

WORKLOADS = {
    "solve-curved": "1<p<inf solves (d 50/100 least squares, d 20 logistic): the stratum polish and the active-set master dominate",
    "solve-polytope": "p=inf and p=1 solves: no polish, sign-pattern LMO, trivial-bound fallback and a stalled d 50 logistic solve",
    "eval-large": "norm, LMO and support kernels on d=1e5 vectors plus certificates and projections, with no solver in the loop",
    "verify-oracle": "`ksupport verify --suite all` in-process at four fixed CLI seeds: the only run of oracles, polytopes, verify and cli; many tiny q=1 lq-ball projections",
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    layer: str
    bound: float | None = None


END_TO_END = [
    Metric("setup_s", "s", "lower", "end-to-end", 0.25),
    Metric("wall_ref", "ref", "lower", "end-to-end", 0.25),
    Metric("peak_rss_mb", "MB", "lower", "end-to-end", 0.25),
]

# Printed by every untraced run where they apply, and kept in the result file,
# but not bound-checked: wall_s follows the machine's speed swings, the
# fractions are zero on some workloads, and too few samples fall beyond the
# percentiles on the solve workloads.
REPORTED = [
    Metric("wall_s", "s", "lower", "end-to-end"),
    Metric("op_s.p50", "s", "lower", "end-to-end"),
    Metric("op_s.p90", "s", "lower", "end-to-end"),
    Metric("ops_per_s", "1/s", "higher", "end-to-end"),
    Metric("error_frac", "ratio", "lower", "end-to-end"),
    Metric("trivial_bound_frac", "ratio", "lower", "faces"),
    Metric("offbound_frac", "ratio", "lower", "solver"),
    Metric("cert_vacuous_frac", "ratio", "lower", "norms"),
]

SUITES = {
    "degeneracies": "suite_degeneracies",
    "duality": "suite_duality",
    "norm-oracle": "suite_norm_oracle",
    "faces": "suite_faces",
    "lattice": "suite_lattice",
    "polytope": "suite_polytope",
    "hypersimplex": "suite_hypersimplex",
    "fan": "suite_fan",
    "solver": "suite_solver",
    "lasso": "suite_lasso",
    "commutation": "suite_commutation",
}

TRACED = {
    "core": ["level_index", "project_support", "k_subsets"],
    "norms": [
        "top_norm",
        "ksupport_value",
        "ksupport_norm",
        "lp_norm",
        "project_lq_ball",
        "project_top_ball",
        "ksupport_norm_oracle",
    ],
    "faces": ["optimal_supports", "v_p", "exposed_face_sp", "optimal_support_lattice_bounds"],
    "solver": [
        "solve_penalized",
        "lmo_sp_ball",
        "certify_optimality",
        "identified_support",
        "quadratic_objective",
        "logistic_objective",
    ],
    "oracles": ["sampled_exposed_face", "lasso_closed_form"],
    "polytopes": [
        "top1k_ball",
        "ksup_inf_ball",
        "brute_face_lattice",
        "enumerate_proper_faces_top1k",
        "is_hypersimplex",
        "fan_refinement_check",
    ],
    "cli": ["main"],
}
LAYERS = ["core", "norms", "faces", "polytopes", "solver", "oracles", "verify", "cli"]


def _observe_supports(counts: Counter, out) -> None:
    counts["faces.optimal_supports.supports_out"] += len(out)


def _observe_solve(counts: Counter, rep) -> None:
    counts["solver.iterations"] += rep.iterations
    counts["solver.nonconverged"] += not rep.converged


def _observe_suite(counts: Counter, res) -> None:
    counts["verify.trials"] += res["trials"]
    counts["verify.failures"] += res["failures"]


_OBSERVERS = {
    "faces.optimal_supports": _observe_supports,
    "solver.solve_penalized": _observe_solve,
}

# ScaleLimitError raised by optimal_supports; callers catch it and fall back.
SUPPORT_ERRORS = "faces.optimal_supports.raised.ScaleLimitError"
COUNTS = {
    "faces.optimal_supports.errors": "count",
    "faces.optimal_supports.supports_out": "count",
    "solver.iterations": "count",
    "solver.nonconverged": "count",
    "verify.trials": "count",
    "verify.failures": "count",
}


def targets() -> list[Target]:
    out = []
    for layer, fns in TRACED.items():
        for fn in fns:
            span = f"{layer}.{fn}"
            out.append(Target(f"ksupport.{layer}", fn, span, _OBSERVERS.get(span)))
    for suite, fn in SUITES.items():
        out.append(Target("ksupport.verify", fn, f"verify.{suite}", _observe_suite))
    return out


def per_layer_metrics() -> list[Metric]:
    out = []
    for layer in LAYERS:
        if layer == "verify":
            out += [Metric(f"verify.{s}.self_s", "s", "lower", layer) for s in SUITES]
        else:
            for fn in TRACED[layer]:
                out.append(Metric(f"{layer}.{fn}.calls", "count", "lower", layer))
                out.append(Metric(f"{layer}.{fn}.self_s", "s", "lower", layer))
        out.append(Metric(f"{layer}.self_s", "s", "lower", layer))
        out += [
            Metric(n, u, "higher" if n == "verify.trials" else "lower", layer)
            for n, u in COUNTS.items()
            if n.startswith(layer + ".")
        ]
    out += [
        Metric("bench.self_s", "s", "lower", "bench"),
        Metric("trace.wall_s", "s", "lower", "bench"),
        Metric("trace.overhead_frac", "ratio", "lower", "bench"),
    ]
    out += [m for m in REPORTED if m.name.endswith("_frac")]
    return out


def manifest() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in per_layer_metrics()],
    }


def write_manifest(path: Path) -> None:
    path.write_text(json.dumps(manifest(), indent=2) + "\n")
