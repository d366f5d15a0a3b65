"""Command-line interface.

Subcommands: ``norm``, ``face``, ``polytope``, ``solve``, ``verify``,
``sample-ball``.  Vectors are passed inline (``--vec 3,-1,2``) or as a
single-column CSV file (``--input``); ``--p`` accepts ``1``, ``2``, ``inf``,
or a rational string like ``3/2``.  Output is JSON (CSV for sample-ball).

Exit codes: 0 success, 1 output pipe closed by the reader, 2 input error,
3 numerical non-convergence, 4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import verify as verify_mod
from .core import ConvergenceError, InvalidInputError, ZeroVectorError, level_index
from .faces import SupportLattice, exposed_face_sp
from .norms import EvalReport, NormSpec, ksupport_norm, ksupport_value, lp_norm, top_norm
from .oracles import ksupport_norm_oracle
from .polytopes import enumerate_proper_faces_top1k, facet_from_sign_vector, ksup_inf_ball, top1k_ball
from .solver import (
    SolveOptions,
    logistic_objective,
    quadratic_objective,
    solve_penalized,
)

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_INPUT = 2
EXIT_NONCONVERGED = 3
EXIT_VERIFY_FAILED = 4


def _parse_p(text: str) -> float:
    text = text.strip().lower()
    if text in ("inf", "infinity", "oo"):
        return math.inf
    try:
        if "/" in text:
            return float(Fraction(text))
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"cannot parse p from {text!r}") from exc


def _parse_vector(args: argparse.Namespace) -> np.ndarray:
    if getattr(args, "vec", None):
        try:
            return np.array([float(tok) for tok in args.vec.split(",") if tok.strip() != ""])
        except ValueError as exc:
            raise InvalidInputError(f"cannot parse vector {args.vec!r}") from exc
    if getattr(args, "input", None):
        try:
            with open(args.input) as fh:
                return np.array([float(line) for line in fh if line.strip()])
        except (OSError, ValueError) as exc:
            raise InvalidInputError(f"cannot read vector from {args.input!r}: {exc}") from exc
    try:
        if not sys.stdin.isatty():
            text = sys.stdin.read().replace(",", " ")
            toks = text.split()
            if toks:
                return np.array([float(tok) for tok in toks])
    except (OSError, ValueError) as exc:
        if isinstance(exc, ValueError):
            raise InvalidInputError("cannot parse vector from stdin") from exc
    raise InvalidInputError("supply a vector via --vec, --input, or stdin")


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, default=_json_default))


def _json_default(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, np.ndarray):
        return [float(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, SupportLattice):
        count = obj.count
        out = {"core": obj.core, "bound": obj.bound, "sizes": list(obj.sizes), "count": count}
        try:
            str(count)
        except ValueError:  # past the interpreter's int-to-str digit limit: null and its log10
            out.update(count=None, count_log10=math.log10(count))
        return out
    raise TypeError(f"not JSON serializable: {type(obj)}")


def cmd_norm(args: argparse.Namespace) -> int:
    vec = _parse_vector(args)
    p = _parse_p(args.p)
    if args.kind == "lp":
        rep = EvalReport(lp_norm(vec, p), "closed_form")
    elif args.kind == "top":
        rep = EvalReport(top_norm(vec, NormSpec(p, args.k)), "closed_form")
    elif args.kind == "ksupport":
        rep = ksupport_norm(vec, NormSpec(p, args.k))
    else:  # ksupport-oracle
        rep = ksupport_norm_oracle(vec, NormSpec(p, args.k))
    if args.format == "csv":
        print("value,method,certified_gap")
        print(f"{rep.value!r},{rep.method},{rep.certified_gap!r}")
    else:
        _emit(dataclasses.asdict(rep))
    return EXIT_OK


def cmd_face(args: argparse.Namespace) -> int:
    vec = _parse_vector(args)
    spec = NormSpec(_parse_p(args.p), args.k)
    try:
        face = exposed_face_sp(vec, spec, args.tie)
    except ZeroVectorError:
        print("dual vector must be nonzero", file=sys.stderr)
        return EXIT_INPUT
    li = level_index(vec, spec.k, args.tie)
    _emit(
        {
            "vertices": [list(map(float, v)) for v in face.vertices],
            "generating_supports": [list(K) for K in face.generating_supports],
            "L": list(li.strict),
            "Lbar": list(li.weak),
            "m_k": li.m_k,
        }
    )
    return EXIT_OK


def cmd_polytope(args: argparse.Namespace) -> int:
    poly = top1k_ball(args.d, args.k) if args.which == "top1k" else ksup_inf_ball(args.d, args.k)
    out: dict = {"which": args.which, "d": args.d, "k": args.k}
    if args.report == "facets":
        out["count"] = len(poly.facet_inequalities)
        out["facets"] = [
            {"normal": list(n), "offset": b} for n, b in poly.facet_inequalities
        ]
    elif args.report == "vertices":
        out["count"] = len(poly.vertices)
        out["vertices"] = [list(v) for v in poly.vertices]
    else:  # faces
        lattice = enumerate_proper_faces_top1k(args.d, args.k)
        if args.which == "ksupinf":  # polarity: a face maps to the normals of the facets holding it
            facets = [(s, set(facet_from_sign_vector(s, args.d, args.k))) for s in poly.vertices]
            lattice = sorted(
                (tuple(s for s, fs in facets if fs.issuperset(pts)), args.d - 1 - dim) for pts, dim in lattice
            )
        out["count"] = len(lattice)
        out["faces"] = [
            {"dim": dim, "vertices": [list(v) for v in pts]} for pts, dim in lattice
        ]
    _emit(out)
    return EXIT_OK


def _load_objective(path: str):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # missing, a directory, not JSON
        raise InvalidInputError(f"cannot read objective from {path!r}: {exc}") from exc
    kind = data.get("type") if isinstance(data, dict) else None
    fields = {"quadratic": ("A", "b"), "logistic": ("X", "labels")}.get(kind)
    if fields is None:
        raise InvalidInputError(f"objective type must be 'quadratic' or 'logistic', got {kind!r}")
    try:
        arrays = [np.array(data[f], dtype=float) for f in fields]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"{kind} objective needs numeric {' and '.join(fields)}: {exc!r}") from exc
    return (quadratic_objective if kind == "quadratic" else logistic_objective)(*arrays)


def cmd_solve(args: argparse.Namespace) -> int:
    obj = _load_objective(args.objective)
    spec = NormSpec(_parse_p(args.p), args.k)
    opts = SolveOptions(tol=args.tol, max_iter=args.max_iter)
    rep = solve_penalized(obj, args.gamma, spec, opts)
    _emit(
        {
            "x_star": [float(v) for v in rep.x_star],
            "objective": rep.objective,
            "fw_gap": rep.fw_gap,
            "iterations": rep.iterations,
            "converged": rep.converged,
            "stop": rep.stop,
            "identified_supports": rep.identified_supports,
            "unique_support": rep.unique_support,
            "support_bound": rep.support_bound,
        }
    )
    return EXIT_OK if rep.converged else EXIT_NONCONVERGED


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "all":
        results = verify_mod.run_all(seed=args.seed, scale=args.scale)
    else:
        params: dict = {"seed": args.seed}
        fn = verify_mod.SUITES.get(args.suite)
        if fn is None:
            raise InvalidInputError(f"unknown suite {args.suite!r}; have {sorted(verify_mod.SUITES)} or 'all'")
        import inspect

        sig = inspect.signature(fn)
        if "trials" in sig.parameters and args.trials:
            params["trials"] = args.trials
        if "samples" in sig.parameters and args.trials:
            params["samples"] = args.trials
        if "d_max" in sig.parameters and args.d:
            params["d_max"] = args.d
        if "d" in sig.parameters and args.d:
            params["d"] = args.d
        if "seed" not in sig.parameters:
            params.pop("seed")
        results = [fn(**params)]
    _emit({"results": results, "passed": all(r["passed"] for r in results)})
    return EXIT_OK if all(r["passed"] for r in results) else EXIT_VERIFY_FAILED


def cmd_sample_ball(args: argparse.Namespace) -> int:
    if args.d not in (2, 3):
        raise InvalidInputError("sample-ball supports d in {2, 3}")
    spec = NormSpec(_parse_p(args.p), args.k)
    rng = np.random.default_rng(args.seed)
    header = ["x", "y", "z"][: args.d]
    print(",".join(header))
    emitted = 0
    while emitted < args.n:
        u = rng.standard_normal(args.d)
        if args.which == "ksupport":
            nrm = ksupport_value(u, spec)
        else:
            nrm = top_norm(u, spec)
        if nrm <= 1e-12:
            continue
        pt = u / nrm
        print(",".join(repr(float(c)) for c in pt))
        emitted += 1
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ksupport", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_vec_opts(p):
        p.add_argument("--vec", help="inline comma-separated vector")
        p.add_argument("--input", help="single-column CSV file")

    p = sub.add_parser("norm", help="evaluate a norm")
    p.add_argument("--kind", choices=["lp", "top", "ksupport", "ksupport-oracle"], required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    add_vec_opts(p)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("face", help="exposed face and level data of a dual vector")
    p.add_argument("--p", required=True)
    p.add_argument("--k", type=int, required=True)
    add_vec_opts(p)
    p.add_argument("--tie", type=float, default=1e-9, help="ties within tie * max|y| of the level")
    p.set_defaults(func=cmd_face)

    p = sub.add_parser("polytope", help="exact p=inf polytope data")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--which", choices=["top1k", "ksupinf"], default="top1k")
    p.add_argument("--report", choices=["facets", "vertices", "faces"], default="facets")
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("solve", help="minimize f + gamma * ksupport norm")
    p.add_argument("--objective", required=True, help="JSON file with the objective data")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-6, help="stop at this relative Fermat gap (fw_gap)")
    p.add_argument("--max-iter", type=int, default=50_000, dest="max_iter")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all")
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=0.2, help="trial scale for --suite all")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sample-ball", help="CSV boundary samples of a unit ball")
    p.add_argument("--p", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--which", choices=["ksupport", "top"], default="ksupport")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample_ball)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED


def main_entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (``ksupport ... | head``); point stdout at devnull
        # so the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
