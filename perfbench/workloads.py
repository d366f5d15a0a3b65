"""Seeded inputs, operations and output checks of the four workloads.

The library is always reached through its module attributes at call time
(``solver.solve_penalized``, never a name imported here), so that the
wrappers of a traced run see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ksupport import cli, core, faces, norms, solver, verify

CERT_TOL = core.Tolerance(1e-6, 1e-6)


class Timeout(BaseException):
    """Raised into an operation that runs past its time limit.

    A BaseException, so that the library's own ``except Exception`` blocks
    cannot swallow it.
    """


@dataclass
class Outcome:
    """Verdict on one operation.

    ``wrong``: the output contradicts what the library claims (a failure).
    ``error``: counts towards ``error_frac``; also set for a solve that hit
    its iteration cap, a verify report with a failed suite and an operation
    stopped at its time limit.
    ``tally``: numerators and denominators of the quality fractions.
    """

    wrong: bool = False
    error: bool = False
    tally: dict[str, int] = field(default_factory=dict)
    note: str = ""


@dataclass
class Op:
    """One operation.  ``label`` names its case, the same in every pass."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]

    def judge(self, out: Any, exc: BaseException | None) -> Outcome:
        if isinstance(exc, Timeout):
            return Outcome(error=True, note=str(exc))
        if exc is not None:
            return Outcome(wrong=True, error=True, note=f"raised {exc!r}")
        try:
            return self.check(out)
        except Exception as exc2:  # a check that cannot read the output
            return Outcome(wrong=True, error=True, note=f"check raised {exc2!r}")


WARMUP_PASS = 2**31  # stream of the warm-up inputs, never a measured pass


def _rng(seed: int, pass_index: int, stream: int = 0) -> np.random.Generator:
    # every pass, and every case within it, gets an independent stream
    return np.random.default_rng([seed, pass_index, stream])


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# solve workloads


@dataclass(frozen=True)
class SolveCase:
    label: str
    loss: str  # "ls" (planted least squares, m = d/2) or "logistic"
    d: int
    m: int
    k: int
    p: float
    gamma: float
    max_iter: int


# d=200 is left out of solve-curved: a run holds only three or four d=200,
# p=2 solves, whose times vary by a factor of two between instances, and the
# spread of wall_s over seeds was 0.2.  solve-polytope keeps its d=200 cases.
#
# Iteration caps bound the time of solves that stall; a capped solve is an
# error.  On seeds 0-11 the least-squares solves converge within 1 500
# iterations, the d=20 logistic ones within 700 (p=inf) or 120 (p=2) when
# they converge at all; about half the d=20, p=2 ones stall, and every d=50
# one does.
SOLVE_CASES = {
    "solve-curved": [
        SolveCase("ls-d50-p1.5", "ls", 50, 25, 10, 1.5, 1.0, 5000),
        SolveCase("ls-d50-p2", "ls", 50, 25, 10, 2.0, 1.0, 5000),
        SolveCase("ls-d100-p1.5", "ls", 100, 50, 10, 1.5, 1.0, 5000),
        SolveCase("ls-d100-p2", "ls", 100, 50, 10, 2.0, 1.0, 5000),
        SolveCase("logistic-d20-p2", "logistic", 20, 60, 3, 2.0, 1.0, 150),
    ],
    "solve-polytope": [
        SolveCase("ls-d100-pinf", "ls", 100, 50, 10, math.inf, 1.0, 5000),
        SolveCase("ls-d200-pinf", "ls", 200, 100, 10, math.inf, 1.0, 5000),
        SolveCase("ls-d200-p1", "ls", 200, 100, 10, 1.0, 1.0, 5000),
        SolveCase("logistic-d20-pinf", "logistic", 20, 60, 3, math.inf, 1.0, 1000),
        SolveCase("logistic-d50-pinf", "logistic", 50, 100, 3, math.inf, 2.0, 200),
    ],
}


def make_objective(case: SolveCase, rng: np.random.Generator):
    """Planted k-sparse problem on a Gaussian design.

    Least squares: N(0,1) weights w on k random coordinates, b = A w + 0.01
    N(0,1).  Logistic: 2 N(0,1) weights, labels sign(X w + 0.5 N(0,1)); on
    these nearly separable labels the d=50 solve stalls, as it does today on
    every seed tried.
    """
    A = rng.standard_normal((case.m, case.d))
    w = np.zeros(case.d)
    support = rng.choice(case.d, case.k, replace=False)
    if case.loss == "ls":
        w[support] = rng.standard_normal(case.k)
        return solver.quadratic_objective(A, A @ w + 0.01 * rng.standard_normal(case.m))
    w[support] = 2.0 * rng.standard_normal(case.k)
    labels = np.where(A @ w + 0.5 * rng.standard_normal(case.m) >= 0.0, 1.0, -1.0)
    return solver.logistic_objective(A, labels)


def _solve_op(case: SolveCase, obj) -> Op:
    spec = norms.NormSpec(case.p, case.k)
    opts = solver.SolveOptions(tol=1e-6, max_iter=case.max_iter)

    def run():
        rep = solver.solve_penalized(obj, case.gamma, spec, opts)
        return rep, solver.certify_optimality(rep.x_star, obj, case.gamma, spec, CERT_TOL)

    def check(out) -> Outcome:
        rep, (certified, _) = out
        x = rep.x_star
        # a converged report must carry a valid certificate; a flagged
        # non-convergence is an error but not a wrong output
        wrong = bool(rep.converged and not certified) or not np.all(np.isfinite(x))
        d = x.size
        trivial = not rep.identified_supports and tuple(rep.support_bound) == tuple(range(1, d + 1))
        # the support rule of acceptance criterion 11
        xm = float(np.abs(x).max())
        supp = set(int(i) + 1 for i in np.nonzero(np.abs(x) > 1e-6 * xm)[0]) if xm > 0 else set()
        offbound = bool(supp - set(rep.support_bound))
        return Outcome(
            wrong=wrong,
            error=wrong or not rep.converged or not certified,
            tally={"solves": 1, "trivial_bound": int(trivial), "offbound": int(offbound)},
            note=f"converged={rep.converged} certified={certified} iterations={rep.iterations} gap={rep.fw_gap:.2e}",
        )

    return Op(case.label, run, check)


class SolveWorkload:
    def __init__(self, name: str):
        self.cases = SOLVE_CASES[name]

    def inputs(self, seed: int, pass_index: int) -> list[Op]:
        return [_solve_op(c, make_objective(c, _rng(seed, pass_index, i))) for i, c in enumerate(self.cases)]

    def warmup_ops(self, seed: int) -> list[Op]:
        case = self.cases[0]
        small = SolveCase("warmup", "ls", 20, 10, 3, case.p, 1.0, 5000)
        return [_solve_op(small, make_objective(small, _rng(seed, WARMUP_PASS)))]


# ---------------------------------------------------------------------------
# kernel evaluations


def _top_ref(y: np.ndarray, k: int, q: float) -> float:
    a = -np.partition(-np.abs(y), k - 1)[:k]
    if math.isinf(q):
        return float(a.max())
    return float(np.sum(a**q) ** (1.0 / q))


class EvalWorkload:
    D = 100_000
    KS = (100, 10_000)
    PS = (1.5, 2.0, 3.0, math.inf)

    def inputs(self, seed: int, pass_index: int) -> list[Op]:
        # Fresh Gaussian vectors every pass: the cost of the d=1e5 kernels
        # hardly depends on the draw, but that of the small projections and
        # certificates does, and averages out over the passes of a run.
        rng = _rng(seed, pass_index)
        x = rng.standard_normal(self.D)
        y = rng.standard_normal(self.D)
        ops = []
        for k in self.KS:
            ops.append(self._level_op(y, k))
            for p in self.PS:
                spec = norms.NormSpec(p, k)
                ops += [
                    self._top_op(y, spec),
                    self._value_op(x, y, spec),
                    self._lmo_op(y, spec),
                    self._supports_op(y, spec),
                ]
        v = rng.standard_normal(1000)
        ops += [self._lq_op(v, 1.0), self._lq_op(v, 3.0)]
        for d, k in ((10, 3), (50, 10), (10_000, 100)):
            ops.append(self._cert_op(rng.standard_normal(d), norms.NormSpec(2.0, k)))
        ops.append(self._top_ball_op(3.0 * rng.standard_normal(8), norms.NormSpec(2.0, 3)))
        return ops

    def warmup_ops(self, seed: int) -> list[Op]:
        y = _rng(seed, WARMUP_PASS).standard_normal(1000)
        spec = norms.NormSpec(2.0, 10)
        return [self._top_op(y, spec), self._value_op(y, y, spec), self._lmo_op(y, spec),
                self._supports_op(y, spec), self._cert_op(y[:50], spec)]

    @staticmethod
    def _level_op(y, k) -> Op:
        def check(li) -> Outcome:
            mk = float(-np.partition(-np.abs(y), k - 1)[k - 1])
            return Outcome(wrong=not (_close(li.m_k, mk, 1e-15) and len(li.weak) == k))

        return Op(f"level_index-k{k}", lambda: core.level_index(y, k), check)

    @staticmethod
    def _top_op(y, spec) -> Op:
        def check(val) -> Outcome:
            return Outcome(wrong=not _close(val, _top_ref(y, spec.k, spec.q), 1e-12))

        return Op(f"top_norm-k{spec.k}-p{spec.p}", lambda: norms.top_norm(y, spec), check)

    @staticmethod
    def _value_op(x, y, spec) -> Op:
        def check(val) -> Outcome:
            # Hoelder pairing of the evaluated vector with the dual vector
            top = _top_ref(y, spec.k, spec.q)
            return Outcome(wrong=not (val > 0 and float(x @ y) <= val * top * (1 + 1e-12)))

        return Op(f"ksupport_value-k{spec.k}-p{spec.p}", lambda: norms.ksupport_value(x, spec), check)

    @staticmethod
    def _lmo_op(y, spec) -> Op:
        def check(a) -> Outcome:
            pairing = float(a @ y)
            unit = norms.ksupport_value(a, spec)
            return Outcome(wrong=not (_close(pairing, _top_ref(y, spec.k, spec.q), 1e-9) and _close(unit, 1.0, 1e-9)))

        return Op(f"lmo_sp_ball-k{spec.k}-p{spec.p}", lambda: solver.lmo_sp_ball(y, spec), check)

    @staticmethod
    def _supports_op(y, spec) -> Op:
        def check(sups) -> Outcome:
            # no ties in a Gaussian vector: the single optimal support is the top k
            top = set(int(i) + 1 for i in np.argpartition(-np.abs(y), spec.k - 1)[: spec.k])
            return Outcome(wrong=not (len(sups) == 1 and set(sups[0]) == top))

        return Op(f"optimal_supports-k{spec.k}-p{spec.p}", lambda: faces.optimal_supports(y, spec), check)

    @staticmethod
    def _lq_op(v, q) -> Op:
        def check(w) -> Outcome:
            # v lies outside the unit ball, so its projection is on the sphere
            nrm = float(np.sum(np.abs(w) ** q) ** (1.0 / q))
            return Outcome(wrong=not (_close(nrm, 1.0, 1e-6) and np.all(w * v >= 0)))

        return Op(f"project_lq_ball-d{v.size}-q{q}", lambda: norms.project_lq_ball(v, q), check)

    @staticmethod
    def _cert_op(x, spec) -> Op:
        def check(rep) -> Outcome:
            l1 = float(np.abs(x).sum())
            ok = _close(rep.value, norms.ksupport_value(x, spec), 1e-12) and rep.certified_gap >= 0
            vacuous = abs(rep.certified_gap - (l1 - rep.value)) <= 1e-12 * l1
            return Outcome(wrong=not ok, tally={"certs": 1, "vacuous": int(vacuous)})

        return Op(f"ksupport_norm-d{x.size}-k{spec.k}", lambda: norms.ksupport_norm(x, spec), check)

    @staticmethod
    def _top_ball_op(y, spec) -> Op:
        def check(w) -> Outcome:
            return Outcome(wrong=not (norms.top_norm(w, spec) <= 1.0 + 1e-9))

        return Op(f"project_top_ball-d{y.size}-k{spec.k}", lambda: norms.project_top_ball(y, spec), check)


# ---------------------------------------------------------------------------
# verification suites through the CLI


EXIT_VERIFY_FAILED = 4  # the CLI's documented exit code for a failed suite


class VerifyWorkload:
    """``ksupport verify --suite all`` through ``ksupport.cli.main``.

    A pass makes one call for each of the fixed CLI seeds ``CLI_SEEDS``,
    whatever the benchmark seed.  The cost of a call is mostly its
    norm-oracle trials, and a trial's cost depends on the (d, k, p) the suite
    draws for it: from a millisecond to a second.  A run holds about
    twenty-five calls, too few to average those draws out: resampling the
    measured times of calls at seeds drawn from the benchmark seed gave a
    ten-seed spread of the pass time of about 0.23.  With fixed seeds only
    the machine's speed varies from run to run.
    """

    SCALE = "0.05"
    CLI_SEEDS = (0, 1, 2, 3)

    def inputs(self, seed: int, pass_index: int) -> list[Op]:
        return [self._op(f"verify-all-seed{s}", ["verify", "--suite", "all", "--seed", str(s), "--scale", self.SCALE])
                for s in self.CLI_SEEDS]

    def warmup_ops(self, seed: int) -> list[Op]:
        return [self._op("warmup", ["verify", "--suite", "degeneracies", "--seed", str(seed)])]

    @staticmethod
    def _op(label: str, argv: list[str]) -> Op:
        n_suites = len(verify.SUITES) if argv[2] == "all" else 1

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        def check(out) -> Outcome:
            # A suite that reports a failure is an error.  The report is only
            # wrong when it contradicts itself or the exit code is neither
            # success nor verification failure.
            code, text = out
            try:
                results = json.loads(text)["results"]
            except (ValueError, KeyError):
                return Outcome(wrong=True, error=True, note=f"{argv}: exit {code}, unparsable report")
            failing = [f"{r['suite']}: {r['detail']}" for r in results if not r["passed"]]
            wrong = len(results) != n_suites or code != (EXIT_VERIFY_FAILED if failing else 0)
            note = f"{argv}: exit {code}, failing {failing}"[:400]
            return Outcome(wrong=wrong, error=bool(failing) or wrong, note=note)

        return Op(label, run, check)


def make(name: str):
    if name in SOLVE_CASES:
        return SolveWorkload(name)
    if name == "eval-large":
        return EvalWorkload()
    if name == "verify-oracle":
        return VerifyWorkload()
    raise KeyError(name)
