#!/usr/bin/env python3
"""Benchmark of the ksupport library, run from the repository root.

    python3 perfbench/run.py --workload solve-curved --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all        # every workload, untraced then traced
    python3 perfbench/run.py --write-manifest      # regenerate BENCHMARK.json

One process, one caller: each operation starts when the previous one has
returned (a closed loop).  Set-up (import, inputs, objectives, one warm-up
operation) is timed on its own; then whole passes over the workload's inputs
run until ``--seconds`` have gone by.  Every output is checked.  A fixed
reference loop is timed after every untraced operation, and ``wall_ref``
reports the mean pass in units of it.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced pass with a traced pass over the same inputs and reports per-layer
call counts and self times (per traced pass) and the tracing overhead.

All metrics are printed as a table with unit, direction and layer; the full
result, stamped with the software versions, BLAS, thread setting, CPU count,
source revision and seed, is written to ``perfbench/out/``.  The last line of
standard output is the JSON object ``{correct, attempted, failed, metrics}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
# The seed of the figures quoted in CHANGES.md and README.md, and a seed kept
# out of all tuning so that a claimed gain can be re-checked on it.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919
# Iterations of the reference loop timed after every operation (about 2.5 ms
# on an idle machine).
REF_ITERS = 500
# An operation still running after this long is stopped and counted as an
# error.  It bounds the run: one in fifty verify calls meets a
# decomposition-oracle trial that runs for a minute or more.
OP_LIMIT_S = 20.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-manifest", action="store_true", help="write BENCHMARK.json and exit")
    args = ap.parse_args(argv)
    if not args.write_manifest and not args.workload:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def run_op(op, tracer=None, op_id=0):
    """Time one operation; returns (seconds, output, exception)."""
    from workloads import Timeout

    running = True
    out = exc = None

    def stop(signum, frame):
        if running:  # an alarm that lands after the operation returned is ignored
            raise Timeout(f"stopped after {OP_LIMIT_S:g} s")

    previous = signal.signal(signal.SIGALRM, stop)
    if tracer is not None:
        tracer.begin(op_id)
    t = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    try:
        try:
            out = op.run()
        finally:
            running = False
    except (Exception, Timeout) as e:  # an operation that raises is judged, not a crash
        exc = e
    finally:
        dt = time.perf_counter() - t
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if tracer is not None:
            tracer.finish()  # no alarm can arrive any more
    return dt, out, exc


def reference_s(n: int = REF_ITERS) -> float:
    """Time of a fixed piece of interpreted work that does not touch ksupport:
    small-array numpy calls and dict building, as in the library's
    overhead-bound paths.

    It is timed right after every operation.  The speed of this shared
    machine swings by a third within seconds, and an operation's time divided
    by the reference time next to it follows the program far more than the
    machine.
    """
    import numpy as np

    a = np.arange(8.0)
    acc = 0.0
    t = time.perf_counter()
    for i in range(n):
        acc += float(np.abs(a - i).sum())
        acc += sum({j: j * j for j in range(6)}.values())
    return time.perf_counter() - t


def stamp(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas = "unknown"
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_rev = None
    h = hashlib.sha256()
    for f in sorted((SRC / "ksupport").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_rev": git_rev,
        "src_sha256": h.hexdigest()[:16],
        "machine": platform.machine(),
    }


def run_all(args) -> int:
    """Each workload in a fresh process, untraced and then traced."""
    import spec

    worst = 0
    for name in spec.WORKLOADS:
        for trace in (0, 1):
            argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            worst = max(worst, subprocess.run([sys.executable, __file__, *argv]).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_manifest:
        import spec

        spec.write_manifest(ROOT / "BENCHMARK.json")
        return 0
    if args.workload == "all":
        return run_all(args)
    # one thread per process keeps runs on a shared 2-CPU machine steady
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not (SRC / "ksupport" / "__init__.py").is_file():
        print(f"error: no ksupport sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import ksupport
    import ksupport.cli  # noqa: F401  (the verify workload goes through it)

    import_s = time.perf_counter() - t0
    if not Path(ksupport.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported ksupport from {ksupport.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import spec
    import stats
    import tracer as tracing
    import workloads

    if args.workload not in spec.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(spec.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.make(args.workload)

    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        first = wl.inputs(args.seed, 0)
        for op in wl.warmup_ops(args.seed):
            op.run()
        setups.append(time.perf_counter() - t)
    setup_s = import_s + stats.median(setups)

    outcomes = []  # (case label, Outcome) of every untraced operation
    times: dict[str, list[float]] = {}  # case label -> untraced seconds
    refs: list[float] = []  # reference seconds after every untraced operation
    ratio_sum = 0.0  # untraced operation seconds / reference seconds, summed
    pass_walls: list[float] = []
    traced_walls: list[float] = []
    problems: list[str] = []
    tr = tracing.Tracer() if args.trace else None
    targets = spec.targets()

    def measure(ops) -> float:
        nonlocal ratio_sum
        wall = 0.0
        for op in ops:
            dt, out, exc = run_op(op)
            ref = reference_s()
            wall += dt
            refs.append(ref)
            times.setdefault(op.label, []).append(dt)
            ratio_sum += dt / ref
            outcomes.append((op.label, op.judge(out, exc)))
        return wall

    def measure_traced(ops) -> float:
        with tr.installed(targets):
            results = [run_op(op, tr, len(tr.start)) for op in ops]
        for op, (_, out, exc) in zip(ops, results):  # checked untraced
            outcome = op.judge(out, exc)
            if outcome.wrong:
                problems.append(f"traced {op.label}: {outcome.note}")
        return sum(r[0] for r in results)

    start = time.perf_counter()
    ops, index = first, 0
    while True:
        pass_walls.append(measure(ops))
        if tr is not None:
            traced_walls.append(measure_traced(ops))
        index += 1
        if time.perf_counter() - start >= args.seconds:
            break
        ops = wl.inputs(args.seed, index)

    attempted = len(outcomes)
    failed = sum(o.wrong for _, o in outcomes)
    problems = [f"{label}: {o.note}" for label, o in outcomes if o.wrong] + problems
    tally: dict[str, int] = {}
    for _, o in outcomes:
        for key, n in o.tally.items():
            tally[key] = tally.get(key, 0) + n

    def frac(num: str, den: str) -> float:
        return tally.get(num, 0) / tally[den] if tally.get(den) else 0.0

    latencies = [t for ts in times.values() for t in ts]
    values = {
        "setup_s": setup_s,
        # the mean untraced pass, in seconds and with each operation in units
        # of the reference loop timed right after it
        "wall_s": sum(pass_walls) / len(pass_walls),
        "wall_ref": ratio_sum / len(pass_walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_s.p50": stats.median(latencies),
        "op_s.p90": stats.percentile(latencies, 90.0),
        "ops_per_s": attempted / sum(latencies),
        "error_frac": sum(o.error for _, o in outcomes) / attempted,
        "trivial_bound_frac": frac("trivial_bound", "solves"),
        "offbound_frac": frac("offbound", "solves"),
        "cert_vacuous_frac": frac("vacuous", "certs"),
    }
    extra = {
        "passes": len(pass_walls),
        "pass_s": pass_walls,
        "import_s": import_s,
        "reference_s.p50": stats.median(refs),
        "setup_repeats_s": setups,
        "op_count": attempted,
        "op_s.highest_percentile": stats.highest_percentile(latencies),
        "op_s.p50_by_case": {label: stats.median(ts) for label, ts in times.items()},
        "errors": [f"{label}: {o.note}" for label, o in outcomes if o.error],
    }
    balance = None
    if tr is not None:
        n = len(traced_walls)
        per = tr.per_name()
        for m in spec.per_layer_metrics():
            span, _, kind = m.name.rpartition(".")
            if kind in ("calls", "self_s") and span in per:
                values[m.name] = per[span][0 if kind == "calls" else 1] / n
        for layer in spec.LAYERS:
            values[f"{layer}.self_s"] = sum(s for name, (_, s) in per.items() if name.startswith(layer + ".")) / n
        for name in spec.COUNTS:
            key = spec.SUPPORT_ERRORS if name == "faces.optimal_supports.errors" else name
            values[name] = tr.counts.get(key, 0) / n
        values["bench.self_s"] = per[tracing.ROOT_SPAN][1] / n
        values["trace.wall_s"] = sum(traced_walls) / n
        values["trace.overhead_frac"] = sum(traced_walls) / sum(pass_walls[:n]) - 1.0
        for m in spec.per_layer_metrics():
            values.setdefault(m.name, 0.0)  # functions this workload never calls
        balance = sum(values[f"{layer}.self_s"] for layer in spec.LAYERS) + values["bench.self_s"] - values["trace.wall_s"]
        extra.update(traced_passes=n, spans=len(tr.start), self_time_balance_s=balance,
                     raised={k: v for k, v in tr.counts.items() if ".raised." in k})
        OUT.mkdir(exist_ok=True)
        tr.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")

    reported = spec.per_layer_metrics() if args.trace else spec.END_TO_END + spec.REPORTED
    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={len(pass_walls)} ops={attempted} failed={failed}")
    for m in reported:
        print(f"{m.name:48s} {values[m.name]:>14.6g} {m.unit:6s} {m.better:6s} {m.layer}")
    if balance is not None:
        print(f"# layer self times + bench.self_s - trace.wall_s = {balance:.3g} s per pass")
    for problem in problems[:20]:
        print(f"# problem: {problem}")
    st = stamp(args)
    print("# stamp " + json.dumps(st))

    correct = failed == 0 and not problems
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"stamp": st, "correct": correct, "attempted": attempted, "failed": failed,
                    "metrics": values, "extra": extra, "problems": problems}, indent=1, default=str)
    )
    chosen = spec.per_layer_metrics() if args.trace else spec.END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in chosen},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
