"""Paired benchmark runs of two checkouts, alternating which side runs first.

Each pair runs

    python3 perfbench/run.py --workload W --seed N --seconds 25 --trace 0

once in each checkout, the base first in even pairs and the change first in
odd ones, and reads that checkout's
``perfbench/out/result-W-seed{N}-trace0.json``.  N is ``--seed`` (default 0,
the benchmark's seed; 7919 is its held-out one).  For every end-to-end
metric of the base checkout's ``BENCHMARK.json`` it then prints both
medians, each side's interquartile distance, and the pairs in which the
change did better.
Failed operations are summed per side.  One line per pair goes to stderr as
the runs finish.

A run fails when it exits nonzero, when the last line of its standard output
is not the ``{correct, attempted, failed, metrics}`` object, when that object
reads ``correct: false``, or when it leaves no result file (each is deleted
before its run).  A failed run is reported on stderr with its side, pair,
exit code, seconds and last stderr line, and left out of the medians; the
pairs go on, the failed runs are listed at the end, and the exit code is 1.
Wins are counted over the pairs in which both runs succeeded.  Standard
library only.

    python3 tools/ab_pairs.py solve-curved 10 ../base .
    python3 tools/ab_pairs.py --seed 7919 solve-polytope 3 ../base .
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run(checkout: Path, workload: str, seed: int) -> tuple[dict | None, str]:
    """One benchmark run in ``checkout``: (its result, "") or (None, why it failed)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "25", "--trace", "0"]
    out = checkout / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
    out.unlink(missing_ok=True)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    if proc.returncode != 0:
        problem = "nonzero exit"
    elif not (isinstance(last, dict) and last.keys() == {"correct", "attempted", "failed", "metrics"}):
        problem = "no result line"
    elif last["correct"] is not True:
        problem = "correct: false"
    elif not out.exists():
        problem = "no result file"
    else:
        return json.loads(out.read_text()), ""
    stderr = proc.stderr.strip().splitlines()
    return None, (f"{problem}, exit code {proc.returncode}, {seconds:.1f} s, "
                  f"last stderr line: {stderr[-1] if stderr else '(none)'}")


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=0, help="input seed of every run (default 0)")
    ap.add_argument("workload")
    ap.add_argument("pairs", type=int)
    ap.add_argument("base", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("pairs must be at least 1")
    workload, pairs, seed = args.workload, args.pairs, args.seed
    base, change = args.base.resolve(), args.change.resolve()
    metrics = json.loads((base / "BENCHMARK.json").read_text())["end_to_end"]
    results: dict[str, list[dict | None]] = {"base": [], "change": []}
    failures = []
    for i in range(pairs):
        order = [("base", base), ("change", change)]
        for side, path in order if i % 2 == 0 else order[::-1]:
            result, why = run(path, workload, seed)
            results[side].append(result)
            if result is None:
                failures.append(f"{side} run of pair {i + 1}/{pairs}: {why}")
                print(f"FAILED {failures[-1]}", file=sys.stderr)
        if all(rs[-1] is not None for rs in results.values()):
            last = {side: rs[-1]["metrics"] for side, rs in results.items()}
            row = " ".join(f"{m['name']}={last['base'][m['name']]:.4g}/{last['change'][m['name']]:.4g}" for m in metrics)
            print(f"pair {i + 1}/{pairs} (base/change): {row}", file=sys.stderr)

    done = {side: [r for r in rs if r is not None] for side, rs in results.items()}
    both = [(x, y) for x, y in zip(results["base"], results["change"]) if x is not None and y is not None]
    print(f"{workload} seed {seed}: {pairs} pairs, base {base}, change {change}")
    print(f"runs that succeeded: base {len(done['base'])}/{pairs}, change {len(done['change'])}/{pairs}")
    print(f"{'metric':<12} {'base p50':>10} {'change p50':>10} {'base iqr':>10} {'change iqr':>10} {'ratio':>7} {'wins':>6}")
    for m in metrics:
        name = m["name"]
        b = [r["metrics"][name] for r in done["base"]]
        c = [r["metrics"][name] for r in done["change"]]
        if not (b and c):
            print(f"{name:<12} a side has no successful run")
            continue
        sign = 1.0 if m["better"] == "lower" else -1.0
        wins = sum(sign * (y["metrics"][name] - x["metrics"][name]) < 0.0 for x, y in both)
        mb, mc = statistics.median(b), statistics.median(c)
        ratio = f"{mc / mb:.3f}" if mb else "-"
        print(f"{name:<12} {mb:>10.4g} {mc:>10.4g} {iqr(b):>10.4g} {iqr(c):>10.4g} {ratio:>7} {wins:>3}/{len(both)}")
    failed = {side: sum(r["failed"] for r in rs) for side, rs in done.items()}
    print(f"failed operations: base {failed['base']}, change {failed['change']}")
    for line in failures:
        print(f"failed run: {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
