"""Fingerprint of every solve of the two solve benchmark workloads.

Runs the seeded instances of ``solve-curved`` and ``solve-polytope`` (the
cases of ``perfbench/workloads.py``) at seeds 0 and 7919, passes 0-5.  Prints
one line per solve (iterations, stop reason, relative gap, objective and the
identified support lattice, the floats in hex), then ``steps-sha256``, a
sha256 over those lines without their ``fw_gap`` and ``objective`` fields,
and last ``sha256``, over the whole lines and the bytes of every ``x_star``.
Two source trees that print the same ``sha256`` solve every instance bit for
bit alike; two that print the same ``steps-sha256`` take the same iterations,
stop for the same reasons and identify the same lattices, as a change that
moves only the rounding does.  The wall time of each workload pass goes to
stderr, and last, per case, its total iterations, the count of each stop
reason over its solves and the largest ``fw_gap`` of its ``"face"`` stops,
so stdout can be compared with ``diff``.  The
``ksupport`` it solves with is the one in the ``src`` beside this script.
BLAS runs on one thread unless the environment sets the thread counts: the
rounding of the matrix products, and so ``sha256``, depends on them.

    python3 tools/solve_digest.py
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):  # before numpy loads
    os.environ.setdefault(var, "1")

import workloads  # noqa: E402

SEEDS = (0, 7919)
PASSES = 6


def main() -> None:
    digest, steps = hashlib.sha256(), hashlib.sha256()
    iterations: Counter = Counter()
    stops: defaultdict = defaultdict(Counter)
    face_gaps: dict = {}
    for name in ("solve-curved", "solve-polytope"):
        wl = workloads.SolveWorkload(name)
        for seed in SEEDS:
            for pass_index in range(PASSES):
                t0 = time.perf_counter()
                for op in wl.inputs(seed, pass_index):
                    rep, _ = op.run()
                    lat = rep.identified_supports
                    lattice = None if lat is None else (lat.core, lat.bound, tuple(lat.sizes))
                    head = f"{name} seed={seed} pass={pass_index} {op.label} iterations={rep.iterations} stop={rep.stop}"
                    tail = f" lattice={lattice}"
                    line = f"{head} fw_gap={rep.fw_gap.hex()} objective={rep.objective.hex()}{tail}"
                    print(line)
                    steps.update(f"{head}{tail}".encode())
                    digest.update(line.encode())
                    digest.update(rep.x_star.tobytes())
                    iterations[name, op.label] += rep.iterations
                    stops[name, op.label][rep.stop] += 1
                    if rep.stop == "face":
                        key = name, op.label
                        face_gaps[key] = max(rep.fw_gap, face_gaps.get(key, 0.0))
                print(f"{name} seed={seed} pass={pass_index}: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    for (name, label), counts in stops.items():
        reasons = " ".join(f"{stop}={n}" for stop, n in sorted(counts.items()))
        gap = f" max_face_gap={face_gaps[name, label]:.2e}" if (name, label) in face_gaps else ""
        print(f"{name} {label}: iterations={iterations[name, label]} {reasons}{gap}", file=sys.stderr)
    print(f"steps-sha256 {steps.hexdigest()}")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
