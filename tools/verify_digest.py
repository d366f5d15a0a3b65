"""Fingerprint of ``ksupport verify --suite all --scale 0.05`` at fixed seeds.

Runs the ``verify`` command in-process once per seed (0-3) on the
source tree beside this script and prints, per seed, the sha256 of the
command's stdout, then ``sha256``, one digest over every seed's stdout in
order.  Two source trees that print the same lines give byte-identical
verify reports at those seeds.  The wall time of each suite, summed over the
seeds, goes to stderr, so stdout can be compared with ``diff``.  BLAS runs on
one thread unless the environment sets the thread counts, as in
``solve_digest.py``.

    python3 tools/verify_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):  # before numpy loads
    os.environ.setdefault(var, "1")

from ksupport import cli, verify  # noqa: E402

SEEDS = (0, 1, 2, 3)
SCALE = 0.05


def _timed(name: str, fn, seconds: Counter):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds[name] += time.perf_counter() - t0

    return wrapper


def main() -> None:
    seconds: Counter = Counter()
    # run_all looks its suites up in the module at call time, so wrapping the
    # module attributes times every suite without changing what it runs
    for name, fn in list(vars(verify).items()):
        if name.startswith("suite_") and callable(fn):
            setattr(verify, name, _timed(name[len("suite_"):], fn, seconds))
    digest = hashlib.sha256()
    t0 = time.perf_counter()
    for seed in SEEDS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(["verify", "--suite", "all", "--scale", str(SCALE), "--seed", str(seed)])
        out = buf.getvalue().encode()
        digest.update(out)
        print(f"seed={seed} sha256 {hashlib.sha256(out).hexdigest()}")
    print(f"sha256 {digest.hexdigest()}")
    for name, s in seconds.most_common():
        print(f"{name}: {1000 * s:.1f} ms", file=sys.stderr)
    print(f"total: {1000 * (time.perf_counter() - t0):.1f} ms", file=sys.stderr)


if __name__ == "__main__":
    main()
