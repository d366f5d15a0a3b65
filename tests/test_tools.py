"""The developer tools under ``tools/``, on stub checkouts."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"

# a stand-in for perfbench/run.py: writes a result file and prints the result
# line; its FAIL_AT-th call (counted in calls.txt next to it) exits 3 first
STUB = '''
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parent
calls = here / "calls.txt"
n = int(calls.read_text()) + 1 if calls.exists() else 1
calls.write_text(str(n))
if n == FAIL_AT:
    print("stub: simulated crash", file=sys.stderr)
    sys.exit(3)
args = sys.argv[1:]
workload, seed = args[args.index("--workload") + 1], args[args.index("--seed") + 1]
metrics = {"setup_s": 0.1, "wall_ref": WALL + n, "peak_rss_mb": 50.0}
(here / "out").mkdir(exist_ok=True)
(here / "out" / f"result-{workload}-seed{seed}-trace0.json").write_text(
    json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}))
print("# table")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()}}))
'''


def _checkout(root: Path, wall: float, fail_at: int) -> Path:
    (root / "perfbench").mkdir(parents=True)
    metrics = [{"name": name, "unit": "-", "better": "lower", "bound": 0.25}
               for name in ("setup_s", "wall_ref", "peak_rss_mb")]
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": metrics}))
    stub = STUB.replace("FAIL_AT", str(fail_at)).replace("WALL", str(wall))
    (root / "perfbench" / "run.py").write_text(stub)
    return root


def _ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOLS / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_pairs_reports_a_failed_run_and_goes_on(tmp_path, capsys):
    base = _checkout(tmp_path / "base", 100.0, fail_at=0)
    change = _checkout(tmp_path / "change", 50.0, fail_at=2)
    code = _ab_pairs().main(["w", "3", str(base), str(change)])
    out, err = capsys.readouterr()
    assert code == 1
    assert (change / "perfbench" / "calls.txt").read_text() == "3"  # the third pair still ran
    assert "FAILED change run of pair 2/3: nonzero exit, exit code 3" in err
    assert "last stderr line: stub: simulated crash" in err
    assert "runs that succeeded: base 3/3, change 2/3" in out
    assert "failed run: change run of pair 2/3: nonzero exit, exit code 3" in out
    # the medians skip the failed run: change wall_ref reads 51 and 53, base 101, 102 and 103
    row = next(line.split() for line in out.splitlines() if line.startswith("wall_ref"))
    assert row[1:3] == ["102", "52"] and row[-1] == "2/2"


def test_ab_pairs_exits_0_when_every_run_succeeds(tmp_path, capsys):
    base = _checkout(tmp_path / "base", 100.0, fail_at=0)
    change = _checkout(tmp_path / "change", 50.0, fail_at=0)
    assert _ab_pairs().main(["w", "2", str(base), str(change)]) == 0
    out = capsys.readouterr().out
    assert "failed run" not in out and "runs that succeeded: base 2/2, change 2/2" in out


THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# a stand-in for perfbench/workloads.py: one solve per pass, whose report
# names the file of the ksupport it imported; on import, before numpy, it
# prints the BLAS thread settings it sees to stderr
WORKLOADS = '''
import os, sys
print("threads", *(os.environ.get(v) for v in THREADS), file=sys.stderr)
from types import SimpleNamespace
import numpy as np
import ksupport

class SolveWorkload:
    def __init__(self, name):
        self.name = name

    def inputs(self, seed, pass_index):
        rep = SimpleNamespace(identified_supports=None, iterations=10 + pass_index, fw_gap=0.0, objective=1.0,
                              stop="face" if pass_index else "tol", x_star=np.zeros(2))
        return [SimpleNamespace(label=ksupport.__file__, run=lambda: (rep, None))]
'''


def test_solve_digest_solves_with_the_ksupport_beside_it(tmp_path):
    root = tmp_path / "checkout"
    (root / "tools").mkdir(parents=True)
    (root / "src" / "ksupport").mkdir(parents=True)
    (root / "perfbench").mkdir()
    shutil.copy(TOOLS / "solve_digest.py", root / "tools")
    (root / "src" / "ksupport" / "__init__.py").write_text("")
    (root / "perfbench" / "workloads.py").write_text(WORKLOADS.replace("THREADS", repr(THREADS)))
    # another ksupport first on the import path must not be the one solved with
    env = {k: v for k, v in os.environ.items() if k not in THREADS}
    env.update(PYTHONPATH=str(TOOLS.parent / "src"), OMP_NUM_THREADS="2")
    run = subprocess.run([sys.executable, str(root / "tools" / "solve_digest.py")], env=env,
                         capture_output=True, text=True, check=True)
    (label,) = {line.split()[3] for line in run.stdout.splitlines() if " seed=" in line}
    assert label == str(root / "src" / "ksupport" / "__init__.py")
    # per case, over 2 seeds x 6 passes: iterations 2 * (10 + ... + 15) and the stop reasons
    for name in ("solve-curved", "solve-polytope"):
        assert f"{name} {label}: iterations=150 face=10 tol=2" in run.stderr
    # BLAS on one thread unless the environment says otherwise, set before numpy loads
    assert run.stderr.splitlines()[0] == "threads 1 2 1"


def test_verify_digest_pins_blas_threads_before_numpy_loads(tmp_path):
    root = tmp_path / "checkout"
    (root / "tools").mkdir(parents=True)
    (root / "src" / "ksupport").mkdir(parents=True)
    shutil.copy(TOOLS / "verify_digest.py", root / "tools")
    (root / "src" / "ksupport" / "__init__.py").write_text("")
    (root / "src" / "ksupport" / "verify.py").write_text("")
    cli = "import os\n\ndef main(argv):\n    print(*(os.environ.get(v) for v in THREADS))\n"
    (root / "src" / "ksupport" / "cli.py").write_text(cli.replace("THREADS", repr(THREADS)))
    env = {k: v for k, v in os.environ.items() if k not in THREADS}
    env["MKL_NUM_THREADS"] = "3"
    run = subprocess.run([sys.executable, str(root / "tools" / "verify_digest.py")], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "sha256 " + hashlib.sha256(4 * b"1 1 3\n").hexdigest()
