import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ksupport.cli import _json_default, main
from ksupport.faces import SupportLattice


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_norm_top_example(capsys):
    code, out, _ = run_cli(capsys, "norm", "--kind", "top", "--p", "inf", "--k", "2", "--vec", "3,-1,2")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 5.0
    assert data["method"] == "closed_form"


def test_norm_ksupport_examples(capsys):
    code, out, _ = run_cli(capsys, "norm", "--kind", "ksupport", "--p", "inf", "--k", "2", "--vec", "1,1,1")
    assert code == 0
    assert json.loads(out)["value"] == 1.5
    code, out, _ = run_cli(capsys, "norm", "--kind", "ksupport", "--p", "2", "--k", "1", "--vec", "3,4")
    assert json.loads(out)["value"] == 7.0


def test_norm_rational_p_and_oracle(capsys):
    code, out, _ = run_cli(capsys, "norm", "--kind", "ksupport", "--p", "3/2", "--k", "2", "--vec", "1,1,1")
    assert code == 0
    v = json.loads(out)["value"]
    code, out, _ = run_cli(
        capsys, "norm", "--kind", "ksupport-oracle", "--p", "3/2", "--k", "2", "--vec", "1,1,1"
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(v, abs=1e-6)


def test_norm_parse_errors(capsys):
    code, _, err = run_cli(capsys, "norm", "--kind", "top", "--p", "zzz", "--k", "2", "--vec", "1,2")
    assert code == 2
    code, _, err = run_cli(capsys, "norm", "--kind", "top", "--p", "2", "--k", "2", "--vec", "1,oops")
    assert code == 2
    code, _, err = run_cli(capsys, "norm", "--kind", "top", "--p", "2", "--k", "2")
    assert code == 2  # no vector given


def test_face_examples(capsys):
    code, out, _ = run_cli(capsys, "face", "--p", "2", "--k", "2", "--vec", "1,1,1")
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 3
    assert data["m_k"] == 1.0
    assert data["L"] == [] and data["Lbar"] == [1, 2, 3]

    code, out, _ = run_cli(capsys, "face", "--p", "2", "--k", "1", "--vec", "3,1,0")
    data = json.loads(out)
    assert len(data["vertices"]) == 1
    assert np.allclose(data["vertices"][0], [1, 0, 0])

    code, _, err = run_cli(capsys, "face", "--p", "2", "--k", "2", "--vec", "0,0,0")
    assert code == 2
    assert "dual vector must be nonzero" in err


def test_face_is_scale_invariant(capsys):
    # ties and the level are judged relative to max|y|: 1e-10 * (1, 1, 1) has the face of (1, 1, 1)
    faces = []
    for vec in ("1,1,1", "1e-10,1e-10,1e-10"):
        code, out, _ = run_cli(capsys, "face", "--p", "2", "--k", "2", "--vec", vec)
        assert code == 0
        faces.append(json.loads(out))
    assert np.allclose(faces[1]["vertices"], faces[0]["vertices"], rtol=0, atol=1e-15)
    for key in ("generating_supports", "L", "Lbar"):
        assert faces[1][key] == faces[0][key]
    # --tie widens the level: 2.9 ties with 3 within 0.1 * 3
    code, out, _ = run_cli(capsys, "face", "--p", "2", "--k", "1", "--vec", "3,2.9,1", "--tie", "0.1")
    assert code == 0
    assert json.loads(out)["Lbar"] == [1, 2]


def test_polytope_reports(capsys):
    code, out, _ = run_cli(capsys, "polytope", "--d", "3", "--k", "2", "--which", "top1k", "--report", "facets")
    assert code == 0
    assert json.loads(out)["count"] == 12
    code, out, _ = run_cli(
        capsys, "polytope", "--d", "3", "--k", "2", "--which", "ksupinf", "--report", "vertices"
    )
    assert json.loads(out)["count"] == 12
    code, out, _ = run_cli(capsys, "polytope", "--d", "2", "--k", "1", "--report", "faces")
    data = json.loads(out)
    assert data["count"] == 8  # square: 4 vertices + 4 edges
    # rationals serialize as exact strings and re-parse identically
    code, out, _ = run_cli(capsys, "polytope", "--d", "3", "--k", "2", "--report", "vertices")
    data = json.loads(out)
    assert ["1/2", "1/2", "1/2"] in data["vertices"]


def test_polytope_faces_of_the_polar_ball(capsys):
    # the ksupinf lattice comes from the top-(1,k) lattice by polarity
    from ksupport.oracles import brute_face_lattice
    from ksupport.polytopes import ksup_inf_ball

    for d in range(1, 5):
        for k in range(1, d + 1):
            code, out, _ = run_cli(
                capsys, "polytope", "--d", str(d), "--k", str(k), "--which", "ksupinf", "--report", "faces"
            )
            assert code == 0
            want = [
                {"dim": dim, "vertices": [[f"{c.numerator}/{c.denominator}" for c in v] for v in pts]}
                for pts, dim in brute_face_lattice(ksup_inf_ball(d, k))
            ]
            assert json.loads(out)["faces"] == want
    # the face lattice is refused past d = 5 rather than printed by the megabyte
    code, _, err = run_cli(capsys, "polytope", "--d", "6", "--k", "3", "--report", "faces")
    assert code == 2 and "d <= 5" in err


def test_input_file_with_a_non_numeric_line(tmp_path, capsys):
    path = tmp_path / "vec.csv"
    path.write_text("1.0\nabc\n2.0\n")
    code, _, err = run_cli(capsys, "norm", "--kind", "top", "--p", "2", "--k", "1", "--input", str(path))
    assert code == 2 and "Traceback" not in err


def test_input_given_a_directory(tmp_path, capsys):
    code, _, err = run_cli(capsys, "norm", "--kind", "top", "--p", "2", "--k", "1", "--input", str(tmp_path))
    assert code == 2 and "Traceback" not in err


def test_objective_without_its_data(tmp_path, capsys):
    path = tmp_path / "obj.json"
    for payload in (
        {"type": "quadratic", "A": [[1.0]]},
        {"type": "logistic", "X": [[1.0]]},
        {"type": "quadratic", "A": [["x"]], "b": [1.0]},
    ):
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "solve", "--objective", str(path), "--gamma", "1", "--p", "2", "--k", "1")
        assert code == 2 and "needs numeric" in err


def test_polytope_output_closed_by_reader():
    # `ksupport polytope ... | head`: the reader takes one byte of the 400 kB
    # lattice and closes the pipe while the writer is still blocked on it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["polytope", "--d", "5", "--k", "2", "--report", "faces"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "ksupport.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_solve_quadratic_file(tmp_path, capsys):
    payload = {"type": "quadratic", "A": np.eye(3).tolist(), "b": [2.0, 1.0, 0.0]}
    path = tmp_path / "obj.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(
        capsys, "solve", "--objective", str(path), "--gamma", "1.5", "--p", "1", "--k", "1"
    )
    assert code == 0
    data = json.loads(out)
    assert np.allclose(data["x_star"], [0.5, 0, 0], atol=1e-8)
    assert data["converged"] is True and data["stop"] == "tol"
    assert data["support_bound"] == [1]

    # gamma above the dual threshold gives the zero solution
    code, out, _ = run_cli(
        capsys, "solve", "--objective", str(path), "--gamma", "2.5", "--p", "2", "--k", "1"
    )
    data = json.loads(out)
    assert np.allclose(data["x_star"], [0, 0, 0])

    # x* = 0 with every gradient entry tied: C(30, 10) supports, reported by
    # their two ends and their count
    payload = {"type": "quadratic", "A": np.eye(30).tolist(), "b": [1.0] * 30}
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(
        capsys, "solve", "--objective", str(path), "--gamma", "4", "--p", "2", "--k", "10"
    )
    data = json.loads(out)
    assert code == 0
    assert np.allclose(data["x_star"], 0.0)
    assert data["identified_supports"] == {
        "core": [], "bound": list(range(1, 31)), "sizes": [10], "count": 30_045_015
    }
    assert data["support_bound"] == list(range(1, 31))


def test_lattice_count_past_the_digit_limit():
    # C(15000, 7500) has 4 514 digits, more than json can print as an int:
    # the count becomes null with its log10 beside it
    lattice = SupportLattice((), tuple(range(1, 15001)), range(7500, 7501))
    data = json.loads(json.dumps(lattice, default=_json_default))
    assert data["count"] is None
    assert data["count_log10"] == pytest.approx(math.log10(math.comb(15000, 7500)), rel=1e-15)
    assert data["bound"] == list(range(1, 15001)) and data["sizes"] == [7500]
    small = json.loads(json.dumps(SupportLattice((1,), (1, 2, 3), range(2, 3)), default=_json_default))
    assert small == {"core": [1], "bound": [1, 2, 3], "sizes": [2], "count": 2}


def test_solve_logistic_file(tmp_path, capsys):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 3))
    labels = np.sign(X @ np.array([1.0, -1.0, 0.0]) + 0.01)
    payload = {"type": "logistic", "X": X.tolist(), "labels": labels.tolist()}
    path = tmp_path / "obj.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run_cli(
        capsys, "solve", "--objective", str(path), "--gamma", "0.5", "--p", "2", "--k", "2",
        "--tol", "1e-5",
    )
    data = json.loads(out)
    assert data["fw_gap"] <= 1e-5 or code == 3

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "mystery"}))
    code, _, _ = run_cli(
        capsys, "solve", "--objective", str(bad), "--gamma", "1.0", "--p", "2", "--k", "1"
    )
    assert code == 2


def test_verify_suites(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "duality", "--d", "5", "--trials", "200", "--seed", "7"
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    code, out, _ = run_cli(capsys, "verify", "--suite", "polytope", "--d", "3")
    assert code == 0
    code, _, _ = run_cli(capsys, "verify", "--suite", "nope")
    assert code == 2


def test_verify_all_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--scale", "0.02", "--seed", "1")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert len(data["results"]) == 11


def test_sample_ball_csv(capsys):
    from ksupport.norms import NormSpec, ksupport_value

    code, out, _ = run_cli(
        capsys, "sample-ball", "--p", "2", "--k", "2", "--d", "3", "--which", "ksupport",
        "--n", "50", "--seed", "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,z"
    assert len(lines) == 51
    spec = NormSpec(2.0, 2)
    for row in lines[1:]:
        pt = np.array([float(tok) for tok in row.split(",")])
        assert ksupport_value(pt, spec) == pytest.approx(1.0, abs=1e-6)

    code, out, _ = run_cli(
        capsys, "sample-ball", "--p", "1", "--k", "1", "--d", "2", "--n", "10", "--seed", "0"
    )
    lines = out.strip().splitlines()
    assert lines[0] == "x,y"
    for row in lines[1:]:
        pt = np.array([float(tok) for tok in row.split(",")])
        assert np.abs(pt).sum() == pytest.approx(1.0, abs=1e-9)

    code, _, _ = run_cli(capsys, "sample-ball", "--p", "2", "--k", "1", "--d", "4", "--n", "5")
    assert code == 2


def test_json_roundtrip_floats(capsys):
    code, out, _ = run_cli(capsys, "norm", "--kind", "ksupport", "--p", "2", "--k", "2", "--vec", "1.3,-0.7,0.41")
    val = json.loads(out)["value"]
    assert json.loads(json.dumps({"value": val}))["value"] == val


def test_deterministic_given_seed(capsys):
    a = run_cli(capsys, "sample-ball", "--p", "2", "--k", "2", "--d", "2", "--n", "20", "--seed", "9")
    b = run_cli(capsys, "sample-ball", "--p", "2", "--k", "2", "--d", "2", "--n", "20", "--seed", "9")
    assert a == b
