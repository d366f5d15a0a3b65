"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import spec  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6]
    start = np.array([0.0, 1.0, 4.0, 5.0])
    end = np.array([10.0, 3.0, 8.0, 6.0])
    parent = np.array([-1, 0, 0, 2])
    own = tracing.self_times(start, end, parent)
    assert own.tolist() == [4.0, 2.0, 3.0, 1.0]
    assert own.sum() == end[0] - start[0]


def test_tracer_records_nested_library_calls_and_sums_to_root():
    import ksupport.norms as norms

    tr = tracing.Tracer()
    targets = [tracing.Target("ksupport.norms", "top_norm", "norms.top_norm"),
               tracing.Target("ksupport.solver", "certify_optimality", "solver.certify_optimality")]
    import ksupport.solver as solver

    obj = solver.quadratic_objective(np.eye(3), np.array([2.0, 1.0, 0.0]))
    with tr.installed(targets):
        tr.begin(1)
        solver.certify_optimality(np.zeros(3), obj, 1.0, norms.NormSpec(2.0, 1))
        tr.finish()
    per = tr.per_name()
    assert per["solver.certify_optimality"][0] == 1
    assert per["norms.top_norm"][0] == 1  # called inside the solver, through its own binding
    a = tr.arrays()
    root = a["end"][0] - a["start"][0]
    assert abs(sum(s for _, s in per.values()) - root) < 1e-12
    assert set(a["op"].tolist()) == {1}
    assert a["parent"].tolist() == [-1, 0, 1]


def _bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "ksupport" or name.startswith("ksupport.")):
            for attr, val in vars(mod).items():
                out[name, attr] = val
                if type(val) is dict:  # tables of functions, such as verify.SUITES
                    out.update({(name, attr, key): v for key, v in val.items()})
    return out


def test_install_then_uninstall_restores_every_binding():
    import ksupport.cli  # noqa: F401  (loads every layer)

    before = _bindings()
    tr = tracing.Tracer()
    with tr.installed(spec.targets()):
        import ksupport.norms
        import ksupport.solver

        assert ksupport.solver.top_norm is not before[("ksupport.norms", "top_norm")]
        assert ksupport.solver.top_norm is ksupport.norms.top_norm
        import ksupport.verify

        suites = ksupport.verify.SUITES
        assert suites["polytope"] is ksupport.verify.suite_polytope
        assert suites["polytope"] is not before[("ksupport.verify", "SUITES", "polytope")]
        assert len(tr._installed) > len(spec.targets())
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[key] is val for key, val in before.items())


def test_percentile_and_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 50) == pytest.approx(50.5)
    assert stats.percentile(values, 90) == pytest.approx(90.1)
    assert stats.percentile(values, 90) == pytest.approx(float(np.percentile(values, 90)))
    assert stats.samples_beyond(values, 90) == 10
    assert stats.samples_beyond(values, 99) == 1
    assert stats.highest_percentile(values) == 90.0
    assert stats.highest_percentile(values[:15]) is None
    assert stats.median([3.0, 1.0, 2.0, 100.0]) == 2.5


def test_manifest_is_current_and_within_limits():
    m = spec.manifest()
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == m
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert 2 <= len(m["workloads"]) <= 8
    assert 1 <= len(m["end_to_end"]) <= 16 and 1 <= len(m["per_layer"]) <= 128
    names = [w["name"] for w in m["workloads"]]
    names += [x["name"] for x in m["end_to_end"] + m["per_layer"]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in m["workloads"])
    assert all(unit.match(x["unit"]) for x in m["end_to_end"] + m["per_layer"])
    assert all(0 < x["bound"] <= 0.25 for x in m["end_to_end"])
    assert any(x["name"] == "setup_s" and x["unit"] == "s" and x["better"] == "lower" for x in m["end_to_end"])
    assert 1 <= m["run_seconds"] <= 60


def test_traced_cli_verify_records_the_suite():
    import ksupport.cli as cli

    tr = tracing.Tracer()
    with tr.installed(spec.targets()):
        tr.begin(0)
        assert cli.main(["verify", "--suite", "polytope", "--d", "3"]) == 0
        tr.finish()
    per = tr.per_name()
    assert per["cli.main"][0] == 1
    assert per["verify.polytope"][0] == 1 and per["verify.polytope"][1] > 0
    assert tr.counts["verify.trials"] > 0


def test_verify_workload_runs_every_suite_in_one_call():
    import workloads

    op = workloads.VerifyWorkload().inputs(0, 0)[2]  # the cheapest call
    code, text = op.run()
    assert {r["suite"] for r in json.loads(text)["results"]} == set(spec.SUITES)
    assert not op.judge((code, text), None).wrong


def test_checks_catch_a_wrong_output():
    import workloads

    rng = np.random.default_rng(0)
    y = rng.standard_normal(1000)
    from ksupport.norms import NormSpec

    op = workloads.EvalWorkload._top_op(y, NormSpec(2.0, 10))
    assert not op.check(op.run()).wrong
    assert op.check(op.run() * (1 + 1e-9)).wrong


def test_operation_past_its_time_limit_is_an_error_not_a_failure(monkeypatch):
    import time

    import run
    import workloads

    monkeypatch.setattr(run, "OP_LIMIT_S", 0.05)
    slow = workloads.Op("slow", lambda: time.sleep(2.0), lambda out: workloads.Outcome())
    dt, out, exc = run.run_op(slow)
    assert isinstance(exc, workloads.Timeout) and dt < 1.0
    outcome = slow.judge(out, exc)
    assert outcome.error and not outcome.wrong
    fast = workloads.Op("fast", lambda: 1, lambda out: workloads.Outcome())
    assert run.run_op(fast)[2] is None
    time.sleep(0.1)  # no alarm is left pending


def _consistent(tr):
    a = tr.arrays()
    assert len({len(v) for v in a.values()}) == 1
    assert not tr._stack
    assert np.all(a["end"] >= a["start"])
    own = tracing.self_times(a["start"], a["end"], a["parent"])
    assert np.all(own >= -1e-9)
    roots = a["parent"] < 0
    assert abs(own.sum() - (a["end"][roots] - a["start"][roots]).sum()) < 1e-6
    return a


def test_finish_repairs_an_operation_cut_inside_open():
    tr = tracing.Tracer()
    tr.begin(0)
    i = tr._open(tr.name_id("norms.top_norm"))
    # cut short after the span was pushed and most of its fields written,
    # as an alarm that lands inside the next _open would leave it
    tr.parent.append(i)
    tr.name.append(0)
    tr._stack.append(len(tr.start))
    tr.finish()
    a = _consistent(tr)
    assert len(a["start"]) == 2 and a["parent"].tolist() == [-1, 0]


def test_timeout_inside_traced_calls_leaves_a_consistent_trace(monkeypatch):
    import ksupport.core as core

    import run
    import workloads

    y = np.arange(6.0)

    def spin():
        while True:
            core.level_index(y, 2)

    tr = tracing.Tracer()
    targets = [tracing.Target("ksupport.core", "level_index", "core.level_index")]
    with tr.installed(targets):
        for j in range(20):
            monkeypatch.setattr(run, "OP_LIMIT_S", 0.005 + 0.001 * j)
            dt, out, exc = run.run_op(workloads.Op("spin", spin, None), tr, j)
            assert isinstance(exc, workloads.Timeout)
    a = _consistent(tr)
    assert (a["parent"] < 0).sum() == 20
