"""Tests of the benchmark itself (run: ``python -m pytest perfbench``).

They drive scaled-down workload instances through the same measurement
path ``run.py`` uses, so they finish in seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness, layers, run
from perfbench.tracing import Tracer, resolve
from perfbench.workloads import GnnTrain, ServeReplay, SpmmCold

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(name, scratch):
    if name == "spmm_cold":
        return SpmmCold(size="tiny", nodes=4, matrices=("web",),
                        algorithms=("TwoFace", "Allgather"), ks=(8,))
    if name == "gnn_train":
        return GnnTrain(graph_size=256, nodes=4, epochs=1)
    return ServeReplay(size="tiny", nodes=4, n_requests=8, k=4,
                       matrices=("web",), scratch=scratch)


def _measure(name, tmp_path, trace=False):
    return run.run_workload(_tiny(name, tmp_path), 0.0, trace, tmp_path, {})


@pytest.mark.parametrize("name", ["spmm_cold", "gnn_train", "serve_replay"])
def test_every_end_to_end_metric_is_emitted_with_its_unit(name, tmp_path):
    summary, metrics = _measure(name, tmp_path)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == declared
    assert summary["failed"] == 0 and summary["attempted"] > 0
    assert metrics["success_rate"][0] == 1.0
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", ["spmm_cold", "gnn_train", "serve_replay"])
def test_traced_run_emits_every_per_layer_metric(name, tmp_path):
    summary, metrics = _measure(name, tmp_path, trace=True)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == declared
    # Traced ops reproduce the verification pass bit for bit.
    assert summary["failed"] == 0
    assert metrics["trace.ops"][0] >= 1
    trace = json.loads((tmp_path / f"trace-{name}-seed0.json").read_text())
    assert any(e.get("ph") == "X" for e in trace["traceEvents"])


def _corrupt_after(monkeypatch, clean_calls):
    """Perturb ``C`` of every Two-Face execution after ``clean_calls``."""
    import repro.algorithms.twoface as twoface

    original = twoface.execute_plan
    calls = []

    def execute_plan(plan, ctx, mask=None):
        original(plan, ctx, mask=mask)
        calls.append(1)
        if len(calls) > clean_calls:
            ctx.C.data[0, 0] += 1.0

    monkeypatch.setattr(twoface, "execute_plan", execute_plan)


@pytest.mark.parametrize("clean_calls", [0, 1])
def test_corrupted_C_raises_error_rate(monkeypatch, tmp_path, clean_calls):
    # 0: the verification pass sees a wrong C (reference check);
    # 1: only timed iterations do (fingerprint check).  The tiny
    # spmm_cold unit has one Two-Face op.
    _corrupt_after(monkeypatch, clean_calls)
    summary, metrics = _measure("spmm_cold", tmp_path)
    assert summary["failed"] > 0
    assert metrics["success_rate"][0] < 1.0


def test_committed_simulated_figures_are_enforced(tmp_path):
    workload = _tiny("spmm_cold", tmp_path)
    workload.setup()
    clean = harness.OpRecorder()
    workload.recorder = clean
    clean.install()
    try:
        harness.verify(workload, clean)
    finally:
        clean.uninstall()
    committed = [[c.label, c.sim] for c in clean.checks]
    committed[0][1] = list(committed[0][1])
    committed[0][1][1] += 1  # one collective byte more than simulated
    strict = harness.OpRecorder(committed=committed, exact=True)
    workload.recorder = strict
    strict.install()
    try:
        harness.verify(workload, strict)
    finally:
        strict.uninstall()
    assert strict.failed == 1
    assert "committed" in strict.messages[0]


def test_figures_take_each_op_best_time_across_units():
    m = harness.Measurement(
        units=8.0, wall_s=0.0, samples=[], iterations=4, comm=(0, 0, 0),
        unit_samples=[[0.010, 0.050], [0.030, 0.020], [0.5],
                      [0.020, 0.040]],
        unit_other_s=[0.004, 0.002, 0.003, 0.009],
    )
    # The unit with one op failed and is left out of the per-op bests.
    assert m.op_best() == [0.010, 0.020]
    assert m.best_unit_s() == pytest.approx(0.032)
    assert m.ops_per_s == pytest.approx(2.0 / 0.032)
    assert m.op_percentile_ms(50) == pytest.approx(15.0)


def test_committed_expected_matches_the_benchmark_configuration():
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    for name, cls in (("spmm_cold", SpmmCold), ("gnn_train", GnnTrain),
                      ("serve_replay", ServeReplay)):
        assert expected[name]["config"] == cls().config()
        assert expected[name]["ops"]


def test_every_hook_resolves():
    for hook in layers.HOOKS:
        resolve(hook.target)
    resolve(layers.OP_TARGET)


class _Toy:
    @classmethod
    def build(cls, n):
        return n

    def outer(self):
        return self.build(2) + self.build(3)


def test_tracer_self_time_nests_and_uninstall_restores():
    raw_build = _Toy.__dict__["build"]
    raw_outer = _Toy.__dict__["outer"]
    tracer = Tracer()
    tracer.install([
        layers.Hook("toy.outer", f"{__name__}:_Toy.outer"),
        layers.Hook("toy.build", f"{__name__}:_Toy.build", hot=True),
    ])
    try:
        assert _Toy().outer() == 5
    finally:
        tracer.uninstall()
    assert _Toy.__dict__["build"] is raw_build
    assert _Toy.__dict__["outer"] is raw_outer
    outer, build = tracer.stats["toy.outer"], tracer.stats["toy.build"]
    assert (outer.calls, build.calls) == (1, 2)
    assert outer.self_s + build.self_s == pytest.approx(outer.total_s)
    # Hot calls are folded: only the outer span is an event.
    assert [e[0] for e in tracer.events] == ["toy.outer"]


def test_exits_nonzero_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload",
         "spmm_cold", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
