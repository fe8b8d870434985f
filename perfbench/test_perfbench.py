"""Tests of the benchmark itself: span arithmetic, wrapper hygiene, checks."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.parallelism.workloads import small_test_workload
from repro.topology.devices import perlmutter_testbed

from perfbench.ledger import TARGETS, SpanRecorder, ledger, self_times, tracing
from perfbench.run import RESULT_METRICS, Run, outputs, repetition
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _synthetic(spans):
    """A recorder holding ``(name, layer, start, end, parent)`` spans."""
    recorder = SpanRecorder("synthetic", 0)
    for name, layer, start, end, parent in spans:
        recorder.name.append(name)
        recorder.layer.append(layer)
        recorder.start.append(start)
        recorder.end.append(end)
        recorder.parent.append(parent)
        recorder.size.append(0)
    return recorder


def test_self_time_subtracts_direct_children_only():
    recorder = _synthetic(
        [
            ("run", "execute", 0.0, 10.0, -1),
            ("advance", "flow", 1.0, 4.0, 0),
            ("max_min_fair_rates", "allocate", 2.0, 3.5, 1),
            ("_max_min_fair_rates_python", "allocate", 2.5, 3.0, 2),
            ("step_items", "expand", 5.0, 9.0, 0),
            ("path_between", "route", 6.0, 8.0, 4),
        ]
    )
    assert self_times(recorder) == pytest.approx([3.0, 1.5, 1.0, 0.5, 2.0, 2.0])
    assert sum(self_times(recorder)) == pytest.approx(10.0)


def _small_faulted_fat_tree():
    """``fattree-faulted-128`` shrunk to 16 GPUs and two iterations."""
    return replace(
        WORKLOADS["fattree-faulted-128"].scenario(seed=1),
        workload=small_test_workload(pp=1, dp=4, tp=4),
        cluster=replace(perlmutter_testbed(num_nodes=4), nic_ports_per_gpu=2),
        num_iterations=2,
    )


def _wrappers_left():
    """Every ``repro`` module global or target class attribute still wrapped."""
    namespaces = [
        module for name, module in sorted(sys.modules.items())
        if name.split(".")[0] == "repro"
    ] + [owner for _layer, owner, _name, _size in TARGETS if not isinstance(owner, str)]
    return [
        (namespace, name)
        for namespace in namespaces
        for name, value in vars(namespace).items()
        if getattr(value, "perfbench_layer", None) is not None
    ]


def test_traced_run_restores_every_wrapped_name_and_reconciles():
    scenario = _small_faulted_fat_tree()
    _, _, plain, _ = repetition(scenario)
    recorder = SpanRecorder(scenario.name, 0)
    _, run_s, traced, session = repetition(scenario, recorder)
    assert len(recorder) > 0
    assert _wrappers_left() == []
    assert outputs(traced) == outputs(plain)
    metrics, checks = ledger(recorder, traced, session)
    assert checks["run_s"] == run_s
    assert checks["self_time_residual_s"] == pytest.approx(0.0, abs=1e-9)
    assert checks["allocate_gap"] == 0
    assert metrics["allocate.calls"] == metrics["allocate.invocations"] > 0
    assert metrics["control.ensure_calls"] == 0
    assert metrics["execute.iterations"] == scenario.num_iterations
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in declared["per_layer"]] == [
        *metrics, "trace.overhead_ratio"
    ]
    assert [m["name"] for m in declared["end_to_end"]] == list(RESULT_METRICS)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


def test_wrappers_are_restored_when_the_traced_block_raises():
    with pytest.raises(RuntimeError):
        with tracing(SpanRecorder("failing", 0)) as missing:
            assert missing == []
            assert len(_wrappers_left()) >= len(TARGETS)
            raise RuntimeError("boom")
    assert _wrappers_left() == []


def test_second_seed_passes_every_check_and_changes_photonic_outputs():
    references = []
    for seed in (1, 2):
        run = Run(WORKLOADS["photonic-paper-64"], seed)
        assert run.warm_up()
        assert run.attempt() is not None
        assert (run.attempted, run.failed) == (2, 0)
        references.append(run.reference)
    assert references[0] != references[1]


def test_refuses_to_run_without_the_simulator_source(tmp_path):
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "moe-scale-1k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout == ""
