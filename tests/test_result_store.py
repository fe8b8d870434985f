"""Persistent result-store tests: atomicity, versioning, cross-process hits."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.experiments.runner as runner_module
from repro.errors import StoreError
from repro.experiments.runner import (
    ExperimentRunner,
    Scenario,
    ScenarioResult,
    scenario_hash,
)
from repro.service.store import STORE_FORMAT_VERSION, STORE_MAGIC, ResultStore

SRC = Path(__file__).resolve().parents[1] / "src"


def make_result(config_hash: str = "ab" * 32, name: str = "point") -> ScenarioResult:
    """A hand-built result: exercising the store must not need a simulation."""
    return ScenarioResult(
        name=name,
        backend="ideal",
        config_hash=config_hash,
        num_iterations=1,
        knobs={"network_mode": "analytic"},
        iteration_times=(0.125, 0.25),
        reconfigurations=(0, 1),
        reconfig_blocking=(0.0, 0.0625),
        metrics={"mean_iteration_time": 0.1875},
        worker="123:MainThread",
        wall_time=0.5,
    )


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "store")


# --------------------------------------------------------------------------- #
# Round trip + layout
# --------------------------------------------------------------------------- #


def test_roundtrip_is_bit_identical(store):
    result = make_result()
    assert store.put(result) is True
    loaded = store.get(result.config_hash)
    assert loaded == result
    assert isinstance(loaded.iteration_times, tuple)
    assert loaded.iteration_times == (0.125, 0.25)


def test_entries_are_sharded_by_hash_prefix(store):
    result = make_result(config_hash="cd" + "0" * 62)
    store.put(result)
    path = store.root / "results" / "cd" / (result.config_hash + ".json")
    assert path.exists()
    envelope = json.loads(path.read_text())
    assert envelope["format"] == STORE_MAGIC
    assert envelope["version"] == STORE_FORMAT_VERSION
    assert envelope["config_hash"] == result.config_hash


def test_put_refuses_to_overwrite_existing_entry(store):
    result = make_result()
    assert store.put(result) is True
    assert store.put(result) is False
    assert len(store) == 1


def test_absent_entry_is_none_not_error(store):
    assert store.get("0" * 64) is None
    assert store.get_envelope("0" * 64) is None
    assert ("0" * 64) not in store


@pytest.mark.parametrize(
    "bad_hash",
    ["", "short", "G" * 64, "ab" * 31 + "XY", "AB" * 32, "../../../etc/passwd"],
)
def test_invalid_hash_is_rejected_before_touching_disk(store, bad_hash):
    with pytest.raises(StoreError):
        store.get(bad_hash)


# --------------------------------------------------------------------------- #
# Atomicity: a killed worker cannot publish a partial entry
# --------------------------------------------------------------------------- #


def test_killed_worker_leaves_no_partial_entry(store, monkeypatch):
    result = make_result()

    def die_mid_write(fd):
        raise KeyboardInterrupt("worker killed mid-write")

    monkeypatch.setattr(os, "fsync", die_mid_write)
    with pytest.raises(KeyboardInterrupt):
        store.put(result)
    # Nothing published, nothing visible, temp file cleaned up.
    assert store.get(result.config_hash) is None
    assert list(store.hashes()) == []
    shard = store.root / "results" / result.config_hash[:2]
    assert not shard.exists() or list(shard.iterdir()) == []


def test_leftover_temp_files_are_invisible_to_readers(store):
    # A SIGKILLed process can leave the dot-prefixed temp file behind; it
    # must never surface as a (partial) entry.
    result = make_result()
    store.put(result)
    shard = store.root / "results" / result.config_hash[:2]
    (shard / ".tmp-orphan.json").write_text('{"truncated":')
    assert list(store.hashes()) == [result.config_hash]
    assert len(store) == 1
    assert store.get(result.config_hash) == result


# --------------------------------------------------------------------------- #
# Envelope discipline: refuse what we cannot vouch for
# --------------------------------------------------------------------------- #


def entry_path(store, config_hash):
    return store.root / "results" / config_hash[:2] / (config_hash + ".json")


def test_version_mismatch_is_refused(store):
    result = make_result()
    store.put(result)
    path = entry_path(store, result.config_hash)
    envelope = json.loads(path.read_text())
    envelope["version"] = 999
    path.write_text(json.dumps(envelope))
    with pytest.raises(StoreError, match="version"):
        store.get(result.config_hash)


def test_corrupt_json_is_refused(store):
    config_hash = "ef" + "1" * 62
    path = entry_path(store, config_hash)
    path.parent.mkdir(parents=True)
    path.write_text('{"format": "repro-sim-result", "version')
    with pytest.raises(StoreError, match="not valid JSON"):
        store.get(config_hash)


def test_foreign_file_is_refused(store):
    config_hash = "0d" + "2" * 62
    path = entry_path(store, config_hash)
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({"some": "other", "json": "file"}))
    with pytest.raises(StoreError, match="envelope"):
        store.get(config_hash)


def test_renamed_entry_is_refused(store):
    # Content addressing: the file name must match the hash inside.
    result = make_result()
    store.put(result)
    wrong_hash = "9" * 64
    src = entry_path(store, result.config_hash)
    dst = entry_path(store, wrong_hash)
    dst.parent.mkdir(parents=True, exist_ok=True)
    src.rename(dst)
    with pytest.raises(StoreError, match="content addressing"):
        store.get(wrong_hash)


# --------------------------------------------------------------------------- #
# Cross-process cache hits
# --------------------------------------------------------------------------- #

_WRITER_SCRIPT = """\
import json, sys
from repro.experiments.runner import Scenario, run_scenario
from repro.parallelism.workloads import small_test_workload
from repro.service.store import ResultStore
from repro.topology.devices import perlmutter_testbed

scenario = Scenario(
    workload=small_test_workload(),
    cluster=perlmutter_testbed(num_nodes=2),
    backend="ideal",
    num_iterations=1,
    name="xproc",
)
store = ResultStore(sys.argv[1])
result = run_scenario(scenario)
assert store.put(result) is True
print(json.dumps(result.to_dict()))
"""


def test_cross_process_cache_hit_is_bit_identical(
    tmp_path, tiny_workload, tiny_cluster, monkeypatch
):
    """A result simulated by another process is served from the store —
    without simulating — and is bit-identical to the writer's result."""
    store_dir = tmp_path / "shared-store"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", _WRITER_SCRIPT, str(store_dir)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    written = json.loads(completed.stdout)

    scenario = Scenario(
        workload=tiny_workload,
        cluster=tiny_cluster,
        backend="ideal",
        num_iterations=1,
        name="xproc",
    )
    assert scenario_hash(scenario) == written["config_hash"]

    # Prove the reader cannot simulate: any attempt must blow up.
    def forbidden(_scenario):
        raise AssertionError("served by simulation, not by the store")

    monkeypatch.setattr(runner_module, "_execute_scenario", forbidden)
    hits = []
    runner = ExperimentRunner(executor="serial", store=ResultStore(store_dir))
    results = runner.run_many(
        [scenario], on_hit=lambda result, tier: hits.append(tier)
    )
    assert hits == ["store"]
    assert runner.store_hits == 1

    loaded = results[0].to_dict()
    # Bit-identical simulation payload; only execution provenance differs.
    for key in (
        "config_hash",
        "iteration_times",
        "reconfigurations",
        "reconfig_blocking",
        "metrics",
        "num_iterations",
        "backend",
    ):
        assert loaded[key] == written[key], key


def test_store_survives_runner_cache_clear(tmp_path, tiny_workload, tiny_cluster):
    scenario = Scenario(
        workload=tiny_workload,
        cluster=tiny_cluster,
        backend="ideal",
        num_iterations=1,
    )
    store = ResultStore(tmp_path / "store")
    runner = ExperimentRunner(executor="serial", store=store)
    first = runner.run(scenario)
    assert len(store) == 1
    runner.clear_cache()
    again = runner.run(scenario)
    assert runner.store_hits == 1
    assert again.iteration_times == first.iteration_times
    assert again.metrics == first.metrics


def test_fresh_simulation_files_result_in_store(tmp_path, tiny_workload, tiny_cluster):
    scenario = Scenario(
        workload=tiny_workload,
        cluster=tiny_cluster,
        backend="ideal",
        num_iterations=1,
    )
    store = ResultStore(tmp_path / "store")
    runner = ExperimentRunner(executor="serial", store=store)
    result = runner.run(scenario)
    assert list(store.hashes()) == [result.config_hash]
    assert store.get(result.config_hash) == result


# --------------------------------------------------------------------------- #
# Stored results stay addressable across refactors
# --------------------------------------------------------------------------- #

#: Configuration hashes of the benchmark workloads (seed 0) and of every
#: golden-trace scenario, recorded before the approximate allocator's knobs
#: were removed.  A refactor that changes any of them would orphan every
#: ``ResultStore`` entry for that configuration.
PINNED_HASHES = {
    "moe-scale-1k": "311b720965cd92444987a12f49bc4c31dedb39529d69c40be115c01d0e75b9f4",
    "fattree-faulted-128": "49b84c3e4f9748223e79224141926017d680f79b34c8f27877b2de8f9f2aa209",
    "photonic-paper-64": "3c0bc2bf80f02e51b1b0db9f4570175492f9ae1d4afe0ef09e3b44e02f125bbb",
    "adaptive_routing_ecmp": "add73ce63253047fdcd72c15f199265c7fd2941c9cffa8cd4e5072ba9914642e",
    "contention_free_analytic": "b18ff00359269840bf9aa10368df520bf3b4bde4181296e5120404764b20a713",
    "degraded_fattree_flow": "3a403f32e9d5ba81b35615b897c1e1ac1222d3f8244718d3c3a6e01142506943",
    "provisioned_photonic_flow": "7a7c4f17329bafa61aaa96760bc74771390fe138af63223a85aef57017933c9a",
    "shared_uplink_flow": "3f9ebdc6f15462377702a4dd0ec6839c215d40f3949acb7ed54c5f36deb0bbf8",
}


def _pinned_scenarios():
    sys.path.insert(0, str(SRC.parent))
    try:
        from perfbench.workloads import WORKLOADS
    finally:
        sys.path.remove(str(SRC.parent))
    from tests.test_golden_traces import GOLDEN_CASES

    scenarios = {name: workload.scenario(0) for name, workload in WORKLOADS.items()}
    scenarios.update({name: factory() for name, factory in GOLDEN_CASES.items()})
    return scenarios


def test_config_hashes_of_committed_scenarios_are_pinned():
    scenarios = _pinned_scenarios()
    assert sorted(scenarios) == sorted(PINNED_HASHES)
    for name, scenario in scenarios.items():
        assert scenario_hash(scenario) == PINNED_HASHES[name], name
