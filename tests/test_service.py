"""Experiment-service tests: validation, quarantine, HTTP API, store hits."""

import json
import threading

import pytest

from repro.errors import SpecValidationError
from repro.service import (
    ExperimentServer,
    ExperimentService,
    ServiceClient,
    ServiceError,
    validate_sweep_spec,
)

#: One cheap single-point sweep (ideal backend, one iteration).
GOOD_SPEC = {
    "scenario": {
        "workload": "tiny",
        "cluster": "perlmutter:2",
        "backend": "ideal",
        "iterations": 1,
    }
}

#: A 2-point grid on the electrical backend (still analytic-cheap).
GRID_SPEC = {
    "scenario": {
        "workload": "tiny",
        "cluster": "perlmutter:2",
        "backend": "electrical",
        "iterations": 1,
    },
    "grid": {"use_tree_collectives": [False, True]},
}


@pytest.fixture()
def service(tmp_path):
    service = ExperimentService(
        tmp_path / "store", executor="serial", job_workers=2
    )
    yield service
    service.close()


def rejection_code(service, payload):
    """Submit a bad payload and return the structured rejection code."""
    with pytest.raises(SpecValidationError) as excinfo:
        if isinstance(payload, str):
            service.submit_text(payload)
        else:
            service.submit(payload)
    return excinfo.value.code


# --------------------------------------------------------------------------- #
# Spec validation
# --------------------------------------------------------------------------- #


def test_validate_expands_grid_and_names_points():
    spec = validate_sweep_spec(GRID_SPEC)
    assert len(spec.scenarios) == 2
    assert [s.knobs["use_tree_collectives"] for s in spec.scenarios] == [False, True]
    assert all(s.backend == "electrical" for s in spec.scenarios)


@pytest.mark.parametrize(
    "payload,code",
    [
        (["not", "an", "object"], "bad-spec"),
        ({"scenario": {}, "bogus": 1}, "bad-spec"),
        ({"scenario": {"workload": "nonexistent"}}, "unknown-workload"),
        ({"scenario": {"backend": "quantum"}}, "unknown-backend"),
        ({"scenario": {"cluster": "perlmutter:zero"}}, "bad-cluster"),
        ({"scenario": {"iterations": 0}}, "bad-iterations"),
        ({"scenario": {"knobs": {"no_such_knob": 1}}}, "unknown-knob"),
        ({"scenario": {"knobs": {"faults": "yes please"}}}, "bad-fault-plan"),
        ({"scenario": {}, "grid": {"network_mode": "flow"}}, "bad-grid"),
        # The removed approximate-allocator knobs get the stable rejection.
        ({"scenario": {"knobs": {"allocator_epsilon": 0.05}}}, "unknown-knob"),
        ({"scenario": {"knobs": {"coarsen_quantum": 1e-6}}}, "unknown-knob"),
    ],
)
def test_bad_specs_fail_with_stable_codes(payload, code):
    with pytest.raises(SpecValidationError) as excinfo:
        validate_sweep_spec(payload)
    assert excinfo.value.code == code


def test_capability_violating_fault_plan_is_rejected():
    # link_fail needs a link-level fault model; electrical+analytic has none.
    payload = {
        "scenario": {
            "backend": "electrical",
            "knobs": {
                "faults": [{"time": 0.01, "kind": "link_fail", "src": "*"}]
            },
        }
    }
    with pytest.raises(SpecValidationError) as excinfo:
        validate_sweep_spec(payload)
    assert excinfo.value.code == "capability-violation"


def test_oversized_grid_is_rejected_before_any_work():
    payload = {
        "scenario": GOOD_SPEC["scenario"],
        "grid": {"reconfiguration_delay": list(range(10))},
    }
    with pytest.raises(SpecValidationError) as excinfo:
        validate_sweep_spec(payload, max_grid_points=4)
    assert excinfo.value.code == "oversized-grid"


# --------------------------------------------------------------------------- #
# Quarantine: rejections are recorded, the queue stays healthy
# --------------------------------------------------------------------------- #


def test_rejections_are_quarantined_and_queue_stays_healthy(service):
    assert rejection_code(service, '{"scenario": {') == "malformed-json"
    assert (
        rejection_code(service, {"scenario": {"backend": "quantum"}})
        == "unknown-backend"
    )
    assert (
        rejection_code(
            service,
            {
                "scenario": {
                    "backend": "electrical",
                    "knobs": {
                        "faults": [
                            {"time": 0.01, "kind": "link_fail", "src": "*"}
                        ]
                    },
                }
            },
        )
        == "capability-violation"
    )
    quarantine = service.quarantine.snapshot()
    assert quarantine["total"] == 3
    assert quarantine["by_code"] == {
        "capability-violation": 1,
        "malformed-json": 1,
        "unknown-backend": 1,
    }
    # Rejected specs never became jobs...
    assert service.jobs() == []
    metrics = service.metrics()
    assert metrics["jobs"]["rejected"] == 3
    assert metrics["rejections"]["by_code"]["malformed-json"] == 1
    # ...and the queue still runs good work afterwards.
    job = service.submit(GOOD_SPEC)
    assert service.wait(job.id).state == "done"
    assert len(job.results) == 1


def test_oversized_grid_cap_is_configurable(tmp_path):
    service = ExperimentService(
        tmp_path / "store", executor="serial", max_grid_points=4
    )
    try:
        payload = {
            "scenario": GOOD_SPEC["scenario"],
            "grid": {"reconfiguration_delay": [0.0, 0.1, 0.2, 0.3, 0.4]},
        }
        assert rejection_code(service, payload) == "oversized-grid"
        assert service.quarantine.snapshot()["by_code"] == {"oversized-grid": 1}
    finally:
        service.close()


def test_quarantine_counts_survive_restart(tmp_path):
    service = ExperimentService(tmp_path / "store", executor="serial")
    rejection_code(service, '{"scenario": {')
    service.close()
    reborn = ExperimentService(tmp_path / "store", executor="serial")
    try:
        assert reborn.quarantine.snapshot()["by_code"] == {"malformed-json": 1}
    finally:
        reborn.close()


# --------------------------------------------------------------------------- #
# Job execution + accounting
# --------------------------------------------------------------------------- #


def test_job_lifecycle_and_cache_accounting(service):
    job = service.wait(service.submit(GRID_SPEC).id)
    assert job.state == "done"
    assert job.points_simulated == 2
    assert job.points_from_cache == {}
    # Resubmission: all points answered from the in-memory memo.
    again = service.wait(service.submit(GRID_SPEC).id)
    assert again.points_simulated == 0
    assert again.points_from_cache == {"memory": 2}
    first = [r.to_dict() for r in job.results]
    second = [r.to_dict() for r in again.results]
    assert first == second
    metrics = service.metrics()
    assert metrics["scenarios"]["simulated"] == 2
    assert metrics["scenarios"]["cache_hits_memory"] == 2
    assert metrics["store"]["results"] == 2
    assert metrics["backend_wall_time"].keys() == {"electrical"}


def test_failed_job_does_not_kill_the_service(service, monkeypatch):
    import repro.experiments.runner as runner_module

    def explode(scenario):
        raise RuntimeError("boom")

    monkeypatch.setattr(runner_module, "_execute_scenario", explode)
    job = service.wait(service.submit(GOOD_SPEC).id)
    assert job.state == "failed"
    assert "boom" in job.error
    assert service.metrics()["jobs"]["failed"] == 1
    monkeypatch.undo()
    good = service.wait(service.submit(GOOD_SPEC).id)
    assert good.state == "done"


def test_second_service_on_same_store_hits_disk_not_simulation(tmp_path):
    first = ExperimentService(tmp_path / "store", executor="serial")
    try:
        original = first.wait(first.submit(GRID_SPEC).id)
    finally:
        first.close()

    second = ExperimentService(tmp_path / "store", executor="serial")
    try:
        job = second.wait(second.submit(GRID_SPEC).id)
        assert job.points_simulated == 0
        assert job.points_from_cache == {"store": 2}
        assert second.metrics()["scenarios"]["cache_hits_store"] == 2
        assert [r.to_dict() for r in job.results] == [
            r.to_dict() for r in original.results
        ]
    finally:
        second.close()


# --------------------------------------------------------------------------- #
# HTTP API
# --------------------------------------------------------------------------- #


@pytest.fixture()
def server(service):
    server = ExperimentServer(service, port=0)
    server.start()
    yield server
    server.stop()


def test_http_roundtrip_with_concurrent_clients(server):
    clients = [ServiceClient(server.url) for _ in range(3)]
    jobs = [None] * 3

    def submit(slot):
        job = clients[slot].submit(GOOD_SPEC)
        jobs[slot] = clients[slot].wait(job["id"], timeout=120.0)

    threads = [
        threading.Thread(target=submit, args=(slot,)) for slot in range(3)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=180.0)
    assert all(job is not None and job["state"] == "done" for job in jobs)
    # Concurrent identical jobs may each simulate (no in-flight dedup), so
    # execution provenance (worker, wall_time) can differ — the simulation
    # payload must not.
    payloads = [
        [
            (
                row["config_hash"],
                row["iteration_times"],
                row["reconfigurations"],
                row["metrics"],
            )
            for row in job["results"]
        ]
        for job in jobs
    ]
    assert payloads[0] == payloads[1] == payloads[2]

    metrics = clients[0].metrics()
    assert metrics["jobs"]["submitted"] == 3
    assert metrics["jobs"]["done"] == 3
    # The job list omits result payloads; the job endpoint carries them.
    listed = clients[0].jobs()
    assert len(listed) == 3
    assert all("results" not in job for job in listed)
    assert all("result_hashes" in job for job in listed)


def test_http_serves_stored_results_by_hash(server):
    client = ServiceClient(server.url)
    job = client.wait(client.submit(GOOD_SPEC)["id"], timeout=120.0)
    config_hash = job["result_hashes"][0]
    envelope = client.result(config_hash)
    assert envelope["config_hash"] == config_hash
    assert envelope["result"] == job["results"][0]


def test_http_structured_errors(server):
    client = ServiceClient(server.url)
    with pytest.raises(ServiceError) as excinfo:
        client.job("job-999999")
    assert excinfo.value.status == 404
    assert excinfo.value.code == "not-found"

    with pytest.raises(ServiceError) as excinfo:
        client.submit({"scenario": {"backend": "quantum"}})
    assert excinfo.value.status == 400
    assert excinfo.value.code == "unknown-backend"

    with pytest.raises(ServiceError) as excinfo:
        client.result("not-a-hash")
    assert excinfo.value.status == 400

    with pytest.raises(ServiceError) as excinfo:
        client.result("0" * 64)
    assert excinfo.value.status == 404

    quarantine = client.quarantine()
    assert quarantine["by_code"] == {"unknown-backend": 1}
    assert client.healthz()["status"] == "ok"


def test_http_rejects_malformed_body(server):
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        server.url + "/sweeps",
        data=b'{"scenario": {',
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=30.0)
    assert excinfo.value.code == 400
    payload = json.loads(excinfo.value.read().decode("utf-8"))
    assert payload["error"] == "malformed-json"


@pytest.mark.parametrize("length", ["abc", "-1", str(10**15)])
def test_http_rejects_a_bad_content_length_and_keeps_serving(server, length):
    import http.client
    from urllib.parse import urlsplit

    address = urlsplit(server.url)
    connection = http.client.HTTPConnection(address.hostname, address.port, timeout=30.0)
    try:
        connection.putrequest("POST", "/sweeps")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", length)
        connection.endheaders()
        response = connection.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()
    assert response.status == 400
    assert payload["error"] == "bad-request"
    assert response.getheader("Connection") == "close"
    client = ServiceClient(server.url)
    assert client.healthz()["status"] == "ok"
    # A header fault is not a spec rejection: nothing is quarantined.
    assert client.quarantine()["total"] == 0
