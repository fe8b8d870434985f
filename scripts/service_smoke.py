#!/usr/bin/env python
"""End-to-end HTTP smoke test for ``repro-sim serve`` (the CI service-e2e job).

Boots the real server as a subprocess and drives it over real HTTP:

1. **Concurrent clients.**  Three clients submit the same small sweep at
   once; all three jobs complete and return identical results.
2. **CLI parity.**  The same sweep run via one-shot ``repro-sim sweep`` is
   bit-identical (config hashes, iteration times, metrics) to the
   HTTP-served results.
3. **Persistent store.**  The server is torn down and a *fresh* server is
   booted on the same store directory; resubmitting the sweep is answered
   100% from the content-addressed result store — 0 simulations, asserted
   via the ``/metrics`` cache counters — and the results are bit-identical.
4. **Quarantine.**  Malformed JSON and a capability-violating spec come
   back as structured 400s, land in the quarantine log with their codes,
   and the queue stays healthy (a good job still completes afterwards).
   A POST with a malformed ``Content-Length`` header gets a ``bad-request``
   400 and the server still answers ``/healthz``.

Server logs are written under ``--log-dir`` so CI can upload them as an
artifact when the smoke fails.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import argparse
import http.client
import json
import signal
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path
from urllib.parse import urlsplit

from repro.experiments.cli import main as cli_main
from repro.service import ServiceClient, ServiceError, wait_until_healthy

#: The sweep every phase submits: 2 grid points, cheap on CI.
SPEC = {
    "scenario": {
        "workload": "tiny",
        "cluster": "perlmutter:2",
        "backend": "electrical",
        "iterations": 2,
    },
    "grid": {"network_mode": ["analytic", "flow"]},
}

#: ``repro-sim sweep`` flags equivalent to SPEC (the parity oracle).
SWEEP_ARGS = [
    "sweep",
    "--backend", "electrical",
    "--workload", "tiny",
    "--cluster", "perlmutter:2",
    "--iterations", "2",
    "--grid", "network_mode=analytic,flow",
    "--executor", "serial",
]

BAD_SPECS = [
    ("malformed-json", '{"scenario": {'),
    (
        "capability-violation",
        json.dumps(
            {
                "scenario": {
                    "workload": "tiny",
                    "cluster": "perlmutter:2",
                    "backend": "electrical",
                    "knobs": {
                        "faults": [
                            {"time": 0.01, "kind": "link_fail", "src": "*"}
                        ]
                    },
                }
            }
        ),
    ),
]


class Server:
    """One ``repro-sim serve`` subprocess with captured logs."""

    def __init__(self, name: str, store: Path, log_dir: Path) -> None:
        self.name = name
        self.log_path = log_dir / f"{name}.log"
        self._log = self.log_path.open("w")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.experiments.cli", "serve",
                "--port", "0",
                "--store", str(store),
                "--workers", "2",
                "--job-workers", "4",
            ],
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        ready: list = []

        def _read_ready() -> None:
            ready.append(self.process.stdout.readline())

        reader = threading.Thread(target=_read_ready, daemon=True)
        reader.start()
        reader.join(timeout=60.0)
        if not ready or not ready[0].strip():
            self.stop()
            raise RuntimeError(f"{name}: no ready line within 60s")
        self.url = json.loads(ready[0])["serving"]
        self.client = wait_until_healthy(self.url, timeout=30.0)
        print(f"[smoke] {name} ready at {self.url}")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)
    print(f"[smoke] ok: {message}")


def submit_and_wait(url: str) -> dict:
    client = ServiceClient(url)
    job = client.submit(SPEC)
    return client.wait(job["id"], timeout=240.0)


def post_with_bad_content_length(url: str) -> tuple:
    """POST /sweeps with a non-numeric Content-Length; (status, payload)."""
    address = urlsplit(url)
    connection = http.client.HTTPConnection(
        address.hostname, address.port, timeout=30.0
    )
    try:
        connection.putrequest("POST", "/sweeps")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", "abc")
        connection.endheaders()
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


def result_fingerprint(results: list) -> list:
    """The fields that must be bit-identical across servings."""
    return [
        (
            row["config_hash"],
            row["iteration_times"],
            row["reconfigurations"],
            row["metrics"],
        )
        for row in results
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--log-dir",
        type=Path,
        default=Path("service-logs"),
        help="directory for server logs (uploaded by CI on failure)",
    )
    args = parser.parse_args()
    args.log_dir.mkdir(parents=True, exist_ok=True)
    store = args.log_dir / "store"

    server = Server("server-a", store, args.log_dir)
    try:
        # Phase 1: three concurrent clients, one sweep. ------------------- #
        jobs: list = [None] * 3
        errors: list = []

        def _client(slot: int) -> None:
            try:
                jobs[slot] = submit_and_wait(server.url)
            except Exception as exc:  # noqa: BLE001 — report, don't hang
                errors.append(f"client {slot}: {exc}")

        threads = [
            threading.Thread(target=_client, args=(slot,)) for slot in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300.0)
        check(not errors, f"3 concurrent clients completed (errors: {errors})")
        check(all(job and job["state"] == "done" for job in jobs), "all jobs done")
        fingerprints = [result_fingerprint(job["results"]) for job in jobs]
        check(
            fingerprints[0] == fingerprints[1] == fingerprints[2],
            "concurrent clients got identical results",
        )
        # Concurrent identical jobs may race past the memo cache (there is
        # no in-flight dedup), but every returned point must be accounted
        # for as either simulated or a cache hit.
        metrics = server.client.metrics()
        scenarios = metrics["scenarios"]
        total_points = 3 * len(SPEC["grid"]["network_mode"])
        check(
            scenarios["simulated"] + scenarios["cache_hits_total"] == total_points
            and scenarios["simulated"] >= len(SPEC["grid"]["network_mode"]),
            f"all {total_points} points accounted for "
            f"(simulated={scenarios['simulated']}, "
            f"hits={scenarios['cache_hits_total']})",
        )

        # Phase 2: bit-identical to the one-shot CLI sweep. --------------- #
        sweep_out = args.log_dir / "cli-sweep.json"
        code = cli_main(SWEEP_ARGS + ["--output", str(sweep_out)])
        check(code == 0, "repro-sim sweep succeeded")
        cli_results = json.loads(sweep_out.read_text())
        check(
            result_fingerprint(cli_results) == fingerprints[0],
            "HTTP results bit-identical to `repro-sim sweep`",
        )

        # Phase 3: /results/<hash> serves every stored point. ------------- #
        for row in cli_results:
            envelope = server.client.result(row["config_hash"])
            check(
                envelope["result"]["iteration_times"] == row["iteration_times"],
                f"GET /results/{row['config_hash'][:12]}... matches",
            )
    finally:
        server.stop()
    print(f"[smoke] server-a stopped (log: {server.log_path})")

    # Phase 4: fresh server, same store — answered 100% from disk. -------- #
    server_b = Server("server-b", store, args.log_dir)
    try:
        job = submit_and_wait(server_b.url)
        check(job["state"] == "done", "resubmission on fresh server done")
        metrics = server_b.client.metrics()
        check(
            metrics["scenarios"]["simulated"] == 0,
            "resubmission ran 0 simulations",
        )
        check(
            metrics["scenarios"]["cache_hits_store"] == len(job["results"]),
            f"all {len(job['results'])} points served from the persistent "
            "result store",
        )
        check(
            result_fingerprint(job["results"]) == result_fingerprint(
                json.loads((args.log_dir / "cli-sweep.json").read_text())
            ),
            "store-served results bit-identical to fresh simulation",
        )

        # Phase 5: quarantine — structured rejections, healthy queue. ----- #
        for expected_code, body in BAD_SPECS:
            try:
                request = urllib.request.Request(
                    server_b.url + "/sweeps",
                    data=body.encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                urllib.request.urlopen(request, timeout=30.0)
                check(False, f"bad spec ({expected_code}) was not rejected")
            except urllib.error.HTTPError as exc:
                payload = json.loads(exc.read().decode("utf-8"))
                check(
                    exc.code == 400 and payload["error"] == expected_code,
                    f"bad spec rejected with structured code {expected_code}",
                )
        status, payload = post_with_bad_content_length(server_b.url)
        check(
            status == 400 and payload["error"] == "bad-request",
            "malformed Content-Length rejected with code bad-request",
        )
        check(
            server_b.client.healthz()["status"] == "ok",
            "server still healthy after a malformed Content-Length",
        )
        quarantine = server_b.client.quarantine()
        check(
            all(quarantine["by_code"].get(code, 0) >= 1 for code, _ in BAD_SPECS),
            f"quarantine log tracked rejection reasons {quarantine['by_code']}",
        )
        job = submit_and_wait(server_b.url)
        check(
            job["state"] == "done",
            "queue healthy after rejections (good job still completes)",
        )
    finally:
        server_b.stop()
    print(f"[smoke] server-b stopped (log: {server_b.log_path})")
    print("[smoke] PASS")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (AssertionError, ServiceError, RuntimeError) as exc:
        print(f"[smoke] FAIL: {exc}", file=sys.stderr)
        sys.exit(1)
