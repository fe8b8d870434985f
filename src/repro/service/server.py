"""The HTTP/JSON front door of the experiment service (stdlib only).

Routes
------

==========================  =================================================
``POST /sweeps``            submit a sweep spec; 202 + job record, or a
                            structured 400 (``{"error": <code>, ...}``) when
                            the spec is quarantined or its length invalid
``GET /sweeps``             list job summaries (newest last, no results)
``GET /sweeps/<id>``        one job: state, accounting, results when done
``GET /results/<hash>``     one stored result envelope straight from the
                            content-addressed store (any process that ever
                            simulated the point, not just this server)
``GET /healthz``            liveness: ``{"status": "ok"}``
``GET /metrics``            service telemetry counters (see ``telemetry.py``)
``GET /quarantine``         rejection counters + recent quarantined specs
==========================  =================================================

Built on :class:`http.server.ThreadingHTTPServer` — one thread per request,
which is plenty: request handling only touches counters, the job table, and
the result store; simulations run on the service's worker-process pool.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from ..errors import SpecValidationError, StoreError
from .queue import ExperimentService

#: Largest request body read; the whole body is buffered before parsing.
MAX_BODY_BYTES = 16 << 20


class _Handler(BaseHTTPRequestHandler):
    """Request handler; ``server.service`` is the :class:`ExperimentService`."""

    server_version = "repro-sim-serve"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> ExperimentService:
        return self.server.service  # type: ignore[attr-defined]

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #

    def _send_json(self, status: int, payload: object, close: bool = False) -> None:
        body = json.dumps(payload, indent=2).encode("utf-8") + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _not_found(self, what: str) -> None:
        self._send_json(404, {"error": "not-found", "message": what})

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # BaseHTTPRequestHandler logs to stderr already; keep that (the CI
        # smoke harness captures stderr as the server log) but tag the thread
        # so concurrent requests stay attributable.
        super().log_message(
            "[%s] " + format, threading.current_thread().name, *args
        )

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._send_json(200, {"status": "ok"})
        elif path == "/metrics":
            self._send_json(200, self.service.metrics())
        elif path == "/quarantine":
            self._send_json(200, self.service.quarantine.snapshot())
        elif path == "/sweeps":
            self._send_json(
                200,
                {
                    "jobs": [
                        job.to_dict(include_results=False)
                        for job in self.service.jobs()
                    ]
                },
            )
        elif path.startswith("/sweeps/"):
            job = self.service.get_job(path[len("/sweeps/"):])
            if job is None:
                self._not_found(f"no job {path[len('/sweeps/'):]!r}")
            else:
                self._send_json(200, job.to_dict())
        elif path.startswith("/results/"):
            config_hash = path[len("/results/"):]
            try:
                envelope = self.service.store.get_envelope(config_hash)
            except StoreError as exc:
                self._send_json(400, {"error": "store-error", "message": str(exc)})
                return
            if envelope is None:
                self._not_found(f"no stored result for {config_hash!r}")
            else:
                self._send_json(200, envelope)
        else:
            self._not_found(f"unknown path {path!r}")

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        path = self.path.split("?", 1)[0].rstrip("/")
        if path != "/sweeps":
            self._not_found(f"unknown path {path!r}")
            return
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # Not a spec, so not quarantined.  The body is unread, so the
            # connection cannot carry another request.
            message = f"Content-Length must be in [0, {MAX_BODY_BYTES}], got {raw!r}"
            self._send_json(400, {"error": "bad-request", "message": message}, close=True)
            return
        body = self.rfile.read(length).decode("utf-8", errors="replace")
        try:
            job = self.service.submit_text(body)
        except SpecValidationError as exc:
            # The structured rejection contract: stable code + message, and
            # the spec is already in the quarantine log.
            self._send_json(400, {"error": exc.code, "message": str(exc)})
            return
        self._send_json(
            202, {"job": job.to_dict(include_results=False), "url": f"/sweeps/{job.id}"}
        )


class ExperimentServer:
    """An :class:`ExperimentService` bound to a listening HTTP socket.

    ``port=0`` binds an ephemeral port; :attr:`url` reports the real one.
    Use :meth:`start`/:meth:`stop` for a background thread (tests) or
    :meth:`serve_forever` to block (the CLI).
    """

    def __init__(
        self,
        service: ExperimentService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.service = service  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self.httpd.server_address[0], self.httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ExperimentServer":
        """Serve requests on a daemon thread and return immediately."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="http", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve requests on the calling thread until :meth:`stop`."""
        self.httpd.serve_forever()

    def stop(self) -> None:
        """Stop accepting requests, then drain jobs and the worker pool."""
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.service.close()
