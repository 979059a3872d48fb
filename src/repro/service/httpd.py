"""The localhost HTTP endpoint: ``http.server``, zero new dependencies.

Exposes the :class:`~repro.service.service.BrokerService` verbs under
``/api/v2/`` so out-of-process tenants (``python -m repro submit``,
curl, CI) can share one service:

========  ==========================  =======================================
method    path                        body / response
========  ==========================  =======================================
POST      ``/api/v2/submit``          JSON ``{"artifacts": [...], "tenant",
                                      "parallel", "use_cache"}`` (or a
                                      ``request_pickle`` for a full typed
                                      :class:`~repro.broker.api.RunRequest`)
                                      → submit-receipt JSON
GET       ``/api/v2/status/<id>``     job-status JSON (id prefixes work)
GET       ``/api/v2/jobs``            every job's status JSON
GET       ``/api/v2/result/<id>``     ``{"state", "result_pickle"}`` — the
                                      pickled typed ``RunResult``;
                                      ``?timeout=S`` bounds the wait
POST      ``/api/v2/cancel/<id>``     final job-status JSON
GET       ``/api/v2/stats``           queue accounting JSON
GET       ``/api/v2/metrics``         Prometheus text exposition
========  ==========================  =======================================

Typed results cross the wire as base64 pickle inside JSON: every tenant
receives the *same* bytes for a coalesced job, preserving the library's
bit-identity guarantee over HTTP.  Pickle is only safe between a client
and a service it trusts, which is why the endpoint binds localhost by
default and this module is documented as a loopback transport, not an
internet face.

Typed errors map onto status codes (429 ``AdmissionDenied``, 404
``JobNotFoundError``, 409 ``JobCancelledError``, 408 result-wait
timeout, 400 other service misuse) with a JSON body carrying the error
type and message so :class:`~repro.service.client.ServiceClient` can
re-raise the original exception class.
"""

from __future__ import annotations

import base64
import ipaddress
import json
import pickle
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.errors import (
    AdmissionDenied,
    JobCancelledError,
    JobNotFoundError,
    ReproError,
    ServiceError,
)

#: Route prefix for every endpoint this server exposes.
API_PREFIX = "/api/v2"


def _error_doc(exc: BaseException) -> dict:
    """The JSON error body a typed exception crosses the wire as."""
    doc = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, AdmissionDenied):
        doc["tenant"] = exc.tenant
        doc["reason"] = exc.reason
        doc["retry_after_s"] = exc.retry_after_s
    return doc


def _status_for(exc: BaseException) -> int:
    """The HTTP status code a typed exception maps onto."""
    if isinstance(exc, AdmissionDenied):
        return 429
    if isinstance(exc, JobNotFoundError):
        return 404
    if isinstance(exc, JobCancelledError):
        return 409
    if isinstance(exc, TimeoutError):
        return 408
    if isinstance(exc, (ServiceError, ReproError, ValueError, KeyError)):
        return 400
    return 500


class ServiceHandler(BaseHTTPRequestHandler):
    """One request: route, call the service, serialise the answer."""

    #: Set by :func:`serve_http` on the handler class.
    service = None
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Silence per-request stderr logging (telemetry streams instead)."""

    # -- plumbing -----------------------------------------------------------

    def _send_json(self, doc: dict, status: int = 200) -> None:
        body = json.dumps(doc).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, text: str, status: int = 200) -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", "0") or "0")
        if not length:
            return {}
        doc = json.loads(self.rfile.read(length).decode())
        if not isinstance(doc, dict):
            raise ServiceError("request body must be a JSON object")
        return doc

    def _dispatch(self, handler, *args) -> None:
        try:
            handler(*args)
        except Exception as exc:  # typed errors become typed JSON
            self._send_json(_error_doc(exc), status=_status_for(exc))

    # -- verbs --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        """Route ``status`` / ``jobs`` / ``result`` / ``stats`` / ``metrics``."""
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if len(parts) < 3 or "/" + "/".join(parts[:2]) != API_PREFIX:
            self._send_json({"error": "NotFound", "message": self.path}, 404)
            return
        verb, rest = parts[2], parts[3:]
        if verb == "status" and len(rest) == 1:
            self._dispatch(self._get_status, rest[0])
        elif verb == "jobs" and not rest:
            self._dispatch(self._get_jobs)
        elif verb == "result" and len(rest) == 1:
            self._dispatch(self._get_result, rest[0], parse_qs(url.query))
        elif verb == "stats" and not rest:
            self._dispatch(self._get_stats)
        elif verb == "metrics" and not rest:
            self._dispatch(self._get_metrics)
        else:
            self._send_json({"error": "NotFound", "message": self.path}, 404)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        """Route ``submit`` and ``cancel``."""
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if len(parts) < 3 or "/" + "/".join(parts[:2]) != API_PREFIX:
            self._send_json({"error": "NotFound", "message": self.path}, 404)
            return
        verb, rest = parts[2], parts[3:]
        if verb == "submit" and not rest:
            self._dispatch(self._post_submit)
        elif verb == "cancel" and len(rest) == 1:
            self._dispatch(self._post_cancel, rest[0])
        else:
            self._send_json({"error": "NotFound", "message": self.path}, 404)

    # -- handlers -----------------------------------------------------------

    def _post_submit(self) -> None:
        from repro.broker.api import RunRequest

        doc = self._read_json()
        tenant = str(doc.get("tenant", "default"))
        if "request_pickle" in doc:
            request = pickle.loads(base64.b64decode(doc["request_pickle"]))
        else:
            artifacts = doc.get("artifacts", ("all",))
            request = RunRequest(
                artifacts=tuple(artifacts) if not isinstance(artifacts, str)
                else (artifacts,),
                parallel=int(doc.get("parallel", 0)),
                use_cache=bool(doc.get("use_cache", True)),
            )
        receipt = self.service.submit(request, tenant=tenant)
        self._send_json({
            "job_id": receipt.job_id,
            "state": receipt.state,
            "coalesced": receipt.coalesced,
            "tenant": receipt.tenant,
        }, status=202)

    def _get_status(self, job_id: str) -> None:
        self._send_json(self.service.status(job_id).as_dict())

    def _get_jobs(self) -> None:
        self._send_json({"jobs": [s.as_dict() for s in self.service.jobs()]})

    def _get_result(self, job_id: str, query: dict) -> None:
        timeout = None
        if "timeout" in query:
            timeout = float(query["timeout"][0])
        result = self.service.result(job_id, timeout=timeout)
        status = self.service.status(job_id)
        self._send_json({
            "job_id": status.job_id,
            "state": status.state,
            "result_pickle": base64.b64encode(pickle.dumps(result)).decode(),
        })

    def _post_cancel(self, job_id: str) -> None:
        self._send_json(self.service.cancel(job_id).as_dict())

    def _get_stats(self) -> None:
        self._send_json(self.service.stats())

    def _get_metrics(self) -> None:
        from repro.obs.exporters import prometheus_text

        self._send_text(prometheus_text(self.service.hub.metrics))


def _require_loopback(host: str) -> None:
    """Refuse any bind address a remote peer could reach: the endpoint
    unpickles request bodies, so it may only listen on loopback."""
    if host == "localhost":
        return
    try:
        loopback = ipaddress.ip_address(host).is_loopback
    except ValueError:
        loopback = False
    if not loopback:
        raise ServiceError(
            f"refusing to bind {host!r}: the service endpoint is "
            "loopback-only (localhost, 127.0.0.0/8 or ::1)"
        )


def serve_http(service, host: str = "127.0.0.1", port: int = 0):
    """Bind the endpoint and serve it on a daemon thread.

    Returns ``(server, thread)``; the caller owns shutdown
    (``server.shutdown(); server.server_close()``).  ``port`` 0 binds an
    ephemeral port — read the real one from ``server.server_address``.
    ``host`` must be a loopback address (:class:`ServiceError` otherwise).
    """
    _require_loopback(host)
    handler = type("BoundServiceHandler", (ServiceHandler,),
                   {"service": service})
    server = ThreadingHTTPServer((host, port), handler, bind_and_activate=False)
    # The socketserver default listen backlog (5) resets connections the
    # moment a coalesce storm of clients connects at once; the service's
    # whole point is absorbing such bursts.
    server.request_queue_size = 128
    server.daemon_threads = True
    try:
        server.server_bind()
        server.server_activate()
    except BaseException:
        server.server_close()
        raise
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service-http", daemon=True
    )
    thread.start()
    return server, thread


__all__ = ["API_PREFIX", "ServiceHandler", "serve_http"]
