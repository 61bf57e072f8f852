"""A stdlib HTTP front end for the model registry.

:class:`GatewayServer` wraps a :class:`~repro.serving.registry.ModelRegistry`
in a :class:`http.server.ThreadingHTTPServer` — no third-party web stack,
one connection thread per client, every request funnelled through the
registry's admission (tenant quotas) and each slot's micro-batch queue.
Because the service coalesces concurrent callers into batched kernel calls,
the thread-per-connection model is exactly what the batcher wants: many
blocked submitter threads, one hot worker per slot.

Endpoints (all JSON)::

    GET  /health                       registry + per-model readiness
    GET  /v1/models                    deployed model metadata
    GET  /v1/models/{name}             one model's metadata
    POST /v1/models/{name}:predict     {"vector": [...]} or {"items": [...]}
    POST /v1/models/{name}:explain     same query + explanation knobs

and, when an admin token is configured, the admin control plane::

    GET  /admin/v1/counters            registry_*/service_* counter snapshot
    POST /admin/v1/models/{n}:deploy   {"artifact": path} hot swap
    POST /admin/v1/models/{n}:refresh  {"train": path} delta refresh + swap

Request bodies may carry ``tenant`` (quota accounting) and ``deadline_ms``
(per-request staleness bound); ``:explain`` adds ``min_satisfaction``,
``class_id`` and ``limit``.  Nothing is coerced: the query goes as sent to
the one strict parser (:mod:`repro.core.query`; raw intensities are not
accepted), ``tenant`` must be a string and the other fields finite JSON
numbers (``class_id``/``limit`` integers).  Failures map onto the shared
error surface of :mod:`repro.serving.surface`: the body is
:func:`~repro.serving.surface.error_body`, the status
:func:`~repro.serving.surface.http_status`, and a ``Retry-After`` header
rides along when the breaker knows its cooldown.

The admin plane is opt-in and token-gated: without ``admin_token`` every
``/admin/v1/...`` request gets 403 (:class:`~repro.errors.AdminDisabled`);
with one, requests must present it via ``Authorization: Bearer <token>``
or ``X-Admin-Token`` (compared in constant time) or get 401
(:class:`~repro.errors.AdminAuthError`).  Paths are server-side: the
admin plane deploys artifacts the *gateway host* can read — it does not
upload bytes.  Successful deploys/refreshes rewrite the ``state_file``
(the last-known-good artifact set a supervisor restart reloads).

Two request-hardening guards protect the thread-per-connection model from
hostile or broken clients: a body larger than ``max_body_bytes`` is
refused with 413 (:class:`~repro.errors.RequestTooLarge`) before a byte of
it is read, and a client that stalls mid-body past ``read_timeout``
seconds gets 408 (:class:`~repro.errors.RequestTimeout`) instead of
pinning a worker thread forever.
"""

from __future__ import annotations

import hmac
import json
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union
from urllib.parse import urlparse

import numpy as np

from ..errors import (
    AdminAuthError,
    AdminDisabled,
    QueryError,
    ReproError,
    RequestTimeout,
    RequestTooLarge,
)
from ..rules.boolexpr import pretty
from .registry import ModelInfo, ModelRegistry
from .surface import error_body, http_status

__all__ = ["GatewayServer"]

_JSON = "application/json"


def _model_info_json(info: ModelInfo) -> Dict[str, Any]:
    return {
        "name": info.name,
        "version": info.version,
        "fingerprint": info.fingerprint,
        "n_items": info.n_items,
        "n_classes": info.n_classes,
        "class_names": list(info.class_names),
        "artifact_path": info.artifact_path,
        "workers": info.workers,
        "supports_explain": info.supports_explain,
    }


def _class_name(info: ModelInfo, label: int) -> str:
    return info.class_names[label] if label < len(info.class_names) else str(label)


def _parse_query(body: Dict[str, Any]) -> Any:
    """The query payload as sent: ``vector`` (a dense indicator, as an
    array of its JSON types) xor ``items`` (item ids, the raw list)."""
    if ("vector" in body) == ("items" in body):
        raise QueryError(
            "request body must carry exactly one of 'vector' (dense"
            " indicator list) or 'items' (expressed item ids)"
        )
    key = "vector" if "vector" in body else "items"
    value = body[key]
    if not isinstance(value, list):
        raise QueryError(f"{key!r} must be a JSON array")
    if key == "items":
        return value
    try:
        return np.array(value)
    except ValueError as exc:  # ragged nesting
        raise QueryError(f"'vector' must be a flat JSON array: {exc}") from exc


def _is_number(value: Any) -> bool:
    """A finite JSON number, never a bool (NaN fails the comparison)."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _is_path(value: Any) -> bool:
    return isinstance(value, str) and bool(value)


#: Scalar body fields: each one's check and what it must be.
_FIELDS = {
    "tenant": (lambda v: isinstance(v, str), "a string"),
    "expected_fingerprint": (lambda v: isinstance(v, str), "a string"),
    "artifact": (_is_path, "a server-side .npz artifact path"),
    "train": (_is_path, "a server-side relational JSON path"),
    "out": (_is_path, "a server-side path"),
    "deadline_ms": (_is_number, "a finite JSON number"),
    "min_satisfaction": (_is_number, "a finite JSON number"),
    "class_id": (lambda v: _is_number(v) and isinstance(v, int), "a JSON integer"),
    "limit": (lambda v: _is_number(v) and isinstance(v, int), "a JSON integer"),
}


def _field(body: Dict[str, Any], key: str, required: bool = False) -> Any:
    """A scalar body field, strictly typed and never coerced."""
    value = body.get(key)
    check, expected = _FIELDS[key]
    if (required or value is not None) and not check(value):
        raise QueryError(f"{key!r} must be {expected}, got {value!r}")
    return value


class _GatewayHandler(BaseHTTPRequestHandler):
    """One request; the registry hangs off the server object."""

    server_version = "repro-gateway"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @property
    def registry(self) -> ModelRegistry:
        return self.server.registry  # type: ignore[attr-defined]

    def setup(self) -> None:
        super().setup()
        # A stalled client may never send its body; the socket timeout
        # bounds every read so the connection thread cannot be pinned.
        # (Idle keep-alive timeouts are absorbed by http.server, which
        # closes the connection; mid-body timeouts surface as 408 below.)
        read_timeout = getattr(self.server, "read_timeout", None)
        if read_timeout is not None:
            self.connection.settimeout(read_timeout)

    def log_message(self, format: str, *args: Any) -> None:
        # Observability flows through the shared counters, not stderr.
        pass

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        extra_headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", _JSON)
        self.send_header("Content-Length", str(len(data)))
        for name, value in extra_headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _send_error_json(self, error: BaseException) -> None:
        headers: Tuple[Tuple[str, str], ...] = ()
        retry_after = getattr(error, "retry_after", None)
        if retry_after is not None:
            headers = (("Retry-After", f"{float(retry_after):.3f}"),)
        self._send_json(http_status(error), error_body(error), headers)

    def _read_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        max_body = getattr(self.server, "max_body_bytes", None)
        if max_body is not None and length > max_body:
            # Refused before reading: the oversized payload never gets
            # buffered, and the connection is dropped so the client cannot
            # stream the rest into a half-read socket.
            self.close_connection = True
            raise RequestTooLarge(length, max_body)
        try:
            raw = self.rfile.read(length) if length else b""
        except socket.timeout:
            self.close_connection = True
            raise RequestTimeout(
                f"client sent {length}-byte Content-Length but stalled"
                " mid-body past the gateway read timeout"
            ) from None
        if not raw:
            raise QueryError("request body must be a JSON object")
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise QueryError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise QueryError("request body must be a JSON object")
        return body

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        try:
            path = urlparse(self.path).path
            if path == "/health":
                return self._get_health()
            if path == "/v1/models":
                return self._get_models()
            if path.startswith("/v1/models/"):
                return self._get_model(path[len("/v1/models/") :])
            if path == "/admin/v1/counters":
                return self._get_admin_counters()
            self._send_json(404, {"error": {
                "type": "NotFound",
                "message": f"no route for GET {path}",
                "status": 404,
            }})
        except Exception as exc:  # pragma: no cover - defensive envelope
            self._send_error_json(exc)

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        try:
            path = urlparse(self.path).path
            if path.startswith("/v1/models/") and ":" in path:
                name, _, verb = path[len("/v1/models/") :].rpartition(":")
                if verb == "predict":
                    return self._post_predict(name)
                if verb == "explain":
                    return self._post_explain(name)
            if path.startswith("/admin/v1/models/") and ":" in path:
                name, _, verb = path[len("/admin/v1/models/") :].rpartition(":")
                if verb == "deploy":
                    return self._post_admin_deploy(name)
                if verb == "refresh":
                    return self._post_admin_refresh(name)
            self._send_json(404, {"error": {
                "type": "NotFound",
                "message": f"no route for POST {path}",
                "status": 404,
            }})
        except Exception as exc:
            self._send_error_json(exc)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _get_health(self) -> None:
        health = self.registry.health()
        payload = {
            "state": health.state,
            "ready": health.ready,
            "tenants_in_flight": health.tenants_in_flight,
            "breakers_open": health.breakers_open,
            "breaker_retry_after": health.breaker_retry_after,
            "models": {
                name: {
                    "state": h.state,
                    "ready": h.ready,
                    "breaker": h.breaker,
                    "breaker_retry_after": h.breaker_retry_after,
                    "consecutive_failures": h.consecutive_failures,
                    "queue_depth": h.queue_depth,
                    "worker_alive": h.worker_alive,
                    "worker_restarts": h.worker_restarts,
                    "shedding": h.shedding,
                    "answered": h.answered,
                }
                for name, h in health.models.items()
            },
        }
        self._send_json(200 if health.ready else 503, payload)

    def _get_models(self) -> None:
        self._send_json(
            200,
            {"models": [_model_info_json(m) for m in self.registry.models()]},
        )

    def _get_model(self, name: str) -> None:
        try:
            info = self.registry.model_info(name)
        except ReproError as exc:
            return self._send_error_json(exc)
        self._send_json(200, _model_info_json(info))

    def _post_predict(self, name: str) -> None:
        try:
            body = self._read_body()
            query = _parse_query(body)
            tenant = _field(body, "tenant")
            deadline_ms = _field(body, "deadline_ms")
            values = self.registry.classification_values(
                name, query, tenant=tenant, deadline_ms=deadline_ms
            )
        except ReproError as exc:
            return self._send_error_json(exc)
        info = self.registry.model_info(name)
        label = int(np.argmax(values))
        self._send_json(
            200,
            {
                "model": info.name,
                "version": info.version,
                "prediction": label,
                "class_name": _class_name(info, label),
                "values": [float(v) for v in values],
            },
        )

    def _post_explain(self, name: str) -> None:
        try:
            body = self._read_body()
            query = _parse_query(body)
            tenant = _field(body, "tenant")
            kwargs = {
                key: body[key]
                for key in ("min_satisfaction", "class_id", "limit")
                if _field(body, key) is not None
            }
            explanation = self.registry.explain(
                name, query, tenant=tenant, **kwargs
            )
        except ReproError as exc:
            return self._send_error_json(exc)
        info = self.registry.model_info(name)
        item_names = self.registry.item_names(name)
        names = list(item_names) if item_names else None
        self._send_json(
            200,
            {
                "model": info.name,
                "version": info.version,
                "prediction": explanation.predicted,
                "class_name": _class_name(info, explanation.predicted),
                "class_values": list(explanation.class_values),
                "evidence": [
                    {
                        "gene": e.gene,
                        "gene_name": (
                            names[e.gene]
                            if names and e.gene < len(names)
                            else str(e.gene)
                        ),
                        "sample": e.sample,
                        "satisfaction": e.satisfaction,
                        "rule": pretty(e.rule, names),
                    }
                    for e in explanation.evidence
                ],
            },
        )


    # ------------------------------------------------------------------
    # Admin control plane
    # ------------------------------------------------------------------
    def _check_admin(self) -> None:
        """Gate an ``/admin/v1/...`` route on the configured token."""
        token = getattr(self.server, "admin_token", None)
        if not token:
            raise AdminDisabled()
        supplied = self.headers.get("X-Admin-Token")
        if supplied is None:
            authorization = self.headers.get("Authorization", "")
            if authorization.startswith("Bearer "):
                supplied = authorization[len("Bearer ") :]
        # Constant-time comparison: the token is a shared secret, and a
        # timing oracle on == would leak it byte by byte.
        if supplied is None or not hmac.compare_digest(supplied, token):
            raise AdminAuthError()

    def _write_state(self) -> None:
        """Persist the last-known-good artifact set after an admin swap."""
        state_file = getattr(self.server, "state_file", None)
        if state_file is None:
            return
        from .supervisor import write_state_file

        write_state_file(self.registry.artifact_map(), state_file)

    def _get_admin_counters(self) -> None:
        try:
            self._check_admin()
        except ReproError as exc:
            return self._send_error_json(exc)
        self._send_json(200, {"counters": self.registry.counters_snapshot()})

    def _post_admin_deploy(self, name: str) -> None:
        try:
            self._check_admin()
            body = self._read_body()
            info = self.registry.deploy(
                name,
                _field(body, "artifact", required=True),
                expected_fingerprint=_field(body, "expected_fingerprint"),
            )
            self._write_state()
        except ReproError as exc:
            return self._send_error_json(exc)
        self._send_json(200, {"deployed": _model_info_json(info)})

    def _post_admin_refresh(self, name: str) -> None:
        from ..datasets.io import load_relational_json

        try:
            self._check_admin()
            body = self._read_body()
            dataset = load_relational_json(_field(body, "train", required=True))
            info = self.registry.refresh(
                name, dataset, out_path=_field(body, "out")
            )
            self._write_state()
        except ReproError as exc:
            return self._send_error_json(exc)
        self._send_json(200, {"deployed": _model_info_json(info)})


class _GatewayHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer with a listen backlog sized for bursty load.

    socketserver's default backlog of 5 resets connections the moment a
    few dozen clients connect in the same instant — an open-loop replay
    at even modest QPS trips it constantly.  128 matches the common
    ``somaxconn`` floor; beyond that the admission queue (shed/quota)
    is the intended backpressure, not the kernel's SYN queue.
    """

    request_queue_size = 128
    daemon_threads = True


class GatewayServer:
    """The multi-tenant HTTP gateway over a model registry.

    Args:
        registry: the :class:`~repro.serving.registry.ModelRegistry` to
            front (the caller keeps ownership — closing the gateway does
            not close the registry).
        host: bind address (default loopback).
        port: bind port (default 0 = ephemeral; read :attr:`port` after
            construction).
        max_body_bytes: request bodies larger than this are refused with
            413 before being read (``None`` disables the ceiling).
        read_timeout: seconds a client may stall while the gateway reads
            its request before it gets 408 and the connection is dropped
            (``None`` disables the timeout).
        admin_token: shared secret enabling the ``/admin/v1/...`` control
            plane (``None`` = admin plane disabled, data plane only).
        state_file: path the gateway rewrites with its artifact-backed
            deployment map after every successful admin deploy/refresh —
            the last-known-good set a supervisor restart reloads (``None``
            disables persistence).

    ``start()`` serves on a daemon thread (tests, embedding);
    ``serve_forever()`` serves on the calling thread (the CLI).  Usable as
    a context manager.
    """

    #: Default request-body ceiling: far above any legitimate query (a
    #: dense 100k-gene vector is ~600 KiB of JSON) yet small enough that a
    #: hostile client cannot balloon a connection thread's memory.
    DEFAULT_MAX_BODY_BYTES = 4 * 1024 * 1024
    #: Default per-read socket timeout for request bodies, seconds.
    DEFAULT_READ_TIMEOUT = 10.0

    def __init__(
        self,
        registry: ModelRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: Optional[int] = DEFAULT_MAX_BODY_BYTES,
        read_timeout: Optional[float] = DEFAULT_READ_TIMEOUT,
        admin_token: Optional[str] = None,
        state_file: Optional[Union[str, Path]] = None,
    ):
        if max_body_bytes is not None and max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        if read_timeout is not None and read_timeout <= 0:
            raise ValueError("read_timeout must be positive")
        if admin_token is not None and not admin_token:
            raise ValueError("admin_token must be a non-empty string or None")
        self._registry = registry
        self._server = _GatewayHTTPServer((host, port), _GatewayHandler)
        self._server.registry = registry  # type: ignore[attr-defined]
        self._server.max_body_bytes = max_body_bytes  # type: ignore[attr-defined]
        self._server.read_timeout = read_timeout  # type: ignore[attr-defined]
        self._server.admin_token = admin_token  # type: ignore[attr-defined]
        self._server.state_file = (  # type: ignore[attr-defined]
            Path(state_file) if state_file is not None else None
        )
        self._thread: Optional[threading.Thread] = None
        self._served = False  # BaseServer.shutdown hangs unless it ran

    @property
    def registry(self) -> ModelRegistry:
        return self._registry

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "GatewayServer":
        """Serve on a background daemon thread; returns immediately."""
        if self._thread is None:
            self._served = True
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="gateway-server",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (the CLI path)."""
        self._served = True
        self._server.serve_forever()

    def close(self) -> None:
        """Stop accepting connections and release the socket.  Idempotent.

        The registry is left serving — gateways are disposable, models are
        not."""
        if self._served:
            # shutdown() blocks on serve_forever's exit handshake and would
            # hang forever on a server that never served.
            self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "GatewayServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
