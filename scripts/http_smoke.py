#!/usr/bin/env python
"""End-to-end HTTP smoke: boot ``repro.cli serve``, probe it, tear it down.

CI runs this as its gateway smoke job: build a tiny artifact, start the
real CLI server in a subprocess with ``--ready-file``, wait for the
readiness file (the same signal the process supervisor uses), then
assert the JSON schema of every public endpoint — predict, explain-refusal,
model listing, and the error envelope — before shutting the server down
and checking it exits cleanly and revokes its readiness file.

Usage::

    PYTHONPATH=src python scripts/http_smoke.py

Exits 0 on success; any schema or lifecycle violation raises (non-zero).
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.core.classifier import BSTClassifier  # noqa: E402
from repro.datasets.dataset import running_example  # noqa: E402


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _request(url, body=None, timeout=5):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _await_ready(ready_file, server, deadline=30.0):
    """Readiness via the gateway's --ready-file: wait for the file, read
    the base URL out of it, then confirm with one /health probe (no
    poll-the-socket guesswork)."""
    limit = time.monotonic() + deadline
    while time.monotonic() < limit:
        if os.path.exists(ready_file):
            base = open(ready_file).read().strip()
            if base:
                status, payload = _request(f"{base}/health", timeout=5)
                _expect(
                    status == 200 and payload.get("ready"),
                    f"ready file up but /health said {status}: {payload}",
                )
                return base, payload
        if server.poll() is not None:
            raise SystemExit(
                f"server exited {server.returncode} before becoming ready"
            )
        time.sleep(0.05)
    raise SystemExit("gateway never wrote its ready file")


def _expect(condition, message):
    if not condition:
        raise SystemExit(f"smoke failure: {message}")


def main() -> int:
    example = running_example()
    expected = BSTClassifier().fit(example).predict(frozenset({0, 3, 4}))
    with tempfile.TemporaryDirectory() as tmp:
        artifact = BSTClassifier().fit(example).save(
            os.path.join(tmp, "model.npz")
        )
        port = _free_port()
        ready_file = os.path.join(tmp, "gateway.ready")
        server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--model",
                f"smoke={artifact}",
                "--port",
                str(port),
                "--ready-file",
                ready_file,
            ],
            env={**os.environ, "PYTHONPATH": "src"},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            base, health = _await_ready(ready_file, server)
            _expect(
                health["models"]["smoke"]["state"] == "serving",
                f"unexpected health payload: {health}",
            )

            status, models = _request(f"{base}/v1/models")
            _expect(status == 200, f"GET /v1/models -> {status}")
            _expect(
                [m["name"] for m in models["models"]] == ["smoke"],
                f"unexpected model listing: {models}",
            )
            for key in (
                "name",
                "version",
                "fingerprint",
                "n_items",
                "n_classes",
                "class_names",
                "supports_explain",
            ):
                _expect(
                    key in models["models"][0],
                    f"model metadata missing {key!r}",
                )

            status, payload = _request(
                f"{base}/v1/models/smoke:predict", {"items": [0, 3, 4]}
            )
            _expect(status == 200, f"predict -> {status}: {payload}")
            for key in ("model", "version", "prediction", "class_name",
                        "values"):
                _expect(key in payload, f"predict payload missing {key!r}")
            _expect(
                payload["prediction"] == expected,
                f"prediction {payload['prediction']} != {expected}",
            )
            _expect(
                len(payload["values"]) == example.n_classes,
                "values length != n_classes",
            )

            # The error envelope: bad query, unknown model, explain refusal.
            status, payload = _request(
                f"{base}/v1/models/smoke:predict", {"items": "zero"}
            )
            _expect(status == 400, f"bad query -> {status}")
            error = payload["error"]
            for key in ("type", "message", "status"):
                _expect(key in error, f"error envelope missing {key!r}")
            _expect(error["type"] == "QueryError", f"type {error['type']}")

            # The strict query contract: nothing is coerced.
            fraction = [0.0] * example.n_items
            fraction[0] = 0.2
            for body in ({"items": [1.5]}, {"vector": fraction}):
                status, payload = _request(
                    f"{base}/v1/models/smoke:predict", body
                )
                _expect(status == 400, f"{body} -> {status}: {payload}")
                _expect(
                    payload["error"]["type"] == "QueryError",
                    f"{body} -> {payload['error']['type']}",
                )

            status, payload = _request(
                f"{base}/v1/models/ghost:predict", {"items": [0]}
            )
            _expect(status == 404, f"unknown model -> {status}")
            _expect(payload["error"]["type"] == "ModelNotFound", payload)

            status, payload = _request(
                f"{base}/v1/models/smoke:explain", {"items": [0, 3, 4]}
            )
            _expect(status == 501, f"artifact explain -> {status}")
            _expect(
                payload["error"]["type"] == "NotSupportedError", payload
            )
        finally:
            server.send_signal(signal.SIGINT)
            try:
                code = server.wait(timeout=15)
            except subprocess.TimeoutExpired:
                server.kill()
                raise SystemExit("server ignored SIGINT; killed")
        _expect(code == 0, f"server exited {code}")
        _expect(
            not os.path.exists(ready_file),
            "ready file survived the drain: readiness was never revoked",
        )
    print("http smoke: all endpoints healthy")
    return 0


if __name__ == "__main__":
    sys.exit(main())
