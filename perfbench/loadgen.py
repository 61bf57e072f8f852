"""Load generators over keep-alive HTTP connections.

``closed_loop`` sends the next request only after the previous answer
(one caller waiting on each reply).  ``open_loop`` sends on a fixed
schedule whatever the server does (independent users), over a bounded set
of keep-alive connections: a request that finds every connection busy
waits, and that wait is charged to the system, because latency runs from
the request's due time, not from when it was finally sent.  How late the
generator itself handed requests over (``late``) is reported separately
so a slow client cannot pass for a slow server.
"""

from __future__ import annotations

import http.client
import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

PREDICT_HEADERS = {"Content-Type": "application/json"}


class KeepAliveClient:
    """One persistent HTTP/1.1 connection; reconnects after an error."""

    def __init__(self, host: str, port: int, path: str, timeout: float = 30.0):
        self._host, self._port, self._path = host, port, path
        self._timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def call(self, body: bytes) -> bytes:
        """POST ``body``; return the response body of a 200, else raise."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self._timeout
            )
        try:
            self._conn.request("POST", self._path, body, PREDICT_HEADERS)
            response = self._conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        if response.status != 200:
            raise RuntimeError(f"HTTP {response.status}: {data[:200]!r}")
        return data

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


@dataclass
class Outcome:
    """One request as the client saw it (perf_counter seconds)."""

    index: int
    due: float
    sent: float
    done: float
    ok: bool
    body: Optional[bytes] = None

    @property
    def latency_ms(self) -> float:
        return 1000.0 * (self.done - self.due)


def _send(client, index: int, body: bytes, due: float) -> Outcome:
    sent = time.perf_counter()
    try:
        data = client.call(body)
        ok = True
    except Exception:  # any failed request counts against the system
        data, ok = None, False
    return Outcome(index, due, sent, time.perf_counter(), ok, data)


def closed_loop(
    client,
    bodies: Sequence[bytes],
    seconds: float,
    first_index: int = 0,
) -> List[Outcome]:
    """Send ``bodies`` (cycled) back to back for ``seconds``."""
    outcomes: List[Outcome] = []
    stop = time.perf_counter() + seconds
    i = first_index
    while time.perf_counter() < stop:
        outcomes.append(
            _send(client, i, bodies[i % len(bodies)], time.perf_counter())
        )
        i += 1
    return outcomes


def open_loop(
    make_client: Callable[[], object],
    bodies: Sequence[bytes],
    rate: float,
    seconds: float,
    connections: int,
    drain_timeout: float = 30.0,
) -> Tuple[List[Outcome], List[float]]:
    """Send ``rate * seconds`` requests due at ``t0 + i / rate``.

    Returns ``(outcomes, late_ms)``: one :class:`Outcome` per request
    (requests still unanswered ``drain_timeout`` after the last due time
    count as failures) and, per request, how late the schedule handed it to
    a connection.
    """
    n = int(round(rate * seconds))
    pending: "queue.Queue" = queue.Queue()
    outcomes: List[Optional[Outcome]] = [None] * n
    late_ms: List[float] = []

    def sender() -> None:
        client = make_client()
        try:
            while True:
                job = pending.get()
                if job is None:
                    return
                index, due = job
                body = bodies[index % len(bodies)]
                outcomes[index] = _send(client, index, body, due)
        finally:
            client.close()

    threads = [
        threading.Thread(target=sender, name=f"loadgen-{c}", daemon=True)
        for c in range(connections)
    ]
    for thread in threads:
        thread.start()
    t0 = time.perf_counter() + 0.05
    for i in range(n):
        due = t0 + i / rate
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        late_ms.append(1000.0 * (time.perf_counter() - due))
        pending.put((i, due))
    for _ in threads:
        pending.put(None)
    deadline = t0 + n / rate + drain_timeout
    for thread in threads:
        thread.join(max(0.0, deadline - time.perf_counter()))
    now = time.perf_counter()
    result = [
        o if o is not None else Outcome(i, t0 + i / rate, now, now, False)
        for i, o in enumerate(outcomes)
    ]
    return result, late_ms
