"""Micro-batching prediction service with self-healing failure handling.

Single-query callers never benefit from the batched BSTCE kernel: each
``classification_values`` call pays the full per-query dispatch and matmul
cost alone.  :class:`PredictionService` closes that gap for concurrent
callers — requests are enqueued, a dedicated worker thread takes the next
one and everything already queued behind it (up to ``max_batch``) into one
``classification_values_batch`` call, and each caller gets exactly its own
row back.  The worker never waits for stragglers: a request that finds it
idle is evaluated at once, and batches form only from requests that queued
while the worker was busy.  BSTC scores each query on its own, so batching
exists only to save kernel work under backlog.

Design points:

* **One query contract** — :func:`repro.core.query.as_query` checks every
  submission against the model's vocabulary: a malformed query fails its
  caller with :class:`QueryError` (``service_query_rejects``) and never
  reaches the worker.  There is no switch to turn this off.
* **Bounded queue with backpressure** — at most ``max_pending`` requests
  wait in the queue; further submitters block until the worker drains
  (memory stays bounded no matter how fast callers arrive).  Optional
  load shedding (``shed_high``/``shed_low``) turns that blocking into a
  fast :class:`ServiceOverloaded` rejection with hysteresis.
* **Deadlines** — a per-request deadline (``deadline_ms``) travels with
  the request into the batch loop; an expired request is answered with
  :class:`DeadlineExceeded` instead of occupying a batch slot.
* **Poison-query isolation** — an evaluator exception fails only the
  offending batch: the worker bisects the batch to isolate the poison
  query, which gets a per-query error while its batchmates are re-run
  (BSTC values are per-query independent, so the re-run rows are
  bit-identical to a clean batch).
* **Worker supervision** — an escape that kills the worker thread answers
  its in-flight batch with :class:`~repro.errors.WorkerCrashed`, then the
  worker is restarted with deterministic exponential backoff
  (``service_worker_restarts`` counts them).  Repeated failures trip a
  circuit breaker that rejects with :class:`CircuitOpen` for a cooldown
  window and half-opens to probe recovery with a single request.
* **Clean shutdown** — :meth:`PredictionService.close` (or leaving the
  ``with`` block) stops accepting new work, answers every request that was
  already accepted, then joins the worker (including any supervised
  replacement).  Every accepted request is answered exactly once: with its
  result row, or with a typed error.  Submission after close raises
  :class:`ServiceClosed`.
* **Observable** — per-request latency, batch occupancy, compute time and
  every failure-mode tally flow into the shared
  :data:`~repro.evaluation.timing.engine_counters` (``service_*`` keys),
  and :meth:`PredictionService.health` snapshots readiness (state, breaker
  status, queue depth, restart count) for probes.

The model can be anything exposing ``classification_values_batch`` — a
:class:`~repro.core.fast.FastBSTCEvaluator` (typically restored from a
model artifact via :func:`repro.core.artifact.load_artifact`) or a fitted
:class:`~repro.core.classifier.BSTClassifier`.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, List, Optional

import numpy as np

from ..errors import (
    CircuitOpen,
    DeadlineExceeded,
    QueryError,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    WorkerCrashed,
)
from ..core.query import as_query
from ..evaluation.timing import EngineCounters, engine_counters
from .config import ServeConfig

__all__ = [
    "CircuitOpen",
    "DeadlineExceeded",
    "PredictionService",
    "QueryError",
    "ServeConfig",
    "ServiceClosed",
    "ServiceError",
    "ServiceHealth",
    "ServiceOverloaded",
]


#: Queue sentinel marking the end of accepted work.
_SHUTDOWN = object()

#: Ceiling on the supervised worker's restart backoff.
_RESTART_BACKOFF_CAP = 1.0

_BREAKER_CLOSED = "closed"
_BREAKER_OPEN = "open"
_BREAKER_HALF_OPEN = "half-open"


@dataclass
class _Request:
    """One in-flight prediction request."""

    query: Any
    enqueued_at: float
    deadline: Optional[float] = None  # absolute monotonic seconds
    done: threading.Event = field(default_factory=threading.Event)
    values: Optional[np.ndarray] = None
    error: Optional[BaseException] = None


@dataclass(frozen=True)
class ServiceHealth:
    """Readiness snapshot returned by :meth:`PredictionService.health`."""

    state: str                 # "serving" or "closed"
    breaker: str               # "closed", "open", or "half-open"
    queue_depth: int
    worker_alive: bool
    worker_restarts: int
    consecutive_failures: int
    shedding: bool
    answered: int
    #: Remaining breaker cooldown in seconds (0.0 unless the breaker is
    #: open) — the same number :class:`CircuitOpen.retry_after` would carry,
    #: but observable without submitting a request.
    breaker_retry_after: float = 0.0

    @property
    def ready(self) -> bool:
        """True when the service would accept a request right now."""
        return (
            self.state == "serving"
            and self.breaker != _BREAKER_OPEN
            and self.worker_alive
            and not self.shedding
        )


class PredictionService:
    """Coalesce concurrent single-query predictions into batched kernel calls.

    Args:
        model: object with ``classification_values_batch`` (and
            ``dataset.n_items``, the vocabulary queries are checked
            against) — an evaluator or a fitted classifier.
        config: the validated :class:`ServeConfig` knob bundle (batching,
            deadlines, shedding, breaker, supervision).  Defaults to
            ``ServeConfig()``.
        counters: counter sink (defaults to the process-wide
            :data:`~repro.evaluation.timing.engine_counters`).

    The worker thread starts immediately; the service is usable as a
    context manager and closes cleanly on exit.
    """

    def __init__(
        self,
        model: Any,
        config: Optional[ServeConfig] = None,
        *,
        counters: Optional[EngineCounters] = None,
    ):
        if config is None:
            config = ServeConfig()
        self._config = config
        self._model = model
        self._max_batch = int(config.max_batch)
        self._counters = counters if counters is not None else engine_counters
        self._default_deadline = (
            None
            if config.default_deadline_ms is None
            else float(config.default_deadline_ms) / 1000.0
        )
        self._shed_high = config.shed_high
        self._shed_low = config.shed_low
        self._breaker_threshold = config.breaker_threshold
        self._breaker_cooldown = float(config.breaker_cooldown)
        self._restart_backoff = float(config.restart_backoff)
        self._queue: "queue.Queue[Any]" = queue.Queue(
            maxsize=int(config.max_pending)
        )
        #: Serializes submissions against close(), so the shutdown sentinel
        #: is strictly the last queue entry — the worker drains everything
        #: accepted before it, then stops.  Held across the blocking
        #: queue.put (backpressure), so the worker must NEVER take it.
        self._submit_lock = threading.Lock()
        #: Guards the cheap mutable state (breaker, shedding flag, worker
        #: handle, restart count).  Never held across anything blocking, so
        #: the worker may take it freely without deadlocking backpressure.
        self._state_lock = threading.Lock()
        self._closed = False
        self._answered = 0
        self._restarts = 0
        self._failures = 0            # consecutive failed batches
        self._breaker = _BREAKER_CLOSED
        self._breaker_open_until = 0.0
        self._half_open_probe = False  # a half-open probe is in flight
        self._shedding = False
        self._inflight: Optional[List[_Request]] = None
        self._saw_shutdown = False
        self._worker = threading.Thread(
            target=self._worker_main, name="prediction-service", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def classification_values(
        self,
        query: Any,
        timeout: Optional[float] = None,
        *,
        deadline_ms: Optional[float] = None,
    ) -> np.ndarray:
        """Per-class values for one query, computed inside a coalesced batch.

        Blocks until the worker answers (or ``timeout`` seconds elapse, then
        :class:`TimeoutError`).  ``deadline_ms`` bounds how stale an answer
        may be: a request still queued when its deadline passes is answered
        with :class:`DeadlineExceeded` instead of evaluated.  Raises the
        request's evaluation error if the kernel failed, :class:`QueryError`
        for a malformed query, and :class:`ServiceClosed` /
        :class:`ServiceOverloaded` / :class:`CircuitOpen` when the service
        is not accepting work.
        """
        request = self._submit(query, deadline_ms)
        if not request.done.wait(timeout):
            raise TimeoutError(
                f"prediction not answered within {timeout} seconds"
            )
        if request.error is not None:
            raise request.error
        assert request.values is not None
        return request.values

    def predict(
        self,
        query: Any,
        timeout: Optional[float] = None,
        *,
        deadline_ms: Optional[float] = None,
    ) -> int:
        """Classify one query (Algorithm 6's first-argmax) via the batch
        queue."""
        values = self.classification_values(
            query, timeout, deadline_ms=deadline_ms
        )
        return int(np.argmax(values))

    def close(self) -> None:
        """Stop accepting work, answer everything already accepted, join the
        worker (and any supervised replacement).  Idempotent."""
        with self._submit_lock:
            if not self._closed:
                self._closed = True
                self._queue.put(_SHUTDOWN)
        # The worker handle may change while we wait: a crash mid-drain
        # spawns a replacement (under _state_lock, already started), which
        # finishes the drain.  Join until the handle stops moving.
        while True:
            with self._state_lock:
                worker = self._worker
            if worker is None or worker is threading.current_thread():
                return
            worker.join()
            with self._state_lock:
                if self._worker is worker:
                    self._worker = None
                    return

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def config(self) -> ServeConfig:
        """The validated configuration this service was built from."""
        return self._config

    @property
    def model(self) -> Any:
        """The model behind the batch queue (read-only)."""
        return self._model

    @property
    def counters(self) -> EngineCounters:
        """The counter sink this service reports ``service_*`` keys into."""
        return self._counters

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def answered(self) -> int:
        """Requests answered so far (result or error)."""
        return self._answered

    def pending(self) -> int:
        """Requests currently waiting in the queue (approximate)."""
        return self._queue.qsize()

    def health(self) -> ServiceHealth:
        """A readiness snapshot for probes — never blocks on the queue."""
        with self._state_lock:
            worker = self._worker
            retry_after = 0.0
            if self._breaker == _BREAKER_OPEN:
                retry_after = max(
                    0.0, self._breaker_open_until - time.monotonic()
                )
            return ServiceHealth(
                state="closed" if self._closed else "serving",
                breaker=self._breaker,
                queue_depth=self._queue.qsize(),
                worker_alive=worker is not None and worker.is_alive(),
                worker_restarts=self._restarts,
                consecutive_failures=self._failures,
                shedding=self._shedding,
                answered=self._answered,
                breaker_retry_after=retry_after,
            )

    # ------------------------------------------------------------------
    # Submission path
    # ------------------------------------------------------------------
    def _submit(self, query: Any, deadline_ms: Optional[float]) -> _Request:
        # The caller's own object is queued (the kernel re-reads it with
        # the same parser), so a batch row maps to its request by identity.
        dataset = getattr(self._model, "dataset", None)
        try:
            as_query(query, getattr(dataset, "n_items", None))
        except QueryError:
            self._counters.increment("service_query_rejects")
            raise
        now = time.monotonic()
        if deadline_ms is None:
            deadline = (
                None
                if self._default_deadline is None
                else now + self._default_deadline
            )
        else:
            if not (math.isfinite(deadline_ms) and deadline_ms >= 0):
                raise QueryError(
                    f"deadline_ms must be finite and >= 0, got {deadline_ms}"
                )
            deadline = now + float(deadline_ms) / 1000.0
        request = _Request(query=query, enqueued_at=now, deadline=deadline)
        if deadline is not None and deadline <= now:
            self._counters.increment("service_deadline_exceeded")
            raise DeadlineExceeded(
                "request deadline of 0ms expired before submission"
            )
        with self._submit_lock:
            if self._closed:
                self._counters.increment("service_rejected")
                raise ServiceClosed(
                    "prediction service is closed; no new requests accepted"
                )
            self._check_admission(now)
            # Blocking put = backpressure: with the queue at max_pending the
            # submitter (still holding the lock) waits for the worker.  The
            # worker never takes this lock, so draining always proceeds.
            self._queue.put(request)
        self._counters.increment("service_requests")
        return request

    def _check_admission(self, now: float) -> None:
        """Load shedding + circuit breaker, under the state lock.  Raises
        instead of admitting; called with the submit lock held."""
        with self._state_lock:
            if self._shed_high is not None:
                depth = self._queue.qsize()
                if self._shedding:
                    if depth <= self._shed_low:
                        self._shedding = False
                elif depth >= self._shed_high:
                    self._shedding = True
                    self._counters.increment("service_shed_trips")
                if self._shedding:
                    self._counters.increment("service_shed")
                    raise ServiceOverloaded(depth, self._shed_high)
            if self._breaker == _BREAKER_OPEN:
                if now < self._breaker_open_until:
                    self._counters.increment("service_breaker_rejections")
                    raise CircuitOpen(self._breaker_open_until - now)
                self._breaker = _BREAKER_HALF_OPEN
                self._half_open_probe = False
                self._counters.increment("service_breaker_half_opens")
            if self._breaker == _BREAKER_HALF_OPEN:
                if self._half_open_probe:
                    self._counters.increment("service_breaker_rejections")
                    raise CircuitOpen(0.0)
                # This request is the probe; its batch outcome decides.
                self._half_open_probe = True

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    def _worker_main(self) -> None:
        try:
            self._run()
        except BaseException as exc:  # supervised: restart + fail over
            self._on_worker_crash(exc)

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                # close() guarantees nothing was accepted after the
                # sentinel, and everything before it was dequeued first.
                self._saw_shutdown = True
                return
            if self._expired(item):
                self._answer_expired(item)
                continue
            # Take only what is already queued and never wait: a request
            # that finds the worker idle is evaluated at once.
            batch = [item]
            saw_shutdown = False
            while len(batch) < self._max_batch:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is _SHUTDOWN:
                    saw_shutdown = True
                    break
                if self._expired(extra):
                    self._answer_expired(extra)
                    continue
                batch.append(extra)
            if saw_shutdown:
                # Record before evaluating: if the model kills the worker
                # now, the supervisor must not wait for a second sentinel.
                self._saw_shutdown = True
            self._process(batch)
            if saw_shutdown:
                return

    def _process(self, batch: List[_Request]) -> None:
        # _inflight stays set while evaluation runs so a worker-killing
        # escape can fail over exactly the unanswered requests.
        self._inflight = batch
        any_success = self._evaluate_split(batch)
        self._inflight = None
        if any_success:
            self._record_success()
        else:
            self._record_failure()

    def _evaluate_split(self, batch: List[_Request]) -> bool:
        """Evaluate a batch, bisecting on failure to isolate poison queries.

        Returns True when at least one kernel call succeeded (the breaker's
        definition of a live model).  A batch of one that still fails is the
        poison query: it alone gets the error.  Bit-identity of the
        re-evaluated batchmates is guaranteed by the kernel's row
        independence (gated in bench_micro).
        """
        error = self._try_batch(batch)
        if error is None:
            return True
        self._counters.increment("service_batch_errors")
        if len(batch) == 1:
            self._counters.increment("service_poison_queries")
            self._answer_error(batch[0], error)
            return False
        self._counters.increment("service_bisections")
        mid = len(batch) // 2
        left = self._evaluate_split(batch[:mid])
        right = self._evaluate_split(batch[mid:])
        return left or right

    def _try_batch(self, batch: List[_Request]) -> Optional[Exception]:
        """One kernel call; answers the batch on success, returns the
        exception on evaluation failure.  Non-``Exception`` escapes
        (thread-killing faults) propagate to the supervisor."""
        started = time.monotonic()
        try:
            values = np.asarray(
                self._model.classification_values_batch(
                    [request.query for request in batch]
                )
            )
            if values.shape[0] != len(batch):
                raise RuntimeError(
                    f"model answered {values.shape[0]} rows for a batch of"
                    f" {len(batch)}"
                )
        except Exception as exc:
            return exc
        finished = time.monotonic()
        self._counters.increment("service_batches")
        self._counters.increment("service_batched_queries", len(batch))
        self._counters.observe_max("max_service_batch", len(batch))
        self._counters.add_seconds("service_compute", finished - started)
        for row, request in zip(values, batch):
            request.values = row
            self._counters.add_seconds(
                "service_latency", finished - request.enqueued_at
            )
            self._answered += 1
            request.done.set()
        return None

    def _on_worker_crash(self, exc: BaseException) -> None:
        """Supervisor: fail over the in-flight batch, restart the worker
        with deterministic backoff.  Runs on the dying worker thread."""
        self._counters.increment("service_worker_crashes")
        batch = self._inflight or []
        self._inflight = None
        error = WorkerCrashed(
            f"prediction worker died evaluating this batch: {exc!r}"
        )
        error.__cause__ = exc
        for request in batch:
            if not request.done.is_set():
                self._answer_error(request, error)
        self._record_failure()
        if self._saw_shutdown:
            # The shutdown sentinel was already consumed; a replacement
            # would block on an empty queue forever.  Nothing can still be
            # queued (the sentinel is strictly last), so just retire.
            with self._state_lock:
                self._worker = None
            return
        with self._state_lock:
            self._restarts += 1
            restarts = self._restarts
        self._counters.increment("service_worker_restarts")
        if self._restart_backoff > 0:
            delay = min(
                self._restart_backoff * 2 ** (restarts - 1),
                _RESTART_BACKOFF_CAP,
            )
            time.sleep(delay)
        replacement = threading.Thread(
            target=self._worker_main,
            name=f"prediction-service-r{restarts}",
            daemon=True,
        )
        with self._state_lock:
            # Swap and start under the lock so close() either joins the old
            # worker (and re-reads the handle after) or a started one.
            self._worker = replacement
            replacement.start()

    # ------------------------------------------------------------------
    # Outcome bookkeeping
    # ------------------------------------------------------------------
    def _expired(self, request: _Request) -> bool:
        return (
            request.deadline is not None
            and time.monotonic() >= request.deadline
        )

    def _answer_expired(self, request: _Request) -> None:
        self._counters.increment("service_deadline_exceeded")
        self._answer_error(
            request,
            DeadlineExceeded(
                "request deadline expired while queued; not evaluated"
            ),
        )

    def _answer_error(self, request: _Request, error: BaseException) -> None:
        request.error = error
        self._answered += 1
        request.done.set()

    def _record_success(self) -> None:
        with self._state_lock:
            self._failures = 0
            self._half_open_probe = False
            if self._breaker == _BREAKER_HALF_OPEN:
                self._breaker = _BREAKER_CLOSED
                self._counters.increment("service_breaker_closes")

    def _record_failure(self) -> None:
        with self._state_lock:
            self._failures += 1
            self._half_open_probe = False
            if self._breaker_threshold is None:
                return
            if self._breaker == _BREAKER_HALF_OPEN:
                # The probe failed: reopen for another cooldown.
                self._breaker = _BREAKER_OPEN
                self._breaker_open_until = (
                    time.monotonic() + self._breaker_cooldown
                )
                self._counters.increment("service_breaker_reopens")
            elif (
                self._breaker == _BREAKER_CLOSED
                and self._failures >= self._breaker_threshold
            ):
                self._breaker = _BREAKER_OPEN
                self._breaker_open_until = (
                    time.monotonic() + self._breaker_cooldown
                )
                self._counters.increment("service_breaker_trips")
