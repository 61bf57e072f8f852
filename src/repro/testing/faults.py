"""Deterministic fault injection for the supervised worker pool and the
prediction service.

The resilience layer (:mod:`repro.evaluation.resilience`) promises that a
worker crash, a task hanging past its timeout, or a corrupted result payload
degrade gracefully — bounded retries, then a DNF record — instead of sinking
a multi-hour study.  This module makes every one of those paths *testable*:
a :class:`FaultPlan` is a picklable schedule of faults keyed on
``(task_index, attempt)``, shipped into the worker and applied there, so a
test can say "crash task 2 on its first attempt, hang task 5 forever" and
assert exactly which recovery branch fired.

Faults are deterministic by construction (no randomness, no clocks): a spec
fires on attempts ``1..spec.attempts`` of its task and never again, so a
retried task succeeds on the first clean attempt.

Fault kinds:

* ``crash`` — the worker process dies without replying (``os._exit``); in
  the serial fallback it raises :class:`InjectedCrash` instead.
* ``error`` — the worker raises an exception (a crash that leaves a
  traceback).
* ``hang`` — the worker sleeps past any reasonable per-task timeout; in the
  serial fallback (no preemption possible) it raises :class:`InjectedHang`,
  which the supervisor maps to the same timeout outcome.
* ``corrupt`` — the worker replies with :data:`CORRUPT_PAYLOAD` instead of a
  real result, exercising payload validation.

The serving half of the module drives :class:`repro.serving.PredictionService`
recovery paths the same way: :class:`FlakyBatchModel` wraps a real model and
applies a :class:`ServiceFault` schedule keyed on *batch-evaluation call
index* (raise, kill the worker thread, run slow) plus an optional poison
predicate that fails any batch containing a matching query — exactly what
the service's bisection must isolate.  :func:`corrupt_artifact_member` flips
one payload byte of a stored artifact member so integrity tests can assert
every single-bit corruption is caught.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional, Union

from ..errors import ReproError

#: The garbage payload a ``corrupt`` fault substitutes for a real result.
CORRUPT_PAYLOAD = "__repro-corrupt-payload__"

#: Exit code of an injected worker crash (distinct from real crashes' codes).
CRASH_EXIT_CODE = 23

_KINDS = ("crash", "error", "hang", "corrupt")


class FaultInjected(ReproError):
    """Base of the exceptions injected faults raise in serial mode."""


class InjectedCrash(FaultInjected):
    """Serial-mode stand-in for a worker process crash."""


class InjectedHang(FaultInjected):
    """Serial-mode stand-in for a task hanging past its timeout."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Args:
        task_index: position of the target task in the submitted batch.
        kind: one of ``crash``, ``error``, ``hang``, ``corrupt``.
        attempts: the fault fires on attempts ``1..attempts`` (so
            ``attempts=1`` with retries enabled exercises the
            fail-once-then-recover path, and ``attempts`` greater than the
            retry limit exercises degradation to DNF).
        hang_seconds: how long a ``hang`` sleeps in a worker process (must
            exceed the supervisor's per-task timeout to be meaningful).
    """

    task_index: int
    kind: str
    attempts: int = 1
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")


class FaultPlan:
    """A picklable schedule of :class:`FaultSpec` entries, one per task."""

    def __init__(self, specs: Iterable[FaultSpec] = ()):
        self._specs: Dict[int, FaultSpec] = {}
        for spec in specs:
            if spec.task_index in self._specs:
                raise ValueError(
                    f"duplicate fault for task {spec.task_index}"
                )
            self._specs[spec.task_index] = spec

    def __bool__(self) -> bool:
        return bool(self._specs)

    def spec_for(self, task_index: int, attempt: int) -> Optional[FaultSpec]:
        """The fault to apply on this ``(task, attempt)``, if any."""
        spec = self._specs.get(task_index)
        if spec is not None and attempt <= spec.attempts:
            return spec
        return None


def apply_fault(spec: FaultSpec, serial: bool):
    """Execute a fault inside the worker.

    Returns :data:`CORRUPT_PAYLOAD` for ``corrupt`` faults (the caller
    substitutes it for the real result), ``None`` when the worker should
    proceed normally after the fault's side effect.
    """
    if spec.kind == "crash":
        if serial:
            raise InjectedCrash(f"injected crash on task {spec.task_index}")
        os._exit(CRASH_EXIT_CODE)
    if spec.kind == "error":
        raise InjectedCrash(f"injected error on task {spec.task_index}")
    if spec.kind == "hang":
        if serial:
            raise InjectedHang(f"injected hang on task {spec.task_index}")
        time.sleep(spec.hang_seconds)
        return None
    # corrupt
    return CORRUPT_PAYLOAD


# ----------------------------------------------------------------------
# Prediction-service faults
# ----------------------------------------------------------------------


class PoisonQueryError(FaultInjected):
    """Raised by :class:`FlakyBatchModel` for any batch containing a query
    matching its poison predicate — the failure the service's bisection
    must isolate down to the single offending request."""


class WorkerKilled(BaseException):
    """Injected worker-thread death.

    Deliberately a :class:`BaseException`: the service's batch evaluation
    retries plain ``Exception`` s via bisection, so only a
    ``BaseException`` escapes to the supervisor and exercises the
    crash-restart path the way a real thread death would.
    """


_SERVICE_KINDS = ("error", "kill", "slow")


@dataclass(frozen=True)
class ServiceFault:
    """One scheduled service-model fault.

    Args:
        call_index: which batch-evaluation call (0-based, counted across
            the model's lifetime) the fault fires on.
        kind: ``error`` (raise :class:`FaultInjected` — recoverable, feeds
            the bisection/breaker paths), ``kill`` (raise
            :class:`WorkerKilled` — escapes to the supervisor and kills
            the worker thread), or ``slow`` (sleep ``seconds`` before
            evaluating — wedges the batch loop for deadline tests).
        seconds: sleep duration for ``slow`` faults.
    """

    call_index: int
    kind: str
    seconds: float = 0.2

    def __post_init__(self) -> None:
        if self.kind not in _SERVICE_KINDS:
            raise ValueError(f"unknown service fault kind {self.kind!r}")
        if self.call_index < 0:
            raise ValueError("call_index must be >= 0")


class FlakyBatchModel:
    """A model wrapper that injects :class:`ServiceFault` s deterministically.

    Wraps any object with ``dataset`` and ``classification_values_batch``
    (a :class:`~repro.core.fast.FastBSTCEvaluator`, a fitted
    :class:`~repro.core.classifier.BSTClassifier`'s evaluator, ...) and
    delegates to it, applying at most one fault per batch-evaluation call:

    * faults are keyed on a thread-safely incremented call counter, so a
      schedule like ``[ServiceFault(0, "kill")]`` means "the first batch
      kills the worker, every later batch is clean";
    * ``poison`` is a predicate over a single query as submitted (an
      indicator vector or an item-id set); any batch containing a match raises
      :class:`PoisonQueryError` *before* evaluation, so bisection is the
      only way through — the poison query alone keeps failing while its
      batchmates re-run clean.
    """

    def __init__(
        self,
        inner,
        faults: Iterable[ServiceFault] = (),
        poison: Optional[Callable[["object"], bool]] = None,
    ):
        self.inner = inner
        self._faults: Dict[int, ServiceFault] = {}
        for fault in faults:
            if fault.call_index in self._faults:
                raise ValueError(
                    f"duplicate service fault for call {fault.call_index}"
                )
            self._faults[fault.call_index] = fault
        self._poison = poison
        self._calls = 0
        self._lock = threading.Lock()

    @property
    def dataset(self):
        return self.inner.dataset

    @property
    def calls(self) -> int:
        """How many batch evaluations have been attempted so far."""
        with self._lock:
            return self._calls

    def classification_values_batch(self, queries):
        with self._lock:
            index = self._calls
            self._calls += 1
        fault = self._faults.get(index)
        if fault is not None:
            if fault.kind == "error":
                raise FaultInjected(f"injected error on call {index}")
            if fault.kind == "kill":
                raise WorkerKilled(f"injected worker death on call {index}")
            time.sleep(fault.seconds)  # slow
        if self._poison is not None:
            for row in queries:
                if self._poison(row):
                    raise PoisonQueryError("injected poison query in batch")
        return self.inner.classification_values_batch(queries)

    def classification_values(self, query):
        return self.inner.classification_values(query)


def corrupt_artifact_member(
    path: Union[str, Path],
    member: str,
    byte_index: int = 0,
    flip: int = 0xFF,
) -> int:
    """Flip bits of one payload byte of a stored artifact member, in place.

    Returns the absolute file offset that was corrupted.  Only works on
    ``ZIP_STORED`` archives (which :func:`repro.core.artifact.save_artifact`
    always writes) — the byte is flipped inside the member's raw payload,
    past the zip local header, so the archive still parses but the
    member's CRC no longer matches.
    """
    from ..core.artifact import _stored_member_offsets

    path = Path(path)
    offsets = _stored_member_offsets(path)
    if offsets is None or member not in offsets:
        raise ValueError(f"no stored member {member!r} in {path}")
    target = offsets[member] + byte_index
    with path.open("r+b") as handle:
        handle.seek(target)
        byte = handle.read(1)
        if len(byte) != 1:
            raise ValueError(
                f"byte {byte_index} is past the end of member {member!r}"
            )
        handle.seek(target)
        handle.write(bytes([byte[0] ^ (flip & 0xFF)]))
    return target
