"""Spans recorded from outside the program, and the per-layer report.

A span is ``{"name", "start", "end"}`` plus, where they exist, ``rid``
(the request id the gateway's spans of one request share), ``parent`` (the
name of the enclosing layer's span) and other fields; spans live in memory
and are written as JSON lines when the run ends.  Nothing in ``src/`` records spans: the benchmark either opens a span
around its own call into a layer (``Tracer.span``) or, for layers the
program calls internally (the service, the kernel), replaces the layer's
public entry point with a timing wrapper (``install_server_hooks``,
``install_kernel_hook``).

Self time is a span's duration minus the part covered by its child spans:
registry = registry span - service span; service = service span - the
kernel span of the batch that carried the request; HTTP = client latency -
registry span, joined per request where the order on one connection makes
that possible and otherwise as a difference of medians.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from common import median


class Tracer:
    """In-memory span store; ``enabled=False`` makes every call a no-op."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[dict] = []
        #: point readings (sizes) taken where the spans are recorded
        self.gauges: Dict[str, float] = {}

    def record(self, name: str, start: float, end: float, **fields) -> None:
        if self.enabled:
            # list.append is atomic under the GIL, so handler, worker and
            # sender threads may record concurrently.
            self.spans.append({"name": name, "start": start, "end": end,
                               **fields})

    @contextlib.contextmanager
    def span(self, name: str, **fields) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, start, time.perf_counter(), **fields)

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def dump(self, path: Path) -> None:
        with open(path, "w") as handle:
            handle.write(json.dumps({"gauges": self.gauges}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def read_spans(path: Path) -> List[dict]:
    with open(path) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return [r for r in records if "name" in r]


# ----------------------------------------------------------------------
# Hooks on the program's public entry points
# ----------------------------------------------------------------------
class _QueryOwners:
    """Which request each in-flight query object belongs to, so the
    kernel span (on the service's worker thread) can name its requests."""

    def __init__(self) -> None:
        self.by_query: Dict[int, int] = {}
        self.local = threading.local()


def install_kernel_hook(tracer: Tracer, owners: Optional[_QueryOwners] = None):
    """Time every batched kernel call (``core.fast``)."""
    from repro.core.fast import FastBSTCEvaluator

    original = FastBSTCEvaluator.classification_values_batch

    def classification_values_batch(self, queries):
        rids = (
            [owners.by_query.get(id(q)) for q in queries]
            if owners is not None else []
        )
        start = time.perf_counter()
        try:
            return original(self, queries)
        finally:
            tracer.record(
                "core.fast", start, time.perf_counter(),
                parent="serving.service", size=len(queries), rids=rids,
            )

    FastBSTCEvaluator.classification_values_batch = classification_values_batch


def install_server_hooks(tracer: Tracer) -> None:
    """Time the registry, service, kernel and artifact-load entry points
    inside the gateway process; each request gets a request id (rid)."""
    from repro.core.classifier import BSTClassifier
    from repro.serving.registry import ModelRegistry
    from repro.serving.service import PredictionService

    owners = _QueryOwners()
    next_rid = itertools.count(1)
    registry_cv = ModelRegistry.classification_values
    service_cv = PredictionService.classification_values
    load = BSTClassifier.load

    def registry_values(self, name, query, **kwargs):
        rid = next(next_rid)
        owners.local.rid = rid
        start = time.perf_counter()
        try:
            return registry_cv(self, name, query, **kwargs)
        finally:
            tracer.record(
                "serving.registry", start, time.perf_counter(), rid=rid
            )

    def service_values(self, query, *args, **kwargs):
        rid = getattr(owners.local, "rid", None)
        owners.by_query[id(query)] = rid
        start = time.perf_counter()
        try:
            return service_cv(self, query, *args, **kwargs)
        finally:
            owners.by_query.pop(id(query), None)
            tracer.record(
                "serving.service", start, time.perf_counter(),
                rid=rid, parent="serving.registry",
            )

    def load_classifier(cls, *args, **kwargs):
        with tracer.span("core.artifact.load"):
            return load(*args, **kwargs)

    ModelRegistry.classification_values = registry_values
    PredictionService.classification_values = service_values
    BSTClassifier.load = classmethod(load_classifier)
    install_kernel_hook(tracer, owners)


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def kernel_stats(spans: Iterable[dict]) -> Dict[str, float]:
    kernel = [s for s in spans if s["name"] == "core.fast"]
    if not kernel:
        return {"core.fast.batch_ms_per_query": 0.0,
                "core.fast.batch_size_mean": 0.0, "core.fast.calls": 0.0}
    queries = sum(s["size"] for s in kernel)
    busy = sum(s["end"] - s["start"] for s in kernel)
    return {
        "core.fast.batch_ms_per_query": 1000.0 * busy / queries,
        "core.fast.batch_size_mean": queries / len(kernel),
        "core.fast.calls": float(len(kernel)),
    }


def server_self_times(spans: Sequence[dict], rids: Iterable[int]):
    """Per-request self times (ms) of the registry and the service for the
    given request ids, and each request's registry span (ms) by rid."""
    registry = {s["rid"]: s for s in spans if s["name"] == "serving.registry"}
    service = {s["rid"]: s for s in spans if s["name"] == "serving.service"}
    batch_of: Dict[int, dict] = {}
    for s in spans:
        if s["name"] == "core.fast":
            for rid in s.get("rids", []):
                if rid is not None:
                    batch_of[rid] = s
    reg_self, svc_self, reg_ms = [], [], {}
    for rid in rids:
        r, v, k = registry.get(rid), service.get(rid), batch_of.get(rid)
        if r is None or v is None or k is None:
            continue
        reg_dur = r["end"] - r["start"]
        svc_dur = v["end"] - v["start"]
        reg_ms[rid] = 1000.0 * reg_dur
        reg_self.append(1000.0 * (reg_dur - svc_dur))
        svc_self.append(1000.0 * (svc_dur - (k["end"] - k["start"])))
    return reg_self, svc_self, reg_ms


def http_self_ms(
    client_ms: Sequence[float],
    server_ms: Sequence[float],
    joined: bool,
) -> float:
    """Client latency minus server registry span: per request when the two
    lists are aligned (``joined``), else as a difference of medians."""
    if joined:
        return median([c - s for c, s in zip(client_ms, server_ms)])
    return median(client_ms) - median(server_ms)
