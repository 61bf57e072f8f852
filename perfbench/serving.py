"""The serving workloads: a gateway child process under HTTP load.

``http_toy_1c``: the scaled ALL model (20 training rows, 59 items) and one
closed-loop client on one keep-alive connection.  Its answers must equal
the reference oracle (``BSTClassifier(engine="reference")``), computed
before timing starts.

``http_pc_open``: the artifact of ``offline_pc``'s split 0,
under an open loop with an evenly spaced schedule over two keep-alive
connections.  Its answers must equal, label for label and value for value
within ``ANSWER_ATOL``, what ``BSTClassifier.load(artifact)
.classification_values_batch`` returns in this process over the same
artifact.  (The oracle costs about a minute per query at PC size; kernel
exactness against it stays with the tier-1 property tests.)

Both start the gateway through ``launcher.py`` and measure ``setup_s`` as
the median over ``SETUP_REPEATS`` spawns of the time from spawning the
child to its first correct answer; the last child serves the run.
"""

from __future__ import annotations

import json
import selectors
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from common import (
    SLO_MS,
    TRAIN_FRACTION,
    load_data,
    median,
    percentile,
    request_body,
    stream_order,
)
from loadgen import KeepAliveClient, Outcome, closed_loop, open_loop
from offline import fit_fold, hot_bytes
from tracing import Tracer, http_self_ms, kernel_stats, read_spans, server_self_times

HERE = Path(__file__).resolve().parent
ANSWER_ATOL = 1e-5      # fast kernel vs oracle, as the tier-1 tests allow
SETUP_REPEATS = 3
MAX_BATCH = 32          # ServeConfig() default, for batch_fill
STREAM_LENGTH = 200_000

#: open-loop rate (requests/s): a third of the seed commit's saturation
#: with two keep-alive connections on this model (23.7 q/s).  At half of
#: it (12 q/s) the p90 spread over five seeds was 0.57 on a 2-CPU host with
#: CPU steal, as brief slowdowns made requests queue behind each other.
PC_RATE = 8.0
PC_CONNECTIONS = 2
WARMUP_S = {"http_toy_1c": 1.0, "http_pc_open": 3.0}


@dataclass
class Deployment:
    """The model a serving workload deploys and the answers it must give."""

    name: str
    artifact: Path
    pool: List[frozenset]      # distinct queries (held-out rows)
    truth: List[int]           # their true labels
    expected: np.ndarray       # (len(pool), n_classes) values to match
    fit_s: float               # discretize + fit (median over repeats)
    refresh_s: float           # refresh_artifact (median over repeats)


def prepare(workload: str, work: Path, tracer: Tracer) -> Deployment:
    """Fit, save and check the served model (untimed by the run)."""
    from repro import BSTClassifier
    from repro.core.artifact import refresh_artifact
    from repro.core.fast import clear_evaluator_cache
    from repro.datasets.splits import fraction_split, given_training_split

    # fit_s and refresh_s are medians over repeats, and the refreshes are
    # interleaved with the fits so that both sample the whole window (about
    # 2.5 s on the toy model, 7 s on PC) instead of one burst of CPU steal.
    if workload == "http_toy_1c":
        prof, data = load_data("ALL-scaled")
        split = given_training_split(data, prof.given_training, seed=0)
        fit_repeats, refreshes_per_fit = 30, 3
    else:
        _, data = load_data("PC")
        split = fraction_split(data, TRAIN_FRACTION, seed=0)  # offline split 0
        fit_repeats, refreshes_per_fit = 3, 3
    artifact = work / f"{workload}.npz"
    fits, refreshes = [], []
    for i in range(fit_repeats):
        fold, clf, seconds = fit_fold(data, split, tracer)
        fits.append(seconds)
        if i == 0:
            with tracer.span("core.artifact.save"):
                clf.save(artifact)
            grown = fold.train.append_samples(fold.queries, fold.truth)
        for _ in range(refreshes_per_fit):
            begin = time.perf_counter()
            with tracer.span("core.artifact.refresh"):
                refresh_artifact(artifact, grown, out_path=work / "refreshed.npz")
            refreshes.append(time.perf_counter() - begin)
    if workload == "http_toy_1c":
        oracle = BSTClassifier(engine="reference").fit(fold.train)
        expected = np.stack([oracle.classification_values(q) for q in fold.queries])
    else:
        clear_evaluator_cache()
        expected = BSTClassifier.load(artifact).classification_values_batch(
            fold.queries
        )
    tracer.gauges["core.artifact.bytes"] = float(artifact.stat().st_size)
    tracer.gauges["core.plan.hot_bytes"] = hot_bytes(artifact)
    clear_evaluator_cache()
    return Deployment(
        workload, artifact, list(fold.queries), list(fold.truth),
        np.asarray(expected), median(fits), median(refreshes),
    )


def answer_ok(body: Optional[bytes], expected: np.ndarray) -> bool:
    """A served answer is correct when its values match ``expected`` within
    ``ANSWER_ATOL`` and its label is a class whose expected value is within
    that tolerance of the best (ties may go either way)."""
    if body is None:
        return False
    try:
        payload = json.loads(body)
        label = int(payload["prediction"])
        values = np.asarray(payload["values"], dtype=np.float64)
    except (ValueError, KeyError, TypeError):
        return False
    if values.shape != expected.shape or not 0 <= label < expected.size:
        return False
    return bool(
        np.all(np.abs(values - expected) <= ANSWER_ATOL)
        and expected[label] >= expected.max() - ANSWER_ATOL
    )


# ----------------------------------------------------------------------
# The gateway child
# ----------------------------------------------------------------------
class Gateway:
    """One launcher child process; ``stop()`` drains it and waits."""

    def __init__(self, dep: Deployment, trace_out: Optional[Path]):
        cmd = [sys.executable, str(HERE / "launcher.py"),
               "--artifact", str(dep.artifact), "--name", dep.name]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        self.trace_out = trace_out
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            self.port = self._read_port(timeout=120.0)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, timeout: float) -> int:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout):
                raise RuntimeError("gateway did not report its port")
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            raise RuntimeError(f"gateway failed to start: {line!r}")
        return int(line.split()[1])

    def client(self, name: str) -> KeepAliveClient:
        return KeepAliveClient(
            "127.0.0.1", self.port, f"/v1/models/{name}:predict"
        )

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def start_gateway(dep: Deployment, bodies, trace_dir: Optional[Path], tag: str):
    """Spawn a child and wait for its first correct answer; returns the
    gateway, its connected client and the seconds that took."""
    begin = time.perf_counter()
    trace_out = trace_dir / f"server-{tag}.jsonl" if trace_dir else None
    gateway = Gateway(dep, trace_out)
    client = gateway.client(dep.name)
    try:
        body = client.call(bodies[0])
    except BaseException:
        client.close()
        gateway.stop()
        raise
    if not answer_ok(body, dep.expected[0]):
        client.close()
        gateway.stop()
        raise RuntimeError("first answer of a fresh gateway is wrong")
    return gateway, client, time.perf_counter() - begin


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run(
    workload: str,
    dep: Deployment,
    seed: int,
    seconds: float,
    trace_dir: Optional[Path],
) -> Dict:
    order = stream_order(seed, len(dep.pool), STREAM_LENGTH)
    pool_bodies = [request_body(q) for q in dep.pool]
    bodies = [pool_bodies[j] for j in order]
    setups: List[float] = []
    gateways: List[Gateway] = []
    late_ms: List[float] = []
    try:
        for r in range(SETUP_REPEATS):
            # every fresh gateway is probed with pool query 0
            gateway, client, secs = start_gateway(
                dep, [pool_bodies[0]], trace_dir, f"{r}"
            )
            setups.append(secs)
            gateways.append(gateway)
            if r < SETUP_REPEATS - 1:
                client.close()
                gateway.stop()
        gateway = gateways[-1]
        make_client = lambda: gateway.client(dep.name)  # noqa: E731
        if workload == "http_toy_1c":
            warm = closed_loop(client, bodies, WARMUP_S[workload])
            outcomes = closed_loop(client, bodies, seconds, len(warm))
            client.close()
            n_before = 1 + len(warm)
        else:
            client.close()
            warm, _ = open_loop(make_client, bodies, PC_RATE,
                                WARMUP_S[workload], PC_CONNECTIONS)
            outcomes, late_ms = open_loop(make_client, bodies, PC_RATE,
                                          seconds, PC_CONNECTIONS)
            n_before = 1 + len(warm)
    finally:
        for gateway in gateways:
            gateway.stop()
    return summarize(dep, order, setups, outcomes, late_ms, n_before,
                     gateways[-1].trace_out, workload)


def summarize(
    dep: Deployment,
    order: Sequence[int],
    setups: List[float],
    outcomes: List[Outcome],
    late_ms: List[float],
    n_before: int,
    trace_out: Optional[Path],
    workload: str,
) -> Dict:
    correct = [
        o for o in outcomes
        if o.ok and answer_ok(o.body, dep.expected[order[o.index]])
    ]
    answered = [o for o in outcomes if o.ok]
    latencies = [o.latency_ms for o in answered]
    labels = [json.loads(o.body)["prediction"] for o in correct]
    hits = sum(
        int(label == dep.truth[order[o.index]])
        for label, o in zip(labels, correct)
    )
    span = max(o.done for o in outcomes) - min(o.due for o in outcomes)
    result = {
        "attempted": len(outcomes),
        "failed": len(outcomes) - len(correct),
        "samples": {"requests": len(outcomes), "answered": len(answered),
                    "setup_spawns": len(setups)},
        "metrics": {
            "setup_s": median(setups),
            "qps": len(correct) / span,
            "p50_ms": percentile(latencies, 50),
            "p90_ms": percentile(latencies, 90),
            "slo_frac": sum(o.latency_ms <= SLO_MS for o in correct)
            / len(outcomes),
            "fit_s": dep.fit_s,
            "refresh_s": dep.refresh_s,
            "accuracy": hits / len(correct) if correct else 0.0,
        },
        "loadgen": {
            "loadgen.late_p90_ms": percentile(late_ms, 90) if late_ms else 0.0,
            "loadgen.sent": float(len(outcomes)),
            "loadgen.answered": float(len(answered)),
            "loadgen.failed": float(len(outcomes) - len(correct)),
        },
    }
    if trace_out is not None:
        write_client_spans(trace_out.parent / "client.jsonl", outcomes)
        result["layers"], joined = server_layers(
            trace_out, outcomes, n_before, joined=workload == "http_toy_1c"
        )
        result["samples"]["http_self"] = (
            "joined per request" if joined else "difference of medians"
        )
    return result


def write_client_spans(path: Path, outcomes: List[Outcome]) -> None:
    """The client's side of each measured request, as spans."""
    with open(path, "w") as handle:
        for o in outcomes:
            handle.write(json.dumps({
                "name": "client.request", "start": o.sent, "end": o.done,
                "due": o.due, "index": o.index, "ok": o.ok,
            }) + "\n")


def server_layers(
    trace_out: Path, outcomes: List[Outcome], n_before: int, joined: bool
) -> Dict[str, float]:
    """Per-layer numbers from the serving child's spans and counters, and
    whether client and server spans could be joined per request."""
    spans = read_spans(trace_out)
    counters = json.loads(trace_out.with_suffix(".counters.json").read_text())
    measured = set(range(n_before + 1, n_before + len(outcomes) + 1))
    reg_self, svc_self, reg_ms = server_self_times(spans, sorted(measured))
    client_ms = [1000.0 * (o.done - o.sent) for o in outcomes if o.ok]
    server_ms = [reg_ms[rid] for rid in sorted(reg_ms)]
    # Requests on one connection reach the server in the client's order,
    # so the i-th answered request is the i-th registry span.
    joined = joined and len(server_ms) == len(client_ms)
    loads = [
        s["end"] - s["start"]
        for path in sorted(trace_out.parent.glob("server-*.jsonl"))
        for s in read_spans(path) if s["name"] == "core.artifact.load"
    ]
    batches = counters.get("service_batches", 0.0)
    rejected = sum(
        counters.get(name, 0.0) for name in (
            "service_rejected", "service_shed", "service_breaker_rejections",
            "service_query_rejects", "service_deadline_exceeded",
            "registry_quota_rejections",
        )
    )
    out = {
        "core.artifact.load_s": median(loads) if loads else 0.0,
        "serving.service.self_ms": median(svc_self),
        "serving.service.batch_fill": (
            counters.get("service_batched_queries", 0.0) / batches / MAX_BATCH
            if batches else 0.0
        ),
        "serving.service.rejected": rejected,
        "serving.registry.self_ms": median(reg_self),
        "serving.http.self_ms": http_self_ms(client_ms, server_ms, joined),
    }
    kernel = [s for s in spans if s["name"] == "core.fast"
              and any(r in measured for r in s.get("rids", []))]
    out.update(kernel_stats(kernel))
    return out, joined
