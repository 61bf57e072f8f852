"""Micro-benchmarks of the core primitives (multi-round, statistical).

These complement the one-shot experiment benchmarks: BST construction, the
BSTCE engines (the vectorized kernel on one query and on a batch, and the
reference), Top-k node throughput, and entropy discretization, all on the
scaled ALL profile's given-training split.

Kernel and serving speed is gated by absolute numbers (ms, q/s, bytes),
each bounded by the value measured on a 2-CPU reference machine (Python
3.11, numpy 2.4) when the gate was introduced, with 1.35x slack; see
``_REFERENCE``.

The ``test_bitset_*_speedup`` pair gates the packed-bitset substrate: the
set-based reference implementations the kernel replaced are kept here, the
outputs are cross-checked bit for bit (always gating), and the packed path
must run >= 5x faster.  Setting ``REPRO_BENCH_SMOKE`` relaxes only the
timing assertion (shared CI runners make wall-clock ratios flaky); the
bit-identity check still fails the run.
"""

import json
import os
import threading
import time

import numpy as np
import pytest

from repro.baselines.topk import TopkMiner
from repro.bst.table import BST, build_all_bsts
from repro.core.artifact import load_artifact, save_artifact
from repro.core.bstce import bstce
from repro.core.classifier import BSTClassifier
from repro.core.fast import (
    FastBSTCEvaluator,
    clear_evaluator_cache,
    get_evaluator,
)
from repro.datasets.dataset import RelationalDataset
from repro.datasets.discretize import EntropyDiscretizer
from repro.datasets.profiles import scaled
from repro.datasets.splits import given_training_split
from repro.datasets.synthetic import generate_expression_data
from repro.evaluation.latency import LatencyHistogram
from repro.serving import ModelRegistry, PredictionService, ServeConfig

BENCH_SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: Reference-machine measurements behind the absolute gates: the value
#: each metric had when its gate was introduced.  Times and byte counts
#: may not exceed ``_SLACK`` x (bytes: 1x) their reference, rates may not
#: fall below reference / ``_SLACK``.  The bounds are enforced outside
#: REPRO_BENCH_SMOKE only (the smoke profiles are smaller, and shared CI
#: runners are not the reference machine).  ``plan_hot_bytes`` is the
#: 8-member arena (format v3), so an arena that grows back toward the
#: 13-member layout (28,851,506 B on this profile) fails.
_REFERENCE = {
    "batched_bstce_ms_per_query": 0.0688,
    "plan_kernel_batch_ms": 522.3,
    "pc_kernel_ms_per_query": 1.9,
    "plan_hot_bytes": 23_348_870,
    "artifact_cold_start_ms": 61.1,
    "service_threaded_qps": 29.7,
    "registry_aggregate_qps": 58.2,
}
_SLACK = 1.35


def _gate_at_most(key, value, slack=_SLACK):
    """Record ``value`` and fail it above ``slack`` x its reference."""
    _BENCH_RECORD[key] = value
    bound = _REFERENCE[key] * slack
    if not BENCH_SMOKE:
        assert value <= bound, f"{key} = {value:.4g}, bound {bound:.4g}"


def _gate_at_least(key, value, slack=_SLACK):
    """Record ``value`` and fail it below its reference / ``slack``."""
    _BENCH_RECORD[key] = value
    bound = _REFERENCE[key] / slack
    if not BENCH_SMOKE:
        assert value >= bound, f"{key} = {value:.4g}, bound {bound:.4g}"

#: Speedup trajectory collected by the gating benchmarks and written to
#: BENCH_micro.json at module teardown (CI uploads it as a build artifact,
#: so regressions show up as a declining series across commits).
_BENCH_RECORD = {}


@pytest.fixture(scope="module", autouse=True)
def bench_record():
    yield _BENCH_RECORD
    if not _BENCH_RECORD:
        return
    payload = {
        "suite": "bench_micro",
        "smoke": BENCH_SMOKE,
        "unix_time": time.time(),
        "results": dict(sorted(_BENCH_RECORD.items())),
    }
    out_path = os.environ.get("REPRO_BENCH_JSON", "BENCH_micro.json")
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.fixture(scope="module")
def pipeline():
    profile = scaled("ALL")
    data = generate_expression_data(profile, seed=1)
    split = given_training_split(data, profile.given_training, seed=0)
    train = data.subset(split.train_indices)
    test = data.subset(split.test_indices)
    disc = EntropyDiscretizer().fit(train)
    rel_train = disc.transform(train)
    queries = disc.transform_values(test.values)
    return train, rel_train, queries


def test_bst_construction(benchmark, pipeline):
    _, rel_train, _ = pipeline
    bsts = benchmark(build_all_bsts, rel_train)
    assert len(bsts) == rel_train.n_classes


def test_fast_engine_query(benchmark, pipeline):
    _, rel_train, queries = pipeline
    evaluator = FastBSTCEvaluator(rel_train)
    value = benchmark(evaluator.classification_values, queries[0])
    assert 0.0 <= value.min() <= value.max() <= 1.0


def test_fast_engine_batch(benchmark, pipeline):
    _, rel_train, queries = pipeline
    evaluator = FastBSTCEvaluator(rel_train)
    values = benchmark(evaluator.classification_values_batch, queries)
    assert values.shape == (len(queries), rel_train.n_classes)
    assert 0.0 <= values.min() <= values.max() <= 1.0


def test_batched_throughput(pipeline):
    """Batched BSTCE ms/query on the scaled ALL profile, bounded in
    absolute terms, while single-query calls equal their batch rows bit
    for bit and the batch agrees with the reference engine.

    The workload tiles the held-out queries to a serving-sized batch and
    takes the best of three timed repetitions of each path, so the number
    measures steady-state throughput rather than first-call overhead.
    """
    _, rel_train, queries = pipeline
    evaluator = FastBSTCEvaluator(rel_train)
    workload = (queries * 8)[:128]
    evaluator.classification_values_batch(workload[:4])  # warm up

    serial_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        serial = np.stack(
            [evaluator.classification_values(q) for q in workload]
        )
        serial_seconds = min(serial_seconds, time.perf_counter() - start)

    batch_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        batch = evaluator.classification_values_batch(workload)
        batch_seconds = min(batch_seconds, time.perf_counter() - start)

    # A single query is a batch of one, and a query's row does not depend
    # on its batchmates: exact, never relaxed.
    assert np.array_equal(batch, serial)
    bst = BST.build(rel_train, 0)
    for i in (0, len(queries) // 2, len(queries) - 1):
        assert batch[i, 0] == pytest.approx(
            bstce(bst, queries[i]), abs=1e-5
        )

    ms_per_query = batch_seconds / len(workload) * 1e3
    print(
        f"\nbatched BSTCE: {ms_per_query:.3f} ms/query"
        f" ({len(workload) / batch_seconds:.0f} q/s) vs single queries"
        f" {serial_seconds / len(workload) * 1e3:.3f} ms/query"
    )
    _gate_at_most("batched_bstce_ms_per_query", ms_per_query)


def test_reference_engine_query(benchmark, pipeline):
    _, rel_train, queries = pipeline
    bst = BST.build(rel_train, 0)
    value = benchmark(bstce, bst, queries[0])
    assert 0.0 <= value <= 1.0


def test_classifier_fit(benchmark, pipeline):
    _, rel_train, _ = pipeline
    clf = benchmark(lambda: BSTClassifier().fit(rel_train))
    assert clf.dataset is rel_train


def test_discretizer_fit(benchmark, pipeline):
    train, _, _ = pipeline
    disc = benchmark(lambda: EntropyDiscretizer().fit(train))
    assert disc.n_kept_genes > 0


def test_topk_mining(benchmark, pipeline):
    _, rel_train, _ = pipeline
    groups = benchmark(
        lambda: TopkMiner(rel_train, 0, k=5, min_support=0.8).mine()
    )
    assert isinstance(groups, list)


# ----------------------------------------------------------------------
# Packed-bitset substrate vs the set-based reference it replaced
# ----------------------------------------------------------------------

# Microarray-scale incidence: thousands of genes, a few thousand samples,
# dense rows — the regime the paper's scalability study (Tables 4/6) runs
# in and where support counting/closures dominate mining time.  (The
# pipeline fixture's discretized split is only ~20x60, far too small for a
# kernel-vs-interpreter comparison: numpy dispatch overhead would drown
# the signal.)
_KERNEL_ROWS, _KERNEL_COLS, _KERNEL_DENSITY = 2500, 5000, 0.5


@pytest.fixture(scope="module")
def kernel_workload():
    from repro.core.bitset import BitMatrix

    rng = np.random.default_rng(0)
    dense = rng.random((_KERNEL_ROWS, _KERNEL_COLS)) < _KERNEL_DENSITY
    rows_matrix = BitMatrix.from_bool(dense)
    columns_matrix = rows_matrix.transpose()
    row_sets = [
        frozenset(np.flatnonzero(dense[i]).tolist())
        for i in range(_KERNEL_ROWS)
    ]
    column_sets = [
        frozenset(np.flatnonzero(dense[:, j]).tolist())
        for j in range(_KERNEL_COLS)
    ]
    return rows_matrix, columns_matrix, row_sets, column_sets


def _set_reduce_and(reference_sets, selection, universe_size):
    """The pre-bitset support/closure computation: chained frozenset
    intersection (this is the reference the kernel replaced)."""
    result = None
    for index in selection:
        members = reference_sets[index]
        result = members if result is None else result & members
        if not result:
            break
    if result is None:
        return frozenset(range(universe_size))
    return result


def _best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _speedup_gate(name, packed_seconds, set_seconds):
    speedup = set_seconds / packed_seconds
    _BENCH_RECORD[f"bitset_{name.replace(' ', '_')}_speedup"] = speedup
    print(f"\nbitset {name}: {speedup:.1f}x vs frozensets")
    if not BENCH_SMOKE:
        assert speedup >= 5.0, (
            f"packed {name} only {speedup:.2f}x the set reference"
        )


def test_bitset_support_counting_speedup(kernel_workload):
    """Support counting on packed item columns vs frozenset intersection.

    Cross-check (always gating, even under REPRO_BENCH_SMOKE): both paths
    report identical support sets for every probed itemset.  Timing gate
    (smoke-relaxed): the word-wise AND-reduction must run >= 5x faster.
    """
    _, columns_matrix, _, column_sets = kernel_workload
    rng = np.random.default_rng(7)
    itemsets = [
        sorted(
            int(i) for i in rng.choice(_KERNEL_COLS, int(size), replace=False)
        )
        for size in rng.integers(2, 6, 300)
    ]

    packed = [
        columns_matrix.reduce_and(s).to_frozenset() for s in itemsets
    ]
    reference = [
        _set_reduce_and(column_sets, s, _KERNEL_ROWS) for s in itemsets
    ]
    assert packed == reference  # bit-identity gate, never relaxed

    packed_seconds = _best_of(
        3, lambda: [columns_matrix.reduce_and(s).count() for s in itemsets]
    )
    set_seconds = _best_of(
        3,
        lambda: [
            len(_set_reduce_and(column_sets, s, _KERNEL_ROWS))
            for s in itemsets
        ],
    )
    _speedup_gate("support counting", packed_seconds, set_seconds)


def test_bitset_closure_speedup(kernel_workload):
    """Row closures on packed sample rows vs frozenset intersection.

    The closure (items common to a row subset) is the (MC)²BAR miner's
    hottest operation; same gating scheme as the support benchmark.
    """
    rows_matrix, _, row_sets, _ = kernel_workload
    rng = np.random.default_rng(8)
    subsets = [
        sorted(
            int(i) for i in rng.choice(_KERNEL_ROWS, int(size), replace=False)
        )
        for size in rng.integers(2, 7, 300)
    ]

    packed = [rows_matrix.reduce_and(rows).to_frozenset() for rows in subsets]
    reference = [
        _set_reduce_and(row_sets, rows, _KERNEL_COLS) for rows in subsets
    ]
    assert packed == reference  # bit-identity gate, never relaxed

    packed_seconds = _best_of(
        3, lambda: [rows_matrix.reduce_and(rows).count() for rows in subsets]
    )
    set_seconds = _best_of(
        3,
        lambda: [
            len(_set_reduce_and(row_sets, rows, _KERNEL_COLS))
            for rows in subsets
        ],
    )
    _speedup_gate("closure", packed_seconds, set_seconds)


# ----------------------------------------------------------------------
# The compiled-plan kernel on the sparse serving profile
# ----------------------------------------------------------------------


def test_plan_kernel_latency():
    """Plan-kernel ms per 64-query batch and arena hot bytes on the sparse
    serving profile, both bounded in absolute terms.

    The workload is the regime the plan layer was built for — wide
    vocabularies (thousands of items) probed by sparse queries (tens of
    expressed genes each), where each inner product is restricted to the
    query's own expressed columns.  The arena may not grow past its
    reference size, and per-batch kernel latency percentiles are recorded
    into BENCH_micro.json via ``LatencyHistogram`` so tail regressions show
    up across commits.
    """
    if BENCH_SMOKE:
        n_samples, n_items, n_batches = 150, 600, 4
    else:
        n_samples, n_items, n_batches = 500, 3000, 12
    dataset = _serving_dataset(n_samples, n_items, 3, 0.3, seed=11)
    planned = FastBSTCEvaluator(dataset)
    rng = np.random.default_rng(12)
    batch = rng.random((64, n_items)) < 30 / n_items  # sparse queries
    values = planned.classification_values_batch(batch)
    # Exact, never relaxed: the first query alone equals its batch row.
    assert np.array_equal(planned.classification_values(batch[0]), values[0])

    histogram = LatencyHistogram()

    def run_planned():
        for _ in range(n_batches):
            start = time.perf_counter()
            planned.classification_values_batch(batch)
            histogram.record(time.perf_counter() - start)

    plan_seconds = _best_of(3, run_planned)
    batch_ms = plan_seconds / n_batches * 1e3
    plan_bytes = planned.plan.hot_nbytes()
    _BENCH_RECORD["plan_kernel_batch_latency_ms"] = histogram.to_dict()
    print(
        f"\ncompiled plan: {batch_ms:.1f} ms per 64-query batch,"
        f" arena {plan_bytes} B"
    )
    _gate_at_most("plan_hot_bytes", float(plan_bytes), slack=1.0)
    _gate_at_most("plan_kernel_batch_ms", batch_ms)


def test_pc_kernel_latency():
    """Plan-kernel ms per query at the ``offline_pc`` geometry, bounded in
    absolute terms: 136 training rows over ~2700 items in 2 classes at
    ~0.5 density, probed by one block of ~0.5-density queries.

    Here every query expresses about half the vocabulary, so each
    (inside row, query) row gives the ``min`` threshold sweep hundreds of
    genes to cover, where a query of the sparse profile above gives it
    tens.  Exact, never relaxed: the first query alone equals its batch
    row.
    """
    if BENCH_SMOKE:
        n_items, n_reps = 700, 2
    else:
        n_items, n_reps = 2700, 6
    dataset = _serving_dataset(136, n_items, 2, 0.5, seed=21)
    evaluator = FastBSTCEvaluator(dataset)
    rng = np.random.default_rng(22)
    batch = rng.random((64, n_items)) < 0.5
    values = evaluator.classification_values_batch(batch)
    assert np.array_equal(evaluator.classification_values(batch[0]), values[0])

    seconds = _best_of(
        3,
        lambda: [
            evaluator.classification_values_batch(batch)
            for _ in range(n_reps)
        ],
    )
    ms_per_query = seconds / (n_reps * len(batch)) * 1e3
    print(f"\nPC-shaped kernel: {ms_per_query:.3f} ms/query")
    _gate_at_most("pc_kernel_ms_per_query", ms_per_query)


# ----------------------------------------------------------------------
# Model artifacts and the micro-batching prediction service
# ----------------------------------------------------------------------


def _serving_dataset(n_samples, n_items, n_classes, density, seed):
    rng = np.random.default_rng(seed)
    return RelationalDataset.from_bool_matrix(
        rng.random((n_samples, n_items)) < density,
        labels=tuple(
            int(x) for x in rng.integers(0, n_classes, size=n_samples)
        ),
    )


def test_artifact_cold_start_speedup(tmp_path):
    """Cold start from a model artifact vs rebuilding the evaluator.

    The serving path the artifact subsystem exists for: a fresh process gets
    one query and must answer it.  The rebuild side pays the full
    ``FastBSTCEvaluator`` plan compile (dense per-class matmuls over the
    training matrix) plus the first batch; the artifact side memory-maps
    the compiled arena and pays only the first batch.  Gate: load+first
    >= 5x faster than rebuild+first (best of 3 cold starts each; under
    REPRO_BENCH_SMOKE the profile shrinks and only bit-identity gates), and
    load+first itself bounded in ms (``artifact_cold_start_ms``).

    The 5x gate times an unverified load (``verify="off"``) — the same
    measurement this gate was introduced on, isolating the artifact
    subsystem from integrity checking.  The default (lazy-verified) path
    additionally pays one deferred CRC pass over the arena on the first
    query; it is timed here too and must still beat the rebuild by >= 2.5x
    (its load-time share is gated by ``test_artifact_integrity_overhead``).
    """
    if BENCH_SMOKE:
        n_samples, n_items = 200, 800
    else:
        n_samples, n_items = 1000, 4000
    dataset = _serving_dataset(n_samples, n_items, 3, 0.3, seed=2)
    rng = np.random.default_rng(3)
    query = (rng.random(n_items) < 30 / n_items)[None, :]

    path = save_artifact(FastBSTCEvaluator(dataset), tmp_path / "model.npz")

    def rebuild_and_answer():
        # A genuinely cold rebuild: a fresh dataset object (no memoized
        # derived state) and an empty evaluator cache.
        fresh = RelationalDataset(
            dataset.item_names,
            dataset.class_names,
            dataset.samples,
            dataset.labels,
        )
        clear_evaluator_cache()
        return get_evaluator(fresh).classification_values_batch(query)

    def load_and_answer():
        return load_artifact(path, verify="off").classification_values_batch(
            query
        )

    def load_verified_and_answer():
        return load_artifact(path, verify="lazy").classification_values_batch(
            query
        )

    rebuilt = rebuild_and_answer()
    loaded = load_and_answer()
    assert np.array_equal(rebuilt, loaded)  # bit-identity gate, never relaxed
    assert np.array_equal(rebuilt, load_verified_and_answer())

    rebuild_seconds = _best_of(3, rebuild_and_answer)
    load_seconds = _best_of(3, load_and_answer)
    verified_seconds = _best_of(3, load_verified_and_answer)
    clear_evaluator_cache()

    speedup = rebuild_seconds / load_seconds
    verified_speedup = rebuild_seconds / verified_seconds
    _BENCH_RECORD["artifact_cold_start_speedup"] = speedup
    _BENCH_RECORD["artifact_cold_start_speedup_verified"] = verified_speedup
    print(
        f"\nartifact cold start: load+first {load_seconds * 1e3:.1f}ms"
        f" (verified {verified_seconds * 1e3:.1f}ms) vs"
        f" rebuild+first {rebuild_seconds * 1e3:.1f}ms"
        f" ({speedup:.1f}x / {verified_speedup:.1f}x verified)"
    )
    if not BENCH_SMOKE:
        assert speedup >= 5.0, (
            f"artifact cold start only {speedup:.2f}x faster than a rebuild"
        )
        assert verified_speedup >= 2.5, (
            f"verified cold start only {verified_speedup:.2f}x faster than"
            " a rebuild"
        )
    _gate_at_most("artifact_cold_start_ms", load_seconds * 1e3)


def test_artifact_integrity_overhead(tmp_path):
    """Integrity verification must stay cheap on the serving cold start.

    Loads the same artifact with verification off and with the default lazy
    mode (manifest parsed, root digest recomputed from the zip central
    directory, table CRCs deferred to the first query).  Gate: the lazy
    path costs at most 20% over the unverified load (best of 3 each;
    relaxed under REPRO_BENCH_SMOKE).  As a correctness anchor that never
    relaxes, an eager load of a byte-flipped copy must raise
    ``ArtifactCorrupt``.
    """
    from repro.core.artifact import ArtifactCorrupt
    from repro.testing import corrupt_artifact_member

    if BENCH_SMOKE:
        n_samples, n_items = 200, 800
    else:
        n_samples, n_items = 1000, 4000
    dataset = _serving_dataset(n_samples, n_items, 3, 0.3, seed=7)
    path = save_artifact(FastBSTCEvaluator(dataset), tmp_path / "model.npz")

    plain_seconds = _best_of(3, lambda: load_artifact(path, verify="off"))
    lazy_seconds = _best_of(3, lambda: load_artifact(path, verify="lazy"))

    # Detection gate, never relaxed: a flipped byte in a table member must
    # surface as ArtifactCorrupt under eager verification.
    corrupt = tmp_path / "corrupt.npz"
    corrupt.write_bytes(path.read_bytes())
    corrupt_artifact_member(corrupt, "arena_inside_f.npy")
    with pytest.raises(ArtifactCorrupt):
        load_artifact(corrupt, verify="eager", on_corrupt="fail")

    overhead = lazy_seconds / plain_seconds - 1.0
    _BENCH_RECORD["artifact_integrity_overhead"] = overhead
    print(
        f"\nartifact integrity: lazy verify {lazy_seconds * 1e3:.1f}ms vs"
        f" unverified {plain_seconds * 1e3:.1f}ms"
        f" ({overhead * 100:+.1f}% overhead)"
    )
    if not BENCH_SMOKE:
        assert overhead <= 0.20, (
            f"lazy integrity verification adds {overhead * 100:.1f}% to the"
            " cold-start load (gate: 20%)"
        )


def test_service_threaded_throughput():
    """Micro-batched serving throughput, bounded from below in q/s.

    Eight concurrent callers push 64 requests through a
    ``PredictionService`` (max_batch=8).  Served values
    must equal both the batched kernel's and the single-query answers bit
    for bit (always gating); the q/s floor is relaxed under
    REPRO_BENCH_SMOKE, where the profile also shrinks.  Serial single-query
    throughput is printed for context.

    The service runs with its full self-healing stack enabled — per-request
    deadlines, load shedding, and the circuit breaker — so the gate also
    proves the robustness machinery adds no meaningful overhead on the
    happy path (the thresholds are set high enough never to fire here).
    """
    if BENCH_SMOKE:
        n_samples, n_items, n_requests = 100, 200, 16
    else:
        n_samples, n_items, n_requests = 400, 800, 64
    n_threads = 8
    dataset = _serving_dataset(n_samples, n_items, 3, 0.3, seed=5)
    evaluator = FastBSTCEvaluator(dataset)
    rng = np.random.default_rng(6)
    queries = rng.random((n_requests, n_items)) < 0.3
    evaluator.classification_values_batch(queries[:2])  # warm up

    start = time.perf_counter()
    serial = np.stack(
        [evaluator.classification_values(q) for q in queries]
    )
    serial_seconds = time.perf_counter() - start

    served = np.empty_like(serial)
    latencies = np.zeros(n_requests)
    per_thread = n_requests // n_threads

    def caller(thread_id):
        lo = thread_id * per_thread
        for i in range(lo, lo + per_thread):
            begin = time.perf_counter()
            served[i] = service.classification_values(queries[i])
            latencies[i] = time.perf_counter() - begin

    with PredictionService(
        evaluator,
        ServeConfig(
            max_batch=8,
            default_deadline_ms=60_000.0,
            shed_high=4 * n_requests,
            breaker_threshold=5,
        ),
    ) as service:
        threads = [
            threading.Thread(target=caller, args=(i,))
            for i in range(n_threads)
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service_seconds = time.perf_counter() - start

    # Correctness gates, never relaxed: the service must hand back exactly
    # what the batched kernel computes (it batches, row-slices, nothing
    # else), and a query's row may not depend on the batch it landed in.
    assert np.array_equal(
        served, evaluator.classification_values_batch(queries)
    )
    assert np.array_equal(served, serial)

    # LatencyHistogram is not thread-safe, so callers record wall times
    # into their own slots and the histogram is fed after the join.
    histogram = LatencyHistogram()
    for seconds in latencies:
        histogram.record(float(seconds))
    _BENCH_RECORD["service_request_latency_ms"] = histogram.to_dict()
    serial_qps = n_requests / serial_seconds
    service_qps = n_requests / service_seconds
    print(
        f"\nprediction service: {service_qps:.1f} q/s over {n_threads}"
        f" threads vs {serial_qps:.1f} q/s serial single queries"
    )
    _gate_at_least("service_threaded_qps", service_qps)


def test_registry_aggregate_throughput():
    """N-model registry throughput, bounded from below in q/s.

    The same offered load — threads pinned to models, every request for a
    specific model — is pushed through two deployments:

    * **shared**: one ``PredictionService`` fronting a dispatcher that
      routes each query to its model.  A shared queue cannot coalesce,
      because one batch would mix rows belonging to different models, so a
      correct shared service degrades to singleton kernel calls
      (``max_batch=1``).
    * **registry**: a ``ModelRegistry`` giving each model its own slot and
      micro-batch queue, so concurrent callers of the same model coalesce
      into batched kernel calls again.

    The registry's aggregate q/s is gated (``registry_aggregate_qps``,
    relaxed under REPRO_BENCH_SMOKE); the shared service's is printed for
    context.  Both deployments must answer exactly like direct batch
    evaluation (always gating).
    """
    n_models = 4
    if BENCH_SMOKE:
        n_samples, n_items, per_thread, threads_per_model = 100, 200, 2, 2
    else:
        n_samples, n_items, per_thread, threads_per_model = 300, 600, 6, 8
    datasets = [
        _serving_dataset(n_samples, n_items, 3, 0.3, seed=20 + i)
        for i in range(n_models)
    ]
    evaluators = [FastBSTCEvaluator(ds) for ds in datasets]
    rng = np.random.default_rng(21)
    n_threads = n_models * threads_per_model
    queries = rng.random((n_threads, per_thread, n_items)) < 0.3
    for evaluator in evaluators:
        evaluator.classification_values_batch(queries[0][:2])  # warm up

    class _Dispatcher:
        """The shared-service model: query rows carry a model-id prefix."""

        dataset = None  # heterogeneous models; no single query shape

        def classification_values_batch(self, rows):
            out = []
            for row in rows:
                model_id = int(row[0])
                out.append(
                    evaluators[model_id].classification_values(
                        np.asarray(row[1:], dtype=bool)
                    )
                )
            return np.stack(out)

    def drive(submit):
        """Run the pinned-thread load; returns (seconds, results)."""
        results = [None] * n_threads

        def caller(thread_id):
            model_id = thread_id % n_models
            rows = queries[thread_id]
            results[thread_id] = np.stack(
                [submit(model_id, row) for row in rows]
            )

        workers = [
            threading.Thread(target=caller, args=(i,))
            for i in range(n_threads)
        ]
        start = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        return time.perf_counter() - start, results

    with PredictionService(
        _Dispatcher(),
        ServeConfig(max_batch=1, default_deadline_ms=60_000.0),
    ) as shared:

        def submit_shared(model_id, row):
            tagged = np.empty(n_items + 1, dtype=np.float64)
            tagged[0] = model_id
            tagged[1:] = row
            return shared.classification_values(tagged)

        shared_seconds, shared_results = drive(submit_shared)

    registry = ModelRegistry(
        ServeConfig(max_batch=8, default_deadline_ms=60_000.0)
    )
    try:
        for i, evaluator in enumerate(evaluators):
            registry.deploy_model(f"m{i}", evaluator)
        registry_seconds, registry_results = drive(
            lambda model_id, row: registry.classification_values(
                f"m{model_id}", row
            )
        )
    finally:
        registry.close()

    # Correctness gates, never relaxed: both deployments must agree with
    # direct batch evaluation on every model's own queries.
    for thread_id in range(n_threads):
        expected = evaluators[thread_id % n_models].\
            classification_values_batch(queries[thread_id])
        assert np.array_equal(registry_results[thread_id], expected)
        assert np.array_equal(shared_results[thread_id], expected)

    n_requests = n_threads * per_thread
    registry_qps = n_requests / registry_seconds
    print(
        f"\nmodel registry: {registry_qps:.1f} q/s over {n_models} slots vs"
        f" {n_requests / shared_seconds:.1f} q/s shared service"
    )
    _gate_at_least("registry_aggregate_qps", registry_qps)


# ----------------------------------------------------------------------
# Incremental training data plane: delta recompile and chunked ingestion
# ----------------------------------------------------------------------


def test_incremental_append_speedup():
    """Delta plan recompile after a <=5% row append vs a cold rebuild.

    The incremental training data plane's core gate: a serving process
    holding a compiled evaluator receives a small batch of new labeled
    rows (drift retraining).  The cold path rebuilds everything — derived
    dataset state, per-class tables, plan compile — over all rows; the
    delta path (``FastBSTCEvaluator.append_rows`` →
    ``recompile_delta``) reuses every block the new rows do not touch and
    runs matmuls only over the appended slice.  Gate: the delta path must
    be >= 5x faster (best of 5 each, timed alternately so a burst of CPU
    contention hits both sides; relaxed under REPRO_BENCH_SMOKE).  The
    bit-identity checks — identical arena bytes, geometry, dtypes and
    predictions versus the cold rebuild — always gate.
    """
    from repro.core.plan import ARENA_FIELDS

    if BENCH_SMOKE:
        n_samples, n_items = 240, 800
    else:
        n_samples, n_items = 1500, 4000
    full = _serving_dataset(n_samples, n_items, 3, 0.3, seed=30)
    old_n = n_samples - max(1, n_samples // 20)  # a 5% append
    base = full.subset(range(old_n))
    grown = base.append_samples(full.samples[old_n:], full.labels[old_n:])

    clear_evaluator_cache()
    base_eval = FastBSTCEvaluator(base)  # compiled, as in a live server

    def cold_rebuild():
        # A genuinely cold rebuild: a fresh dataset object (no memoized
        # derived state) and an empty evaluator cache.
        fresh = RelationalDataset(
            grown.item_names, grown.class_names, grown.samples, grown.labels
        )
        clear_evaluator_cache()
        return get_evaluator(fresh)

    def delta_append():
        return base_eval.append_rows(grown)

    cold_eval = cold_rebuild()
    delta_eval = delta_append()
    cold_plan = cold_eval.plan
    delta_plan = delta_eval.plan
    # Bit-identity gates, never relaxed: same plan bytes, same answers.
    assert np.array_equal(cold_plan.geometry, delta_plan.geometry)
    for name in ARENA_FIELDS:
        cold_arr = cold_plan.arena[name]
        delta_arr = delta_plan.arena[name]
        assert cold_arr.dtype == delta_arr.dtype, name
        assert np.array_equal(cold_arr, delta_arr), name
    rng = np.random.default_rng(31)
    batch = rng.random((32, n_items)) < 0.3
    assert np.array_equal(
        cold_eval.classification_values_batch(batch),
        delta_eval.classification_values_batch(batch),
    )

    cold_seconds = delta_seconds = float("inf")
    for _ in range(5):
        cold_seconds = min(cold_seconds, _best_of(1, cold_rebuild))
        delta_seconds = min(delta_seconds, _best_of(1, delta_append))
    clear_evaluator_cache()

    speedup = cold_seconds / delta_seconds
    _BENCH_RECORD["incremental_append_speedup"] = speedup
    appended = grown.n_samples - base.n_samples
    print(
        f"\nincremental append ({appended} rows on {base.n_samples}):"
        f" delta {delta_seconds * 1e3:.1f}ms vs cold rebuild"
        f" {cold_seconds * 1e3:.1f}ms ({speedup:.1f}x)"
    )
    if not BENCH_SMOKE:
        assert speedup >= 5.0, (
            f"delta recompile only {speedup:.2f}x faster than a cold"
            " rebuild for a 5% row append"
        )


def test_chunked_ingest_memory_flat(tmp_path):
    """Chunked TSV ingestion peak memory must stay flat as rows grow 10x.

    A streaming consumer (running per-gene reduction over
    ``iter_expression_tsv`` blocks, nothing retained) is traced with
    ``tracemalloc`` on a tall profile and on one 10x taller; the peak may
    not even double.  The whole-file loader is traced on the tall profile
    for contrast — its peak necessarily scales with the row count.
    Memory flatness is deterministic (allocation sizes, not wall clock),
    so these gates hold under REPRO_BENCH_SMOKE too.
    """
    import tracemalloc

    from repro.datasets.dataset import ExpressionMatrix
    from repro.datasets.io import iter_expression_tsv, load_expression_tsv, \
        save_expression_tsv

    n_genes = 120 if BENCH_SMOKE else 200
    base_rows = 150 if BENCH_SMOKE else 400

    def write_profile(rows, seed):
        rng = np.random.default_rng(seed)
        data = ExpressionMatrix(
            gene_names=tuple(f"g{j}" for j in range(n_genes)),
            values=rng.random((rows, n_genes)),
            labels=tuple(int(x) for x in rng.integers(0, 3, size=rows)),
            class_names=("A", "B", "C"),
        )
        path = tmp_path / f"tall_{rows}.tsv"
        save_expression_tsv(data, path)
        return path

    def chunked_peak(path):
        tracemalloc.start()
        total = np.zeros(n_genes)
        rows = 0
        for chunk in iter_expression_tsv(path, chunk_rows=64):
            total += chunk.values.sum(axis=0)
            rows += chunk.values.shape[0]
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak, rows, total

    small = write_profile(base_rows, 40)
    tall = write_profile(base_rows * 10, 41)
    peak_small, rows_small, _ = chunked_peak(small)
    peak_tall, rows_tall, sum_tall = chunked_peak(tall)
    assert rows_small == base_rows and rows_tall == base_rows * 10

    tracemalloc.start()
    whole = load_expression_tsv(tall)
    _, peak_whole = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    np.testing.assert_allclose(whole.values.sum(axis=0), sum_tall)

    ratio = peak_tall / peak_small
    _BENCH_RECORD["chunked_ingest_peak_ratio_10x"] = ratio
    _BENCH_RECORD["chunked_ingest_peak_bytes"] = float(peak_tall)
    _BENCH_RECORD["whole_file_ingest_peak_bytes"] = float(peak_whole)
    print(
        f"\nchunked ingest peak: {peak_small / 1e6:.2f}MB at"
        f" {rows_small} rows vs {peak_tall / 1e6:.2f}MB at {rows_tall}"
        f" rows ({ratio:.2f}x); whole-file load peaks at"
        f" {peak_whole / 1e6:.2f}MB"
    )
    assert ratio <= 2.0, (
        f"chunked ingest peak grew {ratio:.2f}x for a 10x taller profile"
    )
    assert peak_whole >= 3.0 * peak_tall, (
        "whole-file load should dominate chunked peak memory"
        f" ({peak_whole / 1e6:.2f}MB vs {peak_tall / 1e6:.2f}MB)"
    )
