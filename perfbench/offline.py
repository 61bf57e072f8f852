"""``offline_pc``: the paper's Section 6.2 protocol on the PC profile.

Each split (seeded by its number ``k``) discretizes (``EntropyDiscretizer.fit`` + ``transform``),
fits ``BSTClassifier``, saves the artifact, reloads it with
``BSTClassifier.load`` and classifies the held-out queries with
``predict_batch`` (three timed passes); it ends with ``refresh_artifact``
on the training set grown by those held-out rows.  The reloaded model must return the labels
of the in-memory one, and the refreshed artifact must carry the grown
training set's fingerprint.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

import numpy as np

from common import SLO_MS, TRAIN_FRACTION, load_data, median, percentile
from tracing import Tracer, install_kernel_hook, kernel_stats

#: At least this many splits run, so p90 has 4 x 34 >= 100 samples.
MIN_SPLITS = 4
#: Seconds one split takes at the seed commit on 2 CPUs.  The number of
#: splits is derived from ``--seconds`` with it, so that every run, on
#: every commit, classifies the same splits.
SPLIT_SECONDS = 6.5
#: Timed ``predict_batch`` passes per split, and ``refresh_artifact`` calls
#: per split; each split reports the median, so that a burst of CPU steal
#: during one call does not set the split's figure.
PASSES = 3
REFRESHES = 5


def split_order(seed: int, seconds: float) -> List[int]:
    """Which splits a run makes, in order: the first ``n`` split seeds of
    the fixed PC matrix, rotated by the workload seed.  The set is the same
    for every seed because the kernel's per-query cost depends on the
    split's model: splits picked by the workload seed moved ``qps`` by 15%
    between seeds, against 2% between repeats of one seed."""
    n = max(MIN_SPLITS, round(seconds / SPLIT_SECONDS))
    return [(seed + k) % n for k in range(n)]


@dataclass
class Fold:
    """One discretized split: training rows and held-out queries."""

    train: object                  # RelationalDataset
    queries: List[frozenset]
    truth: List[int]


def fit_fold(data, split, tracer: Tracer):
    """Discretize one split and fit BSTC on it; returns the fold, the
    fitted classifier and the discretize + fit seconds."""
    from repro import BSTClassifier, EntropyDiscretizer
    from repro.core.fast import clear_evaluator_cache

    # A refit on identical rows would be a cache hit, not a fit.
    clear_evaluator_cache()
    train = data.subset(split.train_indices)
    test = data.subset(split.test_indices)
    start = time.perf_counter()
    with tracer.span("datasets.discretize.fit"):
        discretizer = EntropyDiscretizer().fit(train)
    with tracer.span("datasets.discretize.transform"):
        train_rel = discretizer.transform(train)
    with tracer.span("core.classifier.fit"):
        clf = BSTClassifier().fit(train_rel)
    seconds = time.perf_counter() - start
    with tracer.span("datasets.discretize.transform"):
        queries = discretizer.transform_values(test.values)
    fold = Fold(train_rel, queries, list(test.labels))
    return fold, clf, seconds


def hot_bytes(path: Path) -> float:
    from repro import load_artifact

    return float(load_artifact(path).plan.hot_nbytes())


def run(seed: int, seconds: float, tracer: Tracer, work: Path, t0: float) -> Dict:
    """Run the splits of ``split_order``; ``t0`` is the perf_counter
    reading taken when the benchmark process started."""
    from repro import BSTClassifier
    from repro.core.artifact import refresh_artifact
    from repro.core.fast import clear_evaluator_cache
    from repro.datasets.splits import fraction_split

    if tracer.enabled:
        install_kernel_hook(tracer)
    _, data = load_data("PC")
    fit_s: List[float] = []
    refresh_s: List[float] = []
    per_query_ms: List[float] = []
    split_qps: List[float] = []
    attempted = wrong = slo_hits = hits = 0
    setup_s = None
    order = split_order(seed, seconds)
    for k in order:
        split = fraction_split(data, TRAIN_FRACTION, seed=k)
        fold, clf, fit_seconds = fit_fold(data, split, tracer)
        fit_s.append(fit_seconds)
        if setup_s is None:
            setup_s = time.perf_counter() - t0
        expected = clf.predict_batch(fold.queries)
        path = work / f"split{k}.npz"
        with tracer.span("core.artifact.save"):
            clf.save(path)
        # The in-memory evaluator must not stand in for the reloaded one.
        clear_evaluator_cache()
        with tracer.span("core.artifact.load"):
            loaded = BSTClassifier.load(path)
        n = len(fold.queries)
        passes = []
        for _ in range(PASSES):
            begin = time.perf_counter()
            labels = loaded.predict_batch(fold.queries)
            elapsed = time.perf_counter() - begin
            passes.append(elapsed)
            split_wrong = int(np.sum(labels != expected))
            attempted += n
            wrong += split_wrong
            if 1000.0 * elapsed / n <= SLO_MS:
                slo_hits += n - split_wrong
            hits += int(np.sum(labels == np.asarray(fold.truth)))
        split_qps.append(n / median(passes))
        per_query_ms.extend([1000.0 * median(passes) / n] * n)
        grown = fold.train.append_samples(fold.queries, fold.truth)
        refreshed = work / "refreshed.npz"
        refreshes = []
        for _ in range(REFRESHES):
            begin = time.perf_counter()
            with tracer.span("core.artifact.refresh"):
                refresh_artifact(path, grown, out_path=refreshed)
            refreshes.append(time.perf_counter() - begin)
        refresh_s.append(median(refreshes))
        clear_evaluator_cache()
        BSTClassifier.load(refreshed, expected_fingerprint=grown.fingerprint)
        if tracer.enabled and k == order[0]:
            tracer.gauges["core.artifact.bytes"] = float(os.path.getsize(path))
            tracer.gauges["core.plan.hot_bytes"] = hot_bytes(path)
        path.unlink()
    return {
        "attempted": attempted,
        "failed": wrong,
        "samples": {"splits": len(order), "classified": attempted},
        "metrics": {
            "setup_s": setup_s,
            "qps": median(split_qps),
            "p50_ms": percentile(per_query_ms, 50),
            "p90_ms": percentile(per_query_ms, 90),
            "slo_frac": slo_hits / attempted,
            "fit_s": median(fit_s),
            "refresh_s": median(refresh_s),
            "accuracy": hits / attempted,
        },
    }


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer numbers of a traced offline run (per-split medians)."""
    def per_split(name: str, per: int = 1) -> float:
        durations = tracer.durations(name)
        sums = [sum(durations[i:i + per]) for i in range(0, len(durations), per)]
        return median(sums) if sums else 0.0

    out = {
        "datasets.discretize.fit_s": per_split("datasets.discretize.fit"),
        # train rows and held-out rows: two transforms per split
        "datasets.discretize.transform_s": per_split(
            "datasets.discretize.transform", 2),
        "core.classifier.fit_s": per_split("core.classifier.fit"),
        "core.plan.hot_bytes": tracer.gauges["core.plan.hot_bytes"],
        "core.artifact.save_s": per_split("core.artifact.save"),
        "core.artifact.load_s": per_split("core.artifact.load"),
        "core.artifact.refresh_s": median(
            tracer.durations("core.artifact.refresh")),
        "core.artifact.bytes": tracer.gauges["core.artifact.bytes"],
    }
    out.update(kernel_stats(tracer.spans))
    return out
