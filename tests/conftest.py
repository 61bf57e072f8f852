"""Shared fixtures: the running example and small random datasets.

Also installs a per-test wall-clock ceiling when ``REPRO_TEST_TIMEOUT`` is
set (seconds): a SIGALRM-based guard so a hung worker or deadlocked pool
fails the one test instead of wedging the whole suite.  CI sets it; local
runs are unlimited unless opted in.

When ``REPRO_COUNTER_DUMP`` is set to a path, the process-wide engine
counters accumulated across the whole run are written there as JSON at
session end — CI uploads the dump from the fault-suite step so a failing
resilience run leaves its counter evidence behind.  Several tests call
``engine_counters.reset()`` mid-run, so the dump is built from per-test
positive deltas (captured at each teardown) rather than one final
snapshot a reset could have wiped.
"""

from __future__ import annotations

import json
import os
import signal
import threading

import numpy as np
import pytest

from repro.datasets.dataset import RelationalDataset, running_example
from repro.datasets.profiles import DatasetProfile

#: The tier-1 tolerance between the vectorized kernel and the Algorithm 5
#: oracle (:mod:`repro.core.bstce`).
ORACLE_ATOL = 1e-5

_TEST_TIMEOUT = float(os.environ.get("REPRO_TEST_TIMEOUT", "0") or "0")
_COUNTER_DUMP = os.environ.get("REPRO_COUNTER_DUMP", "")


_counter_total: dict = {}
_counter_last: dict = {}


def _accumulate_counters() -> None:
    from repro.evaluation.timing import engine_counters

    snapshot = engine_counters.snapshot()
    for name, value in snapshot.items():
        previous = _counter_last.get(name, 0.0)
        # A value below its last observation means the counter was reset
        # since then; everything currently on it is new.
        delta = value - previous if value >= previous else value
        if delta > 0:
            _counter_total[name] = _counter_total.get(name, 0.0) + delta
    _counter_last.clear()
    _counter_last.update(snapshot)


def pytest_runtest_teardown(item, nextitem):
    if _COUNTER_DUMP:
        _accumulate_counters()


def pytest_sessionfinish(session, exitstatus):
    if not _COUNTER_DUMP:
        return
    _accumulate_counters()
    payload = dict(_counter_total)
    payload["_exitstatus"] = int(exitstatus)
    with open(_COUNTER_DUMP, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    use_alarm = (
        _TEST_TIMEOUT > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not use_alarm:
        yield
        return

    def _on_timeout(signum, frame):
        raise TimeoutError(
            f"test exceeded REPRO_TEST_TIMEOUT={_TEST_TIMEOUT:g}s wall clock"
        )

    previous = signal.signal(signal.SIGALRM, _on_timeout)
    signal.setitimer(signal.ITIMER_REAL, _TEST_TIMEOUT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def example():
    return running_example()


@pytest.fixture
def tiny_profile():
    """A very small profile for fast pipeline tests."""
    return DatasetProfile(
        name="TINY",
        long_name="Tiny synthetic",
        n_genes=60,
        class_labels=("pos", "neg"),
        class_counts=(14, 12),
        given_training=(9, 8),
        informative_fraction=0.2,
        effect_size=2.2,
    )


def random_relational(
    rng: np.random.Generator,
    n_samples_range=(4, 12),
    n_items_range=(3, 14),
    n_classes_range=(2, 4),
) -> RelationalDataset:
    """A random boolean dataset with every class represented."""
    while True:
        n = int(rng.integers(*n_samples_range))
        m = int(rng.integers(*n_items_range))
        k = int(rng.integers(*n_classes_range))
        if n < k:
            continue
        matrix = rng.random((n, m)) < rng.uniform(0.2, 0.8)
        labels = rng.integers(0, k, n)
        if len(set(labels.tolist())) == k:
            return RelationalDataset.from_bool_matrix(
                matrix, labels.tolist(), class_names=[f"c{i}" for i in range(k)]
            )
