"""Shared pieces of the benchmark: inputs, statistics, metric table, output.

Every input a workload feeds the program is made here from the profile and
the workload seed, so the same seed always gives byte-identical inputs.
The datasets themselves are fixed synthetic stand-ins for the paper's
Table 2 datasets (generated with ``DATA_SEED``), as the paper's real
datasets were fixed; the workload seed sets the order of the offline
splits and of the query stream.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Working space inside the checkout: artifacts live in a per-process work
# directory that is removed at exit; traces are kept for reading.
OUT_DIR = ROOT / ".perfbench"

DATA_SEED = 1
TRAIN_FRACTION = 0.75  # PC: 102 training rows, 34 held out (Section 6.2)
SLO_MS = 250.0         # the replay harness's latency objective

# name -> (unit, better).  BENCHMARK.json lists the same names and units.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "qps": ("1/s", "higher"),
    "p50_ms": ("ms", "lower"),
    "p90_ms": ("ms", "lower"),
    "slo_frac": ("frac", "higher"),
    "fit_s": ("s", "lower"),
    "refresh_s": ("s", "lower"),
    "accuracy": ("frac", "higher"),
}
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "datasets.discretize.fit_s": ("s", "lower"),
    "datasets.discretize.transform_s": ("s", "lower"),
    "core.classifier.fit_s": ("s", "lower"),
    "core.plan.hot_bytes": ("bytes", "lower"),
    "core.artifact.save_s": ("s", "lower"),
    "core.artifact.load_s": ("s", "lower"),
    "core.artifact.refresh_s": ("s", "lower"),
    "core.artifact.bytes": ("bytes", "lower"),
    "core.fast.batch_ms_per_query": ("ms", "lower"),
    "core.fast.batch_size_mean": ("count", "higher"),
    "core.fast.calls": ("count", "higher"),
    "serving.service.self_ms": ("ms", "lower"),
    "serving.service.batch_fill": ("frac", "higher"),
    "serving.service.rejected": ("count", "lower"),
    "serving.registry.self_ms": ("ms", "lower"),
    "serving.http.self_ms": ("ms", "lower"),
    "loadgen.late_p90_ms": ("ms", "lower"),
    "loadgen.sent": ("count", "higher"),
    "loadgen.answered": ("count", "higher"),
    "loadgen.failed": ("count", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def load_data(name: str):
    """The fixed expression matrix of a profile (``PC`` or ``ALL-scaled``)."""
    from repro import generate_expression_data, profile, scaled

    prof = scaled("ALL") if name == "ALL-scaled" else profile(name)
    return prof, generate_expression_data(prof, seed=DATA_SEED)


def stream_order(seed: int, pool_size: int, n: int) -> List[int]:
    """Indices into the query pool for a stream of ``n`` requests: a fresh
    seeded permutation of the pool per pass, so every query is sent equally
    often (to within one) and the order depends only on the seed."""
    rng = np.random.default_rng([seed, pool_size])
    order: List[int] = []
    while len(order) < n:
        order.extend(int(i) for i in rng.permutation(pool_size))
    return order[:n]


def request_body(query: frozenset) -> bytes:
    """The wire form of one query: the sparse ``items`` payload."""
    return json.dumps({"items": sorted(query)}).encode("utf-8")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, refused unless ten samples lie beyond it
    (so p50 needs 20 samples, p90 100 and p99 1000)."""
    n = len(values)
    if n * (100.0 - q) / 100.0 < 10.0 - 1e-9:
        raise ValueError(
            f"p{q:g} needs at least {int(round(1000.0 / (100.0 - q)))}"
            f" samples; got {n}"
        )
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


# ----------------------------------------------------------------------
# Environment and output
# ----------------------------------------------------------------------
def environment(workload: str, seed: int, samples: Dict[str, int]) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "samples": samples,
    }


def make_workdir() -> Path:
    path = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def emit(
    info: dict,
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, float],
    table: Dict[str, Tuple[str, str]],
) -> None:
    """Print the run record, one line per metric, then the result line."""
    missing = sorted(set(table) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    print("bench-info " + json.dumps(info, sort_keys=True))
    for name in table:
        print(f"  {name:34s} {metrics[name]:.6g} {table[name][0]}")
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": table[name][0]}
            for name in table
        },
    }
    print(json.dumps(result))
    sys.stdout.flush()
