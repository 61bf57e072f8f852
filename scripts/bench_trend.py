#!/usr/bin/env python
"""Fail CI when a gated benchmark number regresses against the committed
baseline.

Compares the freshly written ``BENCH_micro.json`` / ``BENCH_replay.json``
in the working tree against the last committed entry (``git show
<ref>:<file>``).  Only the *gated* numbers are compared — the ones the
benchmark suite itself asserts on — with a direction per key (speedups
and rates must not drop; times, bytes and peak-memory ratios must not
rise) and a relative tolerance (default 20%).

Records from different modes are incomparable: a smoke-mode run shrinks
the profiles, so if the ``smoke`` flags disagree the suite is skipped
with a note instead of producing a bogus verdict.  A file missing on
either side (first commit, bench not run) is likewise a skip, not a
failure — the script gates *trends*, it does not require benches to have
run.

Usage::

    python scripts/bench_trend.py [--baseline-ref HEAD] [--tolerance 0.2]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Gated keys per suite file: ``up`` means higher is better (a drop
#: beyond tolerance fails), ``down`` means lower is better.
GATES = {
    "BENCH_micro.json": {
        "batched_bstce_ms_per_query": "down",
        "bitset_support_counting_speedup": "up",
        "bitset_closure_speedup": "up",
        "artifact_cold_start_speedup": "up",
        "artifact_cold_start_ms": "down",
        "plan_kernel_batch_ms": "down",
        "plan_hot_bytes": "down",
        "service_threaded_qps": "up",
        "registry_aggregate_qps": "up",
        "incremental_append_speedup": "up",
        "chunked_ingest_peak_ratio_10x": "down",
    },
    "BENCH_replay.json": {
        "saturation_qps": "up",
        "unpaced_achieved_qps": "up",
        "chaos.p99_ms_under_breaker_trips": "down",
        "kill_mttr_s": "down",
    },
}


def load_current(name: str):
    path = REPO / name
    if not path.exists():
        return None
    with path.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def load_baseline(name: str, ref: str):
    proc = subprocess.run(
        ["git", "show", f"{ref}:{name}"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return None
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        return None


def gated_value(record, key):
    """A gated number lives under ``results`` (bench_micro) or at the top
    level (bench_replay); dots descend into nested sections (``chaos.p99``)
    and anything non-scalar — including booleans — is treated as absent."""
    container = record.get("results", record)
    value = container
    for part in key.split("."):
        if not isinstance(value, dict):
            return None
        value = value.get(part)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return value


def compare_suite(name: str, gates, ref: str, tolerance: float):
    current = load_current(name)
    baseline = load_baseline(name, ref)
    if current is None or baseline is None:
        which = "working tree" if current is None else f"{ref}"
        print(f"{name}: no record in {which} — skipped")
        return []
    if bool(current.get("smoke")) != bool(baseline.get("smoke")):
        print(
            f"{name}: smoke flags differ (current={current.get('smoke')},"
            f" baseline={baseline.get('smoke')}) — incomparable, skipped"
        )
        return []
    failures = []
    for key, direction in sorted(gates.items()):
        cur = gated_value(current, key)
        base = gated_value(baseline, key)
        if cur is None or base is None or base == 0:
            continue
        change = (cur - base) / abs(base)
        arrow = f"{base:.3f} -> {cur:.3f} ({change:+.1%})"
        if direction == "up":
            bad = change < -tolerance
        else:
            bad = change > tolerance
        verdict = "REGRESSED" if bad else "ok"
        print(f"{name}: {key}: {arrow} [{verdict}]")
        if bad:
            failures.append(f"{name}:{key} {arrow}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-ref",
        default="HEAD",
        help="git ref holding the committed baseline (default HEAD)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed relative regression per gated ratio (default 0.2)",
    )
    args = parser.parse_args(argv)

    failures = []
    for name, gates in GATES.items():
        failures.extend(
            compare_suite(name, gates, args.baseline_ref, args.tolerance)
        )
    if failures:
        print(
            f"\n{len(failures)} gated ratio(s) regressed more than"
            f" {args.tolerance:.0%}:"
        )
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nbench trend: no gated ratio regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
