"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload offline_pc --seed 1 --seconds 25 --trace 0

Workloads: ``offline_pc``, ``http_toy_1c``, ``http_pc_open`` (see
``perfbench/README.md``).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it (``bench-info``) records the machine, versions, seed and sample counts.
``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs the workload untraced and then traced, reports the
per-layer metrics of the traced run plus the tracing overhead, and keeps
the spans under ``.perfbench/traces/``.

Run from the root of a source checkout: the package is imported from
``src/``, and nothing outside the checkout is read or written.
"""

from __future__ import annotations

import os
import time

T0 = time.perf_counter()  # "process start" for offline_pc's setup_s

# One BLAS thread, here and in the gateway child (which inherits it), set
# before numpy loads.  On a 2-CPU host with CPU steal, a stolen vCPU stalls
# every two-thread BLAS call: with the default, http_pc_open's p90 spread
# over five seeds was 0.40; pinned, 0.08.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from typing import Dict  # noqa: E402

from common import (  # noqa: E402
    END_TO_END,
    OUT_DIR,
    PER_LAYER,
    SRC,
    emit,
    environment,
    make_workdir,
)

WORKLOADS = ("offline_pc", "http_toy_1c", "http_pc_open")


def run_offline(seed: int, seconds: float, trace: bool, work) -> Dict:
    import offline
    from tracing import Tracer

    plain = offline.run(seed, seconds, Tracer(enabled=False), work, T0)
    if not trace:
        return plain
    tracer = Tracer()
    traced = offline.run(seed, seconds, tracer, work, T0)
    trace_dir = OUT_DIR / "traces" / f"offline_pc-seed{seed}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.dump(trace_dir / "bench.jsonl")
    layers = {name: 0.0 for name in PER_LAYER}
    layers.update(offline.layer_metrics(tracer))
    return combine(plain, traced, layers)


def run_serving(workload: str, seed: int, seconds: float, trace: bool, work) -> Dict:
    import serving
    from tracing import Tracer

    tracer = Tracer(enabled=trace)
    dep = serving.prepare(workload, work, tracer)
    plain = serving.run(workload, dep, seed, seconds, None)
    if not trace:
        return plain
    trace_dir = OUT_DIR / "traces" / f"{workload}-seed{seed}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    traced = serving.run(workload, dep, seed, seconds, trace_dir)
    tracer.dump(trace_dir / "bench.jsonl")
    import offline

    layers = offline.layer_metrics(tracer)
    layers.update(traced["loadgen"])
    layers.update(traced["layers"])
    return combine(plain, traced, layers)


def combine(plain: Dict, traced: Dict, layers: Dict[str, float]) -> Dict:
    """The result of a trace run: per-layer metrics of the traced pass, the
    overhead against the untraced pass, and both passes' answer counts."""
    layers["trace.overhead_frac"] = (
        traced["metrics"]["p50_ms"] / plain["metrics"]["p50_ms"] - 1.0
    )
    return {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "samples": {"untraced": plain["samples"], "traced": traced["samples"]},
        "metrics": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = make_workdir()
    try:
        if args.workload == "offline_pc":
            result = run_offline(args.seed, args.seconds, bool(args.trace), work)
        else:
            result = run_serving(
                args.workload, args.seed, args.seconds, bool(args.trace), work
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info = environment(args.workload, args.seed, result["samples"])
    info["trace"] = args.trace
    emit(
        info,
        correct=result["failed"] == 0,
        attempted=result["attempted"],
        failed=result["failed"],
        metrics=result["metrics"],
        table=PER_LAYER if args.trace else END_TO_END,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
