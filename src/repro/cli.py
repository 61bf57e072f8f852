"""Command-line interface.

Usage::

    python -m repro.cli list
    python -m repro.cli run table3
    python -m repro.cli run fig6 --full --tests 25 --topk-cutoff 7200 --rcbt-cutoff 7200
    python -m repro.cli run all --jobs -1      # fold-parallel CV, all cores
    python -m repro.cli run fig4 --engine reference --arithmetization mean
    python -m repro.cli run fig6 --jobs -1 --journal fig6.jsonl --task-timeout 600
    python -m repro.cli run fig6 --jobs -1 --journal fig6.jsonl --resume
    python -m repro.cli demo          # the Table 1 running example end to end
    python -m repro.cli predict --train train.json --data queries.json \
        --save-artifact model.npz
    python -m repro.cli predict --artifact model.npz --data queries.json
    python -m repro.cli explain --train train.json --data queries.json
    python -m repro.cli serve --model tumor=model.npz --port 8000
    python -m repro.cli serve --model tumor=model.npz --port 8000 \
        --supervise --admin-token secret --max-restarts 3
    python -m repro.cli bench --artifact model.npz --threads 8
    python -m repro.cli refresh --artifact model.npz --train grown.json
    python -m repro.cli replay --url http://127.0.0.1:8000 --drivers 4 \
        --admin-token secret --speed 1

The model-serving subcommands mirror the HTTP gateway's verbs —
``predict``, ``explain``, ``serve`` — and share its error surface: exit
codes map 1:1 onto the HTTP statuses of :mod:`repro.serving.surface`.

Every command prints the engine counters afterwards: evaluator cache
hits/misses and entries/capacity, evaluator builds, batch sizes, serving
latency/occupancy, and per-phase wall time.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Any, List, Optional

from .core.arithmetization import COMBINERS
from .core.bitset import flush_kernel_counters
from .core.estimator import ENGINES
from .core.fast import evaluator_cache_info, set_evaluator_cache_size
from .errors import CircuitOpen, ReproError, ServiceOverloaded
from .evaluation.timing import engine_counters
from .experiments.base import ExperimentConfig
from .experiments.registry import experiment_ids, run_experiment
from .serving.surface import (
    EXIT_CORRUPT,
    EXIT_ERROR,
    EXIT_OVERLOAD,
    EXIT_STALE,
    exit_code,
)

#: The serving subcommands (one per HTTP verb, plus the benchmark); these
#: share the surface's exit-code mapping and print the counter dump.
_SERVING_COMMANDS = ("predict", "explain", "serve", "bench", "refresh", "replay")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "BSTC reproduction (ICDE 2008): run paper tables/figures and demos"
        ),
    )
    parser.add_argument(
        "--evaluator-cache-size",
        type=int,
        default=None,
        metavar="N",
        help=(
            "bound on the process-wide evaluator LRU cache (each entry holds"
            " dense per-class tables); the counter dump reports"
            " entries/capacity"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiment ids")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id from 'list', or 'all'")
    run.add_argument(
        "--full",
        action="store_true",
        help="use paper-sized datasets instead of scaled profiles",
    )
    run.add_argument("--tests", type=int, default=5, help="tests per size")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--topk-cutoff", type=float, default=10.0)
    run.add_argument("--rcbt-cutoff", type=float, default=10.0)
    run.add_argument("--forest-trees", type=int, default=50)
    run.add_argument(
        "--engine",
        choices=sorted(ENGINES),
        default="fast",
        help="BSTCE engine for BSTC runs (default: fast)",
    )
    run.add_argument(
        "--arithmetization",
        choices=sorted(COMBINERS),
        default="min",
        help="BSTC per-cell combiner (default: min, the paper's Algorithm 5)",
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="CV fold parallelism: 1 = serial, -1 = one worker per CPU",
    )
    run.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help=(
            "append each completed CV test result to this JSONL checkpoint"
            " journal as it lands, so an interrupted study loses at most the"
            " fold in flight; records are keyed per dataset and config, so"
            " one journal can back 'run all'"
        ),
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help=(
            "skip tests already present in the --journal checkpoint (only"
            " those journaled under the same dataset and config); the"
            " resumed study is bit-identical to an uninterrupted run"
        ),
    )
    run.add_argument(
        "--retries",
        type=int,
        default=2,
        help=(
            "retry attempts for crashed/corrupt CV workers before the fold"
            " degrades to a DNF record (default: 2)"
        ),
    )
    run.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-fold wall-clock ceiling; a worker past it is killed and the"
            " fold recorded as DNF (default: no limit)"
        ),
    )
    run.add_argument(
        "--max-rule-groups",
        type=int,
        default=None,
        help=(
            "cap on rule groups a mining phase may emit before it DNFs"
            " (default: unlimited)"
        ),
    )
    run.add_argument(
        "--max-candidates",
        type=int,
        default=None,
        help=(
            "cap on a miner's candidate/search set size before it DNFs —"
            " the memory guard for CHARM-style candidate explosion"
            " (default: unlimited)"
        ),
    )

    sub.add_parser("demo", help="run the Table 1 running example end to end")

    predict = sub.add_parser(
        "predict",
        help=(
            "classify query samples with a fitted BSTC — from a compiled"
            " model artifact or by fitting training data"
        ),
    )
    predict.add_argument(
        "--artifact",
        metavar="PATH",
        help="compiled .npz model artifact (see 'predict --save-artifact')",
    )
    predict.add_argument(
        "--train",
        metavar="PATH",
        help=(
            "relational JSON training dataset to fit on (with --artifact"
            " and --on-corrupt rebuild: the rebuild source)"
        ),
    )
    predict.add_argument(
        "--on-corrupt",
        choices=("fail", "quarantine", "rebuild"),
        default="quarantine",
        help=(
            "what to do when the artifact fails integrity verification:"
            " fail in place, quarantine it (default), or quarantine and"
            " refit from --train (default: quarantine)"
        ),
    )
    predict.add_argument(
        "--data",
        metavar="PATH",
        required=True,
        help="relational JSON file whose samples are the queries",
    )
    predict.add_argument(
        "--arithmetization",
        choices=sorted(COMBINERS),
        default="min",
        help="per-cell combiner when fitting with --train (default: min)",
    )
    predict.add_argument(
        "--expect-fingerprint",
        metavar="SHA",
        default=None,
        help=(
            "require the artifact to carry exactly this training-data"
            " fingerprint (refuses to serve a stale model)"
        ),
    )
    predict.add_argument(
        "--save-artifact",
        metavar="PATH",
        default=None,
        help="after fitting, write the compiled model artifact here",
    )

    explain = sub.add_parser(
        "explain",
        help=(
            "report the cell rules supporting each classification"
            " (Section 5.3.2) — needs the training samples, so fit with"
            " --train (artifact-only models cannot explain)"
        ),
    )
    explain.add_argument(
        "--artifact",
        metavar="PATH",
        help=(
            "compiled .npz model artifact (explain will be refused: the"
            " artifact does not carry the training samples)"
        ),
    )
    explain.add_argument(
        "--train",
        metavar="PATH",
        help="relational JSON training dataset to fit on",
    )
    explain.add_argument(
        "--on-corrupt",
        choices=("fail", "quarantine", "rebuild"),
        default="quarantine",
        help=(
            "what to do when the artifact fails integrity verification"
            " (default: quarantine)"
        ),
    )
    explain.add_argument(
        "--data",
        metavar="PATH",
        required=True,
        help="relational JSON file whose samples are the queries",
    )
    explain.add_argument(
        "--arithmetization",
        choices=sorted(COMBINERS),
        default="min",
        help="per-cell combiner when fitting with --train (default: min)",
    )
    explain.add_argument(
        "--min-satisfaction",
        type=float,
        default=0.5,
        help=(
            "the Section 5.3.2 threshold c: only cell rules at or above"
            " this satisfaction are reported (default: 0.5)"
        ),
    )
    explain.add_argument(
        "--limit",
        type=int,
        default=None,
        help="cap reported rules per query, highest satisfaction first",
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "run the multi-tenant HTTP model gateway (POST"
            " /v1/models/{name}:predict, :explain, GET /v1/models, /health)"
        ),
    )
    serve.add_argument(
        "--model",
        action="append",
        default=None,
        metavar="NAME=PATH",
        help=(
            "deploy the compiled .npz artifact PATH under NAME (repeat for"
            " several models)"
        ),
    )
    serve.add_argument(
        "--artifact",
        metavar="PATH",
        help="shorthand for --model default=PATH",
    )
    serve.add_argument(
        "--train",
        metavar="PATH",
        help=(
            "fit on this relational JSON training dataset and deploy the"
            " fitted (explain-capable) model under --name"
        ),
    )
    serve.add_argument(
        "--name",
        default="default",
        help="slot name for the --train deployment (default: default)",
    )
    serve.add_argument(
        "--arithmetization",
        choices=sorted(COMBINERS),
        default="min",
        help="per-cell combiner when fitting with --train (default: min)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=8000,
        help="bind port (0 picks an ephemeral port; default: 8000)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help=(
            "per-slot multi-process evaluation pool size for artifact"
            " deployments (0 = in-process; the memmapped artifact shares"
            " table pages across workers)"
        ),
    )
    serve.add_argument(
        "--tenant-quota",
        type=int,
        default=None,
        help=(
            "max in-flight requests per named tenant across the registry"
            " (default: no quota)"
        ),
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="largest coalesced kernel batch per slot (default: 32)",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="default per-request deadline (default: none)",
    )
    serve.add_argument(
        "--shed-high",
        type=int,
        default=None,
        help="queue depth that trips load shedding (default: disabled)",
    )
    serve.add_argument(
        "--ready-file",
        metavar="PATH",
        default=None,
        help=(
            "write the gateway's base URL here the moment the socket is"
            " listening, and remove the file on drain — the supervisor's"
            " (and smoke scripts') readiness signal"
        ),
    )
    serve.add_argument(
        "--admin-token",
        metavar="TOKEN",
        default=None,
        help=(
            "enable the token-gated /admin/v1 control plane (deploy,"
            " refresh, counters); defaults to $REPRO_ADMIN_TOKEN, and the"
            " admin plane stays disabled when neither is set"
        ),
    )
    serve.add_argument(
        "--state-file",
        metavar="PATH",
        default=None,
        help=(
            "persist the artifact deployment set here after every deploy"
            " and restore it on boot — how a supervised restart comes back"
            " with the last-known-good models"
        ),
    )
    serve.add_argument(
        "--supervise",
        action="store_true",
        help=(
            "run the gateway as a supervised child process: readiness"
            " file, liveness probes, crash restarts with deterministic"
            " backoff, and a restart budget that escalates to exit code 6"
        ),
    )
    serve.add_argument(
        "--max-restarts",
        type=int,
        default=3,
        help=(
            "crash recoveries the supervisor performs before escalating"
            " (default: 3; only with --supervise)"
        ),
    )
    serve.add_argument(
        "--restart-backoff",
        type=float,
        default=0.25,
        help=(
            "base of the supervisor's exponential restart delay in seconds"
            " (default: 0.25; only with --supervise)"
        ),
    )

    bench = sub.add_parser(
        "bench",
        help=(
            "measure micro-batched serving throughput (PredictionService)"
            " against serial single-query evaluation"
        ),
    )
    bench.add_argument(
        "--artifact", metavar="PATH", help="compiled .npz model artifact"
    )
    bench.add_argument(
        "--train",
        metavar="PATH",
        help=(
            "relational JSON training dataset to fit on (with --artifact"
            " and --on-corrupt rebuild: the rebuild source)"
        ),
    )
    bench.add_argument(
        "--on-corrupt",
        choices=("fail", "quarantine", "rebuild"),
        default="quarantine",
        help=(
            "what to do when the artifact fails integrity verification"
            " (default: quarantine)"
        ),
    )
    bench.add_argument(
        "--arithmetization",
        choices=sorted(COMBINERS),
        default="min",
        help="per-cell combiner when fitting with --train (default: min)",
    )
    bench.add_argument(
        "--threads", type=int, default=8, help="concurrent callers (default: 8)"
    )
    bench.add_argument(
        "--requests",
        type=int,
        default=64,
        help="total prediction requests (default: 64)",
    )
    bench.add_argument(
        "--max-batch",
        type=int,
        default=8,
        help="largest coalesced kernel batch (default: 8)",
    )
    bench.add_argument(
        "--query-items",
        type=int,
        default=None,
        help="expressed items per synthetic query (default: n_items/20)",
    )
    bench.add_argument("--seed", type=int, default=1)

    refresh = sub.add_parser(
        "refresh",
        help=(
            "delta-refresh a compiled artifact against grown training data"
            " (only the plan blocks the appended rows touch are recomputed)"
        ),
        description=(
            "Recompile a saved .npz model against an append-only grown"
            " training dataset: per-class state covering the original rows"
            " is copied verbatim, only the blocks the new rows touch run"
            " fresh matmuls, and the result is bit-identical to a cold"
            " refit + save.  The input file is replaced atomically unless"
            " --out redirects the refreshed artifact elsewhere."
        ),
    )
    refresh.add_argument(
        "--artifact",
        required=True,
        metavar="PATH",
        help="compiled .npz model artifact to refresh",
    )
    refresh.add_argument(
        "--train",
        required=True,
        metavar="PATH",
        help=(
            "relational JSON of the GROWN training dataset; its first rows"
            " must be exactly the artifact's original training data"
        ),
    )
    refresh.add_argument(
        "--out",
        metavar="PATH",
        help=(
            "write the refreshed artifact here instead of replacing"
            " --artifact in place"
        ),
    )
    refresh.add_argument(
        "--expect-fingerprint",
        metavar="HEX",
        help=(
            "require the input artifact to carry this training-data"
            " fingerprint before refreshing"
        ),
    )

    replay = sub.add_parser(
        "replay",
        help=(
            "generate a seeded workload trace and replay it against an"
            " in-process registry or a live gateway, with exactly-once"
            " response accounting and counter reconciliation"
        ),
    )
    replay.add_argument("--seed", type=int, default=7)
    replay.add_argument(
        "--requests",
        type=int,
        default=1000,
        help="request events in the generated trace (default: 1000)",
    )
    replay.add_argument(
        "--rate",
        type=float,
        default=500.0,
        help="nominal offered load in queries/second (default: 500)",
    )
    replay.add_argument(
        "--arrival",
        choices=("uniform", "poisson", "diurnal", "burst"),
        default="poisson",
        help="open-loop arrival process (default: poisson)",
    )
    replay.add_argument(
        "--chaos",
        choices=("none", "poison", "storm", "swap", "kill", "full"),
        default="none",
        help=(
            "adversarial mix blended into the trace: poison queries,"
            " deadline storms, mid-run (corrupt) hot swaps, a process"
            " kill, or all of poison/storm/swap plus a breaker-tripping"
            " error window (default: none)"
        ),
    )
    replay.add_argument(
        "--tenants",
        type=int,
        default=0,
        help="named tenants to spread traffic over (0 = anonymous)",
    )
    replay.add_argument(
        "--tenant-quota",
        type=int,
        default=None,
        help="per-tenant in-flight quota for the in-process registry",
    )
    replay.add_argument(
        "--explain-fraction",
        type=float,
        default=0.0,
        help="fraction of requests using the explain verb (default: 0)",
    )
    replay.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="baseline per-request deadline carried in the trace",
    )
    replay.add_argument(
        "--trace",
        metavar="PATH",
        help="write the generated trace JSONL here (byte-identical per seed)",
    )
    replay.add_argument(
        "--load",
        metavar="PATH",
        help="replay an existing trace file instead of generating one",
    )
    replay.add_argument(
        "--url",
        metavar="URL",
        help=(
            "replay against a live gateway at this base URL instead of an"
            " in-process registry; with --admin-token the gateway's"
            " control plane drives hot swaps and counter reconciliation"
            " over the wire (without it, controls are skipped and the"
            " client ledger reconciles alone)"
        ),
    )
    replay.add_argument(
        "--admin-token",
        metavar="TOKEN",
        default=None,
        help=(
            "the gateway's admin token for --url replays: unlocks"
            " GET /admin/v1/counters reconciliation and swap controls"
            " (defaults to $REPRO_ADMIN_TOKEN)"
        ),
    )
    replay.add_argument(
        "--drivers",
        type=int,
        default=1,
        help=(
            "shard the trace across this many replay driver processes"
            " (requires --url; requests split deterministically by id,"
            " reports merge into one exactly-once ledger; default: 1)"
        ),
    )
    replay.add_argument(
        "--speed",
        type=float,
        default=0.0,
        help=(
            "trace-time to wall-time scale: 1 = real time, 2 = twice as"
            " fast, 0 = unpaced (default: 0)"
        ),
    )
    replay.add_argument(
        "--max-workers",
        type=int,
        default=64,
        help="submitter thread pool size (default: 64)",
    )
    replay.add_argument(
        "--capacity",
        action="store_true",
        help=(
            "run the SLO capacity ramp instead of a single replay and"
            " write BENCH_replay.json (honors REPRO_BENCH_SMOKE)"
        ),
    )
    replay.add_argument(
        "--report",
        metavar="PATH",
        default="BENCH_replay.json",
        help="capacity report path (default: BENCH_replay.json)",
    )
    replay.add_argument(
        "--start-qps",
        type=float,
        default=50.0,
        help="capacity ramp starting rate (default: 50)",
    )
    replay.add_argument(
        "--rounds",
        type=int,
        default=6,
        help="capacity ramp round cap (default: 6)",
    )
    replay.add_argument(
        "--slo-p99-ms",
        type=float,
        default=250.0,
        help="capacity SLO: answered p99 ceiling (default: 250)",
    )
    replay.add_argument(
        "--slo-error-rate",
        type=float,
        default=0.02,
        help="capacity SLO: unanswered-fraction budget (default: 0.02)",
    )
    replay.add_argument(
        "--artifact", metavar="PATH", help="compiled .npz model artifact"
    )
    replay.add_argument(
        "--train",
        metavar="PATH",
        help="relational JSON training dataset to fit the served model on",
    )
    replay.add_argument(
        "--arithmetization",
        choices=sorted(COMBINERS),
        default="min",
        help="per-cell combiner when fitting with --train (default: min)",
    )
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        scale="full" if args.full else "scaled",
        n_tests=args.tests,
        seed=args.seed,
        topk_cutoff=args.topk_cutoff,
        rcbt_cutoff=args.rcbt_cutoff,
        forest_trees=args.forest_trees,
        engine=args.engine,
        arithmetization=args.arithmetization,
        n_jobs=args.jobs,
        retries=args.retries,
        task_timeout=(
            args.task_timeout if args.task_timeout is not None else math.inf
        ),
        journal=args.journal,
        resume=args.resume,
        max_rule_groups=args.max_rule_groups,
        max_candidates=args.max_candidates,
    )


def _print_counters() -> None:
    """The shared counter dump: kernel tallies folded in, evaluator cache
    occupancy recorded, then the report."""
    flush_kernel_counters(engine_counters)
    entries, capacity = evaluator_cache_info()
    engine_counters.observe_max("evaluator_cache_entries", entries)
    engine_counters.observe_max("evaluator_cache_capacity", capacity)
    print(engine_counters.report(title="engine counters"))


def _load_model(args: argparse.Namespace):
    """The classifier behind ``predict``/``explain``/``bench``: loaded from
    a compiled artifact, or fitted on --train data.

    ``--artifact`` and ``--train`` are exclusive unless ``--on-corrupt
    rebuild`` asks for the refit fallback, which needs both.
    """
    from .core.classifier import BSTClassifier
    from .datasets.io import load_relational_json

    on_corrupt = getattr(args, "on_corrupt", "quarantine")
    if not args.artifact and not args.train:
        raise ValueError("one of --artifact or --train is required")
    if args.artifact and args.train and on_corrupt != "rebuild":
        raise ValueError(
            "--artifact and --train are mutually exclusive unless"
            " --on-corrupt rebuild uses --train as the rebuild source"
        )
    if args.artifact:
        train_dataset = (
            load_relational_json(args.train) if args.train else None
        )
        return BSTClassifier.load(
            args.artifact,
            expected_fingerprint=getattr(args, "expect_fingerprint", None),
            on_corrupt=on_corrupt,
            train_dataset=train_dataset,
            arithmetization=args.arithmetization,
        )
    dataset = load_relational_json(args.train)
    return BSTClassifier(arithmetization=args.arithmetization).fit(dataset)


def _run_predict(args: argparse.Namespace) -> int:
    from .datasets.io import load_relational_json

    clf = _load_model(args)
    if args.save_artifact:
        print(f"artifact written: {clf.save(args.save_artifact)}")
    data = load_relational_json(args.data)
    predictions = clf.predict_batch(data.bool_matrix)
    class_names = clf.dataset.class_names
    for i, label in enumerate(predictions):
        name = (
            data.sample_names[i] if data.sample_names is not None else f"q{i}"
        )
        print(f"{name}\t{class_names[int(label)]}")
    return 0


def _run_refresh(args: argparse.Namespace) -> int:
    from .core.artifact import refresh_artifact
    from .datasets.io import load_relational_json

    dataset = load_relational_json(args.train)
    target = refresh_artifact(
        args.artifact,
        dataset,
        out_path=args.out,
        expected_fingerprint=args.expect_fingerprint,
    )
    print(f"artifact refreshed: {target}")
    return 0


def _run_explain(args: argparse.Namespace) -> int:
    from .datasets.io import load_relational_json
    from .rules.boolexpr import pretty

    clf = _load_model(args)
    data = load_relational_json(args.data)
    class_names = clf.dataset.class_names
    item_names = clf.dataset.item_names
    for i, row in enumerate(data.bool_matrix):
        explanation = clf.explain(
            row, min_satisfaction=args.min_satisfaction, limit=args.limit
        )
        name = (
            data.sample_names[i] if data.sample_names is not None else f"q{i}"
        )
        values = ", ".join(f"{v:.4f}" for v in explanation.class_values)
        print(
            f"{name}\t{class_names[explanation.predicted]}"
            f"\t(class values: {values})"
        )
        for e in explanation.evidence:
            print(
                f"  [{e.satisfaction:.3f}] {item_names[e.gene]}:"
                f" {pretty(e.rule, item_names)}"
            )
    return 0


def _parse_model_specs(args: argparse.Namespace) -> List[tuple]:
    """``--model NAME=PATH`` (repeated) plus the ``--artifact`` shorthand."""
    specs: List[tuple] = []
    for spec in args.model or ():
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise ValueError(
                f"--model expects NAME=PATH, got {spec!r}"
            )
        specs.append((name, path))
    if args.artifact:
        specs.append(("default", args.artifact))
    return specs


def _admin_token_from(args: argparse.Namespace) -> Optional[str]:
    """``--admin-token`` with the ``REPRO_ADMIN_TOKEN`` env fallback."""
    import os

    return args.admin_token or os.environ.get("REPRO_ADMIN_TOKEN") or None


def _write_ready_file(path: str, url: str) -> None:
    """Atomically publish the gateway's base URL (the readiness signal)."""
    import os
    from pathlib import Path

    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(url + "\n", encoding="utf-8")
    os.replace(tmp, target)


def _run_serve_supervised(args: argparse.Namespace) -> int:
    """``serve --supervise``: run the gateway as a supervised child.

    The child is this same CLI minus the supervise flags; crashes restart
    it with deterministic backoff, reloading the last-known-good artifact
    set from the state file, until the restart budget escalates to exit
    code :data:`~repro.serving.surface.EXIT_SUPERVISOR`.
    """
    import signal
    import tempfile
    from pathlib import Path

    from .serving import GatewaySupervisor, gateway_env, serve_command

    specs = _parse_model_specs(args)
    if not specs:
        raise ValueError(
            "--supervise serves artifact deployments: pass --model"
            " NAME=PATH or --artifact PATH (a --train fit cannot be"
            " reloaded identically after a crash)"
        )
    if args.port == 0:
        raise ValueError(
            "--supervise needs a fixed --port: a restarted gateway must"
            " rebind the address its clients already hold"
        )
    admin_token = _admin_token_from(args)
    workdir = Path(tempfile.mkdtemp(prefix="repro-supervise-"))
    ready_file = (
        Path(args.ready_file) if args.ready_file else workdir / "ready"
    )
    state_file = (
        Path(args.state_file)
        if args.state_file
        else workdir / "serve-state.json"
    )
    extra: List[str] = [
        "--workers", str(args.workers),
        "--max-batch", str(args.max_batch),
    ]
    if args.tenant_quota is not None:
        extra += ["--tenant-quota", str(args.tenant_quota)]
    if args.deadline_ms is not None:
        extra += ["--deadline-ms", str(args.deadline_ms)]
    if args.shed_high is not None:
        extra += ["--shed-high", str(args.shed_high)]
    command = serve_command(
        dict(specs),
        port=args.port,
        host=args.host,
        ready_file=ready_file,
        state_file=state_file,
        admin_token=admin_token,
        extra_args=extra,
    )
    supervisor = GatewaySupervisor(
        command,
        ready_file=ready_file,
        max_restarts=args.max_restarts,
        backoff_base=args.restart_backoff,
        env=gateway_env(),
        log=lambda message: print(f"supervisor: {message}", file=sys.stderr),
    )

    def _graceful(signum: int, frame: Any) -> None:
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _graceful)
    try:
        supervisor.start()
        print(
            f"supervised gateway serving at {supervisor.url}"
            f" (child pid {supervisor.pid},"
            f" restart budget {args.max_restarts})"
        )
        # Raises RestartBudgetExhausted -> exit code EXIT_SUPERVISOR via
        # the shared error surface in main().
        return supervisor.run_forever()
    except KeyboardInterrupt:
        print("stopping supervised gateway", file=sys.stderr)
        return supervisor.stop()
    finally:
        signal.signal(signal.SIGTERM, previous)
        supervisor.stop()


def _run_serve(args: argparse.Namespace) -> int:
    import signal

    from .serving import (
        GatewayServer,
        ModelRegistry,
        ServeConfig,
        read_state_file,
        write_state_file,
    )

    if args.supervise:
        return _run_serve_supervised(args)
    specs = _parse_model_specs(args)
    if args.state_file:
        restored = read_state_file(args.state_file)
        if restored:
            # The last-known-good deployment set wins over the boot argv:
            # an admin-plane deploy that happened after launch must survive
            # a supervised restart.
            merged = dict(specs)
            merged.update(restored)
            specs = sorted(merged.items())
            print(
                f"restored {len(restored)} deployment(s) from"
                f" {args.state_file}"
            )
    if not specs and not args.train:
        raise ValueError(
            "nothing to serve: pass --model NAME=PATH, --artifact PATH,"
            " or --train PATH"
        )
    admin_token = _admin_token_from(args)
    config = ServeConfig(
        max_batch=args.max_batch,
        default_deadline_ms=args.deadline_ms,
        shed_high=args.shed_high,
        workers=args.workers,
        admin_token=admin_token,
    )
    registry = ModelRegistry(config, tenant_quota=args.tenant_quota)
    try:
        for name, path in specs:
            info = registry.deploy(name, path)
            print(
                f"deployed {info.name} v{info.version}"
                f" ({info.n_classes} classes, {info.n_items} items,"
                f" workers={info.workers})"
            )
        if args.train:
            from .core.classifier import BSTClassifier
            from .datasets.io import load_relational_json

            dataset = load_relational_json(args.train)
            clf = BSTClassifier(arithmetization=args.arithmetization).fit(
                dataset
            )
            info = registry.deploy_model(args.name, clf)
            print(
                f"deployed {info.name} v{info.version} (fitted in-memory,"
                " explain-capable)"
            )
        if args.state_file:
            write_state_file(registry.artifact_map(), args.state_file)
        gateway = GatewayServer(
            registry,
            args.host,
            args.port,
            admin_token=admin_token,
            state_file=args.state_file,
        )
        print(f"gateway listening on {gateway.url}")
        if admin_token:
            print("admin control plane enabled at /admin/v1 (token-gated)")
        if args.ready_file:
            _write_ready_file(args.ready_file, gateway.url)

        def _graceful(signum: int, frame: Any) -> None:
            # SIGTERM (systemd, container runtimes, CI) drains exactly like
            # Ctrl-C: stop accepting, answer everything admitted, exit 0.
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGTERM, _graceful)
        try:
            gateway.serve_forever()
        except KeyboardInterrupt:
            print("draining and shutting down", file=sys.stderr)
        finally:
            signal.signal(signal.SIGTERM, previous)
            if args.ready_file:
                # Readiness is revoked before the drain starts, so a
                # supervisor never routes to a gateway that is going away.
                try:
                    import os

                    os.unlink(args.ready_file)
                except OSError:
                    pass
            gateway.close()
    finally:
        # Registry close retires every slot: each service queue drains its
        # admitted requests before the worker stops, so no accepted request
        # is dropped on the floor by a shutdown signal.
        registry.close()
    return 0


def _run_serve_bench(args: argparse.Namespace) -> int:
    import threading
    import time

    import numpy as np

    from .serving import PredictionService, ServeConfig, ServiceError

    clf = _load_model(args)
    n_items = clf.dataset.n_items
    rng = np.random.default_rng(args.seed)
    per_query = args.query_items or max(1, n_items // 20)
    per_query = min(per_query, n_items)
    queries = np.zeros((args.requests, n_items), dtype=bool)
    for row in queries:
        row[rng.choice(n_items, size=per_query, replace=False)] = True

    started = time.perf_counter()
    for query in queries:
        clf.classification_values(query)
    serial_elapsed = time.perf_counter() - started
    serial_qps = args.requests / serial_elapsed if serial_elapsed else 0.0

    per_thread = max(1, args.requests // args.threads)
    outcomes_lock = threading.Lock()
    outcomes = {"ok": 0, "rejected": 0}
    last_rejection: List[ServiceError] = []
    with PredictionService(clf, ServeConfig(max_batch=args.max_batch)) as service:

        def caller(thread_id: int) -> None:
            lo = thread_id * per_thread
            for query in queries[lo : lo + per_thread]:
                try:
                    service.predict(query)
                except (ServiceOverloaded, CircuitOpen) as exc:
                    with outcomes_lock:
                        outcomes["rejected"] += 1
                        last_rejection[:] = [exc]
                else:
                    with outcomes_lock:
                        outcomes["ok"] += 1

        threads = [
            threading.Thread(target=caller, args=(i,))
            for i in range(args.threads)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service_elapsed = time.perf_counter() - started
    served = outcomes["ok"]
    if served == 0 and last_rejection:
        # The service refused every request — surface the overload class
        # to the exit-code mapping instead of reporting 0 q/s as success.
        raise last_rejection[0]
    service_qps = served / service_elapsed if service_elapsed else 0.0
    batches = service.counters.get("service_batches")
    mean_batch = service.counters.get("service_batched_queries") / max(batches, 1)

    print(f"serial   : {args.requests} requests, {serial_qps:10.1f} q/s")
    print(
        f"service  : {served} requests over {args.threads} threads,"
        f" {service_qps:10.1f} q/s"
        f" (max_batch={args.max_batch}, mean batch {mean_batch:.2f})"
    )
    if outcomes["rejected"]:
        print(f"rejected : {outcomes['rejected']} requests (overload/breaker)")
    if serial_qps > 0:
        print(f"speedup  : {service_qps / serial_qps:.2f}x")
    return 0


def _chaos_preset(name: str, duration_ms: float):
    """The named chaos mixes, scaled to the trace's nominal length."""
    from .replay import ChaosMix

    third = round(duration_ms / 3.0, 3)
    if name == "poison":
        return ChaosMix(poison_fraction=0.02)
    if name == "storm":
        return ChaosMix(deadline_storms=((third, 2 * third, 0.0),))
    if name == "swap":
        return ChaosMix(
            corrupt_swaps_at_ms=(round(duration_ms * 0.25, 3),),
            swaps_at_ms=(round(duration_ms * 0.6, 3),),
        )
    if name == "kill":
        # One SIGKILL early enough that the trace outlives the restart;
        # applied only by HTTP targets holding a supervisor handle (the
        # canned end-to-end run is repro.replay.run_kill_chaos).
        return ChaosMix(kills_at_ms=(round(duration_ms * 0.3, 3),))
    if name == "full":
        return ChaosMix(
            poison_fraction=0.02,
            deadline_storms=((third, round(third * 1.5, 3), 0.0),),
            corrupt_swaps_at_ms=(round(duration_ms * 0.25, 3),),
            swaps_at_ms=(round(duration_ms * 0.75, 3),),
            error_windows=((5, 10),),
        )
    return ChaosMix()


def _replay_model(args: argparse.Namespace):
    """The served model: --artifact/--train like the other serving verbs,
    falling back to the paper's Table 1 running example (tiny, fast, and
    fully deterministic) so ``python -m repro replay --seed 7`` is
    self-contained."""
    if args.artifact or args.train:
        return _load_model(args)
    from .core.classifier import BSTClassifier
    from .datasets.dataset import running_example

    return BSTClassifier(arithmetization=args.arithmetization).fit(
        running_example()
    )


def _gateway_n_items(url: str, model: str) -> int:
    import json as _json
    import urllib.request

    with urllib.request.urlopen(
        f"{url.rstrip('/')}/v1/models/{model}", timeout=10.0
    ) as response:
        return int(_json.loads(response.read().decode("utf-8"))["n_items"])


def _run_replay(args: argparse.Namespace) -> int:
    import os
    import tempfile

    from .replay import (
        HttpTarget,
        ReplayDriver,
        Slo,
        TraceConfig,
        config_from_header,
        generate_trace,
        load_trace,
        prepare_inprocess_target,
        run_sharded,
        search_capacity,
        write_bench_report,
        write_trace,
    )

    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    requests = min(args.requests, 120) if smoke else args.requests
    if args.drivers < 1:
        raise ValueError("--drivers must be >= 1")
    if args.drivers > 1 and not args.url:
        raise ValueError(
            "--drivers shards an HTTP replay across processes; pass --url"
            " (an in-process registry cannot be shared between driver"
            " processes)"
        )

    # The workload: an existing trace file, or a fresh seeded generation.
    classifier = None if args.url else _replay_model(args)
    if args.load:
        trace = load_trace(args.load)
        config = config_from_header(trace.header)
    else:
        if args.url:
            n_items = _gateway_n_items(args.url, "default")
        else:
            n_items = classifier.dataset.n_items
        duration_ms = requests / args.rate * 1000.0
        config = TraceConfig(
            seed=args.seed,
            requests=requests,
            rate_qps=args.rate,
            arrival=args.arrival,
            n_items=n_items,
            tenants=tuple(f"t{i}" for i in range(args.tenants)),
            explain_fraction=args.explain_fraction,
            deadline_ms=args.deadline_ms,
            chaos=_chaos_preset(args.chaos, duration_ms),
        )
        trace = generate_trace(config)
    if args.trace:
        print(f"trace written: {write_trace(trace, args.trace)}")

    if args.capacity:
        if args.url:
            raise ValueError(
                "--capacity ramps an in-process registry; it cannot drive"
                " a remote gateway (drop --url)"
            )
        rounds = min(args.rounds, 3) if smoke else args.rounds
        with tempfile.TemporaryDirectory(prefix="repro-replay-") as workdir:
            payload = search_capacity(
                classifier,
                config,
                workdir,
                slo=Slo(
                    p99_ms=args.slo_p99_ms,
                    max_error_rate=args.slo_error_rate,
                ),
                start_qps=args.start_qps,
                growth=2.0,
                max_rounds=rounds,
                max_workers=args.max_workers,
                log=print,
            )
        payload["smoke"] = smoke
        print(f"capacity report: {write_bench_report(payload, args.report)}")
        print(
            f"saturation: {payload['saturation_qps']:.0f} qps"
            f" (p99 {payload['p99_ms_at_saturation']:.1f}ms;"
            f" shed rate at break {payload['shed_rate_at_break']:.3f})"
        )
        return 0

    if args.url:
        target = HttpTarget(args.url, admin_token=_admin_token_from(args))
        if args.drivers > 1:
            report = run_sharded(
                trace,
                target,
                drivers=args.drivers,
                speed=args.speed,
                max_workers=args.max_workers,
            )
        else:
            report = ReplayDriver(target, max_workers=args.max_workers).run(
                trace, speed=args.speed
            )
    else:
        with tempfile.TemporaryDirectory(prefix="repro-replay-") as workdir:
            target = prepare_inprocess_target(
                trace,
                classifier,
                workdir,
                tenant_quota=args.tenant_quota,
            )
            try:
                report = ReplayDriver(
                    target, max_workers=args.max_workers
                ).run(trace, speed=args.speed)
            finally:
                target.registry.close()
    print(report.describe())
    latency = report.latency.to_dict()
    print(
        f"latency   : p50 {latency['p50_ms']:.2f}ms"
        f" p95 {latency['p95_ms']:.2f}ms p99 {latency['p99_ms']:.2f}ms"
        f" (answered {int(latency['count'])})"
    )
    for i, mttr in enumerate(report.mttr_s):
        print(f"mttr      : kill {i} -> first answer {mttr:.2f}s")
    return 0 if report.reconciled else EXIT_ERROR


def _run_demo() -> int:
    from .bst.table import BST
    from .core.classifier import BSTClassifier
    from .core.explain import explain_classification
    from .datasets.dataset import running_example

    dataset = running_example()
    print(BST.build(dataset, 0).render())
    print()
    clf = BSTClassifier().fit(dataset)
    query = frozenset({0, 3, 4})  # g1, g4, g5
    explanation = explain_classification(clf, query, min_satisfaction=0.4)
    print("query expresses g1, g4, g5")
    print(explanation.describe(clf.bsts[explanation.predicted]))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id in experiment_ids():
            print(experiment_id)
        return 0
    if args.command == "demo":
        return _run_demo()
    if args.evaluator_cache_size is not None:
        try:
            set_evaluator_cache_size(args.evaluator_cache_size)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.command in _SERVING_COMMANDS:
        engine_counters.reset()
        handler = {
            "predict": _run_predict,
            "explain": _run_explain,
            "serve": _run_serve,
            "bench": _run_serve_bench,
            "refresh": _run_refresh,
            "replay": _run_replay,
        }[args.command]
        try:
            code = handler(args)
        except ReproError as exc:
            # One error surface: the exception class decides the exit code
            # exactly as it decides the gateway's HTTP status.
            print(f"error: {exc}", file=sys.stderr)
            _print_counters()
            return exit_code(exc)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        _print_counters()
        return code
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ids = experiment_ids() if args.experiment == "all" else [args.experiment]
    engine_counters.reset()
    for experiment_id in ids:
        try:
            result = run_experiment(experiment_id, config)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        print(result.render())
        print()
    _print_counters()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
