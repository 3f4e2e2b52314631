"""Command-line interface.

The demo paper exposes TeCoRe through a web UI; this CLI exposes the same
workflow for scripted use::

    tecore datasets                       # list selectable datasets
    tecore solvers                        # list registered solvers
    tecore stats --dataset footballdb     # dataset inventory (Section 4 table)
    tecore detect --dataset footballdb --pack sports
    tecore resolve --dataset ranieri --pack running-example --solver nrockit
    tecore resolve --graph mykg.csv --program rules.dl --solver npsl --threshold 0.5
    tecore resolve-batch kg1.csv kg2.csv --pack sports --solver npsl
    tecore resolve-batch kg1.csv kg1b.csv --pack sports --incremental
    tecore watch edits.stream --dataset ranieri --pack running-example
    tecore serve --pack sports --solver nrockit --port 8799
    tecore serve --pack sports --wal-dir /var/lib/tecore/wal   # durable sessions
    tecore verify --runs 25 --seed 2017   # serializability smoke
    tecore chaos --seed 2017 --save-history chaos.json   # kill/restart/certify

``--graph`` accepts any file format supported by :mod:`repro.kg.io`;
``--program`` accepts the Datalog-style rule/constraint syntax; ``watch``
consumes a change-stream file (see :mod:`repro.kg.io.changestream`) and
re-resolves incrementally after every step; ``serve`` runs the concurrent
resolution HTTP service (see :mod:`repro.serve` and ``docs/serving.md``);
``chaos`` SIGKILLs a served workload mid-flight and certifies the combined
pre/post-restart history (see :mod:`repro.verify.chaos`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .core import TeCoRe, available_solvers, render_graph_summary, render_report
from .datasets import available_datasets, load_dataset
from .errors import TecoreError
from .kg import TemporalKnowledgeGraph
from .kg.io import load_change_stream, load_graph
from .logic import available_packs, load_pack, parse_program


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tecore",
        description="TeCoRe: temporal conflict resolution in uncertain temporal knowledge graphs",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("datasets", help="list selectable datasets")
    subparsers.add_parser("solvers", help="list registered solvers")
    subparsers.add_parser("packs", help="list predefined rule/constraint packs")

    def add_input_arguments(sub: argparse.ArgumentParser, with_program: bool = True) -> None:
        sub.add_argument(
            "--dataset", help=f"registered dataset ({', '.join(available_datasets())})"
        )
        sub.add_argument("--graph", help="path to a graph file (.tq/.txt/.nq/.csv/.tsv/.json)")
        sub.add_argument("--scale", type=float, default=0.01, help="dataset scale factor")
        sub.add_argument("--noise", type=float, default=0.0, help="dataset noise ratio")
        sub.add_argument("--seed", type=int, default=2017, help="dataset RNG seed")
        if with_program:
            sub.add_argument("--pack", help=f"predefined pack ({', '.join(available_packs())})")
            sub.add_argument("--program", help="path to a Datalog-style rule/constraint file")

    def add_solver_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--solver", default="nrockit", choices=available_solvers(), help="MAP back-end"
        )

    def add_decomposition_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--decompose",
            action=argparse.BooleanOptionalAction,
            default=False,
            help="solve connected components of the ground program independently",
        )
        sub.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="worker processes for the decomposed solve (1 = sequential)",
        )

    stats = subparsers.add_parser("stats", help="show dataset statistics")
    add_input_arguments(stats, with_program=False)

    detect = subparsers.add_parser("detect", help="detect temporal conflicts")
    add_input_arguments(detect)
    detect.add_argument("--json", action="store_true", help="emit JSON instead of text")

    resolve = subparsers.add_parser("resolve", help="compute the conflict-free MAP state")
    add_input_arguments(resolve)
    add_solver_arguments(resolve)
    resolve.add_argument("--threshold", type=float, default=None, help="derived-fact threshold")
    add_decomposition_arguments(resolve)
    resolve.add_argument("--json", action="store_true", help="emit JSON instead of text")
    resolve.add_argument("--limit", type=int, default=20, help="statements shown per section")

    batch = subparsers.add_parser(
        "resolve-batch",
        help="resolve many graph files with one shared program and solver",
    )
    batch.add_argument(
        "graphs", nargs="+", help="graph files (.tq/.txt/.nq/.csv/.tsv/.json) to resolve"
    )
    batch.add_argument("--pack", help=f"predefined pack ({', '.join(available_packs())})")
    batch.add_argument("--program", help="path to a Datalog-style rule/constraint file")
    add_solver_arguments(batch)
    batch.add_argument("--threshold", type=float, default=None, help="derived-fact threshold")
    add_decomposition_arguments(batch)
    batch.add_argument(
        "--incremental",
        action="store_true",
        help="serve the batch through one incremental session, diffing consecutive graphs",
    )
    batch.add_argument("--json", action="store_true", help="emit JSON instead of text")

    watch = subparsers.add_parser(
        "watch",
        help="replay a change stream against a UTKG, re-resolving incrementally",
    )
    watch.add_argument(
        "stream",
        help="change-stream file (+/- prefixed temporal-quad lines; 'resolve' closes a step)",
    )
    add_input_arguments(watch)
    add_solver_arguments(watch)
    watch.add_argument("--threshold", type=float, default=None, help="derived-fact threshold")
    watch.add_argument(
        "--warm-start",
        action="store_true",
        help="seed dirty-component solves from the previous solution (anytime back-ends)",
    )
    watch.add_argument("--json", action="store_true", help="emit one JSON object per step (JSONL)")

    serve = subparsers.add_parser(
        "serve",
        help="run the concurrent resolution HTTP service (see docs/serving.md)",
    )
    serve.add_argument("--pack", help=f"predefined pack ({', '.join(available_packs())})")
    serve.add_argument("--program", help="path to a Datalog-style rule/constraint file")
    add_solver_arguments(serve)
    serve.add_argument("--threshold", type=float, default=None, help="derived-fact threshold")
    add_decomposition_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8799, help="TCP port (0 picks a free port)")
    serve.add_argument(
        "--batch-max",
        type=int,
        default=8,
        metavar="N",
        help="micro-batch flush size for POST /resolve",
    )
    serve.add_argument(
        "--batch-delay",
        type=float,
        default=0.01,
        metavar="SECONDS",
        help="micro-batch flush deadline (max extra latency a request waits for companions)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        metavar="N",
        help="waiting-request bound; beyond it POST /resolve returns 503",
    )
    serve.add_argument(
        "--no-coalesce",
        action="store_true",
        help="disable coalescing of content-identical in-flight graphs",
    )
    serve.add_argument(
        "--response-cache",
        type=int,
        default=128,
        metavar="N",
        help="LRU bound on cached /resolve responses by graph content (0 disables)",
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=64,
        metavar="N",
        help="LRU bound on concurrently open sessions",
    )
    serve.add_argument(
        "--for-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help="serve for a fixed duration then exit (smoke tests / CI)",
    )
    serve.add_argument(
        "--wal-dir",
        metavar="DIR",
        help="write-ahead session log directory; enables crash recovery "
        "by replay on restart (see docs/serving.md)",
    )
    serve.add_argument(
        "--fsync-policy",
        default="batch",
        choices=("always", "batch", "never"),
        help="when WAL appends are fsynced (default: batch)",
    )
    serve.add_argument(
        "--fsync-batch",
        type=int,
        default=8,
        metavar="N",
        help="records per fsync under --fsync-policy batch",
    )
    serve.add_argument(
        "--fsync-interval",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="max seconds between fsyncs under --fsync-policy batch",
    )
    serve.add_argument(
        "--compact-every",
        type=int,
        default=256,
        metavar="N",
        help="fold the WAL into session snapshots every N records",
    )
    serve.add_argument(
        "--request-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request deadline; expiry answers 504 with Retry-After",
    )
    serve.add_argument(
        "--shed-resolve-at",
        type=int,
        default=None,
        metavar="N",
        help="shed POST /resolve (503) once the batch queue holds N requests, "
        "keeping headroom for session traffic (response-cache hits still served)",
    )
    serve.add_argument(
        "--faults",
        metavar="SPEC",
        help="deterministic fault schedule, e.g. 'crash@wal.append:3,"
        "solver_slow@batcher.solve:1x5' (testing/chaos only)",
    )
    serve.add_argument(
        "--lint",
        default="strict",
        choices=("strict", "off"),
        help="boot-time static analysis: refuse to serve a program with "
        "error-severity findings (default strict)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="resolver worker processes for sharded serving: sessions get "
        "consistent-hash worker affinity, /resolve fans out round-robin, "
        "a killed worker is respawned from a shard-scoped WAL replay "
        "(0 = in-process, the default; see docs/serving.md)",
    )

    chaos = subparsers.add_parser(
        "chaos",
        help="SIGKILL a live `tecore serve --wal-dir` mid-workload, restart "
        "it, and certify the combined history (see docs/verification.md)",
    )
    chaos.add_argument(
        "--pack",
        default="running-example",
        help=f"predefined pack ({', '.join(available_packs())})",
    )
    add_solver_arguments(chaos)
    chaos.add_argument("--seed", type=int, default=2017, help="workload + fault seed")
    chaos.add_argument("--clients", type=int, default=3, help="concurrent trace clients")
    chaos.add_argument("--ops-per-client", type=int, default=8, help="operations per client")
    chaos.add_argument("--sessions", type=int, default=2, help="logical sessions per trace")
    chaos.add_argument(
        "--kill-after",
        type=int,
        default=8,
        metavar="N",
        help="SIGKILL the server once N operations have completed",
    )
    chaos.add_argument(
        "--faults",
        metavar="SPEC",
        help="explicit fault schedule for the pre-crash server "
        "(default: derive one from --seed)",
    )
    chaos.add_argument(
        "--fault-count",
        type=int,
        default=2,
        metavar="N",
        help="seeded faults to derive when --faults is not given",
    )
    chaos.add_argument(
        "--wal-dir",
        metavar="DIR",
        help="WAL directory to use (default: a fresh temporary directory)",
    )
    chaos.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="serve the workload with N resolver worker processes "
        "(0 = in-process)",
    )
    chaos.add_argument(
        "--kill",
        default="server",
        choices=("server", "worker"),
        help="what the SIGKILL hits: the whole server (then restarted) or "
        "one resolver worker (front-end stays up and respawns it; needs "
        "--workers >= 1)",
    )
    chaos.add_argument(
        "--save-history",
        metavar="HISTORY.json",
        help="write the combined history (re-checkable via `tecore verify`)",
    )
    chaos.add_argument(
        "--no-check",
        action="store_true",
        help="skip the in-process serializability check (record only)",
    )
    chaos.add_argument("--json", action="store_true", help="emit a JSON report")

    lint = subparsers.add_parser(
        "lint",
        help="statically analyze rule programs before grounding "
        "(see docs/analysis.md)",
    )
    lint.add_argument(
        "programs",
        nargs="*",
        metavar="PROGRAM.dl",
        help="Datalog-style rule/constraint files to analyze",
    )
    lint.add_argument(
        "--pack",
        action="append",
        default=[],
        metavar="NAME",
        help=f"predefined pack to analyze ({', '.join(available_packs())}); repeatable",
    )
    lint.add_argument(
        "--all-packs",
        action="store_true",
        help="analyze every predefined pack (the built-in rule library)",
    )
    lint.add_argument("--dataset", help="load this dataset for graph-aware checks")
    lint.add_argument("--graph", help="load this graph file for graph-aware checks")
    lint.add_argument("--scale", type=float, default=0.01, help="dataset scale factor")
    lint.add_argument("--noise", type=float, default=0.0, help="dataset noise ratio")
    lint.add_argument("--seed", type=int, default=2017, help="dataset RNG seed")
    lint.add_argument(
        "--strict",
        action="store_true",
        help="warnings also gate the exit code (errors always do)",
    )
    lint.add_argument(
        "--expect-findings",
        metavar="CODES",
        help="comma-separated diagnostic codes; succeed only if ALL are "
        "reported (fixture checks, like verify's --expect-violation)",
    )
    lint.add_argument("--json", action="store_true", help="emit JSON instead of text")

    verify = subparsers.add_parser(
        "verify",
        help="check the serving tier for serializability violations "
        "(see docs/verification.md)",
    )
    verify.add_argument(
        "histories",
        nargs="*",
        metavar="HISTORY.json",
        help="saved history files to re-check (default: record fresh ones)",
    )
    verify.add_argument(
        "--pack",
        default="running-example",
        help=f"predefined pack ({', '.join(available_packs())})",
    )
    verify.add_argument("--program", help="path to a Datalog-style rule/constraint file")
    add_solver_arguments(verify)
    verify.add_argument("--threshold", type=float, default=None, help="derived-fact threshold")
    verify.add_argument(
        "--runs", type=int, default=25, metavar="N",
        help="seeded workloads to record and check (ignored with history files)",
    )
    verify.add_argument(
        "--seed", type=int, default=2017, help="base workload seed (run i uses seed+i)"
    )
    verify.add_argument("--clients", type=int, default=4, help="concurrent trace clients")
    verify.add_argument("--ops-per-client", type=int, default=10, help="operations per client")
    verify.add_argument("--sessions", type=int, default=3, help="logical sessions per trace")
    verify.add_argument("--zipf-alpha", type=float, default=1.1, help="hot-key skew (0 = uniform)")
    verify.add_argument(
        "--noise",
        default="mixed",
        choices=("conflict_burst", "churn", "flip", "duplicate", "mixed"),
        help="adversarial edit-noise model",
    )
    verify.add_argument(
        "--malformed-ratio",
        type=float,
        default=0.05,
        help="fraction of requests issued with malformed bodies",
    )
    verify.add_argument(
        "--expect-violation",
        action="store_true",
        help="succeed only if violations ARE found (regression-fixture checks)",
    )
    verify.add_argument(
        "--save-failures",
        metavar="DIR",
        help="write failing histories and their violation reports to DIR",
    )
    verify.add_argument("--json", action="store_true", help="emit a JSON summary")
    return parser


def _load_graph_from_args(args: argparse.Namespace) -> TemporalKnowledgeGraph:
    if args.graph:
        return load_graph(Path(args.graph))
    if args.dataset:
        dataset = load_dataset(
            args.dataset, scale=args.scale, noise_ratio=args.noise, seed=args.seed
        )
        return dataset.graph
    raise TecoreError("either --dataset or --graph must be given")


def _load_program_from_args(args: argparse.Namespace) -> tuple[list, list]:
    rules: list = []
    constraints: list = []
    if getattr(args, "pack", None):
        pack = load_pack(args.pack)
        rules.extend(pack.rules)
        constraints.extend(pack.constraints)
    if getattr(args, "program", None):
        parsed = parse_program(Path(args.program).read_text(encoding="utf-8"))
        rules.extend(parsed.rules)
        constraints.extend(parsed.constraints)
    if not rules and not constraints:
        raise TecoreError("no rules or constraints given; use --pack and/or --program")
    return rules, constraints


def _command_datasets() -> int:
    from .datasets import describe_datasets

    for entry in describe_datasets():
        print(f"{entry.name:20s} {entry.description}")
    return 0


def _command_solvers() -> int:
    from .core import describe_solvers

    for entry in describe_solvers():
        print(f"{entry.name:15s} [{entry.family}] {entry.description}")
    return 0


def _command_packs() -> int:
    for name in available_packs():
        pack = load_pack(name)
        print(f"{name:20s} {len(pack.rules)} rules, {len(pack.constraints)} constraints — {pack.description}")
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    graph = _load_graph_from_args(args)
    print(render_graph_summary(graph))
    return 0


def _command_detect(args: argparse.Namespace) -> int:
    graph = _load_graph_from_args(args)
    _, constraints = _load_program_from_args(args)
    system = TeCoRe(constraints=constraints)
    violations = system.detect_conflicts(graph)
    conflicting = {fact.statement_key for violation in violations for fact in violation.facts}
    if args.json:
        print(
            json.dumps(
                {
                    "graph": graph.name,
                    "facts": len(graph),
                    "violations": len(violations),
                    "conflicting_facts": len(conflicting),
                },
                indent=2,
            )
        )
    else:
        print(f"UTKG {graph.name!r}: {len(graph)} facts")
        print(f"constraint violations : {len(violations)}")
        print(f"conflicting facts     : {len(conflicting)}")
    return 0


def _command_resolve(args: argparse.Namespace) -> int:
    graph = _load_graph_from_args(args)
    rules, constraints = _load_program_from_args(args)
    system = TeCoRe(
        rules=rules,
        constraints=constraints,
        solver=args.solver,
        threshold=args.threshold,
        decompose=args.decompose,
        jobs=args.jobs,
    )
    result = system.resolve(graph)
    if args.json:
        print(json.dumps(result.as_dict(), indent=2))
    else:
        print(render_report(result, limit=args.limit))
    return 0


def _command_resolve_batch(args: argparse.Namespace) -> int:
    rules, constraints = _load_program_from_args(args)
    graphs = [load_graph(Path(path)) for path in args.graphs]
    system = TeCoRe(
        rules=rules,
        constraints=constraints,
        solver=args.solver,
        threshold=args.threshold,
        decompose=args.decompose,
        jobs=args.jobs,
    )
    batch = system.resolve_batch(graphs, incremental=args.incremental)
    if args.json:
        print(json.dumps(batch.as_dict(), indent=2))
    else:
        for result in batch:
            statistics = result.statistics
            print(
                f"{result.input_graph.name:30s} facts={statistics.input_facts:6d} "
                f"removed={statistics.removed_facts:5d} inferred={statistics.inferred_facts:5d} "
                f"violations={statistics.violations:5d} {statistics.runtime_seconds * 1000:8.1f} ms"
            )
        print(
            f"batch: {len(batch)} graphs in {batch.runtime_seconds:.3f} s "
            f"({batch.graphs_per_second:.1f} graphs/s, solver={args.solver})"
        )
    return 0


def _watch_step_line(label: str, result) -> str:
    statistics = result.statistics
    delta = result.delta
    parts = [
        f"{label:10s}",
        f"facts={statistics.input_facts:6d}",
        f"removed={statistics.removed_facts:4d}",
        f"inferred={statistics.inferred_facts:4d}",
        f"violations={statistics.violations:4d}",
    ]
    if delta is not None:
        parts.append(f"changed={delta.facts_changed:4d}")
        parts.append(f"components={delta.components_cached}/{delta.components_total} cached")
    parts.append(f"{statistics.runtime_seconds * 1000:8.1f} ms")
    return "  ".join(parts)


def _command_watch(args: argparse.Namespace) -> int:
    graph = _load_graph_from_args(args)
    rules, constraints = _load_program_from_args(args)
    steps = load_change_stream(Path(args.stream))
    system = TeCoRe(
        rules=rules,
        constraints=constraints,
        solver=args.solver,
        threshold=args.threshold,
    )
    session = system.session(graph, warm_start=args.warm_start)
    if args.json:
        print(json.dumps({"step": 0, **session.result.as_dict()}))
    else:
        print(_watch_step_line("initial", session.result))
    for number, step in enumerate(steps, start=1):
        result = session.apply(adds=step.adds, removes=step.removes)
        if args.json:
            print(json.dumps({"step": number, **result.as_dict()}))
        else:
            print(_watch_step_line(f"step {number}", result))
    if not args.json:
        summary = session.state_summary()
        print(
            f"watched {len(steps)} steps: {summary['cache_hits']} component cache "
            f"hits, {summary['cache_misses']} misses, "
            f"{summary['firings']} firings / {summary['violations']} violations maintained"
        )
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import signal
    import threading
    import time as _time

    from .serve import ServerConfig, make_server

    rules, constraints = _load_program_from_args(args)
    system = TeCoRe(
        rules=rules,
        constraints=constraints,
        solver=args.solver,
        threshold=args.threshold,
        decompose=args.decompose,
        jobs=args.jobs,
    )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_batch=args.batch_max,
        batch_delay=args.batch_delay,
        queue_limit=args.queue_limit,
        coalesce=not args.no_coalesce,
        response_cache=args.response_cache,
        max_sessions=args.max_sessions,
        wal_dir=args.wal_dir,
        fsync_policy=args.fsync_policy,
        fsync_batch=args.fsync_batch,
        fsync_interval=args.fsync_interval,
        compact_every=args.compact_every,
        request_deadline=args.request_deadline,
        shed_resolve_at=args.shed_resolve_at,
        lint=args.lint,
        workers=args.workers,
    )
    injector = None
    if args.faults:
        from .verify.faults import FaultInjector, parse_fault_spec

        try:
            injector = FaultInjector(parse_fault_spec(args.faults))
        except ValueError as error:
            raise TecoreError(str(error)) from error
    try:
        server = make_server(system, config, injector=injector)
    except (ValueError, OverflowError) as error:
        # Bad tuning values (e.g. --batch-max 0) follow the CLI's
        # `error: <message>` contract instead of surfacing a traceback.
        raise TecoreError(str(error)) from error
    durability = ""
    if args.wal_dir:
        recovery = server.service.recovery
        restored = recovery.sessions_restored if recovery is not None else 0
        durability = f", wal={args.wal_dir} ({restored} sessions recovered)"
    sharding = f", workers={args.workers}" if args.workers else ""
    # SIGINT and SIGTERM both end serving through KeyboardInterrupt, so the
    # server and its WAL close and the exit code is 0.  A non-interactive
    # shell starts background jobs with SIGINT ignored, and Python then
    # leaves it ignored.  Only the main thread may set handlers.
    previous_handlers = {}
    if threading.current_thread() is threading.main_thread():
        previous_handlers = {
            signum: signal.signal(signum, signal.default_int_handler)
            for signum in (signal.SIGINT, signal.SIGTERM)
        }
    try:
        print(
            f"serving on {server.url} (solver={args.solver}, "
            f"batch={args.batch_max} @ {args.batch_delay * 1000:.0f} ms, "
            f"queue={args.queue_limit}, sessions={args.max_sessions}"
            f"{sharding}{durability})",
            flush=True,
        )
        if args.for_seconds is not None:
            server.run_in_thread()
            _time.sleep(args.for_seconds)
        else:  # pragma: no cover - interactive serving loop
            server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.close()
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
    return 0


def _command_chaos(args: argparse.Namespace) -> int:
    from .verify.chaos import ChaosConfig, run_chaos

    config = ChaosConfig(
        seed=args.seed,
        clients=args.clients,
        ops_per_client=args.ops_per_client,
        sessions=args.sessions,
        kill_after=args.kill_after,
        faults=args.faults,
        fault_count=args.fault_count,
        pack=args.pack,
        solver=args.solver,
        workers=args.workers,
        kill=args.kill,
    )
    report, _history = run_chaos(
        config,
        wal_dir=args.wal_dir,
        history_path=args.save_history,
        check=not args.no_check,
    )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        target = f"worker of {report.workers}" if report.kill == "worker" else "server"
        print(
            f"chaos seed {report.seed}: {report.total_ops} ops "
            f"({report.pending_ops} pending), killed {target} after "
            f"{report.killed_after}, "
            f"{report.recovered_sessions} sessions recovered, "
            f"{report.retries} retries, faults [{report.fault_spec}]"
        )
        if report.serializable is not None:
            verdict = (
                "combined history serializable"
                if report.serializable
                else f"{len(report.violations)} violation(s)"
            )
            print(verdict)
        if report.history_path:
            print(f"history saved to {report.history_path}")
    if report.serializable is False:
        return 1
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    from .analysis import DIAGNOSTICS, LintReport, analyze_program, analyze_text

    graph = None
    if args.graph or args.dataset:
        graph = _load_graph_from_args(args)

    report = LintReport()
    inputs = 0
    for path_str in args.programs:
        text = Path(path_str).read_text(encoding="utf-8")
        report.extend(analyze_text(text, source=path_str, graph=graph))
        inputs += 1
    pack_names = list(args.pack)
    if args.all_packs:
        pack_names.extend(name for name in available_packs() if name not in pack_names)
    for name in pack_names:
        pack = load_pack(name)
        report.extend(analyze_program(pack.rules, pack.constraints, graph, source=f"pack:{name}"))
        inputs += 1
    if not inputs:
        raise TecoreError("nothing to lint; give program files, --pack, or --all-packs")

    report = report.sorted()
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())

    if args.expect_findings:
        expected = {code.strip() for code in args.expect_findings.split(",") if code.strip()}
        unknown = sorted(expected - set(DIAGNOSTICS))
        if unknown:
            raise TecoreError(f"unknown diagnostic code(s): {', '.join(unknown)}")
        reported = set(report.codes())
        missing = sorted(expected - reported)
        if missing:
            print(
                f"expected finding(s) not reported: {', '.join(missing)}",
                file=sys.stderr,
            )
            return 1
        return 0
    return 0 if report.ok(strict=args.strict) else 1


def _command_verify(args: argparse.Namespace) -> int:
    from .verify import (
        History,
        SerializabilityChecker,
        WorkloadConfig,
        record_workload,
    )

    rules, constraints = _load_program_from_args(args)
    system = TeCoRe(
        rules=rules,
        constraints=constraints,
        solver=args.solver,
        threshold=args.threshold,
    )
    checker = SerializabilityChecker(system)
    save_dir = Path(args.save_failures) if args.save_failures else None
    if save_dir is not None:
        save_dir.mkdir(parents=True, exist_ok=True)

    runs: list[tuple[str, History]] = []
    if args.histories:
        for path in args.histories:
            runs.append((path, History.load(Path(path))))
    else:
        for index in range(args.runs):
            seed = args.seed + index
            workload = WorkloadConfig(
                seed=seed,
                clients=args.clients,
                ops_per_client=args.ops_per_client,
                sessions=args.sessions,
                zipf_alpha=args.zipf_alpha,
                noise=args.noise,
                malformed_ratio=args.malformed_ratio,
            )
            runs.append((f"seed {seed}", record_workload(system, workload)))

    total_violations = 0
    summaries = []
    for label, history in runs:
        report = checker.check(history)
        total_violations += len(report.violations)
        summaries.append(
            {
                "history": label,
                "operations": len(history),
                "ok": report.ok,
                "violations": [violation.to_dict() for violation in report.violations],
                "stats": report.stats,
            }
        )
        if not args.json:
            print(f"{label:30s} {report.summary()}")
        if not report.ok and save_dir is not None:
            slug = label.replace(" ", "-").replace("/", "_")
            history.save(save_dir / f"history-{slug}.json")
            (save_dir / f"violations-{slug}.json").write_text(
                json.dumps([violation.to_dict() for violation in report.violations], indent=2)
                + "\n",
                encoding="utf-8",
            )
    if args.json:
        print(
            json.dumps(
                {
                    "histories": len(runs),
                    "violations": total_violations,
                    "expect_violation": args.expect_violation,
                    "runs": summaries,
                },
                indent=2,
            )
        )
    elif not args.expect_violation:
        print(
            f"checked {len(runs)} histories: "
            + ("all serializable" if not total_violations else f"{total_violations} violation(s)")
        )
    if args.expect_violation:
        if total_violations:
            if not args.json:
                print(f"expected violations confirmed ({total_violations} found)")
            return 0
        print("error: expected violations, found none", file=sys.stderr)
        return 1
    return 1 if total_violations else 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point (returns a process exit code)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "datasets":
            return _command_datasets()
        if args.command == "solvers":
            return _command_solvers()
        if args.command == "packs":
            return _command_packs()
        if args.command == "stats":
            return _command_stats(args)
        if args.command == "detect":
            return _command_detect(args)
        if args.command == "resolve":
            return _command_resolve(args)
        if args.command == "resolve-batch":
            return _command_resolve_batch(args)
        if args.command == "watch":
            return _command_watch(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "chaos":
            return _command_chaos(args)
        if args.command == "lint":
            return _command_lint(args)
        if args.command == "verify":
            return _command_verify(args)
        parser.error(f"unknown command {args.command!r}")
    except (TecoreError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
