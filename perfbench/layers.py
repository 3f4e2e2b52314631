"""Which entry points are traced, and how spans become per-layer metrics.

Span names and the layer (module) each one times:

=================  ===============================================  ==================
span               wrapped entry point                              layer
=================  ===============================================  ==================
core.resolve       ``TeCoRe.resolve``, ``SharedResolver.resolve``   core (facade, result assembly)
translate          ``TecoreTranslator.translate``                   core.translator + solvers check
ground             ``ground()`` of the ``make_grounder`` class      logic grounding
mln.solve          ``ILPMapSolver.solve``                           mln
psl.solve          ``ADMMSolver.solve``                             psl
analysis.lint      ``analyze_program``                              analysis
session.create     ``ResolutionSession.__init__``                   core.session
session.apply      ``ResolutionSession.apply``                      core.session
session.ground     ``IncrementalGrounder.apply``/``.emit_plan``     logic.incremental
serve.handle       ``ServiceCore.handle``                           serve.server
serve.decode       ``decode_graph``, ``decode_edits``               serve.protocol + kg.io.json_io
serve.encode       ``encode_result``                                serve.protocol + kg.io.json_io
batcher.submit     ``MicroBatcher.submit``                          serve.batcher
wal.append         ``WriteAheadLog.append``                         serve.wal
wal.sync           ``WriteAheadLog._sync_locked`` (the fsync)       serve.wal
wal.compact        ``WriteAheadLog.compact``                        serve.wal
=================  ===============================================  ==================
"""

from __future__ import annotations

from typing import Any

import harness
from tracing import Span, Tracer, children_of, descendant_time, self_times, span_cost

#: Every per-layer metric name, in ``BENCHMARK.json`` order, with its unit.
PER_LAYER: dict[str, str] = {
    "core.resolve_s": "s",
    "core.assemble_self_s": "s",
    "translate.self_s": "s",
    "ground.s": "s",
    "ground.atoms": "count",
    "ground.clauses": "count",
    "ground.facts_per_s": "facts/s",
    "mln.solve_s": "s",
    "mln.solve_calls": "count",
    "mln.optimal_share": "ratio",
    "psl.solve_s": "s",
    "psl.iterations": "count",
    "analysis.lint_s": "s",
    "session.create_s": "s",
    "session.apply_s": "s",
    "session.ground_s": "s",
    "session.solve_s": "s",
    "session.other_s": "s",
    "session.components_total": "count",
    "session.components_dirty": "count",
    "session.component_cache_hit_ratio": "ratio",
    "session.component_lookups": "count",
    "serve.decode_s": "s",
    "serve.encode_s": "s",
    "batcher.wait_ms": "ms",
    "batcher.mean_batch_size": "count",
    "batcher.coalesced": "count",
    "batcher.coalesced_share": "ratio",
    "batcher.requests": "count",
    "batcher.response_cache_hit_ratio": "ratio",
    "batcher.response_cache_lookups": "count",
    "batcher.rejected": "count",
    "wal.append_s": "s",
    "wal.sync_s": "s",
    "wal.appends": "count",
    "wal.syncs_per_append": "ratio",
    "wal.bytes_per_op": "B",
    "wal.compactions": "count",
    "wal.compact_s": "s",
    "sessions.evicted": "count",
    "share.ground": "ratio",
    "share.mln": "ratio",
    "share.psl": "ratio",
    "share.assemble": "ratio",
    "share.translate": "ratio",
    "share.session_other": "ratio",
    "share.wal": "ratio",
    "share.codec": "ratio",
    "create.session_share": "ratio",
    "create.mln_share": "ratio",
    "edit.session_share": "ratio",
    "edit.mln_share": "ratio",
    "trace.spans": "count",
    "trace.span_cost_us": "us",
    "trace.overhead_share": "ratio",
    "trace.ops_per_s": "1/s",
    "trace.resolve_ms_p50": "ms",
    "speed.kernel_ms": "ms",
}
for _op in ("create", "edit", "read", "resolve", "delete"):
    PER_LAYER[f"serve.endpoint_ms.{_op}"] = "ms"
    PER_LAYER[f"serve.transport_ms.{_op}"] = "ms"

#: Spans whose self time is attributed to each ``share.*`` metric.
SHARE_SPANS = {
    "share.ground": ("ground", "session.ground"),
    "share.mln": ("mln.solve",),
    "share.psl": ("psl.solve",),
    "share.assemble": ("core.resolve",),
    "share.translate": ("translate",),
    "share.session_other": ("session.create", "session.apply"),
    "share.wal": ("wal.append", "wal.sync", "wal.compact"),
    "share.codec": ("serve.decode", "serve.encode"),
}


# --------------------------------------------------------------------------- #
# Installing the wrappers
# --------------------------------------------------------------------------- #
def _graph_name(args: tuple, kwargs: dict) -> str | None:
    graph = kwargs.get("graph", args[1] if len(args) > 1 else None)
    return getattr(graph, "name", None)


def _input_facts(args: tuple, kwargs: dict) -> dict:
    return {"facts": len(args[0].graph)}


def _program_size(span: Span, grounding: Any) -> None:
    span.attrs["atoms"] = grounding.program.num_atoms
    span.attrs["clauses"] = grounding.program.num_clauses


def _solver_stats(span: Span, solution: Any) -> None:
    span.attrs["optimal"] = bool(solution.stats.optimal)
    span.attrs["iterations"] = solution.stats.iterations


def install_library(tracer: Tracer, engine: str = "indexed") -> None:
    """Wrap the resolve path: facade, translator, grounder, both solvers, lint."""
    import repro.analysis
    from repro.core.tecore import SharedResolver, TeCoRe
    from repro.core.translator import TecoreTranslator
    from repro.logic.grounding import GROUNDING_ENGINES
    from repro.mln.solvers.milp_backend import ILPMapSolver
    from repro.psl.admm import ADMMSolver

    tracer.wrap(TeCoRe, "resolve", "core.resolve", request_of=_graph_name)
    tracer.wrap(SharedResolver, "resolve", "core.resolve", request_of=_graph_name)
    tracer.wrap(TecoreTranslator, "translate", "translate")
    tracer.wrap(
        GROUNDING_ENGINES[engine],
        "ground",
        "ground",
        attrs_of=_input_facts,
        on_result=_program_size,
    )
    tracer.wrap(ILPMapSolver, "solve", "mln.solve", on_result=_solver_stats)
    tracer.wrap(ADMMSolver, "solve", "psl.solve", on_result=_solver_stats)
    tracer.wrap(repro.analysis, "analyze_program", "analysis.lint")


def install_server(tracer: Tracer) -> None:
    """Library wrappers plus the serving tier: handler, codec, batcher, WAL, sessions."""
    import repro.serve.server as server
    import repro.serve.wal as wal
    from repro.core.session import ResolutionSession
    from repro.logic.incremental import IncrementalGrounder
    from repro.serve.batcher import MicroBatcher

    install_library(tracer)

    def op_label(args: tuple, kwargs: dict) -> dict:
        return {"op": server.ServiceCore._endpoint_label(args[1], args[2].split("?")[0])}

    tracer.wrap(server.ServiceCore, "handle", "serve.handle", attrs_of=op_label)
    tracer.wrap(server, "decode_graph", "serve.decode")
    tracer.wrap(server, "decode_edits", "serve.decode")
    tracer.wrap(server, "encode_result", "serve.encode")
    tracer.wrap(
        MicroBatcher,
        "submit",
        "batcher.submit",
        attrs_of=lambda args, kwargs: {"graph": _graph_name(args, kwargs)},
    )
    tracer.wrap(ResolutionSession, "__init__", "session.create")
    tracer.wrap(ResolutionSession, "apply", "session.apply")
    tracer.wrap(IncrementalGrounder, "apply", "session.ground")
    tracer.wrap(IncrementalGrounder, "emit_plan", "session.ground")
    tracer.wrap(wal.WriteAheadLog, "append", "wal.append")
    tracer.wrap(wal.WriteAheadLog, "_sync_locked", "wal.sync")
    tracer.wrap(wal.WriteAheadLog, "compact", "wal.compact")

    encode_record = wal.encode_record

    def counted_encode(record):
        frame = encode_record(record)
        current = tracer.current()
        if current is not None and current.name == "wal.append":
            tracer.count("wal.bytes", len(frame))
        return frame

    tracer.patch(wal, "encode_record", counted_encode)


# --------------------------------------------------------------------------- #
# Spans → metrics
# --------------------------------------------------------------------------- #
def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def span_metrics(spans: list[Span], counters: dict[str, float] | None = None) -> dict[str, float]:
    """Per-layer times, counts and shares computed from one run's spans."""
    counters = counters or {}
    own = self_times(spans)
    children = children_of(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name: str) -> float:
        return sum(span.duration for span in by_name.get(name, ()))

    def self_total(*names: str) -> float:
        return sum(own[span.id] for name in names for span in by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    out: dict[str, float] = {}
    out["core.resolve_s"] = _mean(total("core.resolve"), calls("core.resolve"))
    out["core.assemble_self_s"] = _mean(self_total("core.resolve"), calls("core.resolve"))
    out["translate.self_s"] = _mean(self_total("translate"), calls("translate"))

    grounds = by_name.get("ground", [])
    out["ground.s"] = _mean(total("ground"), len(grounds))
    out["ground.atoms"] = _mean(sum(s.attrs.get("atoms", 0) for s in grounds), len(grounds))
    out["ground.clauses"] = _mean(sum(s.attrs.get("clauses", 0) for s in grounds), len(grounds))
    ground_seconds = total("ground")
    facts = sum(s.attrs.get("facts", 0) for s in grounds)
    out["ground.facts_per_s"] = facts / ground_seconds if ground_seconds else 0.0

    mln = by_name.get("mln.solve", [])
    out["mln.solve_s"] = _mean(total("mln.solve"), len(mln))
    out["mln.solve_calls"] = float(len(mln))
    out["mln.optimal_share"] = _mean(sum(1 for s in mln if s.attrs.get("optimal")), len(mln))
    psl = by_name.get("psl.solve", [])
    out["psl.solve_s"] = _mean(total("psl.solve"), len(psl))
    out["psl.iterations"] = _mean(sum(s.attrs.get("iterations", 0) for s in psl), len(psl))
    out["analysis.lint_s"] = total("analysis.lint")

    out["session.create_s"] = _mean(total("session.create"), calls("session.create"))
    applies = by_name.get("session.apply", [])
    ground_in = sum(descendant_time(s, children, {"session.ground"}) for s in applies)
    solve_in = sum(descendant_time(s, children, {"mln.solve", "psl.solve"}) for s in applies)
    apply_total = total("session.apply")
    out["session.apply_s"] = _mean(apply_total, len(applies))
    out["session.ground_s"] = _mean(ground_in, len(applies))
    out["session.solve_s"] = _mean(solve_in, len(applies))
    out["session.other_s"] = _mean(apply_total - ground_in - solve_in, len(applies))

    out["serve.decode_s"] = _mean(total("serve.decode"), calls("serve.decode"))
    out["serve.encode_s"] = _mean(total("serve.encode"), calls("serve.encode"))
    out["batcher.wait_ms"] = 1000.0 * _batcher_wait(by_name)

    appends = calls("wal.append")
    out["wal.append_s"] = _mean(total("wal.append"), appends)
    out["wal.sync_s"] = _mean(total("wal.sync"), calls("wal.sync"))
    out["wal.bytes_per_op"] = _mean(counters.get("wal.bytes", 0.0), appends)
    out["wal.compact_s"] = _mean(total("wal.compact"), calls("wal.compact"))

    # Shares of the time requests spent in the program: server-side handler
    # time when serving, else the library resolve calls.
    roots = by_name.get("serve.handle") or by_name.get("core.resolve", [])
    base = sum(span.duration for span in roots)
    for metric_name, names in SHARE_SPANS.items():
        out[metric_name] = self_total(*names) / base if base else 0.0
    for op, label in (("create", "POST /sessions"), ("edit", "POST /sessions/{id}/edits")):
        handled = [s for s in by_name.get("serve.handle", []) if s.attrs.get("op") == label]
        base = sum(span.duration for span in handled)
        session = sum(
            descendant_time(s, children, {"session.create", "session.apply"}) for s in handled
        )
        solve = sum(descendant_time(s, children, {"mln.solve"}) for s in handled)
        out[f"{op}.session_share"] = session / base if base else 0.0
        out[f"{op}.mln_share"] = solve / base if base else 0.0
    out["trace.spans"] = float(len(spans))
    return out


def _batcher_wait(by_name: dict[str, list[Span]]) -> float:
    """Mean time a submit spent outside the resolve that served its graph."""
    resolves: dict[str, list[Span]] = {}
    for span in by_name.get("core.resolve", []):
        resolves.setdefault(span.request, []).append(span)
    waits = []
    for submit in by_name.get("batcher.submit", []):
        served = [
            span
            for span in resolves.get(submit.attrs.get("graph"), ())
            if span.start >= submit.start and span.end <= submit.end
        ]
        if served:  # response-cache hits never reach the resolver
            waits.append(submit.duration - served[0].duration)
    return _mean(sum(waits), len(waits))


def per_layer(
    spans: list[Span],
    counters: dict[str, float],
    log: harness.OpLog,
    streams: list,
    probe,
    extra: dict[str, float] | None = None,
) -> dict:
    """Every per-layer metric: span-derived, plus ``extra`` counters, rest 0.

    ``streams`` are the run's closed loops (see ``harness.rates``).
    ``trace.ops_per_s`` and ``trace.resolve_ms_p50`` are in reference seconds,
    like the end-to-end metrics; span times are wall times.
    """
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(span_metrics(spans, counters))
    values.update(extra or {})
    cost = span_cost()
    wall = sum(sum(stream.all_latencies()) for stream, _ in streams)
    values["trace.span_cost_us"] = cost * 1e6
    values["trace.overhead_share"] = len(spans) * cost / wall
    values["trace.ops_per_s"] = harness.rates(probe, streams)[0]
    resolves = log.reference_latencies(probe).get("resolve", [])
    values["trace.resolve_ms_p50"] = 1000 * harness.percentile(resolves, 50) if resolves else 0.0
    values["speed.kernel_ms"] = probe.kernel_ms()
    return {name: harness.metric(values[name], unit) for name, unit in PER_LAYER.items()}


def largest_layers(metrics: dict, count: int = 3) -> str:
    """The ``share.*`` layers with the most self time, for the run log."""
    shares = sorted(
        (
            (entry["value"], name)
            for name, entry in metrics.items()
            if name.startswith("share.")
        ),
        reverse=True,
    )
    return ", ".join(f"{name[6:]} {value:.1%}" for value, name in shares[:count] if value)
