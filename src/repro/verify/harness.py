"""Executing traces against a live, instrumented resolution service.

The harness drives a :class:`~repro.verify.workloads.Trace` through a real
:class:`~repro.serve.server.ResolutionService` — the one front-end
``tecore serve`` runs, here over its in-process worker: routing, the
response cache, the route and session locks, the batcher, the session pool
and the metrics all run exactly as in production — from one OS thread per
trace client, and returns the :class:`~repro.verify.history.History` the
attached recorder observed.
Requests go through ``service.handle`` directly rather than over a socket:
the serving logic and its synchronisation are fully exercised (``handle``
*is* what every HTTP connection thread calls) while the harness stays fast
enough to record hundreds of seeded histories per CI run.  The
trace-driven benchmark (``benchmarks/bench_serve.py``) covers the HTTP
transport on top of the same generator.

Logical-to-real session mapping: trace operations reference sessions by
index; the owning client's ``session_create`` resolves the index to the
server-assigned id and publishes it through a per-session event, which
non-owning clients wait on before targeting the session.  That wait is the
only cross-client synchronisation — everything else interleaves freely,
which is the point.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict
from typing import TYPE_CHECKING, Any, Optional

from ..serve.server import ResolutionService, ServerConfig
from .history import History, HistoryRecorder
from .workloads import Trace, TraceOp, WorkloadConfig, generate_trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.tecore import TeCoRe

#: How long a client waits for another client's session_create (seconds).
SESSION_WAIT_SECONDS = 30.0


def _encode_body(document: Optional[dict[str, Any]]) -> bytes:
    return json.dumps(document or {}).encode("utf-8")


class SessionDirectory:
    """Thread-safe logical-session-index → server-session-id mapping."""

    def __init__(self, sessions: int) -> None:
        self._ids: dict[int, str] = {}
        self._events = {index: threading.Event() for index in range(sessions)}

    def publish(self, index: int, session_id: Optional[str]) -> None:
        if session_id is not None:
            self._ids[index] = session_id
        self._events[index].set()

    def resolve(self, index: int) -> str:
        if not self._events[index].wait(SESSION_WAIT_SECONDS):
            return f"deadbeef{index:04x}"  # never issued: the request will 404
        return self._ids.get(index, f"deadbeef{index:04x}")


class _TraceClient(threading.Thread):
    """One trace client: replays its program against the service."""

    def __init__(
        self,
        client_id: int,
        program: list[TraceOp],
        service: ResolutionService,
        directory: SessionDirectory,
        barrier: threading.Barrier,
    ) -> None:
        super().__init__(name=f"trace-client-{client_id}", daemon=True)
        self.client_id = client_id
        self.program = program
        self.service = service
        self.directory = directory
        self.barrier = barrier
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            self.barrier.wait(timeout=SESSION_WAIT_SECONDS)
            for op in self.program:
                if op.delay > 0:
                    time.sleep(op.delay)
                self._issue(op)
        except BaseException as exc:  # noqa: BLE001 - surfaced by record_trace
            self.error = exc

    def _issue(self, op: TraceOp) -> None:
        if op.kind == "resolve":
            body = op.body or {}
            if op.include_graphs and not op.malformed:
                body = {"graph": body, "include_graphs": True}
            self.service.handle("POST", "/resolve", _encode_body(body))
            return
        if op.kind == "session_create":
            assert op.session is not None
            status, payload = self.service.handle("POST", "/sessions", _encode_body(op.body))
            session_id = payload.get("session_id") if status == 201 else None
            self.directory.publish(op.session, session_id)
            return
        assert op.session is not None
        sid = self.directory.resolve(op.session)
        if op.kind == "session_edit":
            self.service.handle("POST", f"/sessions/{sid}/edits", _encode_body(op.body))
        elif op.kind == "session_read":
            query = "?include_graphs=1" if op.include_graphs else ""
            self.service.handle("GET", f"/sessions/{sid}/result{query}", b"")
        elif op.kind == "session_delete":
            self.service.handle("DELETE", f"/sessions/{sid}", b"")
        else:  # pragma: no cover - generator never emits other kinds
            raise ValueError(f"unknown trace op kind {op.kind!r}")


def harness_server_config(trace: Trace, **overrides: Any) -> ServerConfig:
    """A :class:`ServerConfig` sized so the checker's assumptions hold.

    ``max_sessions`` must exceed the trace's logical session count —
    otherwise admission answers some creates with 503, and the trace's
    later operations on those sessions prove nothing.
    """
    sized: dict[str, Any] = {
        "max_sessions": max(64, trace.config.sessions + 1),
        "batch_delay": 0.002,
    }
    sized.update(overrides)
    return ServerConfig(**sized)


def record_trace(
    system: "TeCoRe",
    trace: Trace,
    config: Optional[ServerConfig] = None,
    metadata: Optional[dict[str, Any]] = None,
) -> History:
    """Execute one trace against a fresh instrumented service.

    Returns the recorded history; raises if any client thread died (the
    serving tier itself never raises into clients — a client failure is a
    harness bug, not a serving violation).
    """
    recorder = HistoryRecorder()
    service = ResolutionService(system, config or harness_server_config(trace), recorder=recorder)
    directory = SessionDirectory(trace.config.sessions)
    barrier = threading.Barrier(len(trace.programs))
    clients = [
        _TraceClient(client_id, program, service, directory, barrier)
        for client_id, program in enumerate(trace.programs)
    ]
    try:
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=SESSION_WAIT_SECONDS * 2)
    finally:
        service.close()
    for client in clients:
        if client.is_alive():
            raise RuntimeError(f"trace client {client.client_id} did not finish")
        if client.error is not None:
            raise RuntimeError(
                f"trace client {client.client_id} failed: {client.error}"
            ) from client.error
    history_metadata = {
        "workload": asdict(trace.config),
        "total_ops": trace.total_ops,
        **(metadata or {}),
    }
    return recorder.history(history_metadata)


def record_workload(
    system: "TeCoRe",
    workload: WorkloadConfig,
    config: Optional[ServerConfig] = None,
) -> History:
    """Generate the seeded trace for ``workload`` on the paper's running
    example graph and record its execution (the CLI/CI entry point)."""
    from ..datasets.ranieri import ranieri_extended_graph

    trace = generate_trace(ranieri_extended_graph(), workload)
    return record_trace(system, trace, config=config)
