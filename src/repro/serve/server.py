"""The ``tecore serve`` HTTP service: one front-end over resolver workers.

A stdlib-only :class:`http.server.ThreadingHTTPServer` front-end, one
request thread per connection:

========  ==========================  ===========================================
method    path                        behaviour
========  ==========================  ===========================================
POST      ``/resolve``                one-shot resolution, micro-batched through
                                      a shared translator+solver
POST      ``/sessions``               open an incremental session (initial
                                      resolve included in the response)
POST      ``/sessions/{id}/edits``    apply a change-stream step (JSON ``adds``/
                                      ``removes``), returns the new result with
                                      its delta statistics
GET       ``/sessions/{id}/result``   latest result of a session
DELETE    ``/sessions/{id}``          close a session
GET       ``/healthz``                liveness + configuration summary
GET       ``/stats``                  per-endpoint latency percentiles, batcher
                                      counters, session-pool and component-cache
                                      hit rates
========  ==========================  ===========================================

One architecture serves every ``--workers`` value:

* the **front-end** (:class:`ResolutionService`) owns routing, the
  write-ahead log with its log-before-apply order, session admission, the
  one response cache and boot recovery;
* a **worker** (:class:`WorkerRuntime`) owns the endpoint ops, the
  micro-batcher and the session pool.  ``--workers 0`` (the default) holds
  one in the front-end's process and calls it directly on the request
  thread; ``--workers N`` forks N and talks to them over pipes (see
  :mod:`repro.serve.sharding` and :mod:`repro.serve.worker`).

Served responses are bit-identical to direct library calls: ``/resolve``
payloads match :meth:`TeCoRe.resolve <repro.core.tecore.TeCoRe.resolve>` and
session payloads match :class:`~repro.core.session.ResolutionSession`
results, modulo wall-clock timing fields (see
:func:`repro.serve.protocol.stable_view`).
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import multiprocessing
import os
import re
import secrets
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping
from urllib.parse import urlsplit

from ..core.tecore import TeCoRe
from ..errors import ProgramLintError, TecoreError
from ..kg.io import json_io
from .batcher import MicroBatcher, RequestDeadlineExceeded, ServiceOverloadedError
from .metrics import ServiceMetrics
from .protocol import (
    ProtocolError,
    decode_edits,
    decode_graph,
    decode_json,
    encode_result,
)
from .recovery import (
    FoldState,
    RecoveryReport,
    compact_records,
    decode_edit_record,
    fold_records,
)
from .sessions import SessionEntry, SessionPool, UnknownSessionError
from .sharding import (
    CALL_TIMEOUT_GRACE,
    RESTORE_TIMEOUT,
    ConsistentHashRing,
    InProcessWorker,
    WorkerDiedError,
    WorkerHandle,
)
from .wal import WalError, WriteAheadLog, scan_wal_dir

_SESSION_ROUTE = re.compile(r"^/sessions/(?P<sid>[0-9a-f]+)(?P<tail>/edits|/result)?$")

#: Largest request body read, in bytes; a longer ``Content-Length`` answers
#: 413 without reading the body.  The largest graph document the repository
#: generates, full-scale FootballDB with 50% noise (29,363 facts), encodes to
#: 3.1 MB of JSON; the cap leaves ten times that.
MAX_BODY_BYTES = 32 * 1024 * 1024


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of the resolution service."""

    host: str = "127.0.0.1"
    port: int = 8799
    #: Micro-batching: flush when this many one-shot requests are waiting …
    max_batch: int = 8
    #: … or when the oldest waiting request is this old (seconds).
    batch_delay: float = 0.01
    #: Waiting-request bound per worker; beyond it ``POST /resolve`` returns 503.
    queue_limit: int = 64
    #: Coalesce content-identical in-flight graphs onto one solve.
    coalesce: bool = True
    #: LRU bound on cached /resolve payloads, keyed by request body (0 disables).
    response_cache: int = 128
    #: Admission bound on open sessions; a create beyond it answers 503.
    max_sessions: int = 64
    #: Per-request wait bound inside the batch queue (seconds).
    request_timeout: float = 60.0
    #: Latency samples kept per endpoint for the /stats percentiles.
    metrics_window: int = 1024
    #: Durability: directory of the write-ahead session log (None disables).
    wal_dir: str | None = None
    #: WAL fsync policy: "always", "batch", or "never" (see serve/wal.py).
    fsync_policy: str = "batch"
    #: "batch" policy: fsync every this many records …
    fsync_batch: int = 8
    #: … or this many seconds after the last fsync, whichever first.
    fsync_interval: float = 0.05
    #: Compact the log once this many uncompacted records accumulate.
    compact_every: int = 256
    #: End-to-end deadline per request (seconds); overruns answer 504.
    request_deadline: float | None = None
    #: Shed /resolve at this queue depth (< queue_limit) so session edits
    #: keep their request threads under saturation (None disables).
    shed_resolve_at: int | None = None
    #: Boot-time static analysis of the rule program: "strict" (default)
    #: refuses to start on error-severity findings, "off" disables.
    lint: str = "strict"
    #: Forked resolver worker processes (see :mod:`repro.serve.sharding`);
    #: 0 (the default) serves from one worker in the front-end's process.
    workers: int = 0


class DropConnection(TecoreError):
    """Internal: abandon the connection without sending any HTTP response.

    Raised by the front-end when a mutating request's forked worker died
    *after* the write-ahead append: the operation may or may not take
    effect (crash recovery replays the logged record), so any definite
    status — success or failure — could be a lie.  The client observes a
    dropped connection and must treat the operation as pending, exactly
    the ambiguity the serializability checker's pending-operation
    semantics admit.  Never raised at ``--workers 0``.
    """


#: Exception → HTTP status of a failed request, first match wins; any other
#: error answers 500.  The front-end and every worker answer through this
#: one table, so the front-end relays worker statuses verbatim.
ERROR_STATUSES: tuple[tuple[type[Exception], int], ...] = (
    (ProtocolError, 400),
    (UnknownSessionError, 404),
    (ServiceOverloadedError, 503),
    (WalError, 503),
    (RequestDeadlineExceeded, 504),
)


def error_reply(exc: Exception) -> tuple[int, dict[str, Any]]:
    """The status and payload of a request that failed with ``exc``.

    503 and 504 also carry ``retry_after_seconds`` (the HTTP layer adds the
    ``Retry-After`` header).
    """
    for kind, status in ERROR_STATUSES:
        if isinstance(exc, kind):
            payload: dict[str, Any] = {"error": str(exc)}
            if status in (503, 504):
                payload["retry_after_seconds"] = 1
            return status, payload
    if isinstance(exc, TecoreError):
        return 500, {"error": str(exc)}
    return 500, {"error": f"internal error: {exc}"}


class ServiceCore:
    """The front-end's request plumbing, independent of routing and HTTP.

    Owns config, the boot-time program lint, per-endpoint metrics, the
    history-recorder seam and the optional WAL handle, and the
    :meth:`handle` loop that answers failures through :func:`error_reply`.
    :class:`ResolutionService` implements ``_dispatch`` (endpoint routing)
    and ``close``.
    """

    def __init__(
        self,
        system: TeCoRe,
        config: ServerConfig | None = None,
        recorder: Any = None,
        injector: Any = None,
    ) -> None:
        self.system = system
        self.config = config or ServerConfig()
        self.recorder = recorder
        self.injector = injector
        # Boot-time validation: a program the static analyzer proves broken
        # (dead rules, infeasible hard cores, …) must not reach the solver
        # loop where every request would hit the same failure.
        if self.config.lint != "off":
            report = system.lint_report()
            if report.errors:
                raise ProgramLintError(
                    "refusing to serve a rule program with "
                    f"{len(report.errors)} static-analysis error(s):\n"
                    + report.render(),
                    report=report,
                )
        self.metrics = ServiceMetrics(window=self.config.metrics_window)
        self.wal: WriteAheadLog | None = None
        self.recovery: RecoveryReport | None = None
        self.started = time.monotonic()

    def close(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def _dispatch(
        self,
        method: str,
        path: str,
        query: str,
        body: bytes,
        op: Any = None,
        deadline: float | None = None,
    ) -> tuple[int, dict[str, Any]]:  # pragma: no cover - interface
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def handle(
        self, method: str, target: str, body: bytes
    ) -> tuple[int | None, dict[str, Any] | None]:
        """Serve one request; returns ``(http_status, json_payload)``.

        A ``(None, None)`` return tells the HTTP layer to drop the
        connection without responding (see :class:`DropConnection`); the
        recorded operation is then left pending in the history.
        """
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = split.query
        endpoint, started = self._endpoint_label(method, path), time.perf_counter()
        deadline = (
            time.monotonic() + self.config.request_deadline
            if self.config.request_deadline is not None
            else None
        )
        op = None
        if self.recorder is not None:
            op = self._begin_record(method, path, query, body)
        try:
            status, payload = self._dispatch(method, path, query, body, op, deadline)
        except DropConnection:
            self.metrics.observe(endpoint, time.perf_counter() - started, error=True)
            self._maybe_compact()
            return None, None  # op stays pending: its effect is undecided
        except Exception as exc:  # noqa: BLE001 - a request must never kill the connection silently
            status, payload = error_reply(exc)
        self.metrics.observe(endpoint, time.perf_counter() - started, error=status >= 400)
        if op is not None:
            self.recorder.complete(op, status, payload)
        self._maybe_compact()
        return status, payload

    def _maybe_compact(self) -> None:
        """Fold the log into per-session snapshots once it grows long enough.

        Runs on the request thread that tipped the counter, after its
        response is recorded and with no session locks held; the fold
        itself needs only the WAL's own lock (it replays graph mutations,
        never solves), so concurrent requests keep flowing — at worst one
        racing thread compacts an already-fresh segment, which is a no-op.
        """
        if (
            self.wal is not None and self.wal.records_since_compaction >= self.config.compact_every
        ):
            try:
                self.wal.compact(compact_records)
            except (TecoreError, OSError):
                pass  # never fail a request over housekeeping; retried next time

    #: (method, path) → recorded operation kind for the fixed routes.
    _RECORDED_KINDS = {
        ("POST", "/resolve"): "resolve",
        ("POST", "/sessions"): "session_create",
    }
    _RECORDED_TAILS = {
        ("POST", "/edits"): "session_edit",
        ("GET", "/result"): "session_read",
        ("DELETE", ""): "session_delete",
    }

    def _begin_record(self, method: str, path: str, query: str, body: bytes):
        """Open a history operation for a client-visible request (or None)."""
        kind = self._RECORDED_KINDS.get((method, path))
        session_id = None
        if kind is None:
            match = _SESSION_ROUTE.match(path)
            if match is None:
                return None  # /healthz, /stats, unroutable paths
            kind = self._RECORDED_TAILS.get((method, match.group("tail") or ""))
            if kind is None:
                return None
            session_id = match.group("sid")
        if kind == "session_read":
            request = {
                "include_graphs": ("include_graphs=1" in query or "include_graphs=true" in query)
            }
        else:
            try:
                request = dict(decode_json(body))
            except ProtocolError:
                request = None  # recorded anyway; the dispatch will 400
        return self.recorder.begin(kind, request=request, session_id=session_id)

    @staticmethod
    def _endpoint_label(method: str, path: str) -> str:
        match = _SESSION_ROUTE.match(path)
        if match:
            tail = match.group("tail") or ""
            return f"{method} /sessions/{{id}}{tail}"
        if path in ("/healthz", "/stats", "/resolve", "/sessions"):
            return f"{method} {path}"
        # One shared bucket for everything unroutable: per-path recorders
        # would let a crawler grow the metrics map without bound.
        return "unmatched"

    # ------------------------------------------------------------------ #
    # Deadlines
    # ------------------------------------------------------------------ #
    def _remaining(self, deadline: float | None) -> float | None:
        """Seconds left before ``deadline`` (None = no deadline)."""
        if deadline is None:
            return None
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise RequestDeadlineExceeded(
                f"request deadline of {self.config.request_deadline:g}s exceeded"
            )
        return remaining


def _require_open(entry: SessionEntry) -> None:
    """404 unless the session is still open; the caller holds its lock.

    A request that looked the entry up before a concurrent delete took the
    lock must not act on it: the delete's response pinned the session's
    final state.  This is the worker's half of the delete-vs-edit guard;
    the front-end's route re-check is the other.
    """
    if entry.closed:
        raise UnknownSessionError(f"no session {entry.session_id!r}")


class WorkerRuntime:
    """One resolver worker: the endpoint ops over a micro-batcher and a session pool.

    At ``--workers 0`` the front-end holds one in its own process and calls
    :meth:`dispatch` on the request thread; each forked worker serves one
    behind :func:`repro.serve.worker.worker_main`.  A worker keeps no log:
    the WAL, admission, the response cache and recovery are the front-end's,
    and the front-end validates request bodies before they reach a worker.
    ``injector`` (the ``pool.*``, ``batcher.*`` and ``session.apply`` fault
    seams) and ``observer`` (the history recorder, as the batcher's
    observer) are given to the in-process worker only.  Safe for concurrent
    :meth:`dispatch` calls.
    """

    def __init__(
        self,
        system: TeCoRe,
        config: ServerConfig,
        index: int = 0,
        injector: Any = None,
        observer: Any = None,
    ) -> None:
        self.system = system
        self.config = config
        self.index = index
        self.injector = injector
        self.batcher = MicroBatcher(
            system.shared_resolver(),
            max_batch=config.max_batch,
            max_delay=config.batch_delay,
            queue_limit=config.queue_limit,
            coalesce=config.coalesce,
            observer=observer,
            injector=injector,
        )
        self.sessions = SessionPool(system, max_sessions=config.max_sessions, injector=injector)
        self.restores_total = 0

    def close(self) -> None:
        self.batcher.close()

    def dispatch(self, op: str, payload: Mapping[str, Any]) -> tuple[int, dict[str, Any]]:
        """Serve one op; returns ``(status, response_payload)``.

        Failures answer through :func:`error_reply`, as the front-end's own
        do.  A ``BaseException`` (an injected crash) reaches the caller.
        """
        handler = self._OPS.get(op)
        if handler is None:
            return 500, {"error": f"unknown worker op {op!r}"}
        try:
            return handler(self, payload)
        except Exception as exc:  # noqa: BLE001 - a request must never kill the worker loop
            return error_reply(exc)

    def _op_resolve(self, payload: Mapping[str, Any]) -> tuple[int, dict[str, Any]]:
        document = payload["document"]
        timeout = payload.get("timeout")
        result = self.batcher.submit(
            decode_graph(document),
            timeout=timeout if timeout is not None else self.config.request_timeout,
            tag=payload.get("tag"),
            shed_depth=self.config.shed_resolve_at,
        )
        return 200, encode_result(result, include_graphs=bool(document.get("include_graphs")))

    def _op_create(self, payload: Mapping[str, Any]) -> tuple[int, dict[str, Any]]:
        document = payload["document"]
        entry = self.sessions.create(
            decode_graph(document, default_name="session"),
            warm_start=payload["warm_start"],
            cache_size=payload["cache_size"],
            session_id=payload["session_id"],
        )
        with entry.lock:
            result = encode_result(
                entry.session.result, include_graphs=bool(document.get("include_graphs"))
            )
        return 201, {"session_id": entry.session_id, "result": result}

    def _op_edit(self, payload: Mapping[str, Any]) -> tuple[int, dict[str, Any]]:
        document = payload["document"]
        adds, removes = decode_edits(document)
        sid = payload["session_id"]
        entry = self.sessions.get(sid)
        with entry.lock:
            _require_open(entry)
            if self.injector is not None:
                self.injector.fire("session.apply", session_id=sid)
            result = entry.session.apply(adds=adds, removes=removes)
            entry.edits_applied += 1
            encoded = encode_result(result, include_graphs=bool(document.get("include_graphs")))
        return 200, {"session_id": sid, "result": encoded}

    def _op_read(self, payload: Mapping[str, Any]) -> tuple[int, dict[str, Any]]:
        sid = payload["session_id"]
        entry = self.sessions.get(sid)
        with entry.lock:
            _require_open(entry)
            encoded = encode_result(
                entry.session.result, include_graphs=bool(payload.get("include_graphs"))
            )
        return 200, {"session_id": sid, "result": encoded}

    def _op_delete(self, payload: Mapping[str, Any]) -> tuple[int, dict[str, Any]]:
        sid = payload["session_id"]
        entry = self.sessions.get(sid)
        with entry.lock:
            _require_open(entry)
            entry.closed = True
            facts = len(entry.session.graph)
            edits = entry.edits_applied
        self.sessions.discard(sid)
        return 200, {"session_id": sid, "deleted": True, "facts": facts, "edits_applied": edits}

    def _op_restore(self, payload: Mapping[str, Any]) -> tuple[int, dict[str, Any]]:
        """Replay one WAL session fold into this worker (crash recovery).

        The graph document and edit records are exactly what
        :func:`repro.serve.recovery.fold_records` produced from the
        front-end's log; edits replay through ``session.apply`` — the same
        delta path that served them live — so the restored result is
        bit-identical per ``stable_view``.
        """
        graph_doc = dict(payload["graph"])
        graph = json_io.from_dict(graph_doc, name=str(graph_doc.get("name", "session")))
        sid = payload["session_id"]
        entry = self.sessions.restore(
            sid,
            graph,
            warm_start=bool(payload.get("warm_start")),
            cache_size=int(payload.get("cache_size", 8192)),
            edits_applied=int(payload.get("edits_applied", 0)),
        )
        replayed = skipped = 0
        for record in payload.get("edits") or []:
            try:
                adds, removes = decode_edit_record(record)
                with entry.lock:
                    entry.session.apply(adds=adds, removes=removes)
                    entry.edits_applied += 1
            except TecoreError:
                # The same edit failed the same validation when served live
                # (validation precedes any mutation), so skipping keeps the
                # replayed state aligned with the live history.
                skipped += 1
                continue
            replayed += 1
        self.restores_total += 1
        return 200, {"session_id": sid, "edits_replayed": replayed, "edits_skipped": skipped}

    def _op_stats(self, payload: Mapping[str, Any]) -> tuple[int, dict[str, Any]]:
        return 200, {
            "pid": os.getpid(),
            "restores": self.restores_total,
            "batcher": self.batcher.snapshot(),
            "sessions": self.sessions.snapshot(),
        }

    def _op_ping(self, payload: Mapping[str, Any]) -> tuple[int, dict[str, Any]]:
        return 200, {"pid": os.getpid(), "index": self.index}

    _OPS = {
        "resolve": _op_resolve,
        "create": _op_create,
        "edit": _op_edit,
        "read": _op_read,
        "delete": _op_delete,
        "restore": _op_restore,
        "stats": _op_stats,
        "ping": _op_ping,
    }


class _SessionRoute:
    """Front-end routing entry: owning ring node plus the ordering lock.

    The lock serialises the requests to one session *before* the WAL
    append, so the per-session record order in the log is exactly the
    order the worker applies them — the invariant replay relies on.
    """

    __slots__ = ("node", "lock")

    def __init__(self, node: str) -> None:
        self.node = node
        self.lock = threading.Lock()


#: Session-pool counters ``/stats`` adds up over the workers.
_SESSION_COUNTERS = (
    "active",
    "created",
    "evicted",
    "deleted",
    "restored",
    "edits_applied",
    "resolve_steps",
    "component_cache_hits",
    "component_cache_misses",
)


class ResolutionService(ServiceCore):
    """The front-end behind ``tecore serve``, for every ``--workers`` value.

    Routes sessions to workers by consistent hashing on their id and
    ``/resolve`` round-robin (see :mod:`repro.serve.sharding`).  It alone
    appends to the write-ahead log, admits sessions (a create beyond
    ``max_sessions`` answers 503 with Retry-After and logs nothing),
    answers repeated ``/resolve`` bodies from its response cache of encoded
    payloads, and replays the log into the workers at boot and when a
    forked worker is respawned.

    ``recorder`` is the concurrency-correctness seam (see
    :mod:`repro.verify.history`): every client-visible operation — resolve,
    session create/edit/read/delete — is logged with its invocation/response
    ordering and payload, response-cache hits are reported to
    ``recorder.on_cache_hit``, and the in-process worker's batcher reports
    its coalesced groups to it.  ``injector`` fires ``server.dispatch`` and
    the ``wal.*`` seams here and the worker seams in the in-process worker.
    Forked workers get neither.  Recording never changes serving
    behaviour; with both ``None`` (the default) the seams are inert.
    """

    def __init__(
        self,
        system: TeCoRe,
        config: ServerConfig | None = None,
        recorder: Any = None,
        injector: Any = None,
    ) -> None:
        super().__init__(system, config, recorder=recorder, injector=injector)
        # Workers keep no log, lint nothing and never fork workers of their own.
        self._worker_config = replace(self.config, wal_dir=None, lint="off", workers=0)
        # The routes lock guards the routing table and the failure counters.
        self._routes: dict[str, _SessionRoute] = {}
        self._routes_lock = threading.Lock()
        self.dropped_connections_total = 0
        self.respawns_total = 0
        self.last_replay: dict[str, Any] | None = None
        # Response cache: digest of the request body → encoded 200 payload.
        # A hit is bit-identical to what a worker would serve again, since
        # resolution is deterministic and the body fixes every input.
        self._responses: OrderedDict[bytes, dict[str, Any]] = OrderedDict()
        self._responses_lock = threading.Lock()
        self.response_cache_hits = 0
        self.response_cache_misses = 0
        self._round_robin = itertools.count()
        self._stopping = False
        self._monitor_wake = threading.Event()
        self._monitor: threading.Thread | None = None

        boot = self._open_log()
        if self.config.workers > 0:
            self._fork_workers()
        else:
            runtime = WorkerRuntime(
                system, self._worker_config, injector=injector, observer=recorder
            )
            self.handles = [InProcessWorker(runtime)]
        self._by_node = {handle.node: handle for handle in self.handles}
        self.ring = ConsistentHashRing(handle.node for handle in self.handles)
        if boot is not None:
            self.recovery = self._replay_boot(*boot)
        else:
            for handle in self.handles:
                handle.mark_ready()
        if self.config.workers > 0:
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="tecore-shard-monitor", daemon=True
            )
            self._monitor.start()

    def close(self) -> None:
        self._stopping = True
        self._monitor_wake.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
        for handle in self.handles:
            handle.stop()
        if self.wal is not None:
            self.wal.close()

    # ------------------------------------------------------------------ #
    # Log, workers and recovery
    # ------------------------------------------------------------------ #
    def _open_log(self) -> tuple[list[dict[str, Any]], bool] | None:
        """Scan the log a previous process left, then open it for appends.

        Returns the scanned records and whether the tail was torn, or None
        when there is no log to replay.  The scan comes first because
        opening the log trims a torn tail.
        """
        if self.config.wal_dir is None:
            return None
        records, torn, segment = scan_wal_dir(self.config.wal_dir)
        self.wal = WriteAheadLog(
            self.config.wal_dir,
            fsync_policy=self.config.fsync_policy,
            fsync_batch=self.config.fsync_batch,
            fsync_interval=self.config.fsync_interval,
            injector=self.injector,
        )
        return (records, torn) if segment is not None else None

    def _fork_workers(self) -> None:
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platforms
            raise TecoreError(
                "forked resolver workers need the 'fork' multiprocessing start "
                "method; use --workers 0 on this platform"
            ) from exc
        self.handles: list[Any] = [WorkerHandle(index) for index in range(self.config.workers)]
        for handle in self.handles:
            self._spawn(handle)

    def _spawn(self, handle: WorkerHandle) -> None:
        # Pipe hygiene: the forked child inherits every *other* worker's
        # parent-side connection; pass them along so the child closes its
        # copies — otherwise one worker's EOF could be masked by a sibling
        # still holding the write end.
        inherited = [
            other.connection
            for other in self.handles
            if other is not handle and other.connection is not None
        ]
        handle.start(self._ctx, self.system, self._worker_config, inherited)

    def _monitor_loop(self) -> None:
        """Detect dead forked workers and bring them back (shard replay included)."""
        while not self._stopping:
            self._monitor_wake.wait(0.05)
            for handle in self.handles:
                if self._stopping:
                    return
                process = handle.process
                if process is None:
                    continue
                if handle.alive and not process.is_alive():
                    handle.mark_dead()
                if not handle.alive:
                    try:
                        self._respawn(handle)
                    except TecoreError:
                        # Replay failed (e.g. the fresh worker died too);
                        # routing keeps answering 503 and the next tick
                        # retries from scratch.
                        handle.mark_dead()

    def _respawn(self, handle: WorkerHandle) -> None:
        process = handle.process
        if process is not None:
            process.join(timeout=5.0)  # reap the killed child
            if process.is_alive():  # pragma: no cover - hung, not dead
                process.terminate()
                process.join(timeout=5.0)
        records: list[dict[str, Any]] = []
        torn = False
        if self.wal is not None:
            records, torn = self.wal.records()
        self._spawn(handle)
        report = self._replay_shard(handle, records, torn)
        handle.mark_ready()  # re-admit only after the shard is rebuilt
        with self._routes_lock:
            self.respawns_total += 1
            self.last_replay = report.as_dict()

    def _replay_boot(self, records: list[dict[str, Any]], torn: bool) -> RecoveryReport:
        """Start-up recovery: replay every shard into its owning worker.

        The sessions skipped over ``max_sessions`` get a ``delete`` record
        before any traffic is admitted, so the skip is durable: a client
        that saw such a session answer 404 never sees it again, neither
        after a compaction nor after a restart with a larger bound.
        """
        combined = RecoveryReport(
            wal_dir=self.config.wal_dir or "",
            records_scanned=len(records),
            torn_tail=torn,
        )
        started = time.perf_counter()
        for handle in self.handles:
            try:
                report = self._replay_shard(handle, records, torn)
            except TecoreError:
                handle.mark_dead()  # the monitor retries this worker
                continue
            handle.mark_ready()
            combined.sessions_restored += report.sessions_restored
            combined.sessions_skipped += report.sessions_skipped
            combined.sessions_failed.extend(report.sessions_failed)
            combined.edits_replayed += report.edits_replayed
            combined.edits_skipped += report.edits_skipped
            combined.sessions_deleted = report.sessions_deleted
            combined.resolves_logged = report.resolves_logged
        assert self.wal is not None  # a boot replay reads the log
        for sid in self._skipped_sessions(fold_records(records)):
            self.wal.append({"kind": "delete", "session_id": sid})
        combined.duration_seconds = time.perf_counter() - started
        return combined

    def _skipped_sessions(self, state: FoldState) -> list[str]:
        """The live sessions of a folded log beyond the ``max_sessions`` most
        recently active, least recently active first."""
        survivors = sorted(state.sessions.values(), key=lambda fold: fold.last_seq)
        surplus = max(len(survivors) - self.config.max_sessions, 0)
        return [fold.session_id for fold in survivors[:surplus]]

    def _replay_shard(
        self, handle: Any, records: list[dict[str, Any]], torn: bool
    ) -> RecoveryReport:
        """Restore the sessions owned by ``handle``'s ring node from the log.

        Only the ``max_sessions`` most recently active sessions of the whole
        log are restored, as admission allows no more; this worker's share
        of the rest counts as skipped.
        """
        started = time.perf_counter()
        report = RecoveryReport(
            wal_dir=self.config.wal_dir or "",
            records_scanned=len(records),
            torn_tail=torn,
        )
        state = fold_records(records)
        report.sessions_deleted = len(state.deleted)
        report.resolves_logged = state.resolves
        skipped = set(self._skipped_sessions(state))
        restored: set[str] = set()
        for fold in sorted(state.sessions.values(), key=lambda fold: fold.last_seq):
            if self.ring.lookup(fold.session_id) != handle.node:
                continue
            if fold.session_id in skipped:
                report.sessions_skipped += 1
                continue
            try:
                status, payload = handle.call(
                    "restore",
                    {
                        "session_id": fold.session_id,
                        "graph": fold.graph_doc,
                        "warm_start": fold.warm_start,
                        "cache_size": fold.cache_size,
                        "edits_applied": fold.base_edits,
                        "edits": fold.edits,
                    },
                    timeout=RESTORE_TIMEOUT,
                )
            except (WorkerDiedError, RequestDeadlineExceeded):
                handle.mark_dead()
                raise
            if status != 200:
                # The same failure the live create would have hit (e.g. a
                # solver error); drop the session rather than the worker.
                report.sessions_failed.append(fold.session_id)
                continue
            restored.add(fold.session_id)
            report.sessions_restored += 1
            report.edits_replayed += int(payload.get("edits_replayed", 0))
            report.edits_skipped += int(payload.get("edits_skipped", 0))
        with self._routes_lock:
            for sid in [
                sid
                for sid, route in self._routes.items()
                if route.node == handle.node and sid not in restored
            ]:
                del self._routes[sid]
            for sid in restored:
                self._routes.setdefault(sid, _SessionRoute(handle.node))
        report.duration_seconds = time.perf_counter() - started
        return report

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def _dispatch(
        self,
        method: str,
        path: str,
        query: str,
        body: bytes,
        op: Any = None,
        deadline: float | None = None,
    ) -> tuple[int, dict[str, Any]]:
        if self.injector is not None:
            self.injector.fire("server.dispatch", method=method, path=path)
        if path == "/healthz" and method == "GET":
            return 200, self._health()
        if path == "/stats" and method == "GET":
            return 200, self._stats()
        if path == "/resolve" and method == "POST":
            return self._resolve(body, op, deadline)
        if path == "/sessions" and method == "POST":
            return self._create_session(decode_json(body), op)
        match = _SESSION_ROUTE.match(path)
        if match:
            sid, tail = match.group("sid"), match.group("tail")
            if tail == "/edits" and method == "POST":
                return self._apply_edits(sid, decode_json(body), op, deadline)
            if tail == "/result" and method == "GET":
                include_graphs = "include_graphs=1" in query or "include_graphs=true" in query
                payload = {"session_id": sid, "include_graphs": include_graphs}
                return self._call_session(sid, "read", payload, op, deadline)
            if tail is None and method == "DELETE":
                # Tombstone-before-unroute: the delete is durable *before*
                # the final state is reported (and before the id stops
                # routing), so recovery never resurrects a session whose
                # deletion a client observed.
                record = {"kind": "delete", "session_id": sid}
                return self._call_session(sid, "delete", {"session_id": sid}, op, deadline, record)
        return 404, {"error": f"no endpoint {method} {path}"}

    def _route(self, sid: str) -> tuple[_SessionRoute, Any]:
        with self._routes_lock:
            route = self._routes.get(sid)
        if route is None:
            raise UnknownSessionError(f"no session {sid!r}")
        return route, self._by_node[route.node]

    def _acquire_route(self, route: _SessionRoute, deadline: float | None) -> None:
        """Take the per-session ordering lock within the deadline (else 504)."""
        remaining = self._remaining(deadline)
        if remaining is None:
            route.lock.acquire()
        elif not route.lock.acquire(timeout=remaining):
            raise RequestDeadlineExceeded(
                f"request deadline of {self.config.request_deadline:g}s exceeded "
                "waiting for the session lock"
            )

    def _require_ready(self, handle: Any) -> None:
        """503 (retryable, pre-WAL, nothing applied) unless admitting."""
        if not (handle.alive and handle.ready):
            raise ServiceOverloadedError(f"resolver worker {handle.index} is restarting; retry")

    def _timeout(self, deadline: float | None) -> float:
        """The batch-queue wait bound, cut to what is left of the deadline."""
        remaining = self._remaining(deadline)
        timeout = self.config.request_timeout
        return timeout if remaining is None else min(timeout, remaining)

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def _resolve(
        self, body: bytes, op: Any = None, deadline: float | None = None
    ) -> tuple[int, dict[str, Any]]:
        document = decode_json(body)
        timeout = self._timeout(deadline)
        key = hashlib.blake2b(body, digest_size=16).digest()
        with self._responses_lock:
            response = self._responses.get(key)
            if response is None:
                self.response_cache_misses += 1
            else:
                self._responses.move_to_end(key)
                self.response_cache_hits += 1
        if response is not None:
            status = 200
            if op is not None:
                self.recorder.on_cache_hit(op.op_id)
        else:
            status, response = self._resolve_on_worker(document, timeout, op)
            if status == 200 and self.config.response_cache > 0:
                with self._responses_lock:
                    self._responses[key] = response
                    self._responses.move_to_end(key)
                    while len(self._responses) > self.config.response_cache:
                        self._responses.popitem(last=False)
        if status == 200 and self.wal is not None:
            # Audit record of an accepted resolve, hit or miss: stateless,
            # so it is appended after success and folded away by compaction.
            graph = document.get("graph", document)
            self.wal.append(
                {
                    "kind": "resolve",
                    "name": str(graph.get("name", "request")),
                    "facts": len(graph.get("facts") or []),
                }
            )
        return status, response

    def _resolve_on_worker(
        self, document: Mapping[str, Any], timeout: float, op: Any
    ) -> tuple[int, dict[str, Any]]:
        handle = self._pick_worker()
        if op is not None:
            op.worker = handle.index
        payload = {
            "document": document,
            "timeout": timeout,
            "tag": op.op_id if op is not None else None,
        }
        try:
            return handle.call("resolve", payload, timeout=timeout + CALL_TIMEOUT_GRACE)
        except WorkerDiedError as exc:
            # Stateless: nothing was logged and nothing survives the
            # worker, so a retryable 503 is honest.
            raise ServiceOverloadedError(
                f"resolver worker died serving /resolve; retry ({exc})"
            ) from exc
        finally:
            handle.release()

    def _pick_worker(self) -> Any:
        """Round-robin over ready workers with an in-flight admission cap."""
        count = len(self.handles)
        start = next(self._round_robin)
        for offset in range(count):
            handle = self.handles[(start + offset) % count]
            if handle.admit(self.config.queue_limit):
                return handle
        raise ServiceOverloadedError("all resolver workers are saturated or restarting; retry")

    def _create_session(
        self, document: Mapping[str, Any], op: Any = None
    ) -> tuple[int, dict[str, Any]]:
        # Validate before admitting or logging: graph first, then cache_size.
        graph = decode_graph(document, default_name="session")
        cache_size = document.get("cache_size", 8192)
        if isinstance(cache_size, bool) or not isinstance(cache_size, int) or cache_size < 1:
            raise ProtocolError(f"cache_size must be a positive integer, got {cache_size!r}")
        warm_start = bool(document.get("warm_start"))
        session_id = secrets.token_hex(8)
        handle = self._by_node[self.ring.lookup(session_id)]
        if op is not None:
            op.worker = handle.index
        with self._routes_lock:
            if len(self._routes) >= self.config.max_sessions:
                raise ServiceOverloadedError(
                    f"session capacity ({self.config.max_sessions}) reached; "
                    "delete sessions or retry later"
                )
            self._routes[session_id] = _SessionRoute(handle.node)
        logged = False
        try:
            self._require_ready(handle)
            if self.wal is not None:
                # Log-before-apply: pin the id, make the create durable, and
                # only then run the initial resolve.  A crash in between is
                # replayed deterministically at the next startup.
                self.wal.append(
                    {
                        "kind": "create",
                        "session_id": session_id,
                        "graph": json_io.to_dict(graph),
                        "warm_start": warm_start,
                        "cache_size": cache_size,
                    }
                )
            logged = True
            status, response = handle.call(
                "create",
                {
                    "session_id": session_id,
                    "document": document,
                    "warm_start": warm_start,
                    "cache_size": cache_size,
                },
            )
        except WorkerDiedError as exc:
            if logged:
                # The create is durable but unacknowledged: recovery will
                # restore it, the client must treat it as pending.
                raise self._dropped(exc) from exc
            with self._routes_lock:
                self._routes.pop(session_id, None)
            raise ServiceOverloadedError(
                f"resolver worker died before the create was logged; retry ({exc})"
            ) from exc
        except BaseException:
            with self._routes_lock:
                self._routes.pop(session_id, None)
            raise
        if status != 201:
            with self._routes_lock:
                self._routes.pop(session_id, None)
        return status, response

    def _apply_edits(
        self,
        sid: str,
        document: Mapping[str, Any],
        op: Any = None,
        deadline: float | None = None,
    ) -> tuple[int, dict[str, Any]]:
        adds, removes = decode_edits(document)  # 400 before anything routes
        record = None
        if self.wal is not None:
            record = {
                "kind": "edit",
                "session_id": sid,
                "adds": [json_io.fact_to_dict(fact) for fact in adds],
                "removes": [json_io.fact_to_dict(fact) for fact in removes],
            }
        payload = {"session_id": sid, "document": document}
        return self._call_session(sid, "edit", payload, op, deadline, record)

    def _call_session(
        self,
        sid: str,
        name: str,
        payload: Mapping[str, Any],
        op: Any,
        deadline: float | None,
        record: dict[str, Any] | None = None,
    ) -> tuple[int, dict[str, Any]]:
        """Run op ``name`` on session ``sid``'s worker under its route lock.

        The route lock orders the session's requests before the WAL append,
        so the log's per-session record order is the worker's apply order.
        The route re-check under the routes lock is the front-end's half of
        the delete-vs-edit guard: a request that lost the route lock to a
        DELETE answers 404, since the delete's response pinned the
        session's final state.  ``record`` is the WAL record of an edit or
        delete, appended (when logging) right before the call.
        """
        route, handle = self._route(sid)
        if op is not None:
            op.worker = handle.index
        self._acquire_route(route, deadline)
        try:
            with self._routes_lock:
                if self._routes.get(sid) is not route:
                    raise UnknownSessionError(f"no session {sid!r}")
            self._require_ready(handle)
            if name == "read":
                try:
                    timeout = self._timeout(deadline) + CALL_TIMEOUT_GRACE
                    return handle.call(name, payload, timeout=timeout)
                except WorkerDiedError as exc:
                    raise ServiceOverloadedError(
                        f"resolver worker died serving the read; retry ({exc})"
                    ) from exc
            if record is not None and self.wal is not None:
                self.wal.append(record)
            try:
                status, response = handle.call(name, payload)
            except WorkerDiedError as exc:
                if name == "delete":
                    # The tombstone is durable: the session can never be
                    # resurrected, so unroute it.
                    with self._routes_lock:
                        self._routes.pop(sid, None)
                raise self._dropped(exc) from exc
            if name == "delete":
                with self._routes_lock:
                    self._routes.pop(sid, None)
            return status, response
        finally:
            route.lock.release()

    def _dropped(self, exc: WorkerDiedError) -> DropConnection:
        """Count a mutation left pending by its worker's death."""
        with self._routes_lock:
            self.dropped_connections_total += 1
        return DropConnection(str(exc))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def _health(self) -> dict[str, Any]:
        with self._routes_lock:
            sessions = len(self._routes)
        health = {
            "status": "ok" if any(handle.ready for handle in self.handles) else "degraded",
            "solver": self.system.solver,
            "engine": self.system.engine,
            "uptime_seconds": round(time.monotonic() - self.started, 3),
            "sessions": sessions,
            "queue_depth": sum(handle.queue_depth for handle in self.handles),
            "durable": self.wal is not None,
        }
        if self.config.workers > 0:
            health.update(
                workers=len(self.handles),
                workers_alive=sum(1 for handle in self.handles if handle.alive),
                workers_ready=sum(1 for handle in self.handles if handle.ready),
                worker_pids=[handle.pid for handle in self.handles],
                respawns=self.respawns_total,
            )
        if self.recovery is not None:
            health["recovered_sessions"] = self.recovery.sessions_restored
        return health

    def _stats(self) -> dict[str, Any]:
        workers = [self._worker_stats(handle) for handle in self.handles]
        reported = [info for info in workers if "batcher" in info]
        stats: dict[str, Any] = {
            "uptime_seconds": round(time.monotonic() - self.started, 3),
            "endpoints": self.metrics.snapshot(),
            "batcher": self._batcher_stats([info["batcher"] for info in reported]),
            "sessions": self._session_stats([info["sessions"] for info in reported]),
        }
        if self.config.workers > 0:
            stats["workers"] = workers
            stats["sharding"] = {
                "workers": len(self.handles),
                "ring_replicas": self.ring.replicas,
                "respawns": self.respawns_total,
                "dropped_connections": self.dropped_connections_total,
            }
            if self.last_replay is not None:
                stats["sharding"]["last_replay"] = self.last_replay
        if self.wal is not None:
            stats["wal"] = self.wal.snapshot()
        if self.recovery is not None:
            stats["recovery"] = self.recovery.as_dict()
        return stats

    @staticmethod
    def _worker_stats(handle: Any) -> dict[str, Any]:
        info: dict[str, Any] = {
            "index": handle.index,
            "node": handle.node,
            "pid": handle.pid,
            "alive": handle.alive,
            "ready": handle.ready,
            "generation": handle.generation,
            "inflight": handle.inflight,
        }
        if handle.alive:
            try:
                status, payload = handle.call("stats", {}, timeout=5.0)
                if status == 200:
                    info.update(payload)
            except TecoreError:
                pass  # a worker mid-crash just reports its flags
        return info

    def _batcher_stats(self, snapshots: list[Mapping[str, Any]]) -> dict[str, Any]:
        """The front-end's response cache over the workers' batchers.

        ``requests`` counts every ``/resolve`` that reached the cache
        lookup.  The workers' counters add up; the mean batch size is their
        enqueued requests over their batches, the largest batch the largest
        of theirs, and ``queue_limit`` the bound each of them applies.
        """

        def total(key: str) -> int:
            return sum(snapshot[key] for snapshot in snapshots)

        with self._responses_lock:
            entries = len(self._responses)
            hits, misses = self.response_cache_hits, self.response_cache_misses
        enqueued, batches = total("enqueued"), total("batches")
        return {
            "response_cache_entries": entries,
            "response_cache_hits": hits,
            "response_cache_misses": misses,
            "response_cache_hit_rate": round(hits / (hits + misses), 4) if hits + misses else 0.0,
            "requests": hits + misses,
            "rejected": total("rejected"),
            "enqueued": enqueued,
            "batches": batches,
            "resolves": total("resolves"),
            "coalesced": total("coalesced"),
            "max_batch_size": max(
                (snapshot["max_batch_size"] for snapshot in snapshots), default=0
            ),
            "mean_batch_size": round(enqueued / batches, 3) if batches else 0.0,
            "queue_depth": total("queue_depth"),
            "queue_limit": self.config.queue_limit,
        }

    def _session_stats(self, snapshots: list[Mapping[str, Any]]) -> dict[str, Any]:
        sessions: dict[str, Any] = {
            key: sum(snapshot[key] for snapshot in snapshots) for key in _SESSION_COUNTERS
        }
        sessions["max_sessions"] = self.config.max_sessions
        hits, misses = sessions["component_cache_hits"], sessions["component_cache_misses"]
        sessions["component_cache_hit_rate"] = (
            round(hits / (hits + misses), 4) if hits + misses else 0.0
        )
        with self._routes_lock:
            sessions["routed"] = len(self._routes)
        return sessions


class _ReplyWriter(io.BufferedIOBase):
    """The handler's ``wfile``: holds what a reply writes and sends it on ``flush``.

    The stdlib handler writes a reply's header block and its body in two
    writes.  Under Nagle's algorithm the body then waits for the client's
    delayed ACK of the headers, ≥ 40 ms per reply on Linux.
    ``BaseHTTPRequestHandler`` flushes ``wfile`` after every request and at
    the end of the connection, so through this writer each reply leaves in
    one write.  (``TCP_NODELAY`` would also end the wait, at two packets a
    reply.)
    """

    def __init__(self, connection: socket.socket) -> None:
        self._connection = connection
        self._held: list[bytes] = []

    def writable(self) -> bool:
        return True

    def write(self, data: bytes) -> int:
        data = bytes(data)
        self._held.append(data)
        return len(data)

    def flush(self) -> None:
        if self._held:
            reply, self._held = b"".join(self._held), []
            self._connection.sendall(reply)


class _RequestHandler(BaseHTTPRequestHandler):
    server: "TecoreHTTPServer"
    protocol_version = "HTTP/1.1"

    def setup(self) -> None:
        super().setup()
        self.wfile = _ReplyWriter(self.connection)

    def handle_expect_100(self) -> bool:
        # The client holds the request body back until this interim reply.
        super().handle_expect_100()
        self.wfile.flush()
        return True

    def _serve(self) -> None:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            status, payload = 400, {"error": "invalid Content-Length header"}
        elif length > MAX_BODY_BYTES:
            # The unread body would be parsed as the next request: close.
            self.close_connection = True
            error = f"request body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
            status, payload = 413, {"error": error}
        else:
            body = self.rfile.read(length) if length else b"{}"
            status, payload = self.server.service.handle(self.command, self.path, body)
        if status is None:
            # The front-end dropped this connection on purpose: the
            # request's worker died after the write-ahead append, so the
            # mutation may or may not take effect after recovery.  Any
            # definite status would over-promise; the client must treat
            # the operation as pending.
            self.close_connection = True
            return
        encoded = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        if status in (503, 504):
            self.send_header("Retry-After", "1")
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(encoded)

    do_GET = do_POST = do_DELETE = _serve

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        pass  # request logging is the metrics' job; keep stderr quiet


class TecoreHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one service front-end.

    The HTTP layer only ever calls the service's ``handle`` and ``close``.
    """

    daemon_threads = True

    def __init__(self, service: ServiceCore) -> None:
        self.service = service
        # ``close`` may only wait for a serving loop that runs in another
        # thread: ``shutdown`` waits for a loop to finish, and blocks for
        # ever when none runs.  The lock orders a loop's start against
        # ``close``.
        self._lock = threading.Lock()
        self._loop_thread: threading.Thread | None = None
        self._closed = False
        super().__init__((service.config.host, service.config.port), _RequestHandler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Serve until :meth:`close`; returns at once after it."""
        with self._lock:
            if self._closed:
                return
            self._loop_thread = threading.current_thread()
        try:
            super().serve_forever(poll_interval)
        finally:
            with self._lock:
                self._loop_thread = None

    def run_in_thread(self) -> threading.Thread:
        """Start serving on a daemon thread (tests and embedded use)."""
        thread = threading.Thread(target=self.serve_forever, name="tecore-serve", daemon=True)
        thread.start()
        return thread

    def close(self) -> None:
        """Stop serving and release the batcher and the listening socket.

        Waits for a serving loop that runs in another thread; a loop in the
        calling thread has already returned (a signal ended it), and a
        server that never served has none.
        """
        with self._lock:
            self._closed = True
            loop = self._loop_thread
        if loop is not None and loop is not threading.current_thread():
            self.shutdown()
        self.server_close()
        self.service.close()


def make_server(
    system: TeCoRe,
    config: ServerConfig | None = None,
    recorder: Any = None,
    injector: Any = None,
) -> TecoreHTTPServer:
    """Build a ready-to-run server (``port=0`` picks a free port).

    ``config.workers`` picks the workers behind the one front-end: 0 (the
    default) serves from one in-process worker, N from N forked ones.
    ``recorder`` optionally attaches a history recorder (see
    :mod:`repro.verify.history`); ``injector`` a fault-injection schedule
    (see :mod:`repro.verify.faults`) — both default to inert.
    """
    return TecoreHTTPServer(ResolutionService(system, config, recorder=recorder, injector=injector))
