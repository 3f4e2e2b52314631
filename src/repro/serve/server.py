"""The ``tecore serve`` HTTP service: concurrent resolution over a UTKG API.

A stdlib-only :class:`http.server.ThreadingHTTPServer` front-end over the
library's serving primitives — one request thread per connection, with all
actual resolution funnelled into the micro-batcher's single flush worker
(one-shot requests) or the per-session locks (stateful sessions):

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

Served responses are bit-identical to direct library calls: ``/resolve``
payloads match :meth:`TeCoRe.resolve <repro.core.tecore.TeCoRe.resolve>` and
session payloads match :class:`~repro.core.session.ResolutionSession`
results, modulo wall-clock timing fields (see
:func:`repro.serve.protocol.stable_view`).
"""

from __future__ import annotations

import io
import json
import re
import secrets
import socket
import threading
import time
from dataclasses import dataclass
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
from .recovery import RecoveryReport, compact_records, recover_from_dir
from .sessions import SessionPool, UnknownSessionError
from .wal import WalError, WriteAheadLog

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
    #: Waiting-request bound; beyond it ``POST /resolve`` returns 503.
    queue_limit: int = 64
    #: Coalesce content-identical in-flight graphs onto one solve.
    coalesce: bool = True
    #: LRU bound on cached /resolve responses by graph content (0 disables).
    response_cache: int = 128
    #: LRU bound on concurrently open sessions.
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
    #: Resolver worker processes for sharded serving (see
    #: :mod:`repro.serve.sharding`); 0 (the default) serves in-process.
    workers: int = 0


class DropConnection(TecoreError):
    """Internal: abandon the connection without sending any HTTP response.

    Raised by the sharded service when a mutating request's worker died
    *after* the write-ahead append: the operation may or may not take
    effect (crash recovery replays the logged record), so any definite
    status — success or failure — could be a lie.  The client observes a
    dropped connection and must treat the operation as pending, exactly
    the ambiguity the serializability checker's pending-operation
    semantics admit.  Never raised by the single-process service.
    """


class ServiceCore:
    """Request plumbing shared by the in-process and sharded services.

    Owns the pieces both front-ends need — config, boot-time program lint,
    per-endpoint metrics, the history-recorder seam, optional WAL handles —
    and the :meth:`handle` loop with its exception → HTTP-status mapping.
    Subclasses implement ``_dispatch`` (endpoint routing) and ``close``.
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
        except ProtocolError as exc:
            status, payload = 400, {"error": str(exc)}
        except UnknownSessionError as exc:
            status, payload = 404, {"error": str(exc)}
        except DropConnection:
            self.metrics.observe(endpoint, time.perf_counter() - started, error=True)
            self._maybe_compact()
            return None, None  # op stays pending: its effect is undecided
        except (ServiceOverloadedError, WalError) as exc:
            status, payload = 503, {"error": str(exc), "retry_after_seconds": 1}
        except RequestDeadlineExceeded as exc:
            status, payload = 504, {"error": str(exc), "retry_after_seconds": 1}
        except TecoreError as exc:
            status, payload = 500, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - a request must never kill the connection silently
            status, payload = 500, {"error": f"internal error: {exc}"}
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

    def _acquire(self, entry: Any, deadline: float | None) -> None:
        """Take a session lock within the request deadline (else 504)."""
        remaining = self._remaining(deadline)
        if remaining is None:
            entry.lock.acquire()
        elif not entry.lock.acquire(timeout=remaining):
            raise RequestDeadlineExceeded(
                f"request deadline of {self.config.request_deadline:g}s exceeded "
                "waiting for the session lock"
            )


class ResolutionService(ServiceCore):
    """Routing and endpoint logic, independent of the HTTP plumbing.

    ``recorder`` is the concurrency-correctness seam (see
    :mod:`repro.verify.history`): when given, every client-visible operation
    — resolve, session create/edit/read/delete — is logged with its
    invocation/response ordering and stable payload, and the recorder also
    receives the batcher's coalesced-group membership as its
    :class:`~repro.serve.batcher.BatchObserver`.  Recording never changes
    serving behaviour; with ``recorder=None`` (the default) the seams are
    inert.
    """

    def __init__(
        self,
        system: TeCoRe,
        config: ServerConfig | None = None,
        recorder: Any = None,
        injector: Any = None,
    ) -> None:
        super().__init__(system, config, recorder=recorder, injector=injector)
        self.batcher = MicroBatcher(
            system.shared_resolver(),
            max_batch=self.config.max_batch,
            max_delay=self.config.batch_delay,
            queue_limit=self.config.queue_limit,
            coalesce=self.config.coalesce,
            cache_size=self.config.response_cache,
            observer=recorder,
            injector=injector,
        )
        self.sessions = SessionPool(
            system, max_sessions=self.config.max_sessions, injector=injector
        )
        # Durability: replay whatever a previous process left in the log
        # *before* opening it for appends (the WAL constructor also trims a
        # torn tail so new frames never follow damaged bytes).
        if self.config.wal_dir is not None:
            self.recovery = recover_from_dir(system, self.sessions, self.config.wal_dir)
            self.wal = WriteAheadLog(
                self.config.wal_dir,
                fsync_policy=self.config.fsync_policy,
                fsync_batch=self.config.fsync_batch,
                fsync_interval=self.config.fsync_interval,
                injector=injector,
            )

    def close(self) -> None:
        self.batcher.close()
        if self.wal is not None:
            self.wal.close()

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
            return 200, self._resolve(decode_json(body), op, deadline)
        if path == "/sessions" and method == "POST":
            return 201, self._create_session(decode_json(body))
        match = _SESSION_ROUTE.match(path)
        if match:
            sid, tail = match.group("sid"), match.group("tail")
            if tail == "/edits" and method == "POST":
                return 200, self._apply_edits(sid, decode_json(body), deadline)
            if tail == "/result" and method == "GET":
                return 200, self._session_result(sid, query, deadline)
            if tail is None and method == "DELETE":
                return 200, self._delete_session(sid, deadline)
        return 404, {"error": f"no endpoint {method} {path}"}

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def _resolve(
        self,
        document: Mapping[str, Any],
        op: Any = None,
        deadline: float | None = None,
    ) -> dict[str, Any]:
        graph = decode_graph(document)
        timeout = self.config.request_timeout
        remaining = self._remaining(deadline)
        if remaining is not None:
            timeout = min(timeout, remaining)
        result = self.batcher.submit(
            graph,
            timeout=timeout,
            tag=op.op_id if op is not None else None,
            shed_depth=self.config.shed_resolve_at,
        )
        if self.wal is not None:
            # Audit record of an *accepted* resolve — stateless, so it is
            # appended after success and folded away by compaction.
            self.wal.append({"kind": "resolve", "name": graph.name, "facts": len(graph)})
        return encode_result(result, include_graphs=bool(document.get("include_graphs")))

    def _create_session(self, document: Mapping[str, Any]) -> dict[str, Any]:
        graph = decode_graph(document, default_name="session")
        cache_size = document.get("cache_size", 8192)
        if not isinstance(cache_size, int) or cache_size < 1:
            raise ProtocolError(f"cache_size must be a positive integer, got {cache_size!r}")
        warm_start = bool(document.get("warm_start"))
        session_id = None
        if self.wal is not None:
            # Log-before-apply: pin the id, make the create durable, and
            # only then run the initial resolve.  A crash in between is
            # replayed deterministically at the next startup.
            session_id = secrets.token_hex(8)
            self.wal.append(
                {
                    "kind": "create",
                    "session_id": session_id,
                    "graph": json_io.to_dict(graph),
                    "warm_start": warm_start,
                    "cache_size": cache_size,
                }
            )
        entry = self.sessions.create(
            graph,
            warm_start=warm_start,
            cache_size=cache_size,
            session_id=session_id,
        )
        with entry.lock:
            payload = encode_result(
                entry.session.result,
                include_graphs=bool(document.get("include_graphs")),
            )
        return {"session_id": entry.session_id, "result": payload}

    def _apply_edits(
        self, sid: str, document: Mapping[str, Any], deadline: float | None = None
    ) -> dict[str, Any]:
        adds, removes = decode_edits(document)
        entry = self.sessions.get(sid)
        self._acquire(entry, deadline)
        try:
            # Re-check after winning the lock: a concurrent DELETE may have
            # reported the session's final state in the meantime, and an
            # edit applied after that response would be unserializable.
            if entry.closed:
                raise UnknownSessionError(f"no session {sid!r}")
            if self.wal is not None:
                # Log-before-apply, under the session lock: the per-session
                # record order in the log is exactly the apply order.
                self.wal.append(
                    {
                        "kind": "edit",
                        "session_id": sid,
                        "adds": [json_io.fact_to_dict(fact) for fact in adds],
                        "removes": [json_io.fact_to_dict(fact) for fact in removes],
                    }
                )
            if self.injector is not None:
                self.injector.fire("session.apply", session_id=sid)
            result = entry.session.apply(adds=adds, removes=removes)
            entry.edits_applied += 1
            payload = encode_result(result, include_graphs=bool(document.get("include_graphs")))
        finally:
            entry.lock.release()
        return {"session_id": sid, "result": payload}

    def _session_result(
        self, sid: str, query: str, deadline: float | None = None
    ) -> dict[str, Any]:
        entry = self.sessions.get(sid)
        include_graphs = "include_graphs=1" in query or "include_graphs=true" in query
        self._acquire(entry, deadline)
        try:
            if entry.closed:
                raise UnknownSessionError(f"no session {sid!r}")
            payload = encode_result(entry.session.result, include_graphs=include_graphs)
        finally:
            entry.lock.release()
        return {"session_id": sid, "result": payload}

    def _delete_session(self, sid: str, deadline: float | None = None) -> dict[str, Any]:
        # Tombstone-before-unroute: the delete must be durable *before* the
        # final state is reported (and before the id stops routing), so a
        # post-crash recovery can never resurrect a session whose deletion
        # a client observed.  A WAL failure here leaves the session alive.
        entry = self.sessions.get(sid)
        self._acquire(entry, deadline)
        try:
            if entry.closed:
                raise UnknownSessionError(f"no session {sid!r}")
            if self.wal is not None:
                self.wal.append({"kind": "delete", "session_id": sid})
            entry.closed = True
            facts = len(entry.session.graph)
            edits = entry.edits_applied
        finally:
            entry.lock.release()
        self.sessions.discard(sid)
        return {"session_id": sid, "deleted": True, "facts": facts, "edits_applied": edits}

    def _health(self) -> dict[str, Any]:
        health = {
            "status": "ok",
            "solver": self.system.solver,
            "engine": self.system.engine,
            "uptime_seconds": round(time.monotonic() - self.started, 3),
            "sessions": len(self.sessions),
            "queue_depth": self.batcher.queue_depth,
            "durable": self.wal is not None,
        }
        if self.recovery is not None:
            health["recovered_sessions"] = self.recovery.sessions_restored
        return health

    def _stats(self) -> dict[str, Any]:
        stats = {
            "uptime_seconds": round(time.monotonic() - self.started, 3),
            "endpoints": self.metrics.snapshot(),
            "batcher": self.batcher.snapshot(),
            "sessions": self.sessions.snapshot(),
        }
        if self.wal is not None:
            stats["wal"] = self.wal.snapshot()
        if self.recovery is not None:
            stats["recovery"] = self.recovery.as_dict()
        return stats


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
            # Sharded serving dropped this connection on purpose: the
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

    ``service`` is any :class:`ServiceCore` — the in-process
    :class:`ResolutionService` or the multi-process
    :class:`~repro.serve.sharding.ShardedResolutionService`; the HTTP layer
    only ever calls ``handle`` and ``close``.
    """

    daemon_threads = True

    def __init__(self, service: ServiceCore) -> None:
        self.service = service
        super().__init__((service.config.host, service.config.port), _RequestHandler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def run_in_thread(self) -> threading.Thread:
        """Start serving on a daemon thread (tests and embedded use)."""
        thread = threading.Thread(target=self.serve_forever, name="tecore-serve", daemon=True)
        thread.start()
        return thread

    def close(self) -> None:
        """Stop serving and release the batcher and the listening socket."""
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

    ``config.workers > 0`` selects the sharded multi-process front-end
    (see :mod:`repro.serve.sharding`); the default serves in-process.
    ``recorder`` optionally attaches a history recorder (see
    :mod:`repro.verify.history`); ``injector`` a fault-injection schedule
    (see :mod:`repro.verify.faults`) — both default to inert.
    """
    config = config or ServerConfig()
    if config.workers > 0:
        from .sharding import ShardedResolutionService

        service: ServiceCore = ShardedResolutionService(
            system, config, recorder=recorder, injector=injector
        )
    else:
        service = ResolutionService(system, config, recorder=recorder, injector=injector)
    return TecoreHTTPServer(service)
