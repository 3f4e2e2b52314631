"""How the front-end reaches its resolver workers.

:class:`~repro.serve.server.ResolutionService` is the one front-end for
every ``tecore serve --workers`` value.  It talks to each worker through a
handle with one surface — :meth:`call` an op, :meth:`admit`/:meth:`release`
a ``/resolve`` slot, ``alive``/``ready`` flags — of one of two kinds:

* :class:`InProcessWorker` (``--workers 0``, the default): one
  :class:`~repro.serve.server.WorkerRuntime` in the front-end's own
  process.  A call is a direct call on the request thread: no pipe, no
  pickling, no thread hop.
* :class:`WorkerHandle` (``--workers N``): one forked worker process
  (:func:`repro.serve.worker.worker_main`) behind a
  :mod:`multiprocessing` pipe, with a reader thread that hands each
  response to the request thread waiting for it.

::

                       ┌────────────────────────────┐
      HTTP clients ──▶ │ front-end                  │
                       │  socket · WAL · admission  │
                       │  response cache · ring     │
                       └──┬─────────┬─────────┬─────┘
                    pipe  │         │         │   (documents, change-stream
                          ▼         ▼         ▼    edits, restores)
                       worker 0  worker 1  worker 2
                       batcher   batcher   batcher
                       sessions  sessions  sessions

Sessions are placed by **consistent hashing** on the session id
(:class:`ConsistentHashRing`), so every edit/read/delete of a session lands
on the worker holding its grounder state, and a ring change moves only
~1/N of the sessions; one-shot ``/resolve`` requests go **round-robin**
over the ready workers.  With one worker, every key maps to it.

A forked worker can die on its own (e.g. SIGKILL).  Its handle then fails
every pending call with :class:`WorkerDiedError`; the front-end's monitor
thread respawns it and replays its shard from the write-ahead log before
re-admitting traffic.  What clients observe:

=============================================  ===========================
worker dead/replaying before the WAL append    503 + Retry-After (no
                                               record, nothing applied)
worker died *after* the append (mutating op)   connection dropped with no
                                               response — the operation is
                                               pending; recovery replays
                                               the logged record
one-shot resolve or read failure               503 (stateless, retryable)
=============================================  ===========================

The dropped connection is deliberate: a 503 would promise "not applied"
and a 200 would promise "applied", but recovery decides later.  The
serializability checker's pending-operation semantics admit exactly this
("a pending edit may take effect at any legal point of the serialization,
or not at all"), and the chaos clients never resend a mutating request
whose connection dropped.  The in-process worker cannot die apart from the
front-end, so none of this arises at ``--workers 0``.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from bisect import bisect_right, insort
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from ..errors import TecoreError
from .batcher import RequestDeadlineExceeded
from .worker import worker_main

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.tecore import TeCoRe
    from .server import ServerConfig, WorkerRuntime

#: Virtual nodes per worker on the hash ring.
RING_REPLICAS = 64

#: Grace added to worker call timeouts over the request's own budget, so
#: the worker's in-band 504 (which carries the precise error) wins the race
#: against the front-end's pipe timeout.
CALL_TIMEOUT_GRACE = 5.0

#: Bound on one shard replay (initial resolves plus edit replays).
RESTORE_TIMEOUT = 300.0


class WorkerDiedError(TecoreError):
    """A resolver worker exited (or its pipe broke) mid-conversation."""


class ConsistentHashRing:
    """Consistent hashing of string keys onto named nodes.

    Each node owns ``replicas`` points on a 64-bit ring (blake2b); a key
    routes to the first point at or after its own hash, wrapping around.
    Adding or removing one node moves only the keys of the arcs that node
    owns — about ``1/len(nodes)`` of the key space — which is what keeps a
    worker-count change from reshuffling every session (the rebalance
    property the unit tests pin).  Not thread-safe by itself; the
    front-end builds it once and never mutates it while serving.
    """

    def __init__(self, nodes: Iterable[str] = (), replicas: int = RING_REPLICAS) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._points: list[tuple[int, str]] = []
        self._nodes: set[str] = set()
        for node in nodes:
            self.add(node)

    @staticmethod
    def _hash(key: str) -> int:
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")

    def add(self, node: str) -> None:
        if node in self._nodes:
            raise ValueError(f"node {node!r} is already on the ring")
        self._nodes.add(node)
        for replica in range(self.replicas):
            insort(self._points, (self._hash(f"{node}#{replica}"), node))

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            raise ValueError(f"node {node!r} is not on the ring")
        self._nodes.discard(node)
        self._points = [point for point in self._points if point[1] != node]

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def lookup(self, key: str) -> str:
        """The node owning ``key`` (deterministic for a fixed node set)."""
        if not self._points:
            raise ValueError("cannot look up a key on an empty ring")
        index = bisect_right(self._points, (self._hash(key), ""))
        return self._points[index % len(self._points)][1]


class _PendingCall:
    """One in-flight request to a worker, awaited by a front-end thread."""

    __slots__ = ("event", "status", "payload", "failed")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.status: int | None = None
        self.payload: dict[str, Any] | None = None
        self.failed = False


class WorkerHandle:
    """One resolver worker process and its front-end bookkeeping.

    All hand-offs go through :meth:`call`: the caller registers a pending
    slot, the dedicated reader thread distributes responses by request id.
    ``alive`` tracks the pipe/process; ``ready`` additionally gates client
    traffic (False while a respawned worker replays its shard).
    """

    def __init__(self, index: int) -> None:
        self.index = index
        self.node = f"w{index}"
        self.process: Any = None
        self.generation = 0
        self._conn: Any = None
        self._lock = threading.Lock()
        self._calls: dict[int, _PendingCall] = {}
        self._request_ids = itertools.count()
        self.alive = False
        self.ready = False
        self.inflight = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self, ctx: Any, system: TeCoRe, config: ServerConfig, inherited: list[Any]) -> None:
        """Fork a fresh worker process and begin reading its pipe."""
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=worker_main,
            # The child also inherits its *own* parent-side end (the object
            # exists before the fork); it must close that copy too, or EOF
            # would never reach it when the front-end dies.
            args=(child_conn, inherited + [parent_conn], system, config, self.index),
            name=f"tecore-worker-{self.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        with self._lock:
            self._conn = parent_conn
            self.process = process
            self.generation += 1
            self.alive = True
            self.ready = False
        reader = threading.Thread(
            target=self._read_loop,
            args=(parent_conn,),
            name=f"tecore-worker-{self.index}-reader",
            daemon=True,
        )
        reader.start()

    @property
    def connection(self) -> Any:
        with self._lock:
            return self._conn

    @property
    def pid(self) -> int | None:
        process = self.process
        return process.pid if process is not None else None

    def mark_ready(self) -> None:
        with self._lock:
            if self.alive:
                self.ready = True

    def mark_dead(self, conn: Any = None) -> None:
        """Fail every pending call and stop admitting traffic.

        ``conn`` guards against a stale reader of a previous generation
        declaring the *respawned* worker dead.
        """
        with self._lock:
            if conn is not None and conn is not self._conn:
                return
            self.alive = False
            self.ready = False
            calls, self._calls = self._calls, {}
        for call in calls.values():
            call.failed = True
            call.event.set()

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful shutdown: ask the worker to exit, then make sure."""
        process = self.process
        try:
            self.call("shutdown", {}, timeout=timeout)
        except TecoreError:
            pass
        self.mark_dead()
        if process is not None:
            process.join(timeout=timeout)
            if process.is_alive():
                process.terminate()
                process.join(timeout=timeout)
        with self._lock:
            conn, self._conn = self._conn, None
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed is fine
                pass

    # ------------------------------------------------------------------ #
    # Calls
    # ------------------------------------------------------------------ #
    def call(
        self, op: str, payload: Mapping[str, Any], timeout: float | None = None
    ) -> tuple[int, dict[str, Any]]:
        """Send one op and await its response; raises on death or timeout."""
        pending = _PendingCall()
        with self._lock:
            if not self.alive:
                raise WorkerDiedError(f"worker {self.index} is not running")
            request_id = next(self._request_ids)
            self._calls[request_id] = pending
            try:
                self._conn.send((request_id, op, dict(payload)))
            except (OSError, ValueError, BrokenPipeError) as exc:
                del self._calls[request_id]
                self.alive = False
                self.ready = False
                raise WorkerDiedError(f"worker {self.index} pipe broke: {exc}") from exc
        if not pending.event.wait(timeout):
            with self._lock:
                self._calls.pop(request_id, None)
            raise RequestDeadlineExceeded(
                f"worker {self.index} did not answer {op!r} within {timeout:g}s"
            )
        if pending.failed:
            raise WorkerDiedError(f"worker {self.index} died mid-request")
        assert pending.status is not None and pending.payload is not None
        return pending.status, pending.payload

    def _read_loop(self, conn: Any) -> None:
        """Distribute worker responses to their pending calls (one thread)."""
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            request_id, status, payload = message
            with self._lock:
                pending = self._calls.pop(request_id, None)
            if pending is not None:
                pending.status = status
                pending.payload = payload
                pending.event.set()
        self.mark_dead(conn)

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #
    def admit(self, limit: int) -> bool:
        """Reserve one in-flight resolve slot (False when saturated)."""
        with self._lock:
            if not (self.alive and self.ready) or self.inflight >= limit:
                return False
            self.inflight += 1
            return True

    def release(self) -> None:
        with self._lock:
            self.inflight -= 1

    @property
    def queue_depth(self) -> int:
        """Resolves in flight to this worker: the front-end's view of its queue."""
        return self.inflight


class InProcessWorker:
    """The one worker of ``--workers 0``: a runtime called on the request thread.

    The :class:`WorkerHandle` surface over a
    :class:`~repro.serve.server.WorkerRuntime` in the front-end's process.
    It cannot die apart from the front-end, so it is always ready and never
    respawned.  It admits every ``/resolve``: its batcher's ``queue_limit``
    and ``shed_resolve_at`` alone answer 503.  An exception that escapes
    :meth:`~repro.serve.server.WorkerRuntime.dispatch` (an injected crash)
    reaches the request thread unchanged.
    """

    index = 0
    node = "w0"
    pid = None
    generation = 1
    alive = True
    ready = True
    inflight = 0

    def __init__(self, runtime: WorkerRuntime) -> None:
        self.runtime = runtime

    def call(
        self, op: str, payload: Mapping[str, Any], timeout: float | None = None
    ) -> tuple[int, dict[str, Any]]:
        """Run one op directly; ``timeout`` bounds only a pipe, so it is unused."""
        return self.runtime.dispatch(op, payload)

    def admit(self, limit: int) -> bool:
        return True

    def release(self) -> None:
        pass

    def mark_ready(self) -> None:
        pass

    @property
    def queue_depth(self) -> int:
        return self.runtime.batcher.queue_depth

    def stop(self) -> None:
        self.runtime.close()
