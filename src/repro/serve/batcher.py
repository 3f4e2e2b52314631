"""Micro-batching for concurrent one-shot resolution requests.

Concurrent ``POST /resolve`` requests do not each get their own translator
and solver: they are parked in a bounded queue and drained by a single flush
worker, which serves every batch through one shared
:class:`~repro.core.tecore.SharedResolver` (one translator, one back-end —
the thread-confinement contract of that class is satisfied by construction,
since only the flush worker ever touches it).

Batching policy
---------------
* **flush on size** — a batch is closed as soon as ``max_batch`` requests
  are waiting;
* **flush on deadline** — otherwise the oldest waiting request is served at
  most ``max_delay`` seconds after it arrived (the micro-batching window);
* **backpressure** — submissions beyond ``queue_limit`` waiting requests
  fail fast with :class:`ServiceOverloadedError`, which the HTTP layer maps
  to ``503 Retry-After`` instead of letting the queue grow without bound;
* **coalescing** — within one batch, requests whose graphs are
  content-identical (same name, statements, confidences, and statement
  order — see :func:`repro.serve.protocol.graph_content_key`) share a
  single resolve: resolution is a pure function of that content, so every
  coalesced requester receives the bit-identical result it would have
  gotten from its own solve.  This is the classic collapsed-forwarding
  optimisation for hot-key traffic.

Repeats across batch windows are the front-end's business: it keeps the
one response cache, of encoded payloads keyed by the request body (see
:class:`~repro.serve.server.ResolutionService`), so a hit never reaches a
batcher.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Optional

from ..core.result import ResolutionResult
from ..core.tecore import SharedResolver
from ..errors import TecoreError
from ..kg import TemporalKnowledgeGraph
from .protocol import graph_content_key


class ServiceOverloadedError(TecoreError):
    """The request queue is full (served as HTTP 503 with Retry-After)."""


class RequestDeadlineExceeded(TecoreError):
    """A request overran its deadline (served as HTTP 504 with Retry-After).

    Raised both by :meth:`MicroBatcher.submit` when the batch-queue wait
    exceeds its timeout and by the session endpoints when a per-session
    lock cannot be acquired within the configured ``request_deadline``.
    The work already enqueued may still complete server-side — the client
    only loses the response, exactly like a real gateway timeout."""


class _PendingRequest:
    __slots__ = ("graph", "key", "tag", "arrival", "done", "result", "error")

    def __init__(self, graph: TemporalKnowledgeGraph, keyed: bool, tag: Any = None) -> None:
        self.graph = graph
        self.key = graph_content_key(graph) if keyed else None
        self.tag = tag
        self.arrival = time.monotonic()
        self.done = threading.Event()
        self.result: Optional[ResolutionResult] = None
        self.error: Optional[BaseException] = None


class BatchObserver:
    """Observation seam for the concurrency-correctness harness.

    An observer sees the *client-visible* serving decision the batcher makes
    for tagged requests: which groups of in-flight requests were coalesced
    onto a single solve.  The callback runs on the flush worker and must be
    cheap and exception-free; tags are the opaque values callers passed to
    :meth:`MicroBatcher.submit`.
    """

    def on_flush(self, groups: list[list[Any]]) -> None:  # pragma: no cover - interface
        """One batch flushed; ``groups`` holds the tags of each coalesced
        group (singletons included, in resolve order)."""


class MicroBatcher:
    """Bounded-queue micro-batcher over one shared resolver.

    Parameters
    ----------
    resolver:
        The :class:`~repro.core.tecore.SharedResolver` every batch is served
        through.  Only the internal flush worker calls it.
    max_batch:
        Flush as soon as this many requests are waiting.
    max_delay:
        Maximum seconds a request waits for companions before its batch is
        flushed anyway.
    queue_limit:
        Maximum number of waiting (not yet flushed) requests; submissions
        beyond it raise :class:`ServiceOverloadedError`.
    coalesce:
        Serve content-identical graphs within a batch with one solve.
    observer:
        Optional :class:`BatchObserver` notified of coalesced-group
        membership (the history recorder's seam).
    injector:
        Optional fault-injection seam (see :mod:`repro.verify.faults`);
        fires at ``batcher.submit`` (before queueing, on the caller's
        thread) and ``batcher.solve`` (before each batch resolve, on the
        flush worker — whose errors are delivered to every waiter).
    """

    def __init__(
        self,
        resolver: SharedResolver,
        max_batch: int = 8,
        max_delay: float = 0.01,
        queue_limit: int = 64,
        coalesce: bool = True,
        observer: Optional[BatchObserver] = None,
        injector: Any = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self._resolver = resolver
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.queue_limit = queue_limit
        self.coalesce = coalesce
        self.observer = observer
        self.injector = injector
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._queue: deque[_PendingRequest] = deque()
        self._closed = False
        self._paused = False
        # Serving counters (read by /stats; mutated under the lock).
        self.requests_total = 0
        self.enqueued_total = 0
        self.rejected_total = 0
        self.batches_flushed = 0
        self.resolves_total = 0
        self.coalesced_total = 0
        self.max_batch_seen = 0
        self._worker = threading.Thread(target=self._run, name="tecore-batch-flush", daemon=True)
        self._worker.start()

    # ------------------------------------------------------------------ #
    # Client side
    # ------------------------------------------------------------------ #
    def submit(
        self,
        graph: TemporalKnowledgeGraph,
        timeout: Optional[float] = 60.0,
        tag: Any = None,
        shed_depth: Optional[int] = None,
    ) -> ResolutionResult:
        """Serve one graph: enqueue it and await its batch.

        ``tag`` is an opaque correlation value (e.g. a history-recorder
        operation id) echoed back through the :class:`BatchObserver`
        callback; it never influences serving decisions.

        ``shed_depth`` lowers the admission bound for *this* submission
        below ``queue_limit`` — graceful degradation: the service sheds
        one-shot ``/resolve`` traffic at a shallower queue depth so session
        edits (which never enter this queue) keep their request threads.
        """
        if self.injector is not None:
            self.injector.fire("batcher.submit", tag=tag)
        pending = _PendingRequest(graph, self.coalesce, tag)
        with self._wakeup:
            if self._closed:
                raise TecoreError("micro-batcher is closed")
            self.requests_total += 1
            limit = self.queue_limit
            if shed_depth is not None:
                limit = min(limit, shed_depth)
            if len(self._queue) >= limit:
                self.rejected_total += 1
                raise ServiceOverloadedError(f"resolution queue is full ({limit} waiting requests)")
            self._queue.append(pending)
            self.enqueued_total += 1
            self._wakeup.notify()
        if not pending.done.wait(timeout):
            raise RequestDeadlineExceeded(
                f"resolution timed out after {timeout:g}s in the batch queue"
            )
        if pending.error is not None:
            raise pending.error
        assert pending.result is not None
        return pending.result

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    def wait_for_queue_depth(self, depth: int, timeout: float = 5.0) -> bool:
        """Block until at least ``depth`` requests are waiting (or timeout).

        Event-based synchronization for tests and the verification harness:
        every ``submit`` notifies the internal condition, so this never
        needs a polling sleep loop.  Returns ``False`` on timeout.
        """
        deadline = time.monotonic() + timeout
        with self._wakeup:
            while len(self._queue) < depth:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._wakeup.wait(remaining)
            return True

    def pause(self) -> None:
        """Hold the flush worker: queued requests accumulate until resume.

        A deterministic scheduling control point for tests and the
        concurrency harness — with the worker paused, submissions pile up in
        the bounded queue (eventually hitting backpressure) and a subsequent
        :meth:`resume` flushes them as one batch, which forces coalescing
        windows without wall-clock tuning.  ``close`` drains regardless.
        """
        with self._wakeup:
            self._paused = True

    def resume(self) -> None:
        """Release a paused flush worker."""
        with self._wakeup:
            self._paused = False
            self._wakeup.notify_all()

    def close(self) -> None:
        """Flush whatever is queued and stop the worker."""
        with self._wakeup:
            if self._closed:
                return
            self._closed = True
            self._wakeup.notify()
        self._worker.join()

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "requests": self.requests_total,
                "rejected": self.rejected_total,
                "enqueued": self.enqueued_total,
                "batches": self.batches_flushed,
                "resolves": self.resolves_total,
                "coalesced": self.coalesced_total,
                "max_batch_size": self.max_batch_seen,
                "mean_batch_size": (
                    round(self.enqueued_total / self.batches_flushed, 3)
                    if self.batches_flushed
                    else 0.0
                ),
                "queue_depth": len(self._queue),
                "queue_limit": self.queue_limit,
            }

    # ------------------------------------------------------------------ #
    # Flush worker
    # ------------------------------------------------------------------ #
    def _collect(self) -> list[_PendingRequest]:
        """Wait for work, honour the batching window, and drain one batch."""
        with self._wakeup:
            # A pause holds the worker here; close always drains the queue.
            while (not self._queue or self._paused) and not self._closed:
                self._wakeup.wait()
            if not self._queue:
                return []
            deadline = self._queue[0].arrival + self.max_delay
            while len(self._queue) < self.max_batch and not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._wakeup.wait(timeout=remaining)
            size = min(self.max_batch, len(self._queue))
            return [self._queue.popleft() for _ in range(size)]

    def _flush(self, batch: list[_PendingRequest]) -> None:
        coalesced = 0
        flushed_groups: list[list[Any]] = []
        try:
            if self.injector is not None:
                self.injector.fire("batcher.solve", size=len(batch))
            if self.coalesce:
                groups: dict[tuple, list[_PendingRequest]] = {}
                order: list[tuple] = []
                for pending in batch:
                    members = groups.get(pending.key)
                    if members is None:
                        groups[pending.key] = [pending]
                        order.append(pending.key)
                    else:
                        members.append(pending)
                resolved = self._resolver.resolve_many(groups[key][0].graph for key in order)
                for key, result in zip(order, resolved):
                    for pending in groups[key]:
                        pending.result = result
                flushed_groups = [[pending.tag for pending in groups[key]] for key in order]
                coalesced = len(batch) - len(order)
                resolves = len(order)
            else:
                resolved = self._resolver.resolve_many(pending.graph for pending in batch)
                for pending, result in zip(batch, resolved):
                    pending.result = result
                flushed_groups = [[pending.tag] for pending in batch]
                resolves = len(batch)
        except BaseException as exc:  # noqa: BLE001 - delivered to the waiters
            for pending in batch:
                pending.error = exc
            resolves = 0
        finally:
            # The observer must see the grouping before any waiter can issue
            # a follow-up request that depends on this response.
            if self.observer is not None and flushed_groups:
                self.observer.on_flush(flushed_groups)
            for pending in batch:
                pending.done.set()
        with self._lock:
            self.batches_flushed += 1
            self.resolves_total += resolves
            self.coalesced_total += coalesced
            self.max_batch_seen = max(self.max_batch_seen, len(batch))

    def _run(self) -> None:
        while True:
            batch = self._collect()
            if not batch:
                return
            self._flush(batch)
