"""Client-visible operation histories of the resolution service.

The concurrency-correctness harness treats the serving tier as a black box:
the only admissible evidence is what clients can observe — which requests
they issued, which responses they received, and in what *real-time order*
(one request completing before another is invoked is an ordering every
client can witness with a wall clock).  This module defines that evidence.

History model
-------------
A :class:`History` is a finite set of :class:`Operation` records over a
single logical clock: every invocation and every response draws one tick
from a shared monotonic counter, so ``a.completed < b.invoked`` is exactly
the *happens-before* relation of the history — operation ``b`` was issued
after operation ``a``'s response had already been delivered.  Operations
whose intervals overlap are **concurrent**: a correct serialization may
order them either way.

Recorded operation kinds (one per client-visible endpoint):

========================  ====================================================
``resolve``               ``POST /resolve`` (stateless, batched/coalesced)
``session_create``        ``POST /sessions``
``session_edit``          ``POST /sessions/{id}/edits``
``session_read``          ``GET /sessions/{id}/result``
``session_delete``        ``DELETE /sessions/{id}``
========================  ====================================================

Beyond the request/response pairs the history also captures two serving-tier
decisions that carry correctness obligations of their own (see
:mod:`repro.verify.checker`): the **coalesced groups** each batch flush
collapsed onto a single solve, reported through the
:class:`~repro.serve.batcher.BatchObserver` seam of the in-process worker's
batcher, and which requests the front-end answered from its **response
cache**, reported through :meth:`HistoryRecorder.on_cache_hit` — both with
operation ids as tags.  The recorder attaches to
:class:`~repro.serve.server.ResolutionService`, the one front-end
``tecore serve`` runs for every ``--workers`` value.

The on-disk format (``History.save``/``History.load``) is plain JSON with a
``version`` field, so violating histories can be committed as regression
fixtures and replayed bit-for-bit by ``tecore verify --history``.  See
``docs/verification.md`` for the full format reference.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Optional

#: Version stamp of the JSON history format.
HISTORY_FORMAT_VERSION = 1

#: Every operation kind the recorder emits.
OPERATION_KINDS = (
    "resolve",
    "session_create",
    "session_edit",
    "session_read",
    "session_delete",
)

#: Kinds routed to ``/sessions/{id}`` (carry a ``session_id``).
SESSION_KINDS = ("session_edit", "session_read", "session_delete")


@dataclass
class Operation:
    """One client-visible request/response pair.

    ``invoked`` and ``completed`` are ticks of the history's single logical
    clock; ``completed is None`` marks an operation still in flight when the
    history was snapshotted (its response is unconstrained).  ``request`` is
    the decoded JSON request body (``None`` when the body was malformed —
    the serving tier still answers such requests, with a 400).
    """

    op_id: int
    kind: str
    invoked: int
    request: Optional[dict[str, Any]] = None
    session_id: Optional[str] = None
    completed: Optional[int] = None
    status: Optional[int] = None
    response: Optional[dict[str, Any]] = None
    #: Index of the resolver worker that served the operation (0 for the
    #: one in-process worker of ``--workers 0``); None when the request
    #: never reached a worker.  Purely diagnostic provenance — the checker
    #: never reads it.
    worker: Optional[int] = None

    @property
    def ok(self) -> bool:
        """Completed with a success status (the response binds the checker)."""
        return self.status is not None and self.status < 400

    def happens_before(self, other: "Operation") -> bool:
        """Real-time order: this response was delivered before ``other`` began."""
        return self.completed is not None and self.completed < other.invoked

    def to_dict(self) -> dict[str, Any]:
        entry = {
            "op_id": self.op_id,
            "kind": self.kind,
            "invoked": self.invoked,
            "request": self.request,
            "session_id": self.session_id,
            "completed": self.completed,
            "status": self.status,
            "response": self.response,
        }
        if self.worker is not None:
            entry["worker"] = self.worker
        return entry

    @classmethod
    def from_dict(cls, entry: dict[str, Any]) -> "Operation":
        return cls(
            op_id=int(entry["op_id"]),
            kind=str(entry["kind"]),
            invoked=int(entry["invoked"]),
            request=entry.get("request"),
            session_id=entry.get("session_id"),
            completed=entry.get("completed"),
            status=entry.get("status"),
            response=entry.get("response"),
            worker=entry.get("worker"),
        )


@dataclass
class History:
    """A recorded set of operations plus the batcher's serving decisions.

    ``groups`` lists, per batch flush, the op-ids of every coalesced group
    (singletons included) in resolve order; ``cache_hits`` lists the op-ids
    answered straight from the response cache.  ``metadata`` is free-form
    provenance (workload seed, config, recording wall-clock) carried through
    save/load untouched.
    """

    operations: list[Operation] = field(default_factory=list)
    groups: list[list[int]] = field(default_factory=list)
    cache_hits: list[int] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations)

    def by_id(self, op_id: int) -> Operation:
        """Look an operation up by id (ids are dense but not positional
        after sub-history extraction)."""
        for operation in self.operations:
            if operation.op_id == op_id:
                return operation
        raise KeyError(f"history has no operation {op_id}")

    def session_ids(self) -> list[str]:
        """Every session id touched, in first-appearance order."""
        seen: dict[str, None] = {}
        for operation in self.operations:
            sid = operation.session_id
            if sid is None and operation.kind == "session_create" and operation.ok:
                sid = (operation.response or {}).get("session_id")
            if isinstance(sid, str):
                seen.setdefault(sid)
        return list(seen)

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": HISTORY_FORMAT_VERSION,
            "metadata": self.metadata,
            "operations": [operation.to_dict() for operation in self.operations],
            "groups": self.groups,
            "cache_hits": self.cache_hits,
        }

    @classmethod
    def from_dict(cls, document: dict[str, Any]) -> "History":
        version = document.get("version")
        if version != HISTORY_FORMAT_VERSION:
            raise ValueError(
                f"unsupported history format version {version!r} "
                f"(expected {HISTORY_FORMAT_VERSION})"
            )
        return cls(
            operations=[Operation.from_dict(entry) for entry in document["operations"]],
            groups=[[int(op_id) for op_id in group] for group in document.get("groups", [])],
            cache_hits=[int(op_id) for op_id in document.get("cache_hits", [])],
            metadata=dict(document.get("metadata", {})),
        )

    def save(self, path: str | Path) -> None:
        """Write the history as JSON (the regression-fixture format)."""
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: str | Path) -> "History":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


class HistoryRecorder:
    """Thread-safe recorder wired into :class:`~repro.serve.server.ResolutionService`.

    One instance serves simultaneously as the service's operation log
    (``begin``/``complete`` around every dispatch, ``on_cache_hit`` for
    requests the front-end answered from its response cache) and as the
    in-process worker's batcher's :class:`~repro.serve.batcher.BatchObserver`
    (coalesced groups); both notifications arrive tagged with op-ids.  All
    mutation is
    under one lock; the logical clock ticks once per invocation and once
    per response, giving the total order the checker's happens-before
    relation is defined on.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._clock = 0
        self._operations: list[Operation] = []
        self._groups: list[list[int]] = []
        self._cache_hits: list[int] = []

    # -- service seam --------------------------------------------------- #
    def begin(
        self,
        kind: str,
        request: Optional[dict[str, Any]] = None,
        session_id: Optional[str] = None,
    ) -> Operation:
        """Open an operation at the next clock tick (called pre-dispatch)."""
        with self._lock:
            self._clock += 1
            operation = Operation(
                op_id=len(self._operations),
                kind=kind,
                invoked=self._clock,
                request=request,
                session_id=session_id,
            )
            self._operations.append(operation)
            return operation

    def complete(self, operation: Operation, status: int, response: dict[str, Any]) -> None:
        """Close an operation with its response at the next clock tick."""
        with self._lock:
            self._clock += 1
            operation.completed = self._clock
            operation.status = status
            operation.response = response

    # -- response-cache and BatchObserver seams --------------------------- #
    def on_cache_hit(self, tag: Any) -> None:
        with self._lock:
            self._cache_hits.append(tag)

    def on_flush(self, groups: list[list[Any]]) -> None:
        with self._lock:
            for group in groups:
                tags = [tag for tag in group if tag is not None]
                if tags:
                    self._groups.append(tags)

    # -- snapshot --------------------------------------------------------- #
    def history(self, metadata: Optional[dict[str, Any]] = None) -> History:
        """Snapshot the recording (safe while the service keeps running)."""
        with self._lock:
            return History(
                operations=list(self._operations),
                groups=[list(group) for group in self._groups],
                cache_hits=list(self._cache_hits),
                metadata=dict(metadata or {}),
            )
