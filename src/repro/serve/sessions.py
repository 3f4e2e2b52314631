"""A concurrent pool of incremental resolution sessions.

Each ``POST /sessions`` creates one
:class:`~repro.core.session.ResolutionSession`; subsequent edits and result
reads address it by id.  Two locking levels keep the pool safe under the
threaded HTTP server:

* the **pool lock** guards only the id → entry map (create/lookup/evict/
  delete are map operations — never a resolve);
* each session's own :attr:`~repro.core.session.ResolutionSession.lock`
  (the thread-safety seam on the session itself) serialises edits and
  result reads *per session*, so concurrent edits to one session are
  applied one at a time against a consistent grounder state while edits to
  different sessions proceed in parallel.

The serving front-end admits at most ``max_sessions`` sessions, so a served
pool never fills; the pool's own LRU bound (creating a session beyond
``max_sessions`` evicts the least recently *used* one) is a guard behind
that admission.  A **deleted** session is closed under its own lock
(:attr:`SessionEntry.closed`), and handlers re-check the flag after
acquiring the lock: the ``DELETE`` response reports the session's final
fact and edit counts, so an in-flight edit that loses the lock race must
answer 404 rather than mutate a session whose final state a client already
observed (the serializability harness in :mod:`repro.verify` caught
exactly that).  An **evicted** session merely becomes unroutable — there
is no client-visible "final state" response, so an in-flight request may
still finish against the orphaned entry safely.
"""

from __future__ import annotations

import secrets
import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Any

from ..core.session import ResolutionSession
from ..errors import TecoreError
from ..kg import TemporalKnowledgeGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.tecore import TeCoRe


class UnknownSessionError(TecoreError):
    """No session with the requested id (served as HTTP 404)."""


class SessionEntry:
    """One pooled session plus its serving bookkeeping."""

    __slots__ = ("session_id", "session", "created", "edits_applied", "closed")

    def __init__(self, session_id: str, session: ResolutionSession) -> None:
        self.session_id = session_id
        self.session = session
        self.created = time.monotonic()
        self.edits_applied = 0
        #: Set under :attr:`lock` when the session is deleted.  Handlers
        #: holding a stale entry reference must re-check it after acquiring
        #: the lock: the delete response pinned the session's final state,
        #: so post-delete operations answer 404 instead of mutating.
        self.closed = False

    @property
    def lock(self) -> threading.RLock:
        return self.session.lock


class SessionPool:
    """LRU-bounded, per-session-locked pool of resolution sessions.

    ``injector`` is the fault-injection seam (see
    :mod:`repro.verify.faults`); when given, it fires at ``pool.create``
    (before the initial resolve) and ``pool.evict`` (under the pool lock,
    as an entry falls off the LRU end).
    """

    def __init__(self, system: "TeCoRe", max_sessions: int = 64, injector: Any = None) -> None:
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        self._system = system
        self.max_sessions = max_sessions
        self.injector = injector
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, SessionEntry]" = OrderedDict()
        self.created_total = 0
        self.evicted_total = 0
        self.deleted_total = 0
        self.restored_total = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------ #
    def create(
        self,
        graph: TemporalKnowledgeGraph,
        warm_start: bool = False,
        cache_size: int = 8192,
        session_id: str | None = None,
    ) -> SessionEntry:
        """Open a session (runs the initial resolve) and register it.

        ``session_id`` lets the durable serve path pin the id it already
        wrote to the write-ahead log; by default a fresh random id is
        generated here.
        """
        if self.injector is not None:
            self.injector.fire("pool.create", session_id=session_id)
        # The initial resolve is the expensive part — do it outside the pool
        # lock so concurrent creates don't serialise on each other.
        session = self._system.session(graph, warm_start=warm_start, cache_size=cache_size)
        if session_id is None:
            session_id = secrets.token_hex(8)
        entry = SessionEntry(session_id, session)
        with self._lock:
            self._entries[session_id] = entry
            self.created_total += 1
            while len(self._entries) > self.max_sessions:
                evicted_id, _ = self._entries.popitem(last=False)
                self.evicted_total += 1
                if self.injector is not None:
                    self.injector.fire("pool.evict", session_id=evicted_id)
        return entry

    def restore(
        self,
        session_id: str,
        graph: TemporalKnowledgeGraph,
        warm_start: bool = False,
        cache_size: int = 8192,
        edits_applied: int = 0,
    ) -> SessionEntry:
        """Re-open a recovered session under its original id.

        Used only by crash recovery (:mod:`repro.serve.recovery`):
        identical to :meth:`create` except the id is pinned and the
        ``edits_applied`` counter is seeded from the log (compaction bakes
        earlier edits into the snapshot graph).
        """
        entry = self.create(
            graph, warm_start=warm_start, cache_size=cache_size, session_id=session_id
        )
        entry.edits_applied = edits_applied
        with self._lock:
            self.restored_total += 1
        return entry

    def get(self, session_id: str) -> SessionEntry:
        """Look up a session and mark it most recently used."""
        with self._lock:
            entry = self._entries.get(session_id)
            if entry is None:
                raise UnknownSessionError(f"no session {session_id!r}")
            self._entries.move_to_end(session_id)
            return entry

    def delete(self, session_id: str) -> SessionEntry:
        with self._lock:
            entry = self._entries.pop(session_id, None)
            if entry is None:
                raise UnknownSessionError(f"no session {session_id!r}")
            self.deleted_total += 1
            return entry

    def discard(self, session_id: str) -> None:
        """Unroute a session if still present (no error when evicted).

        The delete op closes the entry under its own lock, then unroutes it
        here.
        """
        with self._lock:
            if self._entries.pop(session_id, None) is not None:
                self.deleted_total += 1

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict[str, Any]:
        """Pool and aggregated component-cache statistics for ``/stats``."""
        with self._lock:
            entries = list(self._entries.values())
            counters = {
                "active": len(entries),
                "max_sessions": self.max_sessions,
                "created": self.created_total,
                "evicted": self.evicted_total,
                "deleted": self.deleted_total,
                "restored": self.restored_total,
            }
        hits = misses = edits = steps = 0
        for entry in entries:
            # Plain int reads — consistent enough for monitoring without
            # taking every per-session lock.
            hits += entry.session.cache.hits
            misses += entry.session.cache.misses
            steps += entry.session.steps
            edits += entry.edits_applied
        lookups = hits + misses
        counters.update(
            {
                "edits_applied": edits,
                "resolve_steps": steps,
                "component_cache_hits": hits,
                "component_cache_misses": misses,
                "component_cache_hit_rate": round(hits / lookups, 4) if lookups else 0.0,
            }
        )
        return counters
