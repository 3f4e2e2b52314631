"""Crash recovery for the serving tier: fold the WAL into per-session histories.

On a ``tecore serve --wal-dir`` startup, and when a forked worker is
respawned, the front-end (:class:`~repro.serve.server.ResolutionService`)
scans the active log segment (tolerating a torn tail, see
:mod:`repro.serve.wal`), folds it with :func:`fold_records`, and sends each
surviving session to its owning worker as a ``restore`` op.  The worker
rebuilds the session and replays its logged edits **through**
:class:`~repro.core.session.ResolutionSession` — i.e. through the same
:class:`~repro.logic.incremental.IncrementalGrounder` delta path that
served the original requests.  Because incremental resolution is pinned
bit-identical to from-scratch resolution, a recovered session's
``GET /sessions/{id}/result`` payload is bit-identical to the one an
uncrashed process would serve.  Boot and respawn share this one path for
every ``--workers`` value.

Replay semantics
----------------
* ``create``/``snapshot`` records carry the full graph document; a
  ``snapshot`` additionally carries the pre-folded ``edits_applied``
  counter (compaction bakes earlier edits into the graph).
* ``edit`` records are applied in log order.  An edit that fails
  validation raises before mutating anything — exactly as it did (or would
  have) when served live — so it is skipped and not counted, keeping the
  replayed ``edits_applied`` equal to the live counter.
* ``delete`` records tombstone the session: recovery never resurrects an
  explicitly deleted session, even though its earlier records remain in
  the log until the next compaction.
* ``resolve`` records are a durability audit of accepted one-shot
  resolutions; they carry no session state and fold away.
* When more live sessions survive in the log than ``max_sessions``, only
  the most recently active ones are restored (the admission bound the
  front-end applies online); the rest are reported as ``sessions_skipped``
  and the boot appends a ``delete`` record for each before it admits
  traffic.  A skipped session therefore stays gone: compaction drops it,
  and a later restart with a larger bound does not bring it back.

Sessions are restored in last-activity order.

:func:`compact_records` is the fold function behind periodic log
compaction: it replays each live session's edits onto a plain graph
(mirroring the grounder's remove-then-add mutation semantics, without any
solving) and emits one ``snapshot`` record per session, bounding replay
cost by the number of live sessions instead of the length of the history.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..errors import TecoreError
from ..kg import TemporalFact, TemporalKnowledgeGraph
from ..kg.io import json_io


@dataclass
class SessionFold:
    """The folded log state of one session."""

    session_id: str
    graph_doc: dict[str, Any]
    warm_start: bool = False
    cache_size: int = 8192
    #: ``edits_applied`` already baked into ``graph_doc`` (snapshot records).
    base_edits: int = 0
    #: Raw ``edit`` records still to be replayed, in log order.
    edits: list[dict[str, Any]] = field(default_factory=list)
    #: Sequence number of the session's most recent record (LRU order).
    last_seq: int = -1


@dataclass
class FoldState:
    """Every live session plus the tombstones, folded from one segment."""

    sessions: dict[str, SessionFold] = field(default_factory=dict)
    deleted: set[str] = field(default_factory=set)
    resolves: int = 0
    dropped: int = 0  # records ignored (unknown kind / orphaned edit)


@dataclass
class RecoveryReport:
    """What a startup replay did — surfaced via /healthz and /stats."""

    wal_dir: str
    records_scanned: int = 0
    torn_tail: bool = False
    sessions_restored: int = 0
    sessions_deleted: int = 0
    sessions_skipped: int = 0
    sessions_failed: list[str] = field(default_factory=list)
    edits_replayed: int = 0
    edits_skipped: int = 0
    resolves_logged: int = 0
    duration_seconds: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "wal_dir": self.wal_dir,
            "records_scanned": self.records_scanned,
            "torn_tail": self.torn_tail,
            "sessions_restored": self.sessions_restored,
            "sessions_deleted": self.sessions_deleted,
            "sessions_skipped": self.sessions_skipped,
            "sessions_failed": self.sessions_failed,
            "edits_replayed": self.edits_replayed,
            "edits_skipped": self.edits_skipped,
            "resolves_logged": self.resolves_logged,
            "duration_seconds": round(self.duration_seconds, 3),
        }


def fold_records(records: Iterable[Mapping[str, Any]]) -> FoldState:
    """Fold a record stream into per-session histories and tombstones."""
    state = FoldState()
    for record in records:
        kind = record.get("kind")
        sid = record.get("session_id")
        seq = record.get("seq", -1)
        if kind == "resolve":
            state.resolves += 1
            continue
        if not isinstance(sid, str):
            state.dropped += 1
            continue
        if kind in ("create", "snapshot"):
            state.sessions[sid] = SessionFold(
                session_id=sid,
                graph_doc=dict(record.get("graph") or {}),
                warm_start=bool(record.get("warm_start")),
                cache_size=int(record.get("cache_size", 8192)),
                base_edits=int(record.get("edits_applied", 0)),
                last_seq=seq,
            )
            state.deleted.discard(sid)
        elif kind == "edit":
            fold = state.sessions.get(sid)
            if fold is None:
                state.dropped += 1  # orphaned edit (session compacted away?)
                continue
            fold.edits.append(dict(record))
            fold.last_seq = seq
        elif kind == "delete":
            state.sessions.pop(sid, None)
            state.deleted.add(sid)
        else:
            state.dropped += 1
    return state


def decode_edit_record(
    record: Mapping[str, Any],
) -> tuple[list[TemporalFact], list[TemporalFact]]:
    """Decode one WAL ``edit`` record into ``(adds, removes)`` fact lists.

    The record shape is the change-stream JSON form (``adds``/``removes``
    fact dictionaries); this is also how edits travel to a worker's
    ``restore`` op during crash recovery.
    """
    adds = [
        json_io.fact_from_dict(entry, index, source="wal:adds")
        for index, entry in enumerate(record.get("adds") or [])
    ]
    removes = [
        json_io.fact_from_dict(entry, index, source="wal:removes")
        for index, entry in enumerate(record.get("removes") or [])
    ]
    return adds, removes


def _decode_graph(fold: SessionFold) -> TemporalKnowledgeGraph:
    return json_io.from_dict(fold.graph_doc, name=str(fold.graph_doc.get("name", "session")))


def _fold_edit(
    graph: TemporalKnowledgeGraph,
    adds: list[TemporalFact],
    removes: list[TemporalFact],
) -> None:
    """Mutate ``graph`` exactly as ``IncrementalGrounder.apply`` would.

    Validation first (so a raising edit leaves the graph untouched, like
    the live path), then removes before adds; ``graph.add`` keeps the
    max-confidence semantics for re-added statements.
    """
    if graph.domain is not None:
        for item in adds:
            if (item.interval.start not in graph.domain or item.interval.end not in graph.domain):
                raise TecoreError(f"fact interval {item.interval} outside time domain")
    for fact in removes:
        graph.remove(fact)
    for fact in adds:
        graph.add(fact)


def compact_records(
    records: Iterable[Mapping[str, Any]],
) -> list[dict[str, Any]]:
    """Fold a segment's records into one ``snapshot`` per live session.

    This is the fold function handed to :meth:`WriteAheadLog.compact`.  It
    needs no solver and takes no session locks: the graph mutation
    semantics of the incremental grounder are replayed directly on a plain
    graph, so the snapshot's content key equals the live session graph's —
    which is what keeps post-compaction recovery bit-identical.
    """
    state = fold_records(records)
    snapshots: list[dict[str, Any]] = []
    for fold in sorted(state.sessions.values(), key=lambda item: item.last_seq):
        try:
            graph = _decode_graph(fold)
        except TecoreError:  # pragma: no cover - only via external log damage
            continue
        edits_applied = fold.base_edits
        for edit in fold.edits:
            try:
                adds, removes = decode_edit_record(edit)
                _fold_edit(graph, adds, removes)
            except TecoreError:
                continue
            edits_applied += 1
        snapshots.append(
            {
                "kind": "snapshot",
                "session_id": fold.session_id,
                "graph": json_io.to_dict(graph),
                "warm_start": fold.warm_start,
                "cache_size": fold.cache_size,
                "edits_applied": edits_applied,
            }
        )
    return snapshots
