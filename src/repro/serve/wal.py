"""Write-ahead session log for the serving tier.

Durability layer of ``tecore serve --wal-dir``: every session mutation
(create / edit / delete) and every accepted one-shot resolve is appended to
an on-disk log *before* the in-memory :class:`~repro.serve.sessions.
SessionPool` is touched, so a crashed process can be restarted and replayed
back to the exact client-visible state (see :mod:`repro.serve.recovery`).

Record framing
--------------
The log is a sequence of self-delimiting binary frames::

    +-------+----------------+---------------+------------------+
    | magic | payload length | CRC32(payload)| JSON payload     |
    | b"TW" | uint32 LE      | uint32 LE     | ``length`` bytes |
    +-------+----------------+---------------+------------------+

Each payload is one JSON object with at least ``kind`` (``create`` /
``edit`` / ``delete`` / ``snapshot`` / ``resolve``) and ``seq`` (the
monotone record sequence number).  A frame is only trusted when its magic,
length, and checksum all verify; the first frame that fails any of those is
treated as the **torn tail** of an interrupted append — the scan stops
there with everything before it intact, which is the standard recovery
contract of an append-only log (a crash mid-``write`` can only damage the
final frame).

Fsync policy
------------
Appends always ``write``+``flush`` atomically (one ``os.write`` worth of
bytes per frame); when the data additionally hits the platters is the
``fsync_policy`` knob:

* ``"always"`` — fsync after every record (maximum durability, slowest);
* ``"batch"``  — fsync once every ``fsync_batch`` records or
  ``fsync_interval`` seconds, whichever comes first (the default; bounds
  the post-crash loss window to one short batch);
* ``"never"``  — leave flushing to the OS (fastest; survives process
  crashes — the page cache persists — but not power loss).

Compaction
----------
:meth:`WriteAheadLog.compact` bounds replay cost: it folds the current
segment's records into per-session ``snapshot`` records (via a caller-
supplied fold function), writes them to the *next* segment file through the
atomic ``tmp`` → ``fsync`` → ``rename`` → directory-``fsync`` protocol, and
only then deletes the old segment.  Recovery always reads the
highest-numbered segment, so a crash at any point during compaction leaves
either the old or the new segment fully intact — never a blend.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from typing import Any, Callable, Iterable, Mapping, Optional

from ..errors import TecoreError

#: Frame header: magic, payload length, CRC32 of the payload (little endian).
_MAGIC = b"TW"
_HEADER = struct.Struct("<2sII")

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"

FSYNC_POLICIES = ("always", "batch", "never")


class WalError(TecoreError):
    """The write-ahead log could not accept a record (served as HTTP 503)."""


def encode_record(record: Mapping[str, Any]) -> bytes:
    """Frame one record as ``magic | length | crc32 | payload`` bytes."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(_MAGIC, len(payload), zlib.crc32(payload)) + payload


def _scan_frames(data: bytes) -> tuple[list[dict[str, Any]], bool, int]:
    """Decode frames from ``data``; returns ``(records, torn, good_bytes)``."""
    records: list[dict[str, Any]] = []
    offset = 0
    while offset < len(data):
        header = data[offset : offset + _HEADER.size]
        if len(header) < _HEADER.size:
            return records, True, offset
        magic, length, crc = _HEADER.unpack(header)
        if magic != _MAGIC:
            return records, True, offset
        payload = data[offset + _HEADER.size : offset + _HEADER.size + length]
        if len(payload) < length or zlib.crc32(payload) != crc:
            return records, True, offset
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return records, True, offset
        if not isinstance(record, dict):
            return records, True, offset
        records.append(record)
        offset += _HEADER.size + length
    return records, False, offset


def read_records(path: str) -> tuple[list[dict[str, Any]], bool]:
    """Scan one segment file; returns ``(records, torn_tail)``.

    Every frame whose magic, length, and CRC32 verify is decoded; the first
    frame that does not — a short header, wrong magic, short payload, bad
    checksum, or invalid JSON — marks the torn tail of an interrupted
    append and ends the scan (``torn_tail=True``) with all earlier records
    intact.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    records, torn, _ = _scan_frames(data)
    return records, torn


def _segment_number(filename: str) -> Optional[int]:
    if not (filename.startswith(_SEGMENT_PREFIX) and filename.endswith(_SEGMENT_SUFFIX)):
        return None
    stem = filename[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
    return int(stem) if stem.isdigit() else None


def _segment_name(number: int) -> str:
    return f"{_SEGMENT_PREFIX}{number:08d}{_SEGMENT_SUFFIX}"


def list_segments(wal_dir: str) -> list[tuple[int, str]]:
    """``(number, path)`` of every segment in ``wal_dir``, ascending.

    A directory that does not exist yet holds no segments — recovery runs
    before the log creates it on first start.
    """
    if not os.path.isdir(wal_dir):
        return []
    segments = []
    for name in os.listdir(wal_dir):
        number = _segment_number(name)
        if number is not None:
            segments.append((number, os.path.join(wal_dir, name)))
    segments.sort()
    return segments


def scan_wal_dir(wal_dir: str) -> tuple[list[dict[str, Any]], bool, Optional[int]]:
    """Read the records of the *active* (highest-numbered) segment.

    Returns ``(records, torn_tail, segment_number)``; ``segment_number`` is
    ``None`` when the directory holds no segment yet.  Lower-numbered
    segments are pre-compaction leftovers (a crash between the compaction
    rename and the old-segment unlink) and are intentionally ignored — the
    highest segment is always a complete fold of everything before it.
    """
    segments = list_segments(wal_dir)
    if not segments:
        return [], False, None
    number, path = segments[-1]
    records, torn = read_records(path)
    return records, torn, number


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class WriteAheadLog:
    """Append-only, checksummed, segmented session log.

    Thread-safe: one internal lock serialises appends, syncs, and
    compaction.  ``injector`` is the fault-injection seam (an object with a
    ``fire(point, **info)`` method, see :mod:`repro.verify.faults`); the
    seams are ``wal.append`` (before the frame is written), ``wal.sync``
    (before an fsync), and ``wal.commit`` (after the record is durable per
    policy).
    """

    def __init__(
        self,
        wal_dir: str,
        fsync_policy: str = "batch",
        fsync_batch: int = 8,
        fsync_interval: float = 0.05,
        injector: Any = None,
    ) -> None:
        if fsync_policy not in FSYNC_POLICIES:
            raise ValueError(f"fsync_policy must be one of {FSYNC_POLICIES}, got {fsync_policy!r}")
        if fsync_batch < 1:
            raise ValueError(f"fsync_batch must be >= 1, got {fsync_batch}")
        if fsync_interval < 0:
            raise ValueError(f"fsync_interval must be >= 0, got {fsync_interval}")
        self.wal_dir = wal_dir
        self.fsync_policy = fsync_policy
        self.fsync_batch = fsync_batch
        self.fsync_interval = fsync_interval
        self.injector = injector
        os.makedirs(wal_dir, exist_ok=True)
        self._lock = threading.Lock()
        self._closed = False
        self._unsynced = 0
        self._last_sync = time.monotonic()
        # Counters for /stats.
        self.appended_total = 0
        self.synced_total = 0
        self.append_errors_total = 0
        self.compactions_total = 0
        self.records_since_compaction = 0
        segments = list_segments(wal_dir)
        if segments:
            self._segment_number, path = segments[-1]
            with open(path, "rb") as handle:
                data = handle.read()
            records, torn, good = _scan_frames(data)
            self._next_seq = max((r.get("seq", -1) for r in records), default=-1) + 1
            self.records_since_compaction = sum(1 for r in records if r.get("kind") != "snapshot")
            if torn:
                # Truncate the damaged tail so new appends follow the last
                # good frame instead of garbage the scanner would stop at.
                with open(path, "rb+") as handle:
                    handle.truncate(good)
        else:
            self._segment_number = 0
            self._next_seq = 0
            with open(self._segment_path(0), "ab"):
                pass
        self._handle = open(self._segment_path(self._segment_number), "ab")

    def _segment_path(self, number: int) -> str:
        return os.path.join(self.wal_dir, _segment_name(number))

    @property
    def segment_number(self) -> int:
        return self._segment_number

    @property
    def next_seq(self) -> int:
        with self._lock:
            return self._next_seq

    # ------------------------------------------------------------------ #
    def append(self, record: Mapping[str, Any]) -> int:
        """Durably frame and append one record; returns its sequence number.

        The frame is written with a single ``write`` call and flushed to the
        OS before returning; fsync follows the configured policy.  On any
        I/O failure the file is truncated back to the pre-append offset (so
        later appends never follow a half-written frame) and
        :class:`WalError` is raised — the caller must *not* apply the
        mutation.
        """
        with self._lock:
            if self._closed:
                raise WalError("write-ahead log is closed")
            seq = self._next_seq
            frame = encode_record({**record, "seq": seq})
            offset = self._handle.tell()
            try:
                # The injected-fault seam sits inside the OSError guard so a
                # simulated ENOSPC takes the same 503-no-mutation path as a
                # real one (a crash is a BaseException and still escapes).
                if self.injector is not None:
                    self.injector.fire("wal.append", kind=record.get("kind"))
                self._handle.write(frame)
                self._handle.flush()
            except OSError as exc:
                self.append_errors_total += 1
                try:  # Best effort: drop any partial frame.
                    self._handle.truncate(offset)
                except OSError:
                    pass
                raise WalError(f"write-ahead log append failed: {exc}") from exc
            self._next_seq = seq + 1
            self.appended_total += 1
            self.records_since_compaction += 1
            self._maybe_sync()
            if self.injector is not None:
                self.injector.fire("wal.commit", kind=record.get("kind"), seq=seq)
            return seq

    def _maybe_sync(self) -> None:
        """Apply the fsync policy after one append (lock held)."""
        if self.fsync_policy == "never":
            return
        self._unsynced += 1
        if self.fsync_policy == "batch":
            due = (
                self._unsynced >= self.fsync_batch
                or time.monotonic() - self._last_sync >= self.fsync_interval
            )
            if not due:
                return
        self._sync_locked()

    def _sync_locked(self) -> None:
        if self.injector is not None:
            self.injector.fire("wal.sync")
        os.fsync(self._handle.fileno())
        self.synced_total += 1
        self._unsynced = 0
        self._last_sync = time.monotonic()

    def records(self) -> tuple[list[dict[str, Any]], bool]:
        """Read the active segment back; returns ``(records, torn_tail)``.

        Used to replay a respawned worker's shard while
        the log keeps serving appends: the read happens under the log's own
        lock after a flush, so it observes every record appended before the
        call and never a half-written frame (``torn_tail`` can only report
        pre-existing external damage).
        """
        with self._lock:
            if self._closed:
                raise WalError("write-ahead log is closed")
            self._handle.flush()
            return read_records(self._segment_path(self._segment_number))

    def sync(self) -> None:
        """Force an fsync of everything appended so far."""
        with self._lock:
            if not self._closed:
                self._handle.flush()
                self._sync_locked()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._handle.flush()
                if self.fsync_policy != "never":
                    os.fsync(self._handle.fileno())
            except OSError:
                pass
            self._handle.close()

    # ------------------------------------------------------------------ #
    def compact(self, fold: Callable[[list[dict[str, Any]]], Iterable[Mapping[str, Any]]]) -> int:
        """Fold the active segment into a fresh one; returns records written.

        ``fold`` receives every record of the current segment and yields the
        replacement records (typically one ``snapshot`` per live session —
        see :func:`repro.serve.recovery.compact_records`).  The new segment
        is written to a temporary file, fsynced, atomically renamed into
        place as the next segment number, and the directory fsynced before
        the old segment is unlinked; the highest-numbered segment therefore
        always holds a complete, self-contained log.
        """
        with self._lock:
            if self._closed:
                raise WalError("write-ahead log is closed")
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._unsynced = 0
            old_number = self._segment_number
            records, torn = read_records(self._segment_path(old_number))
            if torn:  # pragma: no cover - only reachable via external corruption
                raise WalError("active segment has a torn tail; refusing to compact")
            folded = list(fold(records))
            new_number = old_number + 1
            new_path = self._segment_path(new_number)
            tmp_path = new_path + ".tmp"
            seq = self._next_seq
            with open(tmp_path, "wb") as handle:
                for record in folded:
                    handle.write(encode_record({**dict(record), "seq": seq}))
                    seq += 1
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, new_path)
            _fsync_dir(self.wal_dir)
            self._handle.close()
            self._handle = open(new_path, "ab")
            self._segment_number = new_number
            self._next_seq = seq
            for number, path in list_segments(self.wal_dir):
                if number < new_number:
                    os.unlink(path)
            _fsync_dir(self.wal_dir)
            self.compactions_total += 1
            self.records_since_compaction = 0
            self._last_sync = time.monotonic()
            return len(folded)

    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict[str, Any]:
        """Counters for ``/stats``."""
        with self._lock:
            return {
                "wal_dir": self.wal_dir,
                "fsync_policy": self.fsync_policy,
                "segment": self._segment_number,
                "next_seq": self._next_seq,
                "appended": self.appended_total,
                "synced": self.synced_total,
                "append_errors": self.append_errors_total,
                "compactions": self.compactions_total,
                "records_since_compaction": self.records_since_compaction,
            }
