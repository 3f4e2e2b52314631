"""Durability: WAL framing, crash recovery by replay, and compaction.

The contract under test (see ``docs/serving.md``): a service started with
``wal_dir`` logs every session mutation *before* applying it, so an
abruptly-killed process restarted on the same directory serves results
**bit-identical** (modulo wall-clock timing fields) to the uncrashed run —
and a combined pre/post-crash client history stays serializable.  The
abrupt kill is simulated by abandoning the first service instance without
``close()`` — nothing is flushed or finalised on its behalf, exactly like
SIGKILL; ``tecore chaos`` covers the real-subprocess version.
"""

import json

import pytest

from repro.datasets import ranieri_graph
from repro.errors import TecoreError
from repro.kg.io import json_io
from repro.serve import ServerConfig, WalError, WriteAheadLog, compact_records
from repro.serve.protocol import stable_view
from repro.serve.server import ResolutionService
from repro.serve.wal import encode_record, list_segments, read_records, scan_wal_dir
from repro.verify import HistoryRecorder, SerializabilityChecker
from repro.verify.faults import FaultInjector, FaultRule, InjectedCrash


def _body(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


def _create_body() -> bytes:
    return _body({"graph": json_io.to_dict(ranieri_graph())})


EDIT = {
    "adds": [
        {
            "s": "CR",
            "p": "coach",
            "o": "Fulham",
            "interval": [2018, 2019],
            "confidence": 0.7,
        }
    ]
}

BAD_EDIT = {
    "adds": [
        {
            "s": "CR",
            "p": "coach",
            "o": "Nowhere",
            "interval": [2030, 2010],  # inverted interval: rejected, not applied
            "confidence": 0.7,
        }
    ]
}


def _service(system, wal_dir, **overrides) -> ResolutionService:
    config = ServerConfig(wal_dir=str(wal_dir), batch_delay=0.001, **overrides)
    return ResolutionService(system, config)


class TestWalFraming:
    def test_append_and_scan_roundtrip(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), fsync_policy="never")
        wal.append({"kind": "create", "session_id": "abc"})
        wal.append({"kind": "edit", "session_id": "abc", "adds": [], "removes": []})
        wal.close()
        records, torn, segment = scan_wal_dir(str(tmp_path))
        assert not torn and segment == 0
        assert [r["kind"] for r in records] == ["create", "edit"]
        assert [r["seq"] for r in records] == [0, 1]

    def test_torn_tail_stops_scan_and_is_truncated_on_reopen(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), fsync_policy="never")
        wal.append({"kind": "create", "session_id": "abc"})
        wal.close()
        path = list_segments(str(tmp_path))[0][1]
        with open(path, "ab") as handle:
            handle.write(encode_record({"kind": "edit", "seq": 1})[:-4])  # torn frame
        records, torn = read_records(path)
        assert torn and len(records) == 1
        # Reopening truncates the tail; the next append lands cleanly.
        wal = WriteAheadLog(str(tmp_path), fsync_policy="never")
        assert wal.append({"kind": "delete", "session_id": "abc"}) == 1
        wal.close()
        records, torn = read_records(path)
        assert not torn
        assert [r["kind"] for r in records] == ["create", "delete"]

    def test_corrupted_checksum_marks_torn_tail(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), fsync_policy="never")
        wal.append({"kind": "create", "session_id": "abc"})
        wal.append({"kind": "delete", "session_id": "abc"})
        wal.close()
        path = list_segments(str(tmp_path))[0][1]
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        data[-1] ^= 0xFF  # flip one payload byte of the final frame
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        records, torn = read_records(path)
        assert torn
        assert [r["kind"] for r in records] == ["create"]

    @pytest.mark.parametrize(
        "policy,batch,expected_min_syncs",
        [("always", 1, 3), ("batch", 2, 1), ("never", 1, 0)],
    )
    def test_fsync_policies_count_syncs(self, tmp_path, policy, batch, expected_min_syncs):
        wal = WriteAheadLog(
            str(tmp_path), fsync_policy=policy, fsync_batch=batch, fsync_interval=60.0
        )
        for index in range(3):
            wal.append({"kind": "resolve", "name": f"g{index}", "facts": 1})
        synced = wal.synced_total
        wal.close()
        if policy == "never":
            assert synced == 0
        else:
            assert synced >= expected_min_syncs

    def test_rejects_unknown_fsync_policy(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(str(tmp_path), fsync_policy="sometimes")


class TestCrashRecovery:
    def test_restart_restores_sessions_bit_identical(self, system, tmp_path):
        service = _service(system, tmp_path)
        status, payload = service.handle("POST", "/sessions", _create_body())
        assert status == 201
        sid = payload["session_id"]
        assert service.handle("POST", f"/sessions/{sid}/edits", _body(EDIT))[0] == 200
        status, before = service.handle("GET", f"/sessions/{sid}/result", b"")
        assert status == 200
        # Abandon without close(): nothing is flushed on our behalf.

        restarted = _service(system, tmp_path)
        try:
            assert restarted.recovery is not None
            assert restarted.recovery.sessions_restored == 1
            assert restarted.recovery.edits_replayed == 1
            status, after = restarted.handle("GET", f"/sessions/{sid}/result", b"")
            assert status == 200
            assert stable_view(after) == stable_view(before)
        finally:
            restarted.close()
        service.close()

    def test_recovery_skips_edits_the_live_path_rejected(self, system, tmp_path):
        service = _service(system, tmp_path)
        sid = service.handle("POST", "/sessions", _create_body())[1]["session_id"]
        assert service.handle("POST", f"/sessions/{sid}/edits", _body(EDIT))[0] == 200
        status, _ = service.handle("POST", f"/sessions/{sid}/edits", _body(BAD_EDIT))
        assert status == 500  # invalid interval: rejected at apply, not applied
        status, before = service.handle("GET", f"/sessions/{sid}/result", b"")

        restarted = _service(system, tmp_path)
        try:
            # The bad edit died in decoding, *before* the WAL append — the
            # log holds only accepted work, so replay applies exactly the
            # one good edit and skips nothing.
            assert restarted.recovery.records_scanned == 2
            assert restarted.recovery.edits_replayed == 1
            assert restarted.recovery.edits_skipped == 0
            status, after = restarted.handle("GET", f"/sessions/{sid}/result", b"")
            assert stable_view(after) == stable_view(before)
        finally:
            restarted.close()
        service.close()

    def test_deleted_sessions_are_not_resurrected(self, system, tmp_path):
        service = _service(system, tmp_path)
        sid = service.handle("POST", "/sessions", _create_body())[1]["session_id"]
        keep = service.handle("POST", "/sessions", _create_body())[1]["session_id"]
        assert service.handle("DELETE", f"/sessions/{sid}", b"")[0] == 200

        restarted = _service(system, tmp_path)
        try:
            assert restarted.recovery.sessions_restored == 1
            assert restarted.recovery.sessions_deleted == 1
            assert restarted.handle("GET", f"/sessions/{sid}/result", b"")[0] == 404
            assert restarted.handle("GET", f"/sessions/{keep}/result", b"")[0] == 200
        finally:
            restarted.close()
        service.close()

    def test_torn_wal_tail_recovers_prefix(self, system, tmp_path):
        service = _service(system, tmp_path)
        sid = service.handle("POST", "/sessions", _create_body())[1]["session_id"]
        assert service.handle("POST", f"/sessions/{sid}/edits", _body(EDIT))[0] == 200
        status, before = service.handle("GET", f"/sessions/{sid}/result", b"")
        segment = list_segments(str(tmp_path))[-1][1]
        with open(segment, "ab") as handle:
            handle.write(b"\x00garbage-from-a-torn-append")

        restarted = _service(system, tmp_path)
        try:
            assert restarted.recovery.torn_tail
            assert restarted.recovery.sessions_restored == 1
            status, after = restarted.handle("GET", f"/sessions/{sid}/result", b"")
            assert stable_view(after) == stable_view(before)
        finally:
            restarted.close()
        service.close()

    def test_compaction_folds_log_and_preserves_results(self, system, tmp_path):
        service = _service(system, tmp_path, compact_every=3)
        sid = service.handle("POST", "/sessions", _create_body())[1]["session_id"]
        for _ in range(3):
            assert (service.handle("POST", f"/sessions/{sid}/edits", _body(EDIT))[0] == 200)
        status, before = service.handle("GET", f"/sessions/{sid}/result", b"")
        assert service.wal.compactions_total >= 1
        assert service.wal.segment_number >= 1
        # Only the folded segment remains on disk.
        numbers = [number for number, _ in list_segments(str(tmp_path))]
        assert numbers == [service.wal.segment_number]

        restarted = _service(system, tmp_path)
        try:
            assert restarted.recovery.sessions_restored == 1
            status, after = restarted.handle("GET", f"/sessions/{sid}/result", b"")
            assert stable_view(after) == stable_view(before)
        finally:
            restarted.close()
        service.close()

    def test_resolve_audit_records_fold_away(self, system, tmp_path):
        service = _service(system, tmp_path, compact_every=10_000)
        status, _ = service.handle("POST", "/resolve", _body(json_io.to_dict(ranieri_graph())))
        assert status == 200
        kinds = [r["kind"] for r in scan_wal_dir(str(tmp_path))[0]]
        assert kinds == ["resolve"]
        service.wal.compact(compact_records)
        assert scan_wal_dir(str(tmp_path))[0] == []
        service.close()


class TestInjectedWalFaults:
    def test_disk_full_append_is_503_without_mutation(self, system, tmp_path):
        injector = FaultInjector([FaultRule("wal.append", "disk_full", at=2)])
        config = ServerConfig(wal_dir=str(tmp_path), batch_delay=0.001)
        service = ResolutionService(system, config, injector=injector)
        sid = service.handle("POST", "/sessions", _create_body())[1]["session_id"]
        status, payload = service.handle("POST", f"/sessions/{sid}/edits", _body(EDIT))
        assert status == 503
        assert payload["retry_after_seconds"] >= 1
        entry = service.handles[0].runtime.sessions.get(sid)  # the in-process worker's
        assert entry.edits_applied == 0
        assert service.wal.append_errors_total == 1
        service.close()

        restarted = _service(system, tmp_path)
        try:
            # The refused edit is in neither the log nor the replayed state.
            assert restarted.recovery.edits_replayed == 0
        finally:
            restarted.close()

    def test_crash_before_edit_apply_leaves_wal_ahead_of_state(self, system, tmp_path):
        """A WAL'd-but-unapplied edit replays after the crash — and the
        combined client history still serializes (the edit's client never
        got an answer, so either outcome is legal; recovery chose applied)."""
        recorder = HistoryRecorder()
        injector = FaultInjector([FaultRule("session.apply", "crash", at=1)])
        config = ServerConfig(wal_dir=str(tmp_path), batch_delay=0.001)
        service = ResolutionService(system, config, injector=injector)
        op = recorder.begin("session_create", request=json.loads(_create_body()))
        status, payload = service._dispatch("POST", "/sessions", "", _create_body())
        recorder.complete(op, status, payload)
        sid = payload["session_id"]

        pending = recorder.begin("session_edit", request=EDIT, session_id=sid)
        with pytest.raises(InjectedCrash):
            service._dispatch("POST", f"/sessions/{sid}/edits", "", _body(EDIT))
        # The request thread died without answering: `pending` stays open,
        # and the service instance is abandoned (no close — "killed").

        restarted = ResolutionService(system, ServerConfig(wal_dir=str(tmp_path)))
        try:
            assert restarted.recovery.edits_replayed == 1
            read = recorder.begin("session_read", request={"include_graphs": False}, session_id=sid)
            status, payload = restarted._dispatch("GET", f"/sessions/{sid}/result", "", b"")
            recorder.complete(read, status, payload)
            assert status == 200
        finally:
            restarted.close()
        service.close()

        report = SerializabilityChecker(system).check(recorder.history())
        assert report.ok, report.summary()
        assert pending.completed is None

    def test_wal_closed_appends_raise(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.close()
        with pytest.raises(WalError):
            wal.append({"kind": "create"})
        with pytest.raises(TecoreError):
            wal.compact(lambda records: records)
