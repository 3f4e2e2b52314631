"""Session lifecycle races and session admission at ``--workers 0``.

The delete/edit interleaving here is the bug class the serializability
harness (:mod:`repro.verify`) caught live: an edit that looked up its pool
entry *before* a concurrent ``DELETE`` popped it used to mutate the orphaned
session and answer 200, after the delete response had already reported the
session's final fact and edit counts — no serial order explains both.  The
fix has two guards: the front-end re-checks the session's route under the
routes lock once it holds the route lock, and the worker re-checks
:attr:`~repro.serve.sessions.SessionEntry.closed` under the session lock.
These tests pin their semantics deterministically, and
``tests/verify/test_regression_fixtures.py`` keeps the checker-level
evidence.

Capacity is admission: a create beyond ``max_sessions`` answers 503 and
logs nothing, and no served session is ever evicted.
"""

import json
import threading

import pytest

from repro.datasets import ranieri_graph
from repro.kg.io import json_io
from repro.serve import ServerConfig
from repro.serve.recovery import compact_records
from repro.serve.server import ResolutionService
from repro.serve.sessions import SessionPool, UnknownSessionError
from repro.serve.wal import scan_wal_dir


def _body(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


def _edit_body(index: int) -> bytes:
    return _body(
        {
            "adds": [
                {
                    "s": "Marker",
                    "p": "editedAt",
                    "o": f"v{index}",
                    "interval": [2000 + index, 2001 + index],
                    "confidence": 0.9,
                }
            ]
        }
    )


@pytest.fixture
def service(system):
    service = ResolutionService(system, ServerConfig(max_sessions=2, batch_delay=0.001))
    yield service
    service.close()


def pool(service) -> SessionPool:
    """The session pool of the in-process worker."""
    return service.handles[0].runtime.sessions


def _create_session(service) -> str:
    status, payload = service.handle(
        "POST", "/sessions", _body({"graph": json_io.to_dict(ranieri_graph())})
    )
    assert status == 201
    return payload["session_id"]


class TestDeleteVersusEdit:
    def test_delete_closes_the_entry_under_its_lock(self, service):
        sid = _create_session(service)
        stale = pool(service).get(sid)  # an in-flight handler's lookup
        status, payload = service.handle("DELETE", f"/sessions/{sid}", b"")
        assert status == 200
        # The delete response pins the session's final state...
        assert payload["edits_applied"] == 0
        assert payload["facts"] == len(stale.session.graph)
        # ...so the entry is closed and late operations must see 404.
        assert stale.closed

    def test_operations_after_delete_are_404_and_do_not_mutate(self, service):
        sid = _create_session(service)
        stale = pool(service).get(sid)
        assert service.handle("DELETE", f"/sessions/{sid}", b"")[0] == 200
        facts_before = len(stale.session.graph)
        assert service.handle("POST", f"/sessions/{sid}/edits", _edit_body(0))[0] == 404
        assert service.handle("GET", f"/sessions/{sid}/result", b"")[0] == 404
        assert service.handle("DELETE", f"/sessions/{sid}", b"")[0] == 404
        assert len(stale.session.graph) == facts_before
        assert stale.edits_applied == 0

    def test_concurrent_edits_and_delete_stay_serializable(self, service):
        # A thread-race soak of the exact caught interleaving: however the
        # lock race lands, every 200 edit must be counted in the delete's
        # final ``edits_applied`` and every uncounted edit must answer 404.
        for round_index in range(5):
            sid = _create_session(service)
            entry = pool(service).get(sid)
            barrier = threading.Barrier(3)
            statuses = [None, None]

            def edit(slot, sid=sid, barrier=barrier, statuses=statuses):
                barrier.wait()
                statuses[slot] = service.handle(
                    "POST", f"/sessions/{sid}/edits", _edit_body(slot)
                )[0]

            deleted = {}

            def delete(sid=sid, barrier=barrier, deleted=deleted):
                barrier.wait()
                status, payload = service.handle("DELETE", f"/sessions/{sid}", b"")
                deleted.update(payload, status=status)

            threads = [
                threading.Thread(target=edit, args=(0,)),
                threading.Thread(target=edit, args=(1,)),
                threading.Thread(target=delete),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert deleted["status"] == 200
            succeeded = sum(1 for status in statuses if status == 200)
            assert all(status in (200, 404) for status in statuses)
            # The invariant the harness caught being violated: the final
            # report counts exactly the edits that were acknowledged.
            assert deleted["edits_applied"] == succeeded == entry.edits_applied


class TestPoolBound:
    def test_evicted_entry_is_unroutable_but_not_closed(self, system):
        pool = SessionPool(system, max_sessions=1)
        first = pool.create(ranieri_graph())
        pool.create(ranieri_graph())  # evicts ``first``
        with pytest.raises(UnknownSessionError):
            pool.get(first.session_id)
        # The pool keeps its own bound as a guard behind the front-end's
        # admission.  Eviction produces no client-visible final-state
        # response, so an in-flight request may still finish against it.
        assert not first.closed
        assert pool.evicted_total == 1


class TestAdmission:
    """A full service refuses creates; it never evicts a served session.

    The front-end admits at most ``max_sessions`` sessions: a create beyond
    that answers 503 with a retry hint before anything is logged, and a
    DELETE frees a slot.  A restart with a smaller bound restores the most
    recently active sessions from the log.
    """

    def _durable_service(self, system, wal_dir, max_sessions):
        return ResolutionService(
            system,
            ServerConfig(wal_dir=str(wal_dir), max_sessions=max_sessions, batch_delay=0.001),
        )

    def test_create_beyond_capacity_is_503_and_logs_nothing(self, system, tmp_path):
        service = self._durable_service(system, tmp_path, max_sessions=2)
        try:
            sids = [_create_session(service) for _ in range(2)]
            appended = service.wal.appended_total
            body = _body({"graph": json_io.to_dict(ranieri_graph())})
            status, payload = service.handle("POST", "/sessions", body)
            assert status == 503
            assert payload["retry_after_seconds"] >= 1
            assert service.wal.appended_total == appended
            # Nothing was evicted to make room: both sessions still serve.
            for sid in sids:
                assert service.handle("GET", f"/sessions/{sid}/result", b"")[0] == 200
            assert pool(service).evicted_total == 0
        finally:
            service.close()
        records, _, _ = scan_wal_dir(str(tmp_path))
        assert [record["kind"] for record in records] == ["create", "create"]

    def test_delete_frees_a_slot(self, service):
        first = _create_session(service)
        _create_session(service)
        body = _body({"graph": json_io.to_dict(ranieri_graph())})
        assert service.handle("POST", "/sessions", body)[0] == 503
        assert service.handle("DELETE", f"/sessions/{first}", b"")[0] == 200
        assert service.handle("POST", "/sessions", body)[0] == 201

    def test_restart_with_a_smaller_bound_restores_the_most_recently_active(self, system, tmp_path):
        service = self._durable_service(system, tmp_path, max_sessions=3)
        oldest, middle, newest = (_create_session(service) for _ in range(3))
        # An edit makes the oldest session the most recently active one.
        assert service.handle("POST", f"/sessions/{oldest}/edits", _edit_body(1))[0] == 200
        service.close()

        restarted = self._durable_service(system, tmp_path, max_sessions=2)
        try:
            assert restarted.recovery.sessions_restored == 2
            assert restarted.recovery.sessions_skipped == 1
            assert restarted.handle("GET", f"/sessions/{middle}/result", b"")[0] == 404
            for sid in (oldest, newest):
                assert restarted.handle("GET", f"/sessions/{sid}/result", b"")[0] == 200
            assert pool(restarted).get(oldest).edits_applied == 1
        finally:
            restarted.close()

    def test_a_skipped_session_stays_gone(self, system, tmp_path):
        # Skipped at a restart with a smaller bound, then through a
        # compaction and a restart with a larger bound: 404 every time.
        service = self._durable_service(system, tmp_path, max_sessions=3)
        skipped, kept, newest = (_create_session(service) for _ in range(3))
        service.close()

        restarted = self._durable_service(system, tmp_path, max_sessions=2)
        try:
            assert restarted.recovery.sessions_skipped == 1
            assert restarted.handle("GET", f"/sessions/{skipped}/result", b"")[0] == 404
            restarted.wal.compact(compact_records)
        finally:
            restarted.close()
        records, _, _ = scan_wal_dir(str(tmp_path))
        assert sorted(record["session_id"] for record in records) == sorted((kept, newest))

        enlarged = self._durable_service(system, tmp_path, max_sessions=8)
        try:
            assert enlarged.recovery.sessions_restored == 2
            assert enlarged.recovery.sessions_skipped == 0
            assert enlarged.handle("GET", f"/sessions/{skipped}/result", b"")[0] == 404
            for sid in (kept, newest):
                assert enlarged.handle("GET", f"/sessions/{sid}/result", b"")[0] == 200
        finally:
            enlarged.close()

    def test_skipped_sessions_are_deleted_in_the_log_before_traffic(self, system, tmp_path):
        service = self._durable_service(system, tmp_path, max_sessions=3)
        sids = [_create_session(service) for _ in range(3)]
        service.close()
        restarted = self._durable_service(system, tmp_path, max_sessions=1)
        try:
            assert restarted.recovery.sessions_skipped == 2
        finally:
            restarted.close()
        records, _, _ = scan_wal_dir(str(tmp_path))
        assert [(record["kind"], record["session_id"]) for record in records[3:]] == [
            ("delete", sids[0]),
            ("delete", sids[1]),
        ]

    def test_deleted_session_is_never_resurrected(self, system, tmp_path):
        service = self._durable_service(system, tmp_path, max_sessions=2)
        doomed = _create_session(service)
        assert service.handle("DELETE", f"/sessions/{doomed}", b"")[0] == 200
        service.close()

        restarted = ResolutionService(system, ServerConfig(wal_dir=str(tmp_path), max_sessions=8))
        try:
            assert restarted.recovery.sessions_restored == 0
            assert restarted.recovery.sessions_deleted == 1
            assert restarted.handle("GET", f"/sessions/{doomed}/result", b"")[0] == 404
        finally:
            restarted.close()
