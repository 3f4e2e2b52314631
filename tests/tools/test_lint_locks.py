"""The serve-tier lock-discipline checker (tools/lint_locks.py)."""

from __future__ import annotations

import sys
import textwrap
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(_REPO_ROOT / "tools"))

from lint_locks import (  # noqa: E402
    GUARDED_ATTRS,
    check_file,
    check_source,
    iter_python_files,
    main,
)

SERVE_DIR = _REPO_ROOT / "src" / "repro" / "serve"


def _violations(source: str, path: str = "sessions.py"):
    return check_source(textwrap.dedent(source), path)


class TestDetection:
    def test_unlocked_attribute_assignment_is_flagged(self):
        found = _violations(
            """
            class Pool:
                def evict(self):
                    self.evicted_total += 1
            """
        )
        assert [v.attr for v in found] == ["evicted_total"]
        assert found[0].context == "Pool.evict"

    def test_unlocked_mutator_call_is_flagged(self):
        found = _violations(
            """
            class Pool:
                def drop(self, sid):
                    self._entries.pop(sid, None)
            """
        )
        assert [v.attr for v in found] == ["_entries"]

    def test_unlocked_subscript_store_is_flagged(self):
        found = _violations(
            """
            class Pool:
                def put(self, sid, entry):
                    self._entries[sid] = entry
            """
        )
        assert [v.attr for v in found] == ["_entries"]

    def test_entry_flag_mutation_outside_its_lock_is_flagged(self):
        found = _violations(
            """
            class Service:
                def delete(self, entry):
                    entry.closed = True
            """
        )
        assert [v.attr for v in found] == ["closed"]

    def test_reads_are_never_flagged(self):
        assert not _violations(
            """
            class Pool:
                def depth(self):
                    return len(self._entries)
            """
        )


class TestLockRecognition:
    def test_with_lock_block_passes(self):
        assert not _violations(
            """
            class Pool:
                def evict(self):
                    with self._lock:
                        self._entries.popitem(last=False)
                        self.evicted_total += 1
            """
        )

    def test_condition_variable_counts_as_the_lock(self):
        assert not _violations(
            """
            class Batcher:
                def close(self):
                    with self._wakeup:
                        self._closed = True
            """
        )

    def test_manual_acquire_with_finally_release_passes(self):
        # The deadline-bounded pattern server._apply_edits uses.
        assert not _violations(
            """
            class Service:
                def delete(self, entry):
                    self._acquire(entry)
                    try:
                        entry.closed = True
                    finally:
                        entry.lock.release()
            """
        )

    def test_try_without_lock_release_does_not_pass(self):
        found = _violations(
            """
            class Service:
                def delete(self, entry):
                    try:
                        entry.closed = True
                    finally:
                        entry.session.close()
            """
        )
        assert [v.attr for v in found] == ["closed"]


class TestFrontEndState:
    """The front-end and the worker handles carry every request."""

    def test_unlocked_front_end_counters_and_tables_are_flagged(self):
        found = _violations(
            """
            class Service:
                def drop(self, sid):
                    self.dropped_connections_total += 1
                    self.respawns_total += 1
                    self._routes.pop(sid, None)
                    self._responses.popitem(last=False)
                    self.response_cache_hits += 1
                    self.response_cache_misses += 1
            """,
            path="server.py",
        )
        assert [v.attr for v in found] == [
            "dropped_connections_total",
            "respawns_total",
            "_routes",
            "_responses",
            "response_cache_hits",
            "response_cache_misses",
        ]

    def test_routes_and_responses_locks_count(self):
        assert not _violations(
            """
            class Service:
                def route(self, sid, route):
                    with self._routes_lock:
                        self._routes[sid] = route
                        self.dropped_connections_total += 1
                def remember(self, key, payload):
                    with self._responses_lock:
                        self._responses[key] = payload
                        self.response_cache_misses += 1
            """,
            path="server.py",
        )

    def test_worker_handle_bookkeeping_needs_its_lock(self):
        source = """
        class WorkerHandle:
            def admit(self):
                self.inflight += 1
            def forget(self, request_id):
                self._calls.pop(request_id, None)
        """
        assert [v.attr for v in _violations(source, path="sharding.py")] == ["inflight", "_calls"]
        assert not _violations(
            """
            class WorkerHandle:
                def admit(self):
                    with self._lock:
                        self.inflight += 1
                        self._calls.pop(0, None)
            """,
            path="sharding.py",
        )


class TestExemptions:
    def test_init_is_exempt(self):
        assert not _violations(
            """
            class Pool:
                def __init__(self):
                    self._entries = {}
                    self.created_total = 0
            """
        )

    def test_locked_suffix_methods_are_exempt(self):
        assert not _violations(
            """
            class Wal:
                def _sync_locked(self):
                    self._unsynced = 0
            """
        )

    def test_caller_holds_lock_allowlist(self):
        assert not _violations(
            """
            class Wal:
                def _maybe_sync(self):
                    self._unsynced += 1
            """
        )

    def test_reviewed_site_allowlist_is_file_specific(self):
        source = """
        class Pool:
            def restore(self, entry, edits_applied):
                entry.edits_applied = edits_applied
        """
        assert not _violations(source, path="sessions.py")
        assert _violations(source, path="server.py")  # not allowlisted there

    def test_unguarded_attributes_are_ignored(self):
        assert not _violations(
            """
            class Pool:
                def note(self):
                    self.last_seen = 1
            """
        )


class TestRealServeTree:
    def test_the_serve_package_is_clean(self):
        violations = []
        for path in iter_python_files([str(SERVE_DIR)]):
            violations.extend(check_file(path))
        assert not violations, [v.render() for v in violations]

    def test_main_exit_code_is_zero_on_the_real_tree(self, capsys):
        assert main([str(SERVE_DIR)]) == 0

    def test_main_counts_violations(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("class Pool:\n    def evict(self):\n        self.evicted_total += 1\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "evicted_total" in out

    def test_guarded_set_covers_the_serve_state(self):
        # Contract check: the attributes this PR's docs promise are guarded.
        assert {"_entries", "closed", "_handle", "_next_seq", "_queue"} <= GUARDED_ATTRS
        assert {"_routes", "_responses", "_calls", "inflight"} <= GUARDED_ATTRS
