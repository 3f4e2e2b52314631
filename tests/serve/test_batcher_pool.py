"""Unit tests for the micro-batcher and the session pool (no HTTP)."""

import threading
import time

import pytest

from repro.datasets import ranieri_extended_graph, ranieri_graph
from repro.serve import (
    LatencyRecorder,
    MicroBatcher,
    ServiceOverloadedError,
    SessionPool,
    UnknownSessionError,
    graph_content_key,
)


class StubResolver:
    """Duck-typed SharedResolver recording the batches it was handed."""

    def __init__(self, delay=0.0):
        self.delay = delay
        self.batches = []
        self._lock = threading.Lock()

    def resolve_many(self, graphs):
        items = list(graphs)
        with self._lock:
            self.batches.append(items)
        if self.delay:
            time.sleep(self.delay)
        return [("solved", item) for item in items]


def submit_all(batcher, items, timeout=30.0):
    """Submit every item from its own thread; returns results in item order."""
    results = [None] * len(items)
    errors = [None] * len(items)

    def worker(index, item):
        try:
            results[index] = batcher.submit(item, timeout=timeout)
        except BaseException as exc:  # noqa: BLE001 - surfaced via `errors`
            errors[index] = exc

    threads = [
        threading.Thread(target=worker, args=(index, item)) for index, item in enumerate(items)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, errors


class TestMicroBatcher:
    def test_flush_on_size(self):
        resolver = StubResolver()
        batcher = MicroBatcher(resolver, max_batch=3, max_delay=5.0, coalesce=False)
        try:
            started = time.perf_counter()
            results, errors = submit_all(batcher, ["a", "b", "c"])
            elapsed = time.perf_counter() - started
            assert errors == [None, None, None]
            # Each submitter got the result of its own request.
            assert results == [("solved", "a"), ("solved", "b"), ("solved", "c")]
            # The size trigger fired long before the 5 s deadline.
            assert elapsed < 2.0
            assert batcher.snapshot()["batches"] == 1
            assert batcher.snapshot()["max_batch_size"] == 3
        finally:
            batcher.close()

    def test_flush_on_deadline(self):
        resolver = StubResolver()
        batcher = MicroBatcher(resolver, max_batch=100, max_delay=0.05, coalesce=False)
        try:
            results, errors = submit_all(batcher, ["a", "b"])
            assert errors == [None, None]
            assert sorted(len(batch) for batch in resolver.batches) in ([2], [1, 1])
            assert batcher.snapshot()["requests"] == 2
        finally:
            batcher.close()

    def test_coalesces_identical_graphs(self):
        resolver = StubResolver()
        batcher = MicroBatcher(resolver, max_batch=2, max_delay=1.0, coalesce=True)
        try:
            first, second = ranieri_graph(), ranieri_graph()
            assert graph_content_key(first) == graph_content_key(second)
            results, errors = submit_all(batcher, [first, second])
            assert errors == [None, None]
            # One solve served both requests with the identical result object.
            assert results[0] is results[1]
            assert [len(batch) for batch in resolver.batches] == [1]
            snapshot = batcher.snapshot()
            assert snapshot["coalesced"] == 1
            assert snapshot["resolves"] == 1
        finally:
            batcher.close()

    def test_distinct_graphs_not_coalesced(self):
        resolver = StubResolver()
        batcher = MicroBatcher(resolver, max_batch=2, max_delay=1.0, coalesce=True)
        try:
            results, errors = submit_all(batcher, [ranieri_graph(), ranieri_extended_graph()])
            assert errors == [None, None]
            assert results[0] is not results[1]
            assert batcher.snapshot()["coalesced"] == 0
        finally:
            batcher.close()

    def test_backpressure_raises_overloaded(self):
        resolver = StubResolver()
        batcher = MicroBatcher(
            resolver,
            max_batch=100,
            max_delay=0.5,
            queue_limit=2,
            coalesce=False,
        )
        try:
            # Hold the flush worker so the queue can only grow: backpressure
            # becomes deterministic instead of racing the batching window.
            batcher.pause()
            fillers = [threading.Thread(target=batcher.submit, args=(item,)) for item in ("a", "b")]
            for thread in fillers:
                thread.start()
            assert batcher.wait_for_queue_depth(2)
            with pytest.raises(ServiceOverloadedError):
                batcher.submit("c")
            assert batcher.snapshot()["rejected"] == 1
            batcher.resume()
            for thread in fillers:
                thread.join()
        finally:
            batcher.close()

    def test_resolver_error_is_delivered_to_every_waiter(self):
        class ExplodingResolver:
            def resolve_many(self, graphs):
                list(graphs)
                raise RuntimeError("backend down")

        batcher = MicroBatcher(ExplodingResolver(), max_batch=2, max_delay=1.0, coalesce=False)
        try:
            results, errors = submit_all(batcher, ["a", "b"])
            assert results == [None, None]
            assert all(isinstance(error, RuntimeError) for error in errors)
        finally:
            batcher.close()

    def test_close_rejects_new_submissions(self):
        batcher = MicroBatcher(StubResolver(), max_batch=2, max_delay=0.01)
        batcher.close()
        with pytest.raises(Exception):
            batcher.submit(ranieri_graph())

    def test_invalid_configuration_rejected(self):
        resolver = StubResolver()
        with pytest.raises(ValueError):
            MicroBatcher(resolver, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(resolver, max_delay=-1.0)
        with pytest.raises(ValueError):
            MicroBatcher(resolver, queue_limit=0)


class TestSessionPool:
    def test_create_get_delete(self, system):
        pool = SessionPool(system, max_sessions=4)
        entry = pool.create(ranieri_graph())
        assert pool.get(entry.session_id) is entry
        assert len(pool) == 1
        pool.delete(entry.session_id)
        assert len(pool) == 0
        with pytest.raises(UnknownSessionError):
            pool.get(entry.session_id)

    def test_lru_eviction_prefers_stale_sessions(self, system):
        pool = SessionPool(system, max_sessions=2)
        first = pool.create(ranieri_graph())
        second = pool.create(ranieri_graph())
        pool.get(first.session_id)  # refresh: `second` is now least recently used
        third = pool.create(ranieri_graph())
        with pytest.raises(UnknownSessionError):
            pool.get(second.session_id)
        assert pool.get(first.session_id) is first
        assert pool.get(third.session_id) is third
        assert pool.evicted_total == 1

    def test_snapshot_aggregates_cache_counters(self, system):
        pool = SessionPool(system, max_sessions=4)
        entry = pool.create(ranieri_graph())
        with entry.lock:
            entry.session.apply(removes=[("CR", "coach", "Napoli", (2001, 2003))])
            entry.edits_applied += 1
        snapshot = pool.snapshot()
        assert snapshot["active"] == 1
        assert snapshot["edits_applied"] == 1
        assert snapshot["component_cache_hits"] == entry.session.cache.hits
        assert 0.0 <= snapshot["component_cache_hit_rate"] <= 1.0

    def test_rejects_non_positive_capacity(self, system):
        with pytest.raises(ValueError):
            SessionPool(system, max_sessions=0)


class TestLatencyRecorder:
    def test_percentiles_and_counters(self):
        recorder = LatencyRecorder(window=100)
        for value in range(1, 101):  # 1..100 ms
            recorder.observe(value / 1000)
        snapshot = recorder.snapshot()
        assert snapshot["requests"] == 100
        assert snapshot["p50_ms"] == pytest.approx(51.0)
        assert snapshot["p99_ms"] == pytest.approx(100.0)
        assert snapshot["p90_ms"] <= snapshot["p99_ms"]

    def test_window_is_bounded(self):
        recorder = LatencyRecorder(window=4)
        for _ in range(100):
            recorder.observe(0.001)
        recorder.observe(1.0)
        assert recorder.percentiles()["p99_ms"] == pytest.approx(1000.0)
        assert recorder.count == 101

    def test_empty_recorder_reports_zeros(self):
        snapshot = LatencyRecorder().snapshot()
        assert snapshot == {
            "requests": 0,
            "errors": 0,
            "mean_ms": 0.0,
            "p50_ms": 0.0,
            "p90_ms": 0.0,
            "p99_ms": 0.0,
        }
