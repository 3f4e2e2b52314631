"""What the one serving path runs, at ``--workers 0`` and with forked workers.

* ``/stats`` adds the workers' batcher counters up correctly and reads the
  request and cache counts off the front-end, under every key
  ``perfbench/serve_mixed.py`` (``counter_metrics``) and
  ``benchmarks/bench_serve.py`` (A11) read;
* ``--workers 0`` is a direct call: it forks nothing and opens no pipe;
* a response-cache hit decodes and encodes nothing, is reported to the
  history recorder, and still logs its ``resolve`` audit record;
* the front-end validates ``cache_size`` before anything is logged.
"""

import json
import multiprocessing.connection
import multiprocessing.process
import os
import sys
import threading

import pytest

import repro.serve.server as server_module
from repro.datasets import ranieri_graph
from repro.kg.io import json_io
from repro.serve import ServerConfig
from repro.serve.server import ResolutionService
from repro.serve.wal import scan_wal_dir
from repro.verify.history import HistoryRecorder

#: ``/stats`` keys the benchmark harnesses read on every run.
BATCHER_KEYS = {
    "requests",
    "rejected",
    "batches",
    "resolves",
    "coalesced",
    "mean_batch_size",
    "max_batch_size",
    "response_cache_hits",
    "response_cache_misses",
}
WAL_KEYS = {"appended", "synced", "compactions"}

EDIT = {
    "adds": [{"s": "CR", "p": "coach", "o": "Fulham", "interval": [2018, 2019], "confidence": 0.7}]
}


def _body(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


def _resolve_body(name: str) -> bytes:
    document = json_io.to_dict(ranieri_graph())
    document["name"] = name
    return _body({"graph": document})


@pytest.fixture
def services():
    opened = []

    def factory(system, **config_kwargs):
        config_kwargs.setdefault("batch_delay", 0.001)
        service = ResolutionService(system, ServerConfig(**config_kwargs))
        opened.append(service)
        return service

    yield factory
    for service in opened:
        service.close()


class TestStatsAggregation:
    @pytest.mark.parametrize("workers", [0, 2], ids=["in-process", "forked"])
    def test_counters_equal_a_hand_count(self, system, services, tmp_path, workers):
        service = services(system, workers=workers, wal_dir=str(tmp_path), queue_limit=16)
        # Four distinct graphs one after the other (four batches of one,
        # spread over both forked workers), then a repeat of the first.
        for index in range(4):
            assert service.handle("POST", "/resolve", _resolve_body(f"g{index}"))[0] == 200
        assert service.handle("POST", "/resolve", _resolve_body("g0"))[0] == 200

        status, stats = service.handle("GET", "/stats", b"")
        assert status == 200
        batcher = stats["batcher"]
        assert BATCHER_KEYS <= set(batcher)
        assert WAL_KEYS <= set(stats["wal"])
        assert "evicted" in stats["sessions"]
        assert "p99_ms" in stats["endpoints"]["POST /resolve"]
        assert batcher["requests"] == 5
        assert (batcher["response_cache_hits"], batcher["response_cache_misses"]) == (1, 4)
        assert batcher["batches"] == batcher["enqueued"] == batcher["resolves"] == 4
        assert batcher["coalesced"] == batcher["rejected"] == 0
        assert batcher["max_batch_size"] == 1
        assert batcher["mean_batch_size"] == 1.0
        assert batcher["mean_batch_size"] <= batcher["max_batch_size"]
        assert batcher["queue_limit"] == 16
        assert stats["wal"]["appended"] == 5  # one audit record per 200, hit or miss

    @pytest.mark.parametrize("workers", [0, 2], ids=["in-process", "forked"])
    def test_session_counters_add_up(self, system, services, workers):
        service = services(system, workers=workers, max_sessions=8)
        document = _body({"graph": json_io.to_dict(ranieri_graph())})
        sids = [service.handle("POST", "/sessions", document)[1]["session_id"] for _ in range(3)]
        for sid in sids:
            assert service.handle("POST", f"/sessions/{sid}/edits", _body(EDIT))[0] == 200
        assert service.handle("DELETE", f"/sessions/{sids[0]}", b"")[0] == 200
        sessions = service.handle("GET", "/stats", b"")[1]["sessions"]
        assert (sessions["active"], sessions["routed"], sessions["max_sessions"]) == (2, 2, 8)
        assert (sessions["created"], sessions["deleted"], sessions["evicted"]) == (3, 1, 0)
        assert sessions["edits_applied"] == 2  # the deleted session's edit left with it

    def test_cache_counters_lose_no_update_under_contention(self, system, services):
        # More request threads than cores, switching every microsecond: a
        # lost read-modify-write on the front-end's counters would break
        # the conservation below.
        service = services(system, response_cache=2)
        bodies = [_resolve_body(f"g{index}") for index in range(3)]
        statuses = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda offset=offset: statuses.extend(
                        service.handle("POST", "/resolve", bodies[(offset + n) % 3])[0]
                        for n in range(10)
                    )
                )
                for offset in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        assert statuses == [200] * 80
        batcher = service.handle("GET", "/stats", b"")[1]["batcher"]
        assert batcher["requests"] == 80
        assert batcher["response_cache_hits"] + batcher["response_cache_misses"] == 80
        assert batcher["response_cache_misses"] == batcher["enqueued"]
        assert batcher["response_cache_entries"] == 2


class TestInProcessWorker:
    def test_serving_forks_nothing_and_opens_no_pipe(
        self, system, server_factory, client, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("--workers 0 must not fork or open a pipe")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(multiprocessing.connection, "Pipe", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        server = server_factory(system)
        document = {"graph": json_io.to_dict(ranieri_graph())}
        status, created = client(server, "POST", "/sessions", document)
        assert status == 201
        sid = created["session_id"]
        assert client(server, "POST", f"/sessions/{sid}/edits", EDIT)[0] == 200
        assert client(server, "GET", f"/sessions/{sid}/result")[0] == 200
        assert client(server, "POST", "/resolve", document)[0] == 200
        assert client(server, "GET", "/healthz")[1]["status"] == "ok"

    def test_cache_hit_decodes_and_encodes_nothing(self, system, tmp_path, monkeypatch):
        recorder = HistoryRecorder()
        config = ServerConfig(wal_dir=str(tmp_path), batch_delay=0.001)
        service = ResolutionService(system, config, recorder=recorder)
        calls = []

        def spy(name):
            original = getattr(server_module, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(server_module, name, counted)

        spy("decode_graph")
        spy("encode_result")
        body = _resolve_body("hot")
        try:
            first = service.handle("POST", "/resolve", body)
            assert sorted(calls) == ["decode_graph", "encode_result"]
            calls.clear()
            second = service.handle("POST", "/resolve", body)
            assert calls == []
        finally:
            service.close()
        assert first == second and first[0] == 200
        history = recorder.history()
        assert history.cache_hits == [history.operations[1].op_id]
        records, _, _ = scan_wal_dir(str(tmp_path))
        assert [record["kind"] for record in records] == ["resolve", "resolve"]


class TestCreateValidation:
    @pytest.mark.parametrize("cache_size", [True, 1.5, "8", 0])
    def test_non_positive_integer_cache_size_is_400_and_logs_nothing(
        self, system, services, tmp_path, cache_size
    ):
        service = services(system, wal_dir=str(tmp_path))
        document = {"graph": json_io.to_dict(ranieri_graph()), "cache_size": cache_size}
        status, payload = service.handle("POST", "/sessions", _body(document))
        assert status == 400
        assert "cache_size" in payload["error"]
        assert service.wal.appended_total == 0
        assert service.handle("GET", "/stats", b"")[1]["sessions"]["created"] == 0
