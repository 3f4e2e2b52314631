"""Threaded endpoint tests for the `tecore serve` HTTP service.

The load-bearing guarantees:

* concurrent ``POST /resolve`` requests produce payloads bit-identical to
  direct ``TeCoRe.resolve`` calls (modulo wall-clock timings);
* interleaved session edits are serialised per session and never corrupt
  the grounder state — the final state matches a session fed the same
  edits directly;
* the bounded queue rejects overload with 503 instead of collapsing.
"""

import http.client
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.datasets import ranieri_extended_graph, ranieri_graph
from repro.kg import make_fact
from repro.kg.io import json_io
from repro.serve import encode_result, stable_view


def stable(payload):
    return stable_view(payload)


class _SendRecorder:
    """A server-side connection that records the bytes of each ``sendall`` call."""

    def __init__(self, connection, sends):
        self._connection = connection
        self._sends = sends

    def sendall(self, data, *flags):
        self._sends.append(bytes(data))
        return self._connection.sendall(data, *flags)

    def __getattr__(self, name):
        return getattr(self._connection, name)


def record_sends(server):
    """Wrap every connection the server accepts; sends are keyed by client port."""
    sends_by_port = {}
    accept = server.get_request

    def get_request():
        connection, address = accept()
        return _SendRecorder(connection, sends_by_port.setdefault(address[1], [])), address

    server.get_request = get_request
    return sends_by_port


def send_request(server, method, path, body=None, headers=()):
    """One request on a new connection; returns the client port and the status."""
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.putrequest(method, path)
        for name, value in headers:
            connection.putheader(name, value)
        if body is not None:
            connection.putheader("Content-Length", str(len(body)))
        connection.endheaders(body)
        client_port = connection.sock.getsockname()[1]
        response = connection.getresponse()
        response.read()
        return client_port, response.status
    finally:
        connection.close()


def parse_reply(write):
    """Status and header names, in order, of one write holding a whole reply."""
    head, separator, body = write.partition(b"\r\n\r\n")
    assert separator, "the write must hold the whole header block"
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = [line.split(": ", 1) for line in header_lines]
    assert int(dict(headers)["Content-Length"]) == len(body), "the write must hold the body"
    json.loads(body)
    return int(status_line.split()[1]), [name for name, _ in headers]


def send_json(server, method, path, body=None, with_retry_after=False):
    """One request on a new connection; returns the status and the JSON reply."""
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request(method, path, body=body)
        response = connection.getresponse()
        reply = (response.status, json.loads(response.read()))
        if with_retry_after:
            reply += (response.getheader("Retry-After"),)
        return reply
    finally:
        connection.close()


#: The headers of every reply, in order; 503/504 add ``Retry-After`` and a
#: reply that closes the connection adds ``Connection``.
REPLY_HEADERS = ["Server", "Date", "Content-Type", "Content-Length"]
RANIERI_DOCUMENT = json.dumps({"graph": json_io.to_dict(ranieri_graph())}).encode()


class TestHealthAndStats:
    def test_healthz(self, system, server_factory, client):
        server = server_factory(system)
        status, payload = client(server, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["solver"] == "nrockit"
        assert payload["sessions"] == 0

    def test_stats_reports_endpoints_batcher_and_sessions(self, system, server_factory, client):
        server = server_factory(system)
        client(server, "POST", "/resolve", {"graph": json_io.to_dict(ranieri_graph())})
        client(server, "POST", "/sessions", {"graph": json_io.to_dict(ranieri_graph())})
        status, payload = client(server, "GET", "/stats")
        assert status == 200
        resolve_stats = payload["endpoints"]["POST /resolve"]
        assert resolve_stats["requests"] == 1
        assert set(resolve_stats) >= {"p50_ms", "p90_ms", "p99_ms", "mean_ms"}
        assert payload["batcher"]["requests"] == 1
        assert payload["sessions"]["active"] == 1
        assert "component_cache_hit_rate" in payload["sessions"]

    def test_unknown_endpoint_is_404(self, system, server_factory, client):
        server = server_factory(system)
        status, payload = client(server, "GET", "/nope")
        assert status == 404
        assert "error" in payload

    def test_unroutable_paths_share_one_metrics_bucket(self, system, server_factory, client):
        # A crawler must not grow the per-endpoint recorder map unboundedly.
        server = server_factory(system)
        for path in ("/a", "/b", "/c"):
            assert client(server, "GET", path)[0] == 404
        _, stats = client(server, "GET", "/stats")
        unmatched = stats["endpoints"]["unmatched"]
        assert unmatched["requests"] == 3 and unmatched["errors"] == 3
        assert not any(endpoint.endswith("/a") for endpoint in stats["endpoints"])

    def test_malformed_content_length_is_400(self, system, server_factory):
        server = server_factory(system)
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.putrequest("POST", "/resolve")
            connection.putheader("Content-Length", "abc")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert b"Content-Length" in response.read()
        finally:
            connection.close()

    def test_oversized_body_is_413_without_reading_it(self, system, server_factory, client):
        server = server_factory(system)
        request = (
            b"POST /resolve HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\nContent-Length: 1000000000000\r\n\r\n"
        )
        # No body follows: a server that tried to read it would hang until
        # the socket timeout instead of answering.
        with socket.create_connection(server.server_address[:2], timeout=5) as raw:
            raw.sendall(request)
            reply = b""
            while chunk := raw.recv(65536):  # the server closes the connection
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413")
        assert b"Connection: close" in head
        assert "limit" in json.loads(body)["error"]
        document = {"graph": json_io.to_dict(ranieri_graph())}
        status, payload = client(server, "POST", "/resolve", document)
        assert status == 200 and payload["removed_facts"]


class TestReplyFraming:
    """Each reply leaves in one write: header block and body together.

    Sent apart, the body waits under Nagle's algorithm for the client's
    delayed ACK of the headers (at least 40 ms on Linux).
    """

    @pytest.mark.parametrize("workers", [0, 1], ids=["in-process", "sharded"])
    def test_keep_alive_replies_do_not_wait_for_a_delayed_ack(
        self, system, server_factory, workers
    ):
        server = server_factory(system, workers=workers)
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        seconds = []
        try:
            for _ in range(25):
                began = time.perf_counter()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                seconds.append(time.perf_counter() - began)
                assert response.status == 200
        finally:
            connection.close()
        # Half of Linux's minimum delayed-ACK timer; a waiting reply takes ~44 ms.
        assert statistics.median(seconds) < 0.020

    @pytest.mark.parametrize(
        "method, path, body, headers, status, extra_headers",
        [
            ("GET", "/healthz", None, (), 200, []),
            ("POST", "/sessions", RANIERI_DOCUMENT, (), 201, []),
            ("POST", "/resolve", None, (("Content-Length", "abc"),), 400, []),
            ("GET", "/nope", None, (), 404, []),
            # No body follows: the server answers without reading it, then closes.
            ("POST", "/resolve", None, (("Content-Length", "1" + "0" * 12),), 413, ["Connection"]),
        ],
        ids=["200", "201", "400", "404", "413"],
    )
    def test_each_reply_leaves_in_one_write(
        self, system, server_factory, method, path, body, headers, status, extra_headers
    ):
        server = server_factory(system)
        sends = record_sends(server)
        client_port, served = send_request(server, method, path, body, headers)
        assert served == status
        assert len(sends[client_port]) == 1
        assert parse_reply(sends[client_port][0]) == (status, REPLY_HEADERS + extra_headers)

    def test_100_continue_leaves_before_the_body_arrives(self, system, server_factory):
        server = server_factory(system)
        head = (
            b"POST /resolve HTTP/1.1\r\nHost: localhost\r\nExpect: 100-continue\r\n"
            b"Content-Length: %d\r\n\r\n" % len(RANIERI_DOCUMENT)
        )
        with socket.create_connection(server.server_address[:2], timeout=5) as raw:
            raw.sendall(head)
            # The client holds the body back until this interim reply arrives.
            assert raw.recv(1024) == b"HTTP/1.1 100 Continue\r\n\r\n"
            raw.sendall(RANIERI_DOCUMENT)
            assert raw.recv(1024).startswith(b"HTTP/1.1 200 OK\r\n")

    def test_503_leaves_in_one_write_with_retry_after(self, system, server_factory):
        server = server_factory(system, queue_limit=1, coalesce=False)
        sends = record_sends(server)
        batcher = server.service.handles[0].runtime.batcher  # the in-process worker's
        batcher.pause()  # the occupant holds the one queue slot
        occupant = []
        thread = threading.Thread(
            target=lambda: occupant.append(
                send_request(server, "POST", "/resolve", RANIERI_DOCUMENT)
            )
        )
        thread.start()
        try:
            assert batcher.wait_for_queue_depth(1)
            rejected_port, rejected = send_request(server, "POST", "/resolve", RANIERI_DOCUMENT)
        finally:
            batcher.resume()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert rejected == 503
        assert len(sends[rejected_port]) == 1
        assert parse_reply(sends[rejected_port][0]) == (503, REPLY_HEADERS + ["Retry-After"])
        occupant_port, served = occupant[0]
        assert served == 200 and len(sends[occupant_port]) == 1


class TestResolveEndpoint:
    def test_single_resolve_matches_direct_resolution(self, system, server_factory, client):
        server = server_factory(system)
        graph = ranieri_graph()
        status, payload = client(server, "POST", "/resolve", {"graph": json_io.to_dict(graph)})
        assert status == 200
        assert stable(payload) == stable(encode_result(system.resolve(graph)))

    def test_include_graphs_round_trips(self, system, server_factory, client):
        server = server_factory(system)
        graph = ranieri_graph()
        status, payload = client(
            server,
            "POST",
            "/resolve",
            {"graph": json_io.to_dict(graph), "include_graphs": True},
        )
        assert status == 200
        # Compare under the JSON codec on both sides (typed literals are
        # stringified by the interchange format on either path).
        direct = system.resolve(graph).consistent_graph
        assert payload["consistent_graph"] == json_io.to_dict(direct)
        assert payload["expanded_graph"]["facts"]  # inferred facts included

    def test_concurrent_resolves_are_bit_identical(self, system, server_factory, client):
        server = server_factory(system, max_batch=4, batch_delay=0.05)
        graphs = [ranieri_graph(), ranieri_extended_graph()]
        expected = [stable(encode_result(system.resolve(graph))) for graph in graphs]
        outcomes = [None] * 8

        def worker(index):
            graph = graphs[index % 2]
            status, payload = client(server, "POST", "/resolve", {"graph": json_io.to_dict(graph)})
            outcomes[index] = (status, stable(payload) == expected[index % 2])

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(outcome == (200, True) for outcome in outcomes)
        _, stats = client(server, "GET", "/stats")
        assert stats["batcher"]["requests"] == 8
        # Identical in-flight graphs coalesce: fewer solves than requests.
        assert stats["batcher"]["resolves"] <= stats["batcher"]["requests"]

    def test_overload_returns_503_and_correct_results_for_the_rest(
        self, system, server_factory, client
    ):
        server = server_factory(
            system, max_batch=64, batch_delay=0.01, queue_limit=1, coalesce=False
        )
        graph = ranieri_graph()
        expected = stable(encode_result(system.resolve(graph)))
        body = {"graph": json_io.to_dict(graph)}

        # Hold the flush worker so the single queue slot fills and *stays*
        # full: backpressure becomes deterministic instead of a race against
        # the batching window.
        batcher = server.service.handles[0].runtime.batcher  # the in-process worker's
        batcher.pause()
        occupant = [None]

        def worker():
            occupant[0] = client(server, "POST", "/resolve", body)

        thread = threading.Thread(target=worker)
        thread.start()
        assert batcher.wait_for_queue_depth(1)
        rejected = [client(server, "POST", "/resolve", body) for _ in range(3)]
        batcher.resume()
        thread.join()

        status, payload = occupant[0]
        assert status == 200, "the queued request must still be served"
        assert stable(payload) == expected
        for status, payload in rejected:
            assert status == 503 and "error" in payload
        _, stats = client(server, "GET", "/stats")
        assert stats["batcher"]["rejected"] == 3

    def test_empty_graph_resolves_to_an_empty_repair(self, server_factory, client):
        system = repro.TeCoRe.from_pack("sports")
        server = server_factory(system)
        status, payload = client(server, "POST", "/resolve", {"name": "t", "facts": []})
        assert status == 200
        assert payload["statistics"]["objective"] == 0.0
        assert payload["statistics"]["input_facts"] == 0
        assert payload["removed_facts"] == []

    def test_malformed_requests_are_400(self, system, server_factory, client):
        server = server_factory(system)
        assert client(server, "POST", "/resolve", {"no": "graph"})[0] == 400
        assert (client(server, "POST", "/resolve", {"graph": {"facts": [{"s": "x"}]}})[0] == 400)


class TestSessionEndpoints:
    NAPOLI = {"s": "CR", "p": "coach", "o": "Napoli", "interval": [2001, 2003]}

    def test_session_lifecycle_matches_direct_session(self, system, server_factory, client):
        server = server_factory(system)
        graph = ranieri_graph()
        status, created = client(server, "POST", "/sessions", {"graph": json_io.to_dict(graph)})
        assert status == 201
        sid = created["session_id"]

        direct = system.session(graph)
        assert stable(created["result"]) == stable(encode_result(direct.result))

        status, edited = client(
            server, "POST", f"/sessions/{sid}/edits", {"removes": [self.NAPOLI]}
        )
        assert status == 200
        direct_result = direct.apply(removes=[("CR", "coach", "Napoli", (2001, 2003))])
        assert edited["result"]["delta"]["facts_removed"] == 1
        assert stable(edited["result"]) == stable(encode_result(direct_result))

        status, latest = client(server, "GET", f"/sessions/{sid}/result")
        assert status == 200
        assert stable(latest["result"]) == stable(encode_result(direct.result))

        status, deleted = client(server, "DELETE", f"/sessions/{sid}")
        assert status == 200
        assert deleted["deleted"] is True and deleted["edits_applied"] == 1
        assert client(server, "GET", f"/sessions/{sid}/result")[0] == 404

    def test_unknown_session_is_404(self, system, server_factory, client):
        server = server_factory(system)
        assert client(server, "GET", "/sessions/deadbeef/result")[0] == 404
        assert client(server, "POST", "/sessions/deadbeef/edits", {"removes": [self.NAPOLI]})[
            0
        ] == 404
        assert client(server, "DELETE", "/sessions/deadbeef")[0] == 404

    def test_empty_edit_request_is_400(self, system, server_factory, client):
        server = server_factory(system)
        _, created = client(
            server, "POST", "/sessions", {"graph": json_io.to_dict(ranieri_graph())}
        )
        sid = created["session_id"]
        assert client(server, "POST", f"/sessions/{sid}/edits", {})[0] == 400
        assert (client(server, "POST", f"/sessions/{sid}/edits", {"adds": "nope"})[0] == 400)

    def test_interleaved_edits_are_serialised_per_session(self, system, server_factory, client):
        server = server_factory(system)
        graph = ranieri_graph()
        _, created = client(server, "POST", "/sessions", {"graph": json_io.to_dict(graph)})
        sid = created["session_id"]

        # Disjoint intervals: the added facts conflict with nothing, so the
        # expected MAP state is independent of the edit arrival order.
        added = [
            {
                "s": "CR",
                "p": "coach",
                "o": f"Club{i}",
                "interval": [2020 + 10 * i, 2025 + 10 * i],
                "confidence": 0.8,
            }
            for i in range(6)
        ]
        statuses = [None] * len(added)

        def worker(index):
            statuses[index], _ = client(
                server, "POST", f"/sessions/{sid}/edits", {"adds": [added[index]]}
            )

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(added))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert statuses == [200] * len(added)

        status, latest = client(server, "GET", f"/sessions/{sid}/result")
        assert status == 200
        # Add-only edits commute, so the final state must match a session
        # over the fully edited graph — any interleaving corruption of the
        # grounder state would break objective/fact equality here.
        final = graph.copy(name=graph.name)
        for entry in added:
            final.add(
                make_fact(
                    entry ["s"],
                    entry ["p"],
                    entry ["o"],
                    tuple (entry ["interval"]),
                    entry ["confidence"],
                )
            )
        expected = system.session(final).result
        served = latest["result"]
        assert served["statistics"]["input_facts"] == len(final)
        assert served["statistics"]["objective"] == expected.objective
        assert sorted(served["removed_facts"]) == sorted(
            str(fact) for fact in expected.removed_facts
        )
        assert sorted(served["inferred_facts"]) == sorted(
            str(fact) for fact in expected.inferred_facts
        )
        _, stats = client(server, "GET", "/stats")
        assert stats["sessions"]["edits_applied"] == len(added)

    def test_create_beyond_capacity_is_503_with_retry_after(self, system, server_factory):
        server = server_factory(system, max_sessions=2)
        sids = []
        for _ in range(2):
            status, created = send_json(server, "POST", "/sessions", RANIERI_DOCUMENT)
            assert status == 201
            sids.append(created["session_id"])
        status, payload, retry_after = send_json(
            server, "POST", "/sessions", RANIERI_DOCUMENT, with_retry_after=True
        )
        assert status == 503 and "capacity" in payload["error"]
        assert retry_after == "1"
        # Admission, not eviction: every admitted session keeps serving.
        for sid in sids:
            assert send_json(server, "GET", f"/sessions/{sid}/result")[0] == 200
        _, stats = send_json(server, "GET", "/stats")
        assert stats["sessions"]["evicted"] == 0
        assert stats["sessions"]["active"] == 2


class TestServeCommand:
    def test_cli_serve_smoke(self, capsys):
        from repro.cli import main

        shutdown_signals = (signal.SIGINT, signal.SIGTERM)
        handlers = [signal.getsignal(signum) for signum in shutdown_signals]
        assert main(
            [
                "serve",
                "--pack", "running-example",
                "--port", "0",
                "--for-seconds", "0.05",
            ]
        ) == 0
        assert "serving on http://127.0.0.1:" in capsys.readouterr().out
        # Serving sets its own shutdown handlers and puts the old ones back.
        assert [signal.getsignal(signum) for signum in shutdown_signals] == handlers

    @pytest.mark.parametrize(
        "signum, shell_prefix",
        [(signal.SIGINT, 'trap "" INT; '), (signal.SIGTERM, "")],
        ids=["sigint-while-ignored", "sigterm"],
    )
    def test_signal_closes_the_server_with_exit_code_0(self, signum, shell_prefix):
        # A non-interactive shell starts a background job with SIGINT
        # ignored, as the trap does here; Python then keeps it ignored.
        source_root = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        command = f'{shell_prefix}exec "$0" -m repro.cli serve --pack running-example --port 0'
        process = subprocess.Popen(
            ["sh", "-c", command, sys.executable],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            output = []
            for line in process.stdout:
                output.append(line)
                if line.startswith("serving on http://"):
                    break
            assert output and output[-1].startswith("serving on http://"), "".join(output)
            process.send_signal(signum)
            assert process.wait(timeout=10) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()

    def test_close_without_a_serving_loop_returns(self):
        # A signal that lands between "serving on" and serve_forever()
        # leaves no loop; close() must not wait for one, and a loop that
        # starts after it must return at once.
        from repro.serve import ServerConfig, make_server

        server = make_server(repro.TeCoRe.from_pack("running-example"), ServerConfig(port=0))
        closer = threading.Thread(target=server.close, daemon=True)
        closer.start()
        closer.join(timeout=10)
        assert not closer.is_alive(), "close() waited for a serving loop that never ran"
        loop = server.run_in_thread()
        loop.join(timeout=10)
        assert not loop.is_alive(), "a loop started after close() kept serving"

    def test_cli_serve_requires_program(self, capsys):
        from repro.cli import main

        assert main(["serve", "--port", "0", "--for-seconds", "0.05"]) == 1
        assert "error" in capsys.readouterr().err

    def test_cli_serve_bad_tuning_values_report_error(self, capsys):
        from repro.cli import main

        exit_code = main(["serve", "--pack", "running-example", "--port", "0", "--batch-max", "0"])
        assert exit_code == 1
        assert "max_batch" in capsys.readouterr().err
