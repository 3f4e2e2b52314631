"""Threaded endpoint tests for the `tecore serve` HTTP service.

The load-bearing guarantees:

* concurrent ``POST /resolve`` requests produce payloads bit-identical to
  direct ``TeCoRe.resolve`` calls (modulo wall-clock timings);
* interleaved session edits are serialised per session and never corrupt
  the grounder state — the final state matches a session fed the same
  edits directly;
* the bounded queue rejects overload with 503 instead of collapsing.
"""

import json
import threading

from repro.datasets import ranieri_extended_graph, ranieri_graph
from repro.kg import make_fact
from repro.kg.io import json_io
from repro.serve import encode_result, stable_view


def stable(payload):
    return stable_view(payload)


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
        import http.client

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
        import socket

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
        batcher = server.service.batcher
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

    def test_lru_eviction_over_the_session_pool(self, system, server_factory, client):
        server = server_factory(system, max_sessions=2)
        doc = {"graph": json_io.to_dict(ranieri_graph())}
        sids = [client(server, "POST", "/sessions", doc)[1]["session_id"] for _ in range(3)]
        assert client(server, "GET", f"/sessions/{sids[0]}/result")[0] == 404
        assert client(server, "GET", f"/sessions/{sids[1]}/result")[0] == 200
        assert client(server, "GET", f"/sessions/{sids[2]}/result")[0] == 200
        _, stats = client(server, "GET", "/stats")
        assert stats["sessions"]["evicted"] == 1
        assert stats["sessions"]["active"] == 2


class TestServeCommand:
    def test_cli_serve_smoke(self, capsys):
        from repro.cli import main

        assert main(
            [
                "serve",
                "--pack", "running-example",
                "--port", "0",
                "--for-seconds", "0.05",
            ]
        ) == 0
        assert "serving on http://127.0.0.1:" in capsys.readouterr().out

    def test_cli_serve_requires_program(self, capsys):
        from repro.cli import main

        assert main(["serve", "--port", "0", "--for-seconds", "0.05"]) == 1
        assert "error" in capsys.readouterr().err

    def test_cli_serve_bad_tuning_values_report_error(self, capsys):
        from repro.cli import main

        exit_code = main(["serve", "--pack", "running-example", "--port", "0", "--batch-max", "0"])
        assert exit_code == 1
        assert "max_batch" in capsys.readouterr().err
