"""``serve-mixed``: debugging sessions beside one-shot repairs against ``tecore serve``.

The server runs in its own process with default flags plus a WAL
directory.  This process is the load generator: two client threads, one
keep-alive connection each, both closed loops.

* The session client repeats one debugging episode: ``POST /sessions`` on
  a fresh noisy FootballDB graph (scale 0.02); ``rounds`` rounds of
  ``POST /sessions/{id}/edits`` — retract ``EDIT_FACTS`` facts, re-add the
  previous round's — each followed by ``GET /sessions/{id}/result``;
  ``DELETE /sessions/{id}``.  These are the writes (WAL-logged).
* The resolve client sends ``POST /resolve`` on scale-0.01 graphs: every
  ``HOT_EVERY``-th repeats one of ``HOT_TENANTS`` hot tenant graphs, the
  others cycle through ``unique`` graphs, more than the response cache
  holds, so only the hot share can hit it.  These are the reads.

Each client keeps one kind of traffic so that both kinds are in flight
throughout the window: with both clients running whole episodes, a
run's ``/resolve`` latencies depended on how often they happened to
overlap a session create (seconds of ILP) in the other client.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import shutil
import signal
import socket
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, field

import harness
import layers
import speed

EDIT_FACTS = 3
HOT_EVERY = 5
HOT_TENANTS = 4
NOISE = 0.5
#: Unique ``/resolve`` graphs the library re-resolves after the window (every
#: hot graph is checked too); every other payload must equal the earlier
#: payloads of its graph.  Checking all would add 10-20 s to a run.
CHECKED_UNIQUE = 16


@dataclass(frozen=True)
class Shape:
    """Sizes of one debugging episode."""

    rounds: int = 20
    session_scale: float = 0.02
    resolve_scale: float = 0.01
    #: Unique ``/resolve`` graphs cycled through: with the hot ones, more
    #: than the 128-entry response cache holds, so every unique one misses.
    unique: int = 136


FULL = Shape()
#: Smoke-test shape: a couple of rounds on small graphs.
TINY = Shape(rounds=2, session_scale=0.005, resolve_scale=0.005, unique=6)
#: Server start-ups timed before the run's own server and after the checks;
#: with the run's own server they give the median reported as ``setup_s``.
SETUP_SAMPLES = (1, 1)
#: Session objective vs one-shot resolve: equal up to summation rounding.
OBJECTIVE_REL_TOL = 1e-12
#: Lower bound on one session episode's seconds, used to size the input plan.
MIN_EPISODE_S = 1.5
#: ``tecore serve`` arguments; everything else stays at its default
#: (``--workers 0``, ``--fsync-policy batch``, ``--lint strict``,
#: ``--response-cache 128``, ``--batch-delay 0.01``).  Compaction runs every
#: 64 records instead of 256 so that one run sees several compactions even
#: on a slow 2-core machine (an episode logs 27 records).
SERVER_ARGS = ("--pack", "sports", "--port", "0", "--compact-every", "64")

#: Client operation → the server's ``/stats`` endpoint label.
ENDPOINTS = {
    "create": "POST /sessions",
    "edit": "POST /sessions/{id}/edits",
    "read": "GET /sessions/{id}/result",
    "resolve": "POST /resolve",
    "delete": "DELETE /sessions/{id}",
}


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
@dataclass
class GraphInput:
    name: str
    body: bytes
    facts: int
    noise: frozenset  # str() of every planted-noise fact


@dataclass
class Episode:
    session: GraphInput
    facts: list  # fact objects of the session graph, in order
    rounds: list  # (edit body, removed fact objects, re-added fact objects)


def noisy_graph(name: str, scale: float, seed: int) -> tuple[GraphInput, list]:
    from repro.datasets.footballdb import FootballDBConfig, generate_footballdb
    from repro.kg.io import json_io

    dataset = generate_footballdb(FootballDBConfig(scale=scale, noise_ratio=NOISE, seed=seed))
    document = json_io.to_dict(dataset.graph)
    document["name"] = name
    graph = GraphInput(
        name=name,
        body=json.dumps(document).encode("utf-8"),
        facts=len(document["facts"]),
        noise=frozenset(str(fact) for fact in dataset.noise_facts),
    )
    return graph, document["facts"]


def plan_episode(seed: int, episode: int, shape: Shape) -> Episode:
    tag = f"s{seed}-e{episode}"
    base = seed * 1_000_000 + episode * 10
    session, facts = noisy_graph(f"session-{tag}", shape.session_scale, base)
    rng = random.Random(base)
    present = dict.fromkeys(range(len(facts)))
    rounds = []
    previous: list[int] = []
    for _ in range(shape.rounds):
        chosen = rng.sample(sorted(set(present) - set(previous)), EDIT_FACTS)
        body = {
            "removes": [facts[i] for i in chosen],
            "adds": [facts[i] for i in previous],
        }
        rounds.append((json.dumps(body).encode("utf-8"), chosen, previous))
        for i in chosen:
            del present[i]
        for i in previous:
            present[i] = None
        previous = chosen
    return Episode(session=session, facts=facts, rounds=rounds)


def plan_resolves(seed: int, shape: Shape) -> tuple[list, list]:
    """(hot tenant graphs, unique graphs) for the resolve client."""
    hot = [
        noisy_graph(f"hot-{tenant}-s{seed}", shape.resolve_scale, seed * 100 + 90 + tenant)[0]
        for tenant in range(HOT_TENANTS)
    ]
    base = seed * 1_000_000 + 500_000
    unique = [
        noisy_graph(f"resolve-s{seed}-{i}", shape.resolve_scale, base + i)[0]
        for i in range(shape.unique)
    ]
    return hot, unique


def resolve_at(index: int, hot: list, unique: list) -> GraphInput:
    """The graph of the resolve client's ``index``-th request."""
    if index % HOT_EVERY == HOT_EVERY - 1:
        return hot[(index // HOT_EVERY) % len(hot)]
    return unique[(index - index // HOT_EVERY) % len(unique)]


def final_facts(episode: Episode, rounds_done: int) -> list:
    """The session graph's facts, in order, after ``rounds_done`` edits."""
    present = dict.fromkeys(range(len(episode.facts)))
    for _, removed, added in episode.rounds[:rounds_done]:
        for i in removed:
            del present[i]
        for i in added:
            present[i] = None
    return [episode.facts[i] for i in present]


# --------------------------------------------------------------------------- #
# Server process
# --------------------------------------------------------------------------- #
class Server:
    """``tecore serve`` in a child process pinned to ``cpu``, through ``launcher.py``."""

    def __init__(self, workdir: str, cpu: int, trace_out: str | None = None) -> None:
        self.wal_dir = os.path.join(workdir, "wal")
        extra = ["--trace-out", trace_out] if trace_out else []
        command = harness.launcher_command(
            "--cpu", str(cpu), "serve", *extra, "--", *SERVER_ARGS, "--wal-dir", self.wal_dir
        )
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, cwd=harness.ROOT
        )
        try:
            line = self.process.stdout.readline()
            if not line.startswith("serving on http://"):
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.split()[2].rsplit(":", 1)[1])
            self._await_health(started + 120)
        except BaseException:
            self.stop()
            raise
        #: Spawn and first ``/healthz`` 200, as perf-counter times.
        self.setup = (started, time.perf_counter())

    def _await_health(self, deadline: float) -> None:
        while True:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() > deadline or self.process.poll() is not None:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.002)

    def get(self, path: str) -> tuple[int, dict]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def stop(self) -> int:
        """SIGINT (the server's clean shutdown), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        return self.process.returncode


# --------------------------------------------------------------------------- #
# Load generator
# --------------------------------------------------------------------------- #
@dataclass
class SessionTrack:
    episode: Episode
    session_id: str
    last: dict  # latest create/edit result payload
    rounds: int = 0
    reads: list = field(default_factory=list)  # (read payload, payload it must equal)
    deltas: list = field(default_factory=list)  # delta statistics of every edit
    open: bool = True
    #: A create or edit failed, so the server-side state is unknown.
    broken: bool = False


class Client:
    """One closed-loop client thread with its own keep-alive connection."""

    def __init__(self, port: int, deadline: float) -> None:
        self.deadline = deadline
        self.log = harness.OpLog()
        self.sessions: list[SessionTrack] = []
        self.resolves: list[tuple[GraphInput, dict]] = []
        self.facts = 0
        self.recycled = 0
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.connection.connect()
        # Like common HTTP client libraries: no Nagle delay on requests.
        self.connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def call(self, op: str, method: str, path: str, body: bytes | None = None) -> dict | None:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        began = time.perf_counter()
        try:
            self.connection.request(method, path, body=body, headers=headers)
            response = self.connection.getresponse()
            headed = time.perf_counter()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.connection.close()  # no retry: the next request reconnects
            self.log.fail(op, f"connection: {exc!r}")
            return None
        ended = time.perf_counter()
        if response.status not in (200, 201):
            self.log.fail(op, f"HTTP {response.status}: {data[:200]!r}")
            return None
        # The server writes a reply's headers and body separately; the body
        # then waits ~40 ms for the client's delayed ACK, a timer.
        self.log.ok(op, began, ended, waited=ended - headed)
        return json.loads(data)

    def expired(self) -> bool:
        return time.perf_counter() >= self.deadline

    def run(self, loop, *args) -> None:
        try:
            loop(*args)
        except Exception as exc:  # noqa: BLE001 - reported as a failed run
            self.log.fail("client", f"client thread crashed: {exc!r}")

    def sessions_loop(self, plan: list) -> None:
        index = 0
        while not self.expired():
            episode = plan[index % len(plan)]
            self.recycled += index >= len(plan)
            index += 1
            created = self.call("create", "POST", "/sessions", episode.session.body)
            if created is None:
                continue
            self.facts += episode.session.facts
            sid = created["session_id"]
            track = SessionTrack(episode, sid, created["result"])
            self.sessions.append(track)
            for body, _, _ in episode.rounds:
                if self.expired():
                    return
                edited = self.call("edit", "POST", f"/sessions/{sid}/edits", body)
                if edited is None:
                    track.broken = True
                    break
                track.rounds += 1
                track.last = edited["result"]
                track.deltas.append(edited["result"].get("delta") or {})
                read = self.call("read", "GET", f"/sessions/{sid}/result")
                if read is not None:
                    track.reads.append((read["result"], track.last))
            if self.expired():
                return
            if self.call("delete", "DELETE", f"/sessions/{sid}") is not None:
                track.open = False

    def resolves_loop(self, hot: list, unique: list) -> None:
        index = 0
        while not self.expired():
            graph = resolve_at(index, hot, unique)
            hot_turn = index % HOT_EVERY == HOT_EVERY - 1
            self.recycled += not hot_turn and index - index // HOT_EVERY >= len(unique)
            index += 1
            resolved = self.call("resolve", "POST", "/resolve", graph.body)
            if resolved is not None:
                self.resolves.append((graph, resolved))
                self.facts += graph.facts

    def cleanup(self) -> None:
        """Delete sessions left open at the deadline (not measured)."""
        for track in self.sessions:
            if track.open:
                try:
                    self.connection.request("DELETE", f"/sessions/{track.session_id}")
                    self.connection.getresponse().read()
                except (OSError, http.client.HTTPException):
                    self.connection.close()
        self.connection.close()


# --------------------------------------------------------------------------- #
# Checks
# --------------------------------------------------------------------------- #
def check(clients: list[Client], log: harness.OpLog, hot: list, unique: list) -> tuple[float, int]:
    """Compare served outputs with the library; returns (F1, graphs re-resolved).

    Every ``/resolve`` payload must equal the first one served for its
    graph; the library re-resolves every hot graph and the first
    ``CHECKED_UNIQUE`` unique ones.  Every session read must equal the
    preceding edit, and every session's last objective a one-shot resolve
    of its final graph.
    """
    from repro import TeCoRe
    from repro.kg.io import json_io
    from repro.metrics import RepairQuality
    from repro.serve.protocol import decode_graph, encode_result, stable_view

    system = TeCoRe.from_pack("sports", solver="nrockit")
    served: dict[str, dict] = {}
    true_pos = false_pos = false_neg = 0
    for client in clients:
        for graph, payload in client.resolves:
            view = stable_view(payload)
            if served.setdefault(graph.name, view) != view:
                log.mark_wrong("resolve", f"{graph.name}: payload differs from an earlier one")
            removed = set(payload["removed_facts"])
            true_pos += len(removed & graph.noise)
            false_pos += len(removed - graph.noise)
            false_neg += len(graph.noise - removed)
    checked = 0
    for graph in hot + unique[:CHECKED_UNIQUE]:
        if graph.name not in served:
            continue
        result = system.resolve(decode_graph(json.loads(graph.body)))
        checked += 1
        if stable_view(encode_result(result)) != served[graph.name]:
            log.mark_wrong("resolve", f"{graph.name}: served payload differs from the library")
    for client in clients:
        for track in client.sessions:
            for read, edited in track.reads:
                if stable_view(read) != stable_view(edited):
                    log.mark_wrong("read", f"{track.session_id}: result differs from the last edit")
            if track.broken:
                continue
            facts = final_facts(track.episode, track.rounds)
            graph = json_io.from_dict({"name": track.episode.session.name, "facts": facts})
            objective = system.resolve(graph).statistics.objective
            last = track.last["statistics"]["objective"]
            # Sessions solve per component; on tied optima the monolithic ILP
            # can keep a different assignment whose sum differs in the last bits.
            if not math.isclose(last, objective, rel_tol=OBJECTIVE_REL_TOL):
                op = "edit" if track.rounds else "create"
                log.mark_wrong(
                    op, f"{track.session_id}: objective {last!r} != one-shot {objective!r}"
                )
    return RepairQuality(true_pos, false_pos, false_neg).f1, checked


# --------------------------------------------------------------------------- #
# The run
# --------------------------------------------------------------------------- #
def time_start_up(workdir: str, name: str, cpu: int) -> tuple[float, float]:
    """Spawn and first ``/healthz`` 200 of a server on an empty WAL."""
    server = Server(os.path.join(workdir, name), cpu)
    server.stop()
    return server.setup


def run(seed: int, seconds: float, trace: bool, tiny: bool = False) -> bool:
    harness.use_program()
    os.makedirs(harness.SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="serve-", dir=harness.SCRATCH)
    # The server and the speed probe share one CPU; the load generator
    # takes the other, when there is one.
    cpu, client_cpu = speed.work_cpus()
    speed.pin(client_cpu)
    try:
        with speed.SpeedProbe(cpu) as probe:
            return _run(workdir, seed, seconds, trace, tiny, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workdir: str, seed: int, seconds: float, trace: bool, tiny: bool, probe) -> bool:
    cpu = probe.cpu
    before, after = (0, 0) if tiny else SETUP_SAMPLES
    setups = [time_start_up(workdir, f"probe-{attempt}", cpu) for attempt in range(before)]

    shape = TINY if tiny else FULL
    hot, unique = plan_resolves(seed, shape)
    episodes = math.ceil(seconds / (0.1 if tiny else MIN_EPISODE_S)) + 1
    plan = [plan_episode(seed, e, shape) for e in range(episodes)]

    trace_out = os.path.join(workdir, "spans.jsonl") if trace else None
    server = Server(os.path.join(workdir, "run"), cpu, trace_out)
    setups.append(server.setup)
    try:
        started = time.perf_counter()
        clients = [Client(server.port, started + seconds) for _ in range(2)]
        threads = [
            threading.Thread(target=clients[0].run, args=(clients[0].sessions_loop, plan)),
            threading.Thread(target=clients[1].run, args=(clients[1].resolves_loop, hot, unique)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("client threads did not finish")
        status, stats = server.get("/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        rss = harness.peak_rss_mb(server.process.pid)
        for client in clients:
            client.cleanup()
    finally:
        code = server.stop()
    if code != 0:
        raise RuntimeError(f"server exited with {code}")

    log = harness.OpLog()
    for client in clients:
        log.merge(client.log)
    f1, checked = check(clients, log, hot, unique)
    setups += [
        time_start_up(workdir, f"probe-{before + attempt}", cpu) for attempt in range(after)
    ]
    probe.stop()
    if not log.latencies.get("resolve"):
        raise RuntimeError("no POST /resolve completed within the window")
    # Each client is its own closed loop.
    streams = [(client.log, client.facts) for client in clients]
    counters = counter_metrics(stats, clients, log)
    notes = [
        f"workload serve-mixed: tecore serve {' '.join(SERVER_ARGS)} --wal-dir <tmp> "
        f"(fsync batch, lint strict, response cache 128, batch delay 10 ms, workers 0); "
        f"loop=closed clients=2 (sessions, resolves) seed={seed} server cpu={cpu}",
        f"sessions: scale {shape.session_scale}, {shape.rounds} rounds x {EDIT_FACTS} facts; "
        f"{len(plan)} episodes planned, {clients[0].recycled} recycled",
        f"resolves: scale {shape.resolve_scale}, 1 in {HOT_EVERY} of {HOT_TENANTS} hot graphs, "
        f"others cycle {shape.unique} unique graphs ({clients[1].recycled} repeats)",
        f"checked {checked} /resolve graphs and {len(clients[0].sessions)} sessions "
        f"against the library",
        f"server counters: {json.dumps({k: round(v, 4) for k, v in counters.items()})}",
        f"setup, wall (s): {', '.join(f'{end - start:.3f}' for start, end in setups)}",
        f"speed: kernel {probe.kernel_ms():.2f} ms median over {len(probe.samples)} samples "
        f"(reference {1000 * speed.KERNEL_REFERENCE_S:g} ms)",
    ]
    reference = log.reference_latencies(probe)
    for op in ENDPOINTS:
        values = [v * 1000 for v in log.latencies.get(op, [])]
        scaled = [v * 1000 for v in reference.get(op, [])]
        notes.append(
            f"{op} latency: wall {harness.describe(values, 'ms')}; "
            f"reference {harness.describe(scaled, 'ms')}"
        )
    correct = not log.wrong
    if trace:
        from tracing import load_spans

        spans, span_counters = load_spans(trace_out)
        metrics = layers.per_layer(spans, span_counters, log, streams, probe, extra=counters)
        notes.append(f"largest layers: {layers.largest_layers(metrics)}")
        for op in ("create", "edit"):
            session, mln = (metrics[f"{op}.{layer}_share"]["value"] for layer in ("session", "mln"))
            notes.append(f"{op} path: core.session {session:.1%}, of which mln {mln:.1%}")
    else:
        metrics = harness.end_to_end(
            probe=probe, setups=setups, rss=rss, log=log, streams=streams, f1=f1
        )
    harness.emit(correct, log, metrics, notes)
    return correct


def counter_metrics(stats: dict, clients: list[Client], log: harness.OpLog) -> dict[str, float]:
    """Per-layer counters from ``/stats`` and the edit payloads (every run)."""
    batcher, wal, sessions = stats["batcher"], stats.get("wal", {}), stats["sessions"]
    hits = batcher.get("response_cache_hits", 0)
    lookups = hits + batcher.get("response_cache_misses", 0)
    requests = batcher["requests"]
    out = {
        "batcher.mean_batch_size": float(batcher["mean_batch_size"]),
        "batcher.coalesced": float(batcher["coalesced"]),
        "batcher.coalesced_share": batcher["coalesced"] / requests if requests else 0.0,
        "batcher.requests": float(requests),
        "batcher.response_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "batcher.response_cache_lookups": float(lookups),
        "batcher.rejected": float(batcher["rejected"]),
        "wal.appends": float(wal.get("appended", 0)),
        "wal.syncs_per_append": wal["synced"] / wal["appended"] if wal.get("appended") else 0.0,
        "wal.compactions": float(wal.get("compactions", 0)),
        "sessions.evicted": float(sessions["evicted"]),
    }
    total = dirty = cached = edits = 0
    for client in clients:
        for track in client.sessions:
            for delta in track.deltas:
                total += delta.get("components_total", 0)
                dirty += delta.get("components_dirty", 0)
                cached += delta.get("components_cached", 0)
                edits += 1
    out["session.components_total"] = total / edits if edits else 0.0
    out["session.components_dirty"] = dirty / edits if edits else 0.0
    out["session.component_cache_hit_ratio"] = cached / total if total else 0.0
    out["session.component_lookups"] = float(total)
    endpoints = stats["endpoints"]
    for op, label in ENDPOINTS.items():
        server_ms = endpoints.get(label, {}).get("p50_ms", 0.0)
        client = log.latencies.get(op, [])
        out[f"serve.endpoint_ms.{op}"] = float(server_ms)
        out[f"serve.transport_ms.{op}"] = (
            1000 * harness.percentile(client, 50) - server_ms if client else 0.0
        )
    return out
