"""Chaos runs: SIGKILL `tecore serve` mid-workload, restart, certify.

The strongest durability claim the serving tier makes is end-to-end: run a
real ``tecore serve`` **subprocess** with ``--wal-dir`` under a seeded
fault schedule, drive a seeded trace over real HTTP, SIGKILL the process
while requests are in flight, restart it on the same log directory, let
the clients finish — and the *combined* client-visible history (before and
after the crash, pending operations included) must still be serializable
per :mod:`repro.verify.checker`.  :func:`run_chaos` orchestrates exactly
that and returns a :class:`ChaosReport`; ``tecore chaos`` is its CLI face.

Client-side recording: unlike the in-process harness, the recorder here
lives in the *clients* — each HTTP attempt is one
:class:`~repro.verify.history.Operation`, and an attempt whose connection
dies without a response (the process was killed under it) stays
``completed=None``.  That is precisely the evidence shape the checker's
crash-history rules are defined on.

Retry discipline (shared with ``benchmarks/bench_serve.py`` through
:func:`request_with_retry` / :class:`RetryPolicy`):

* a **responded** 503/504 is retried with capped exponential backoff,
  honouring the server's ``Retry-After`` hint — the service guarantees it
  answers those *before* applying any mutation, so a retry is safe;
* a **connection-level** failure is never blindly retried for mutating
  operations (at-most-once: the request may have been applied and WAL'd
  even though the response was lost); the operation is left pending and
  the client re-establishes its connection against the restarted server.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from ..errors import TecoreError
from .faults import seeded_schedule
from .harness import SessionDirectory
from .history import History, HistoryRecorder
from .workloads import TraceOp, WorkloadConfig, generate_trace

#: Mutating operation kinds — never resent after a connection-level failure.
_MUTATING_KINDS = ("session_create", "session_edit", "session_delete", "resolve")

#: How long a client keeps probing for the restarted server (seconds).
RECONNECT_SECONDS = 60.0


# --------------------------------------------------------------------------- #
# Retry policy (shared with the HTTP trace benchmark)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for responded 503/504s."""

    max_retries: int = 5
    base_delay: float = 0.05
    max_delay: float = 2.0
    statuses: tuple[int, ...] = (503, 504)

    def delay(self, attempt: int, retry_after: Optional[float] = None) -> float:
        """Backoff before retry ``attempt`` (0-based), honouring Retry-After.

        The server's hint sets a *floor* (it knows how saturated it is);
        the exponential curve sets the growth; ``max_delay`` caps both.
        """
        backoff = min(self.max_delay, self.base_delay * (2**attempt))
        if retry_after is not None:
            backoff = max(backoff, min(self.max_delay, retry_after))
        return backoff


DEFAULT_RETRY_POLICY = RetryPolicy()


def _parse_retry_after(value: Optional[str]) -> Optional[float]:
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        return None


def request_with_retry(
    connection: http.client.HTTPConnection,
    method: str,
    path: str,
    document: Optional[dict[str, Any]] = None,
    policy: RetryPolicy = DEFAULT_RETRY_POLICY,
    on_attempt: Optional[Callable[[int, dict[str, Any]], None]] = None,
) -> tuple[int, dict[str, Any], int]:
    """Issue one JSON request, retrying responded 503/504s with backoff.

    Returns ``(status, payload, retries)`` where ``status``/``payload``
    come from the final attempt.  Connection-level errors propagate to the
    caller — only *answered* overload statuses are retried, which the
    service guarantees carry no partial effect.  ``on_attempt`` observes
    every attempt (for client-side history recording).
    """
    body = json.dumps(document) if document is not None else None
    retries = 0
    while True:
        connection.request(method, path, body=body, headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        payload = json.loads(response.read())
        retry_after = _parse_retry_after(response.getheader("Retry-After"))
        if on_attempt is not None:
            on_attempt(response.status, payload)
        if response.status in policy.statuses and retries < policy.max_retries:
            time.sleep(policy.delay(retries, retry_after))
            retries += 1
            continue
        return response.status, payload, retries


# --------------------------------------------------------------------------- #
# The managed `tecore serve` subprocess
# --------------------------------------------------------------------------- #


class ServeProcess:
    """A ``tecore serve`` subprocess bound to a WAL directory."""

    def __init__(
        self,
        wal_dir: Path,
        port: int,
        pack: str = "running-example",
        solver: str = "nrockit",
        host: str = "127.0.0.1",
        faults: Optional[str] = None,
        request_deadline: Optional[float] = None,
        workers: int = 0,
        extra_args: Optional[list[str]] = None,
    ) -> None:
        self.wal_dir = Path(wal_dir)
        self.host = host
        self.port = port
        command = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--pack",
            pack,
            "--solver",
            solver,
            "--host",
            host,
            "--port",
            str(port),
            "--wal-dir",
            str(wal_dir),
        ]
        if request_deadline is not None:
            command += ["--request-deadline", str(request_deadline)]
        if workers:
            command += ["--workers", str(workers)]
        if faults:
            command += ["--faults", faults]
        command += list(extra_args or ())
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )

    def wait_healthy(self, timeout: float = 60.0) -> dict[str, Any]:
        """Poll ``GET /health`` until the server answers (or die trying)."""
        deadline = time.monotonic() + timeout
        last_error: Optional[BaseException] = None
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                output = (self.process.stdout.read() or "") if self.process.stdout else ""
                raise TecoreError(
                    f"tecore serve exited with {self.process.returncode} "
                    f"before becoming healthy: {output.strip()[-500:]}"
                )
            try:
                connection = http.client.HTTPConnection(self.host, self.port, timeout=5.0)
                try:
                    connection.request("GET", "/healthz")
                    response = connection.getresponse()
                    payload = json.loads(response.read())
                    if response.status == 200:
                        return payload
                finally:
                    connection.close()
            except (OSError, http.client.HTTPException, ValueError) as error:
                last_error = error
            time.sleep(0.1)
        raise TecoreError(
            f"tecore serve on port {self.port} not healthy after {timeout:g}s "
            f"(last error: {last_error})"
        )

    def stats(self) -> dict[str, Any]:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=10.0)
        try:
            connection.request("GET", "/stats")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def healthz(self) -> dict[str, Any]:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=10.0)
        try:
            connection.request("GET", "/healthz")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def kill(self) -> None:
        """SIGKILL — no shutdown hooks, no final fsync, mid-instruction."""
        self.process.kill()
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()

    def terminate(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck child
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


def free_port(host: str = "127.0.0.1") -> int:
    """Pick a currently-free TCP port (the restart must reuse it)."""
    import socket

    with socket.socket() as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


# --------------------------------------------------------------------------- #
# Chaos clients
# --------------------------------------------------------------------------- #


class _ChaosClient(threading.Thread):
    """One trace client that records its own history and survives restarts."""

    def __init__(
        self,
        client_id: int,
        program: list[TraceOp],
        address: tuple[str, int],
        directory: SessionDirectory,
        recorder: HistoryRecorder,
        barrier: threading.Barrier,
        policy: RetryPolicy,
    ) -> None:
        super().__init__(name=f"chaos-client-{client_id}", daemon=True)
        self.client_id = client_id
        self.program = program
        self.address = address
        self.directory = directory
        self.recorder = recorder
        self.barrier = barrier
        self.policy = policy
        self.retries = 0
        self.disconnects = 0
        self.error: Optional[BaseException] = None
        self._connection: Optional[http.client.HTTPConnection] = None

    # -- connection management ------------------------------------------- #

    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(*self.address, timeout=RECONNECT_SECONDS)
        return self._connection

    def _drop_connection(self) -> None:
        if self._connection is not None:
            try:
                self._connection.close()
            except OSError:  # pragma: no cover - close on a dead socket
                pass
            self._connection = None

    def _await_server(self) -> None:
        """Block until the (re)started server answers /health (unrecorded)."""
        deadline = time.monotonic() + RECONNECT_SECONDS
        while time.monotonic() < deadline:
            try:
                connection = self._connect()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                if response.status == 200:
                    return
            except (OSError, http.client.HTTPException, ValueError):
                self._drop_connection()
            time.sleep(0.2)
        raise TecoreError(
            f"chaos client {self.client_id}: server did not come back "
            f"within {RECONNECT_SECONDS:g}s"
        )

    # -- the program ------------------------------------------------------ #

    def run(self) -> None:
        try:
            self.barrier.wait(timeout=RECONNECT_SECONDS)
            for op in self.program:
                if op.delay > 0:
                    time.sleep(op.delay)
                self._issue(op)
        except BaseException as exc:  # noqa: BLE001 - surfaced by run_chaos
            self.error = exc
        finally:
            self._drop_connection()

    def _issue(self, op: TraceOp) -> None:
        method, path, body, recorded, kind, sid = self._wire_form(op)
        status, payload = self._attempt_with_retries(method, path, body, recorded, kind, sid)
        if op.kind == "session_create":
            assert op.session is not None
            session_id = (payload or {}).get("session_id") if status == 201 else None
            self.directory.publish(op.session, session_id)

    def _wire_form(self, op: TraceOp) -> tuple[
        str, str, Optional[dict[str, Any]], Optional[dict[str, Any]], str, Optional[str]
    ]:
        """Wire form plus the request document the history records.

        The recorded document follows the server-side recorder's
        convention exactly (the checker keys on it) — notably a
        ``session_read``'s ``include_graphs`` flag lives in the query
        string on the wire but in the request document in the history.
        """
        if op.kind == "resolve":
            body = op.body or {}
            if op.include_graphs and not op.malformed:
                body = {"graph": body, "include_graphs": True}
            return "POST", "/resolve", body, body, "resolve", None
        if op.kind == "session_create":
            return "POST", "/sessions", op.body, op.body, "session_create", None
        assert op.session is not None
        sid = self.directory.resolve(op.session)
        if op.kind == "session_edit":
            path = f"/sessions/{sid}/edits"
            return "POST", path, op.body, op.body, "session_edit", sid
        if op.kind == "session_read":
            query = "?include_graphs=1" if op.include_graphs else ""
            path = f"/sessions/{sid}/result{query}"
            recorded = {"include_graphs": bool(op.include_graphs)}
            return "GET", path, None, recorded, "session_read", sid
        if op.kind == "session_delete":
            return "DELETE", f"/sessions/{sid}", None, None, "session_delete", sid
        raise ValueError(f"unknown trace op kind {op.kind!r}")

    def _attempt_with_retries(
        self,
        method: str,
        path: str,
        body: Optional[dict[str, Any]],
        recorded: Optional[dict[str, Any]],
        kind: str,
        sid: Optional[str],
    ) -> tuple[Optional[int], Optional[dict[str, Any]]]:
        """One logical operation: every HTTP attempt is its own recorded op.

        A responded 503/504 closes its attempt and schedules a retry; a
        connection-level failure leaves the attempt **pending** (the killed
        process may or may not have applied it), reconnects, and — at-most-
        once — does not resend mutating kinds.
        """
        attempt = 0
        while True:
            operation = self.recorder.begin(kind, request=recorded, session_id=sid)
            try:
                connection = self._connect()
                status, payload, _ = request_with_retry(
                    connection,
                    method,
                    path,
                    body,
                    policy=RetryPolicy(max_retries=0),
                )
            except (OSError, http.client.HTTPException, ValueError):
                # No response: the op stays pending in the history.
                self.disconnects += 1
                self._drop_connection()
                self._await_server()
                if kind in _MUTATING_KINDS or attempt >= self.policy.max_retries:
                    return None, None
                attempt += 1
                continue
            self.recorder.complete(operation, status, payload)
            retry_after = _parse_retry_after((payload or {}).get("retry_after_seconds"))
            if status in self.policy.statuses and attempt < self.policy.max_retries:
                self.retries += 1
                time.sleep(self.policy.delay(attempt, retry_after))
                attempt += 1
                continue
            return status, payload


# --------------------------------------------------------------------------- #
# The chaos run
# --------------------------------------------------------------------------- #


@dataclass
class ChaosConfig:
    """Shape of one chaos run (everything derives from ``seed``)."""

    seed: int = 2017
    clients: int = 3
    ops_per_client: int = 8
    sessions: int = 2
    #: SIGKILL once this many client-visible operations have completed.
    kill_after: int = 8
    #: Explicit fault spec for the pre-crash server (see faults.parse_fault_spec);
    #: ``None`` derives a schedule from ``seed`` with ``fault_count`` rules.
    faults: Optional[str] = None
    fault_count: int = 2
    request_deadline: float = 15.0
    pack: str = "running-example"
    solver: str = "nrockit"
    zipf_alpha: float = 1.1
    noise: str = "mixed"
    #: Forked resolver workers of the served system (0 = one in-process worker).
    workers: int = 0
    #: What the SIGKILL hits: "server" (the whole process, then restart)
    #: or "worker" (one resolver worker; the front-end stays up and must
    #: respawn it from a shard-scoped WAL replay).  "worker" needs
    #: ``workers >= 1``.
    kill: str = "server"


@dataclass
class ChaosReport:
    """What one chaos run did and whether its history is serializable."""

    seed: int
    port: int
    wal_dir: str
    fault_spec: str
    total_ops: int
    completed_ops: int
    pending_ops: int
    retries: int
    disconnects: int
    killed_after: int
    recovered_sessions: int
    workers: int = 0
    kill: str = "server"
    worker_respawns: int = 0
    serializable: Optional[bool] = None
    violations: list[dict[str, Any]] = field(default_factory=list)
    checker_stats: dict[str, Any] = field(default_factory=dict)
    history_path: Optional[str] = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "port": self.port,
            "wal_dir": self.wal_dir,
            "fault_spec": self.fault_spec,
            "total_ops": self.total_ops,
            "completed_ops": self.completed_ops,
            "pending_ops": self.pending_ops,
            "retries": self.retries,
            "disconnects": self.disconnects,
            "killed_after": self.killed_after,
            "recovered_sessions": self.recovered_sessions,
            "workers": self.workers,
            "kill": self.kill,
            "worker_respawns": self.worker_respawns,
            "serializable": self.serializable,
            "violations": self.violations,
            "checker_stats": self.checker_stats,
            "history_path": self.history_path,
        }


def _fault_spec(config: ChaosConfig) -> str:
    if config.faults is not None:
        return config.faults
    injector = seeded_schedule(config.seed, faults=config.fault_count)
    return ",".join(rule.spec() for rule in injector.rules)


def _completed_ops(recorder: HistoryRecorder) -> int:
    return sum(1 for op in recorder.history().operations if op.completed is not None)


def run_chaos(
    config: ChaosConfig,
    wal_dir: Optional[str | Path] = None,
    history_path: Optional[str | Path] = None,
    check: bool = True,
) -> tuple[ChaosReport, History]:
    """Run the full kill-restart-certify cycle; returns (report, history).

    Phases: start ``tecore serve --wal-dir`` under the seeded fault
    schedule → drive the seeded trace from ``config.clients`` HTTP clients
    → SIGKILL after ``config.kill_after`` completed operations → restart
    the server (fault-free) on the same port and WAL directory → let the
    clients finish → snapshot the combined history and (optionally) check
    it for serializability violations.

    With ``config.kill == "worker"`` (requires ``workers >= 1``) the
    SIGKILL hits one *resolver worker* instead of the server: the
    front-end stays up, detects the death, respawns the worker, and
    replays only its session shard from the live log before re-admitting
    traffic — the clients observe at most a burst of retryable 503s and
    (for mutations in flight on the dying worker) dropped connections,
    and the combined history must still be serializable.
    """
    from ..datasets.ranieri import ranieri_extended_graph

    if config.kill not in ("server", "worker"):
        raise ValueError(f"kill must be 'server' or 'worker', got {config.kill!r}")
    if config.kill == "worker" and config.workers < 1:
        raise ValueError("kill='worker' needs forked workers (workers >= 1)")

    workload = WorkloadConfig(
        seed=config.seed,
        clients=config.clients,
        ops_per_client=config.ops_per_client,
        sessions=config.sessions,
        zipf_alpha=config.zipf_alpha,
        noise=config.noise,
        malformed_ratio=0.0,
    )
    trace = generate_trace(ranieri_extended_graph(), workload)

    owned_dir = None
    if wal_dir is None:
        owned_dir = tempfile.TemporaryDirectory(prefix="tecore-chaos-")
        wal_dir = owned_dir.name
    wal_dir = Path(wal_dir)
    wal_dir.mkdir(parents=True, exist_ok=True)

    port = free_port()
    spec = _fault_spec(config)
    recorder = HistoryRecorder()
    directory = SessionDirectory(trace.config.sessions)
    barrier = threading.Barrier(len(trace.programs))
    clients = [
        _ChaosClient(
            client_id,
            program,
            ("127.0.0.1", port),
            directory,
            recorder,
            barrier,
            DEFAULT_RETRY_POLICY,
        )
        for client_id, program in enumerate(trace.programs)
    ]

    server = ServeProcess(
        wal_dir,
        port,
        pack=config.pack,
        solver=config.solver,
        faults=spec,
        request_deadline=config.request_deadline,
        workers=config.workers,
    )
    recovered_sessions = 0
    killed_after = 0
    worker_respawns = 0
    try:
        server.wait_healthy()
        for client in clients:
            client.start()

        # SIGKILL once enough client-visible work has completed (or all
        # clients drained first — then the kill still exercises recovery
        # of a quiescent log).
        while _completed_ops(recorder) < config.kill_after and any(
            client.is_alive() for client in clients
        ):
            time.sleep(0.02)
        killed_after = _completed_ops(recorder)

        if config.kill == "worker":
            # SIGKILL one resolver worker; the front-end stays up and must
            # respawn it after a shard-scoped replay of the live log.
            health = server.healthz()
            pids = [pid for pid in health.get("worker_pids", []) if pid]
            if not pids:
                raise TecoreError("server reported no worker pids")
            os.kill(pids[config.seed % len(pids)], signal.SIGKILL)
            deadline = time.monotonic() + RECONNECT_SECONDS
            while time.monotonic() < deadline:
                health = server.healthz()
                worker_respawns = int(health.get("respawns", 0))
                if (health.get("workers_ready") == config.workers and worker_respawns >= 1):
                    break
                time.sleep(0.1)
            else:
                raise TecoreError(
                    "front-end did not respawn the killed worker within " f"{RECONNECT_SECONDS:g}s"
                )
            replay = server.stats().get("sharding", {}).get("last_replay", {})
            recovered_sessions = int(replay.get("sessions_restored", 0))
        else:
            server.kill()

            # Restart, fault-free, on the same port and WAL directory; the
            # clients' reconnect loops pick it up from /healthz.
            server = ServeProcess(
                wal_dir,
                port,
                pack=config.pack,
                solver=config.solver,
                faults=None,
                request_deadline=config.request_deadline,
                workers=config.workers,
            )
            health = server.wait_healthy()
            recovered_sessions = int(health.get("recovered_sessions", 0))

        for client in clients:
            client.join(timeout=RECONNECT_SECONDS * 2)
        for client in clients:
            if client.is_alive():
                raise TecoreError(f"chaos client {client.client_id} did not finish")
            if client.error is not None:
                raise TecoreError(
                    f"chaos client {client.client_id} failed: {client.error}"
                ) from client.error
    finally:
        server.terminate()

    history = recorder.history(
        {
            "workload": "chaos",
            "seed": config.seed,
            "fault_spec": spec,
            "killed_after_ops": killed_after,
            "recovered_sessions": recovered_sessions,
            "transport": "http-subprocess",
            "workers": config.workers,
            "kill": config.kill,
        }
    )
    if history_path is not None:
        history.save(history_path)

    report = ChaosReport(
        seed=config.seed,
        port=port,
        wal_dir=str(wal_dir),
        fault_spec=spec,
        total_ops=len(history),
        completed_ops=sum(1 for op in history if op.completed is not None),
        pending_ops=sum(1 for op in history if op.completed is None),
        retries=sum(client.retries for client in clients),
        disconnects=sum(client.disconnects for client in clients),
        killed_after=killed_after,
        recovered_sessions=recovered_sessions,
        workers=config.workers,
        kill=config.kill,
        worker_respawns=worker_respawns,
        history_path=str(history_path) if history_path is not None else None,
    )

    if check:
        from ..core import TeCoRe
        from ..logic import load_pack
        from .checker import SerializabilityChecker

        pack = load_pack(config.pack)
        system = TeCoRe(
            rules=list(pack.rules),
            constraints=list(pack.constraints),
            solver=config.solver,
        )
        result = SerializabilityChecker(system).check(history)
        report.serializable = result.ok
        report.violations = [violation.to_dict() for violation in result.violations]
        report.checker_stats = dict(result.stats)

    if owned_dir is not None:
        owned_dir.cleanup()
    return report, history
