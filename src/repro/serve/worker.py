"""The process loop of a forked resolver worker (``tecore serve --workers N``).

One forked worker = one :func:`worker_main` loop over a
:mod:`multiprocessing` pipe, serving a
:class:`~repro.serve.server.WorkerRuntime` — the same endpoint ops,
micro-batcher and session pool the front-end calls directly at
``--workers 0``.  The front-end (:class:`~repro.serve.server.ResolutionService`)
reaches it through a :class:`~repro.serve.sharding.WorkerHandle`.

Wire protocol (over the pipe; everything is plain picklable data):

* parent → worker: ``(request_id, op, payload)`` where ``op`` is one of
  ``resolve`` / ``create`` / ``edit`` / ``read`` / ``delete`` / ``restore``
  / ``stats`` / ``ping`` / ``shutdown``;
* worker → parent: ``(request_id, status, payload)`` with ``status`` the
  HTTP status the front-end relays, from
  :meth:`~repro.serve.server.WorkerRuntime.dispatch`.

Documents travel inline: a ``/resolve`` or create carries its graph
document, an edit its change-stream JSON (``adds``/``removes`` fact
dictionaries, see :mod:`repro.kg.io.changestream`), and a ``restore`` the
WAL fold of one session (see :mod:`repro.serve.recovery`).

:func:`worker_main` is equally runnable on a plain thread — the unit tests
drive it over a pipe without forking.
"""

from __future__ import annotations

import os
import queue
import threading
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.tecore import TeCoRe

#: Handler threads per worker: enough concurrency for the worker's
#: micro-batcher to actually form batches while session edits proceed.
WORKER_THREADS = 8


def worker_main(
    conn: Any,
    inherited: list[Any],
    system: TeCoRe,
    config: Any,
    index: int,
    threads: int = WORKER_THREADS,
) -> None:
    """Entry point of one resolver worker (process target or plain thread).

    ``inherited`` lists pipe connections this (forked) process inherited
    but does not own — its own parent-side end and every sibling worker's
    — which must be closed so EOF propagates correctly when any single
    process exits.  A single reader drains the pipe into an inbox served
    by ``threads`` handler threads (a :class:`multiprocessing.connection.
    Connection` is not safe for concurrent ``recv``); sends are serialised
    by one lock.  The loop exits on ``shutdown``, on pipe EOF, or when the
    front-end process disappears (orphan check once per idle second).
    """
    # Imported here: repro.serve.server imports this module (through
    # repro.serve.sharding) to fork its workers.
    from .server import WorkerRuntime

    for other in inherited:
        try:
            other.close()
        except OSError:  # pragma: no cover - already closed is fine
            pass
    runtime = WorkerRuntime(system, config, index)
    send_lock = threading.Lock()
    inbox: "queue.Queue[tuple[int, str, Any] | None]" = queue.Queue()

    def _handler() -> None:
        while True:
            item = inbox.get()
            if item is None:
                return
            request_id, op, payload = item
            status, response = runtime.dispatch(op, payload or {})
            try:
                with send_lock:
                    conn.send((request_id, status, response))
            except (OSError, ValueError, BrokenPipeError):
                return  # front-end gone; the reader loop is exiting too

    handlers = [
        threading.Thread(target=_handler, name=f"tecore-worker-{index}-h{n}", daemon=True)
        for n in range(threads)
    ]
    for thread in handlers:
        thread.start()

    parent_pid = os.getppid()
    shutdown_id = None
    try:
        while True:
            try:
                if not conn.poll(1.0):
                    # Idle: orphan check — if the front-end died without the
                    # pipe EOF reaching us (an inherited fd kept it open),
                    # exit rather than linger as a zombie resolver.
                    if os.getppid() != parent_pid:
                        break
                    continue
                message = conn.recv()
            except (EOFError, OSError):
                break
            request_id, op, payload = message
            if op == "shutdown":
                shutdown_id = request_id
                break
            inbox.put((request_id, op, payload))
    finally:
        for _ in handlers:
            inbox.put(None)
        for thread in handlers:
            thread.join(timeout=5.0)
        runtime.close()
        if shutdown_id is not None:
            try:
                with send_lock:
                    conn.send((shutdown_id, 200, {"stopped": True}))
            except (OSError, ValueError, BrokenPipeError):  # pragma: no cover
                pass
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
