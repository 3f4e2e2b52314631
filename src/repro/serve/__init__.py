"""The TeCoRe resolution service (``tecore serve``).

A stdlib-only concurrent HTTP layer over the library's serving primitives,
one architecture for every ``--workers`` value: a front-end over resolver
workers — one in-process worker by default, N forked ones with
``--workers N``:

* :mod:`repro.serve.server` — the HTTP server, the front-end
  (:class:`ResolutionService`: routing, WAL, session admission, the
  response cache, boot recovery) and the worker runtime
  (:class:`WorkerRuntime`: the endpoint ops, one micro-batcher, one
  session pool);
* :mod:`repro.serve.sharding` — how the front-end reaches its workers: the
  consistent-hash ring, the in-process handle and the pipe handle of a
  forked worker (respawn and shard-scoped WAL replay);
* :mod:`repro.serve.worker` — the process loop of a forked worker;
* :mod:`repro.serve.batcher` — micro-batching of one-shot ``/resolve``
  requests through one shared translator+solver, with flush-on-size /
  flush-on-deadline, request coalescing, and 503 backpressure;
* :mod:`repro.serve.sessions` — the per-session-locked pool of incremental
  :class:`~repro.core.session.ResolutionSession` objects;
* :mod:`repro.serve.protocol` — the JSON wire codecs (reusing
  :mod:`repro.kg.io.json_io`);
* :mod:`repro.serve.metrics` — request counters and latency percentiles
  for ``GET /stats``;
* :mod:`repro.serve.wal` — the write-ahead session log behind
  ``tecore serve --wal-dir`` (checksummed frames, fsync policies,
  compaction);
* :mod:`repro.serve.recovery` — folding the log into per-session histories
  for replay through :class:`~repro.core.session.ResolutionSession`.
"""

from .batcher import (
    BatchObserver,
    MicroBatcher,
    RequestDeadlineExceeded,
    ServiceOverloadedError,
)
from .metrics import LatencyRecorder, ServiceMetrics
from .recovery import (
    RecoveryReport,
    compact_records,
    decode_edit_record,
    fold_records,
)
from .wal import WalError, WriteAheadLog
from .protocol import (
    ProtocolError,
    decode_edits,
    decode_graph,
    decode_json,
    encode_result,
    graph_content_key,
    stable_view,
)
from .server import (
    DropConnection,
    ResolutionService,
    ServerConfig,
    ServiceCore,
    TecoreHTTPServer,
    WorkerRuntime,
    make_server,
)
from .sessions import SessionEntry, SessionPool, UnknownSessionError
from .sharding import ConsistentHashRing, InProcessWorker, WorkerHandle
from .worker import worker_main

__all__ = [
    "BatchObserver",
    "ConsistentHashRing",
    "DropConnection",
    "InProcessWorker",
    "LatencyRecorder",
    "MicroBatcher",
    "ProtocolError",
    "RecoveryReport",
    "RequestDeadlineExceeded",
    "ResolutionService",
    "ServerConfig",
    "ServiceCore",
    "ServiceMetrics",
    "ServiceOverloadedError",
    "SessionEntry",
    "SessionPool",
    "TecoreHTTPServer",
    "UnknownSessionError",
    "WalError",
    "WorkerHandle",
    "WorkerRuntime",
    "WriteAheadLog",
    "compact_records",
    "decode_edit_record",
    "decode_edits",
    "decode_graph",
    "decode_json",
    "encode_result",
    "fold_records",
    "graph_content_key",
    "make_server",
    "stable_view",
    "worker_main",
]
