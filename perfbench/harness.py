"""Shared pieces of the benchmark: statistics, failure counting, output.

Nothing here imports the program; ``program_path`` locates it.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Iterable, Sequence

#: Repository root: the directory that holds ``perfbench/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Scratch space for WAL directories and span files (inside the checkout).
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")


class ProgramMissing(RuntimeError):
    """The program's sources are not next to the benchmark."""


def program_path() -> str:
    """The ``src`` directory of the program under test (never an installed copy)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise ProgramMissing(f"no program sources at {src}/repro")
    return src


def use_program() -> None:
    """Put the checkout's program first on the import path."""
    src = program_path()
    if src not in sys.path:
        sys.path.insert(0, src)


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0-100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(values: Sequence[float], beyond: int = 10) -> tuple[float, float] | None:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(percent, value)``, where ``value`` is the sample with
    exactly ``beyond`` samples ranked above it, or ``None`` when there are
    too few samples for any percentile to qualify.
    """
    count = len(values)
    if count <= beyond:
        return None
    rank = count - beyond  # 1-based rank of the reported sample
    return 100.0 * rank / count, sorted(values)[rank - 1]


def describe(values: Sequence[float], unit: str) -> str:
    """Median, tail percentile and sample count of one latency series."""
    if not values:
        return "no samples"
    text = f"p50 {statistics.median(values):.4g} {unit}"
    tail = tail_percentile(values)
    if tail is not None:
        text += f", p{tail[0]:.1f} {tail[1]:.4g} {unit}"
    return text + f" (n={len(values)})"


# --------------------------------------------------------------------------- #
# Failure counting
# --------------------------------------------------------------------------- #
class OpLog:
    """Per-operation-type attempted / succeeded / failed counts and latencies.

    Clients never retry: every attempt ends as one success or one failure.
    A wrong output found after the window moves an attempt from succeeded
    to failed (``mark_wrong``).
    """

    def __init__(self) -> None:
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.latencies: dict[str, list[float]] = {}
        #: ``(start, end, waited)`` of the successful attempts (see ``ok``).
        self.intervals: dict[str, list[tuple[float, float, float]]] = {}
        self.wrong: list[str] = []

    def ok(self, op: str, start: float, end: float, waited: float = 0.0) -> None:
        """An attempt that succeeded, from ``start`` to ``end`` (perf-counter times).

        The last ``waited`` seconds of it went to a timer, not to CPU work
        (a TCP delayed acknowledgement), so they are not scaled to the
        reference speed.
        """
        self.attempted[op] = self.attempted.get(op, 0) + 1
        self.latencies.setdefault(op, []).append(end - start)
        self.intervals.setdefault(op, []).append((start, end, waited))

    def fail(self, op: str, reason: str = "") -> None:
        self.attempted[op] = self.attempted.get(op, 0) + 1
        self.failed[op] = self.failed.get(op, 0) + 1
        if reason:
            self.wrong.append(f"{op}: {reason}")

    def mark_wrong(self, op: str, reason: str) -> None:
        """An attempt that succeeded on the wire returned a wrong output."""
        self.failed[op] = self.failed.get(op, 0) + 1
        self.wrong.append(f"{op}: {reason}")

    def merge(self, other: "OpLog") -> None:
        for op, count in other.attempted.items():
            self.attempted[op] = self.attempted.get(op, 0) + count
        for op, count in other.failed.items():
            self.failed[op] = self.failed.get(op, 0) + count
        for op, values in other.latencies.items():
            self.latencies.setdefault(op, []).extend(values)
        for op, triples in other.intervals.items():
            self.intervals.setdefault(op, []).extend(triples)
        self.wrong.extend(other.wrong)

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())

    @property
    def succeeded(self) -> int:
        return self.total_attempted - self.total_failed

    def all_latencies(self) -> list[float]:
        return [value for values in self.latencies.values() for value in values]

    def reference_latencies(self, probe) -> dict[str, list[float]]:
        """Per-operation latencies in reference seconds (see ``speed.py``)."""
        return {
            op: [probe.reference(start, end - waited) + waited for start, end, waited in triples]
            for op, triples in self.intervals.items()
        }

    def summary(self) -> dict[str, dict[str, int]]:
        return {
            op: {
                "attempted": count,
                "succeeded": count - self.failed.get(op, 0),
                "failed": self.failed.get(op, 0),
            }
            for op, count in sorted(self.attempted.items())
        }


# --------------------------------------------------------------------------- #
# Processes
# --------------------------------------------------------------------------- #
def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set (``VmHWM``) of a process, in MB."""
    path = f"/proc/{pid or os.getpid()}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def launcher_command(*args: str) -> list[str]:
    return [sys.executable, os.path.join(ROOT, "perfbench", "launcher.py"), *args]


def time_probe(args: Sequence[str], timeout: float = 120.0) -> tuple[float, float]:
    """``(spawn, ready)`` times of ``launcher.py probe …``: spawn until it prints ``ready``."""
    started = time.perf_counter()
    process = subprocess.Popen(
        launcher_command("probe", *args), stdout=subprocess.PIPE, text=True, cwd=ROOT
    )
    try:
        line = process.stdout.readline()
        ready = time.perf_counter()
        process.wait(timeout=timeout)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        process.stdout.close()
    if line.strip() != "ready" or process.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({process.returncode}): {line!r}")
    return started, ready


# --------------------------------------------------------------------------- #
# Output
# --------------------------------------------------------------------------- #
def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def rates(probe, streams) -> tuple[float, float]:
    """(operations/s, facts/s) in reference time, summed over closed loops.

    ``streams`` holds one ``(OpLog, facts)`` per closed-loop caller; its
    measuring time is the time spent inside its successful operations.
    """
    ops = facts = 0.0
    for log, stream_facts in streams:
        latencies = log.reference_latencies(probe)
        measured = sum(value for series in latencies.values() for value in series)
        ops += log.succeeded / measured
        facts += stream_facts / measured
    return ops, facts


def end_to_end(probe, setups, rss, log: OpLog, streams, f1) -> dict:
    """The end-to-end metrics every workload reports.

    ``setups`` are the ``(start, end)`` wall intervals of the set-ups and
    ``streams`` the closed loops (see ``rates``).  Every time is converted
    to reference seconds with the run's speed ``probe``.
    """
    latencies = log.reference_latencies(probe)
    ops_per_s, facts_per_s = rates(probe, streams)
    return {
        "setup_s": metric(statistics.median(probe.reference(*s) for s in setups), "s"),
        "peak_rss_mb": metric(rss, "MB"),
        "ok_share": metric(log.succeeded / max(1, log.total_attempted), "ratio"),
        "ops_per_s": metric(ops_per_s, "1/s"),
        "repair_facts_per_s": metric(facts_per_s, "facts/s"),
        "resolve_ms_p50": metric(1000 * percentile(latencies["resolve"], 50), "ms"),
        "repair_f1": metric(f1, "ratio"),
    }


def emit(correct: bool, log: OpLog, metrics: dict, notes: Iterable[str] = ()) -> None:
    """Print human-readable notes, then the one-line JSON result last."""
    for note in notes:
        print(note)
    for line in log.wrong[:20]:
        print(f"MISMATCH {line}")
    print(f"ops {json.dumps(log.summary(), sort_keys=True)}")
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": max(1, log.total_attempted),
                "failed": log.total_failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
