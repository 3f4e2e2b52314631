"""Machine-speed calibration: converts wall time to reference seconds.

On a shared host each CPU the benchmark gets changes speed by up to
1.5x in phases of 5 to 30 seconds, independently of the other CPUs,
because other tenants load the same physical cores.  Wall-clock medians
of whole runs then follow the host, not the program.  So the benchmark
pins the program to one CPU and runs a ``SpeedProbe`` beside it on the
same CPU: a child process that times a fixed kernel (interpreter work,
nothing from the program; see ``Kernel``) every ``PERIOD_S`` seconds in thread CPU
time, so waiting for the CPU does not count.  An interval
of wall time is worth ``wall × KERNEL_REFERENCE_S / kernel time`` in
reference seconds, with the kernel time taken from the samples around it.

Run as a script (``speed.py <cpu>``) this module is the probe itself:
it pins itself to ``<cpu>`` and prints ``<perf_counter> <kernel s>``
lines until its standard input closes.
"""

from __future__ import annotations

import bisect
import os
import random
import select
import statistics
import subprocess
import sys
import threading
import time

#: CPU seconds of one ``Kernel.run`` at the reference speed (an unloaded core
#: of the 2-vCPU reference box).  Only a unit: it sets the scale, not the spread.
KERNEL_REFERENCE_S = 0.004
#: Seconds between probe samples; one kernel takes 2-4% of a period.
PERIOD_S = 0.15
#: Samples on each side of a sample that its running median covers.
SMOOTH = 1


class Kernel:
    """A fixed piece of interpreter work, half cache-resident, half not.

    The first half updates a small dict under tuple keys and sorts it;
    the second follows references to objects scattered over a ~30 MB heap,
    too big for the caches.  Timed beside repeated resolves of one graph
    on the reference box, the program slowed down under host load as the
    first half to the power 1.2-1.3 and as the second to the power 0.9,
    so the sum of the two tracks it (about 6% quartile distance over
    median left of 33-55% in wall time).  numpy kernels, on small or
    cache-exceeding arrays, slowed down much less than the program.
    """

    def __init__(self) -> None:
        shuffle = random.Random(7)
        self.heap = [[i] for i in range(300_000)]
        self.visits = [shuffle.randrange(len(self.heap)) for _ in range(3500)]

    def run(self) -> int:
        table: dict[tuple, int] = {}
        for i in range(3000):
            key = (i % 89, i % 97, "p")
            table[key] = table.get(key, 0) + i
        rows = sorted(table.items(), key=lambda item: (item[1], item[0]))
        total = 0
        for index in self.visits:
            total += self.heap[index][0]
        return len(rows) + total

    def seconds(self) -> float:
        """Thread CPU time of one run."""
        began = time.thread_time()
        self.run()
        return time.thread_time() - began


def work_cpus() -> tuple[int, int]:
    """(CPU for the program, CPU for a load generator); equal on one CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[0], cpus[-1]


def pin(cpu: int) -> None:
    """Pin the calling thread (and what it starts later) to ``cpu``."""
    os.sched_setaffinity(0, {cpu})


class SpeedProbe:
    """Samples the speed of one CPU from a pinned child process."""

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.samples: list[tuple[float, float]] = []
        self._times: list[float] = []
        self._smoothed: list[float] = []
        self.process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(cpu)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._reader = threading.Thread(target=self._read, name="speed-probe", daemon=True)
        self._reader.start()
        try:
            self.wait_for_samples(SMOOTH + 1)
        except BaseException:
            self.stop()
            raise

    def _read(self) -> None:
        for line in self.process.stdout:
            at, seconds = line.split()
            self.samples.append((float(at), float(seconds)))

    def wait_for_samples(self, count: int, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while len(self.samples) < count:
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("the speed probe produced no samples")
            time.sleep(0.01)

    def stop(self) -> None:
        """End the probe and wait for it; the samples stay readable."""
        if self.process.poll() is None:
            self.process.stdin.close()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=10)
        self.process.stdout.close()
        self._index()

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def _index(self) -> None:
        samples = sorted(self.samples)
        seconds = [value for _, value in samples]
        self._times = [at for at, _ in samples]
        self._smoothed = [
            statistics.median(seconds[max(0, i - SMOOTH) : i + SMOOTH + 1])
            for i in range(len(seconds))
        ]

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second over ``[start, end]``.

        Averages ``KERNEL_REFERENCE_S / kernel time`` over the smoothed
        samples within half a period of the interval, or takes the
        nearest sample when the interval falls between two.
        """
        if len(self._times) != len(self.samples):
            self._index()
        if not self._times:
            raise RuntimeError("no speed samples")
        low = bisect.bisect_left(self._times, start - PERIOD_S / 2)
        high = bisect.bisect_right(self._times, end + PERIOD_S / 2)
        if low >= high:
            nearest = min(
                (i for i in (low - 1, low) if 0 <= i < len(self._times)),
                key=lambda i: abs(self._times[i] - (start + end) / 2),
            )
            low, high = nearest, nearest + 1
        window = self._smoothed[low:high]
        return sum(KERNEL_REFERENCE_S / value for value in window) / len(window)

    def reference(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval ``[start, end]``."""
        return (end - start) * self.scale(start, end)

    def kernel_ms(self) -> float:
        """Median kernel time over the run, in ms (how fast the CPU ran)."""
        return 1000 * statistics.median(value for _, value in self.samples)


def _probe_main(cpu: int) -> int:
    pin(cpu)
    kernel = Kernel()
    kernel.run()  # warms the interpreter's caches
    while True:
        began = time.perf_counter()
        seconds = kernel.seconds()
        print(f"{(began + time.perf_counter()) / 2:.6f} {seconds:.9f}", flush=True)
        ready, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
        if ready and not sys.stdin.read(1):
            return 0


if __name__ == "__main__":
    sys.exit(_probe_main(int(sys.argv[1])))
