"""Machine speed, sampled while the benchmark runs, for normalized wall times.

On a shared 2-core x86 machine the speed drifts by a factor of two or
more within minutes: a fixed pure-Python loop took 17 ms in one run and
56 ms a few minutes later, with CPU time tracking wall time. A
throughput in plain wall seconds would move that much between runs of the
same code, so the wall-clock metrics are expressed in *reference seconds*
instead: each stretch of work is scaled by ``REFERENCE_KERNEL_S`` over the
time a fixed kernel took right around it. The kernel uses no code of the
repository, so a faster simulator still reads faster.
"""

from __future__ import annotations

import statistics
import threading
import time

_KEYS = [b"user%012d" % (i * 7919 % 100_000) for i in range(1000)]


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: bytes, value: int) -> None:
        self.key = key
        self.value = value


def kernel() -> int:
    """A fixed mix of the work the simulator does: dicts of bytes keys,
    small objects, a sort, byte joins and integer arithmetic."""
    table: dict[bytes, int] = {}
    items = []
    for i, key in enumerate(_KEYS):
        table[key] = i
        items.append(_Item(key, i))
    acc = 0
    for item in items:
        acc += table[item.key] + len(item.key)
    items.sort(key=lambda item: item.key, reverse=True)
    joined = b"".join(item.key for item in items[:200])
    for i in range(2000):
        acc = (acc + i * i) % 1_000_003
    return acc + len(joined)


#: Kernel time on the reference machine (a 2-core x86 box, calm), in
#: seconds; a reference second is the time in which the kernel runs
#: ``1 / REFERENCE_KERNEL_S`` times.
REFERENCE_KERNEL_S = 0.001
#: Kernel samples on each side of a stretch of work that set its speed.
_WINDOW = 2


class SpeedProbe:
    """Kernel timings, each bracketed by wall-clock marks.

    Kernel time is measured on the thread's CPU clock, so a probe thread
    that waits for a core does not read as a slow machine.
    """

    def __init__(self) -> None:
        #: (wall before, kernel CPU seconds, wall after) per sample.
        self.marks: list[tuple[float, float, float]] = []

    def sample(self) -> None:
        before = time.perf_counter()
        cpu = time.thread_time()
        kernel()
        cpu = time.thread_time() - cpu
        self.marks.append((before, cpu, time.perf_counter()))

    def probed(self, batches):
        """Yield ``batches`` with a sample before each one and after the last.

        The machine's speed moves within a second, so samples must be
        dense: one per 1024-op batch (every 50 ms or so) held the spread of
        six same-seed runs to 1.5 %, one per two batches to 3.5 %.
        """
        for batch in batches:
            self.sample()
            yield batch
        self.sample()

    def reference_seconds(self, start: float, end: float) -> tuple[float, float]:
        """(wall seconds, reference seconds) of the work in ``[start, end]``.

        Time spent inside samples is not work and is left out of both.
        """
        marks = [mark for mark in self.marks if start <= mark[0] and mark[2] <= end]
        if not marks:
            raise ValueError("no speed sample inside the interval")
        kernels = [cpu for _, cpu, _ in marks]
        bounds = [start] + [edge for before, _, after in marks for edge in (before, after)] + [end]
        wall = reference = 0.0
        for index in range(len(marks) + 1):
            stretch = bounds[2 * index + 1] - bounds[2 * index]
            near = kernels[max(0, index - _WINDOW):index + _WINDOW]
            wall += stretch
            reference += stretch * REFERENCE_KERNEL_S / statistics.median(near)
        return wall, reference


class BackgroundProbe:
    """A thread that samples a :class:`SpeedProbe` every ``interval_s``,
    for work done in other processes (see :func:`reference_cpu_seconds`)."""

    def __init__(self, probe: SpeedProbe, interval_s: float = 0.05) -> None:
        self._probe = probe
        self._interval_s = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        self._probe.sample()
        while not self._stop.wait(self._interval_s):
            self._probe.sample()

    def __enter__(self) -> "BackgroundProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)


def reference_cpu_seconds(probe: SpeedProbe, start: float, end: float, cpu_s: float) -> float:
    """Reference seconds of ``cpu_s`` CPU seconds spent in ``[start, end]``.

    For work spread over processes: sampled beside it, the kernel reads
    the machine's speed, and CPU time leaves out the idle time of workers
    waiting for a straggler, which varied most between runs of the same
    fleet. The kernel's own CPU time is left out of ``cpu_s`` here.
    """
    inside = [cpu for before, cpu, after in probe.marks if start <= before and after <= end]
    if not inside:
        raise ValueError("no speed sample inside the interval")
    return (cpu_s - sum(inside)) * REFERENCE_KERNEL_S / statistics.median(inside)
