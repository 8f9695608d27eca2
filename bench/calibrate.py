"""Host speed, measured with a fixed reference task beside and inside the jobs.

The benchmark host is shared. Its speed wanders by up to 1.8x, over
spans from a second to minutes, and the package's jobs and a task built
from the same kinds of work slow down together. Timings are therefore
reported in reference seconds: each measured time is multiplied by
``REFERENCE_S`` over the mean time of the reference tasks run while it
was measured, in the same process. On the reference machine at rest the
factor is about 1.

While a job runs, an interval timer interrupts it every
``REFERENCE_INTERVAL_S`` to run one reference task, whose time is then
taken out of the job's. One more task runs right before the job and one
right after, so that short jobs are calibrated too. Sampling inside a
long job matters: on the 16-second job of ``cover-audit``, job time over
the mean of tasks run inside it spread with a coefficient of variation
of 3.7% over five runs, against 9.9% for the raw times and 17.8% when
the tasks ran just before the job.

The task mixes what the package spends its time on, in equal parts:
interpreted integer and dict work, and many numpy operations on tiny
arrays. It uses nothing from ``orderedcover``, so no change to the
package moves it.
"""

from __future__ import annotations

import signal
import time
from array import array
from typing import Callable

import numpy as np

# Median time of one reference task on the reference machine at rest.
REFERENCE_S = 0.0100
# About one task per interval runs inside a job: a tenth of its time.
REFERENCE_INTERVAL_S = 0.1
MIN_TASKS = 3

_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]])
_LINEAR = np.array([[0.5, 0.1], [-0.1, 0.5]])
# Filled once: the task runs inside jobs, and a table allocated there
# would pin heap memory and raise the job's peak resident set.
_TABLE = dict.fromkeys(range(1024), 0)


def reference_task() -> float:
    """One reference task; returns a checksum so no step can be skipped."""
    table = _TABLE
    acc = 0
    for i in range(40_000):
        table[i & 1023] = acc
        acc = (acc * 31 + i) % 1_000_003
    v = _VERTICES
    width = 0.0
    for _ in range(750):
        v = v @ _LINEAR.T + 0.1
        width += float((v.max(axis=0) - v.min(axis=0)).max())
    return acc + width


def run_reference(seconds: float) -> tuple[float, int]:
    """Run reference tasks for ``seconds``, at least three; return the time
    they took and how many ran."""
    t0 = time.perf_counter()
    stop = t0 + seconds
    count = 0
    while count < MIN_TASKS or time.perf_counter() < stop:
        reference_task()
        count += 1
    return time.perf_counter() - t0, count


def in_reference_s(measured_s: float, task_s: float) -> float:
    """A measured time in reference seconds, given the reference task time beside it."""
    return measured_s * REFERENCE_S / task_s


class Sampler:
    """Times calls with reference tasks run around them and, on a timer,
    inside them. It owns the process's SIGALRM handler: make one per process.

    The handler creates no object the garbage collector tracks. How many
    times it runs varies from run to run, and collections moved by it
    would free cyclic garbage at other times and change the job's peak
    resident set."""

    def __init__(self, interval_s: float = REFERENCE_INTERVAL_S) -> None:
        self.interval_s = interval_s
        self._starts = array("d")
        self._ends = array("d")
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum: int, frame: object) -> None:
        self._starts.append(time.perf_counter())
        reference_task()
        self._ends.append(time.perf_counter())

    def call(self, fn: Callable[[], object]) -> tuple[object, float, float]:
        """Run ``fn()``. Return its result, its time without the reference
        tasks that interrupted it, and the mean reference task time."""
        del self._starts[:], self._ends[:]
        self._on_alarm(signal.SIGALRM, None)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            end = time.perf_counter()
        self._on_alarm(signal.SIGALRM, None)
        tasks = list(zip(self._starts, self._ends))
        inside = sum(b - a for a, b in tasks if start <= a and b <= end)
        mean = sum(b - a for a, b in tasks) / len(tasks)
        return result, end - start - inside, mean
