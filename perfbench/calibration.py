"""Host-speed calibration for the end-to-end timings.

Shared hosts change speed by tens of percent over seconds to minutes
(neighbours contend for cores, caches and memory bandwidth), which no
amount of in-run repetition averages out: the median iteration of two
20-second runs of the same code can differ by 20%.  The benchmark
therefore samples the host's speed *while* it measures: a :class:`Sampler`
runs a short fixed pure-Python task (:class:`CalibrationTask`) every
:data:`PERIOD_S` of wall time from a ``SIGALRM`` handler.  A measured
interval is reported as::

    (elapsed - time spent in the task) * REFERENCE_S / median(task times)

i.e. in seconds of a reference host on which the task takes
:data:`REFERENCE_S`, so a host at a steady speed reports the same numbers
whatever its momentary load.  A change to ``repro`` does not touch the
task, so it moves calibrated numbers as it moves raw ones.
"""

from __future__ import annotations

import random
import signal
import statistics
from time import perf_counter
from typing import List, Optional

#: Wall-clock period between two calibration tasks, seconds.
PERIOD_S = 0.02
#: Median duration of one calibration task inside a run on the reference
#: host (a 2-vCPU Intel Xeon container, CPython 3.11), seconds; the task
#: takes ~2.5% of each period.
REFERENCE_S = 0.0005
#: Loop count of each half of one calibration task.
TASK_N = 500
#: Words in the large working set the task sweeps (a few MB, beyond the
#: private caches, like the bitstream images the simulator checksums).
SWEEP_WORDS = 1 << 17


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key, value) -> None:
        self.key = key
        self.value = value


def _accumulate(n: int):
    total = 0
    for _ in range(n):
        total += yield total
    return total


class CalibrationTask:
    """A fixed pure-Python task; its duration tracks the host's speed.

    One half works on small objects (allocation, attribute access, dict
    stores and lookups, list appends, generator resumes); the other sweeps
    a rotating window of a large word array and dict (FNV-style
    arithmetic, ``dict.get`` over a fresh list), so contention for shared
    caches and memory bandwidth slows it as it slows the simulator.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        self._words = [rng.getrandbits(32) for _ in range(SWEEP_WORDS)]
        self._store = dict(enumerate(self._words[: SWEEP_WORDS // 4]))
        self._offset = 0

    def __call__(self) -> None:
        n = TASK_N
        table = {}
        hits = []
        for i in range(n):
            node = _Node(i & 255, (i, i + 1))
            table[node.key] = node
            hits.append(table.get((i * 7) & 511))
        gen = _accumulate(n)
        next(gen)
        try:
            while True:
                gen.send(1)
        except StopIteration:
            pass
        start = self._offset
        self._offset = (start + 7919 * 4) % (SWEEP_WORDS - n)
        value = 0x811C9DC5
        for word in self._words[start : start + n]:
            value ^= word
            value = (value * 0x01000193) & 0xFFFFFFFF
        mask = SWEEP_WORDS // 4 - 1
        [self._store.get((start + i) & mask, 0) for i in range(n)]


class Sampler:
    """Runs the calibration task periodically while active (a context
    manager); :meth:`scaled` converts an interval measured inside it."""

    def __init__(self) -> None:
        self._task = CalibrationTask()
        self._tasks: List[float] = []
        self._previous = None
        #: Median task time of the last interval that had samples.
        self._last_median: Optional[float] = None

    def _on_alarm(self, signum, frame) -> None:
        start = perf_counter()
        self._task()
        self._tasks.append(perf_counter() - start)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def start(self) -> float:
        """Begin an interval; returns its start time."""
        self._tasks = []
        return perf_counter()

    def scaled(self, start: float):
        """End an interval: ``(calibrated_s, raw_s)``, raw minus task time."""
        elapsed = perf_counter() - start
        tasks, self._tasks = self._tasks, []
        raw = elapsed - sum(tasks)
        if tasks:
            self._last_median = statistics.median(tasks)
        if self._last_median is None:
            return raw, raw
        return raw * REFERENCE_S / self._last_median, raw
