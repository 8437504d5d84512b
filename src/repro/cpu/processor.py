"""Processor model.

A bus-master CPU executing *software tasks*.  Per the paper's flow
(Section 5.1), the executable specification's software parts are "compiled
for getting some running time and memory usage statistics"; here a task is
a Python generator that interleaves modelled compute time with bus
transactions — the system-level abstraction of profiled software.

A task is any callable ``task(cpu)`` returning a generator and using the
CPU's services::

    def my_task(cpu):
        yield from cpu.compute(1200)            # 1200 CPU cycles
        yield from cpu.write(0x4000, payload)   # over the bus
        status = yield from cpu.poll(0x4008, mask=0x1, expect=0x1)
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Union

from ..bus import Bus, BusMasterIf
from ..kernel import (
    Event,
    Module,
    Port,
    SimTime,
    SimulationError,
    ThreadProcess,
    cycles_to_time,
)

#: A software task: called with the executing CPU, returns a generator.
Task = Callable[["Processor"], object]


class Processor(Module):
    """A simple in-order CPU issuing blocking bus transactions.

    Parameters
    ----------
    clock_freq_hz:
        CPU clock, used by :meth:`compute`.
    master_label:
        Name used on the bus (defaults to the hierarchical name).
    """

    def __init__(
        self,
        name: str,
        parent: Optional[Module] = None,
        sim=None,
        *,
        clock_freq_hz: float = 200e6,
        master_label: Optional[str] = None,
    ) -> None:
        super().__init__(name, parent=parent, sim=sim)
        self.clock_freq_hz = clock_freq_hz
        self.mst_port = Port(self, BusMasterIf, name="mst_port")
        self.master_label = master_label or self.full_name
        self.compute_cycles = 0
        self.bus_reads = 0
        self.bus_writes = 0
        self.tasks_completed = 0
        self._task_done_times: Dict[str, SimTime] = {}
        # Cycle-count -> SimTime cache, as Bus.cycles keeps: compute()
        # waits repeat the same few counts.  Keyed only by count:
        # ``clock_freq_hz`` is fixed at construction.
        self._cycle_cache: Dict[int, SimTime] = {}

    # -- task services -----------------------------------------------------
    def compute(self, n_cycles: int):
        """Consume ``n_cycles`` of CPU time (generator)."""
        if n_cycles < 0:
            raise SimulationError("compute cycle count must be non-negative")
        self.compute_cycles += n_cycles
        if n_cycles:
            yield self._cycles(n_cycles)

    def _cycles(self, n: int) -> SimTime:
        """``n`` CPU-clock cycles as a duration."""
        t = self._cycle_cache.get(n)
        if t is None:
            t = self._cycle_cache[n] = cycles_to_time(n, self.clock_freq_hz)
        return t

    def read(self, addr: int, count: int = 1):
        """Bus burst read (generator); returns the word list."""
        self.bus_reads += count
        data = yield from self.mst_port.resolve().read(addr, count, master=self.master_label)
        return data

    def read_word(self, addr: int):
        """Bus single-word read (generator); returns the word."""
        data = yield from self.read(addr, 1)
        return data[0]

    def write(self, addr: int, data: Union[int, Sequence[int]]):
        """Bus burst write (generator)."""
        n = 1 if isinstance(data, int) else len(data)
        self.bus_writes += n
        yield from self.mst_port.resolve().write(addr, data, master=self.master_label)

    def poll(self, addr: int, mask: int, expect: int, interval_cycles: int = 8, max_polls: int = 1_000_000):
        """Poll ``addr`` until ``word & mask == expect`` (generator).

        Returns the final word read.  ``interval_cycles`` of compute time
        follow every poll that fails (back-off of a software busy-wait
        loop); after ``max_polls`` of them, the poll raises.

        When :attr:`mst_port` is bound to a :class:`~repro.bus.Bus`, each
        poll first asks it to book a poll train
        (:meth:`Bus.book_polls <repro.bus.Bus.book_polls>`): while this
        CPU is alone on the timeline, every poll before the polled word
        can next change is known to fail, and the bus books them in one
        step with the same times, bus records and counters as one by one.
        The poll after a train, the one that sees the word pass, and every
        poll whose train is declined go through the kernel.
        """
        _, target = self.mst_port.binding_chain()
        book = None
        if isinstance(target, Bus) and type(interval_cycles) is int and interval_cycles >= 0:
            book = target.book_polls
            interval_fs = self._cycles(interval_cycles).femtoseconds if interval_cycles else None
        left = max_polls
        while left > 0:
            if book is not None:
                booked = book(addr, mask, expect, interval_fs, left, self.master_label)
                if booked:
                    self.bus_reads += booked
                    self.compute_cycles += booked * interval_cycles
                    left -= booked
                    if not left:
                        break
            word = yield from self.read_word(addr)
            if word & mask == expect:
                return word
            yield from self.compute(interval_cycles)
            left -= 1
        raise SimulationError(
            f"{self.full_name}: poll of {addr:#x} exceeded {max_polls} attempts"
        )

    def wait_event(self, event: Event):
        """Suspend until ``event`` fires (generator) — interrupt-style wait."""
        yield event

    def delay(self, duration: SimTime):
        """Idle for a fixed duration (generator)."""
        yield duration

    # -- task execution ----------------------------------------------------------
    def run_task(self, task: Task, name: Optional[str] = None) -> ThreadProcess:
        """Spawn ``task`` as a process on this CPU; returns the process."""
        label = name or getattr(task, "__name__", "task")

        def body():
            yield from task(self)
            self.tasks_completed += 1
            self._task_done_times[label] = self.sim.now

        return self.sim.spawn(f"{self.full_name}.{label}", body)

    def run_sequence(self, tasks: Sequence[Task], name: str = "sequence") -> ThreadProcess:
        """Run ``tasks`` back to back in one process (a software schedule)."""

        def body():
            for i, task in enumerate(tasks):
                yield from task(self)
                label = getattr(task, "__name__", f"task{i}")
                self._task_done_times[f"{name}.{label}.{i}"] = self.sim.now
                self.tasks_completed += 1

        return self.sim.spawn(f"{self.full_name}.{name}", body)

    def task_completion_time(self, label: str) -> SimTime:
        """When the named task finished (KeyError if it has not)."""
        return self._task_done_times[label]

    @property
    def completion_times(self) -> Dict[str, SimTime]:
        return dict(self._task_done_times)
