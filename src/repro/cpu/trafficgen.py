"""Synthetic bus traffic generators.

Experiment E8 needs controllable *background* bus load to show that a model
omitting configuration-memory traffic (the ref-[8] baseline) diverges as
contention grows.  :class:`TrafficGenerator` issues reads/writes to a
memory region at a configurable target utilization, using a seeded
deterministic pseudo-random stream so runs are exactly reproducible.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from ..bus import BusMasterIf
from ..kernel import Module, Port, SimTime, cycles_to_time


class TrafficGenerator(Module):
    """Issues a stream of burst transactions against an address window.

    Parameters
    ----------
    base, span_bytes:
        Address window targeted (must decode to a bus slave).
    burst_words:
        Words per transaction.
    gap_cycles:
        Mean idle bus cycles between transactions; 0 saturates the bus.
    read_fraction:
        Probability of a read (vs write) per transaction.
    seed:
        Seed of the private PRNG; identical seeds give identical streams.
    n_transactions:
        Stop after this many transactions (``None`` = run forever).
    """

    def __init__(
        self,
        name: str,
        parent=None,
        sim=None,
        *,
        base: int,
        span_bytes: int,
        burst_words: int = 4,
        gap_cycles: int = 20,
        read_fraction: float = 0.5,
        clock_freq_hz: float = 100e6,
        seed: int = 1,
        n_transactions: Optional[int] = None,
        word_bytes: int = 4,
    ) -> None:
        super().__init__(name, parent=parent, sim=sim)
        if span_bytes < burst_words * word_bytes:
            raise ValueError("address span smaller than one burst")
        self.mst_port = Port(self, BusMasterIf, name="mst_port")
        self.base = base
        self.span_bytes = span_bytes
        self.burst_words = burst_words
        self.gap_cycles = gap_cycles
        self.read_fraction = read_fraction
        self.clock_freq_hz = clock_freq_hz
        self.word_bytes = word_bytes
        self.n_transactions = n_transactions
        self._rng = random.Random(seed)
        self.issued = 0
        self.add_thread(self._run, name="gen", daemon=(n_transactions is None))

    def _random_addr(self) -> int:
        max_slot = (self.span_bytes - self.burst_words * self.word_bytes) // self.word_bytes
        slot = self._rng.randint(0, max_slot)
        return self.base + slot * self.word_bytes

    def _run(self):
        # Gap durations by cycle count: the same few counts repeat, and
        # ``clock_freq_hz`` is fixed at construction.
        gaps: Dict[int, SimTime] = {}
        while self.n_transactions is None or self.issued < self.n_transactions:
            if self.gap_cycles > 0:
                gap = self._rng.randint(0, 2 * self.gap_cycles)
                if gap:
                    t = gaps.get(gap)
                    if t is None:
                        t = gaps[gap] = cycles_to_time(gap, self.clock_freq_hz)
                    yield t
            addr = self._random_addr()
            bus = self.mst_port.resolve()
            if self._rng.random() < self.read_fraction:
                yield from bus.read(
                    addr, self.burst_words, master=self.full_name, tags=["background"]
                )
            else:
                payload = [self._rng.getrandbits(32) for _ in range(self.burst_words)]
                yield from bus.write(
                    addr, payload, master=self.full_name, tags=["background"]
                )
            self.issued += 1
