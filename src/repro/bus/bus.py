"""The shared system bus.

A bus-cycle-approximate model of the single shared bus in the paper's
Figure 1 SoC: masters arbitrate for ownership, the winning transfer pays an
address phase plus per-word data cycles, and the addressed slave's
``read``/``write`` interface method is invoked through the same mechanism
the paper uses (the slave method may itself consume simulated time).

Two protocols are supported, because the paper's Section 5.4 (limitation 3)
hinges on the difference:

``blocking``
    The bus is held for the entire slave call.  If the slave itself needs
    the same bus to make progress (the DRCF fetching configuration data
    during a context switch), the system deadlocks — exactly the failure
    mode the paper describes.
``split``
    The bus is occupied only for the request and response transfers; it is
    released while the slave processes.  This models the split-transaction
    requirement the paper states for sharing the context-memory bus with
    the component interface bus.

Every transfer runs through one loop, :meth:`Bus._transfer`, which moves
``count`` words in bursts: ``Bus.read(..., burst=n)`` issues a *burst
train* (the DRCF's configuration fetch), and a plain read or write is the
loop's one-iteration case.  Each burst is issued, arbitrated, decoded
after its grant, timed phase by phase and recorded as its own
:class:`Transaction`, exactly like a separate read; :class:`Memory` slaves
are read as "latency, then sample" by the loop itself, so a burst builds
no slave generator.

While the fetching master is alone, a train runs in closed form: at the
top of a burst, :meth:`Bus._closed_form` books as many whole bursts as
end within the kernel's :meth:`Simulator.alone_horizon
<repro.kernel.Simulator.alone_horizon>` in one step (the skipped kernel
round trips, the arbiter's grants, one memory slice and one monitor
:class:`~repro.bus.monitor.TrainRecord`), with the same times, counters
and data as burst by burst (docs/KERNEL.md, "Closed-form burst trains").
A burst it declines, counted by reason in :attr:`Bus.closed_form_declines`,
waits out its phases through the kernel, as single transfers do.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..kernel import Module, SimTime, SimulationError, cycles_to_time
from .arbiter import Arbiter
from .interfaces import (
    BusMasterIf,
    BusSlaveIf,
    Transaction,
    check_range,
    check_timing,
    normalize_write_data,
)
from .memory import Memory
from .monitor import BusMonitor, TrainRecord

#: Supported bus protocols.
PROTOCOLS = ("blocking", "split")

#: Why the closed form left a burst of a train to the per-phase loop, in
#: the order the conditions are checked (see :meth:`Bus._closed_form`).
CLOSED_FORM_DECLINES = (
    "contended",
    "not_memory",
    "range",
    "read_filter",
    "not_alone",
    "horizon",
)


class Bus(Module, BusMasterIf):
    """A shared multi-master bus with address decoding and arbitration.

    Parameters
    ----------
    clock_freq_hz:
        Bus clock; all cycle counts convert to time at this frequency.
    data_width_bits:
        Width of one bus word (default 32).
    address_phase_cycles:
        Cycles consumed by the address/command phase of each transfer.
    cycles_per_word:
        Data cycles per word transferred.
    protocol:
        ``"blocking"`` or ``"split"`` (see module docstring).
    arbitration:
        Arbiter policy: ``"fifo"``, ``"priority"``, or ``"round_robin"``.
    """

    def __init__(
        self,
        name: str,
        parent: Optional[Module] = None,
        sim=None,
        *,
        clock_freq_hz: float = 100e6,
        data_width_bits: int = 32,
        address_phase_cycles: int = 1,
        cycles_per_word: int = 1,
        protocol: str = "blocking",
        arbitration: str = "fifo",
    ) -> None:
        super().__init__(name, parent=parent, sim=sim)
        if protocol not in PROTOCOLS:
            raise ValueError(
                f"{self.full_name}: unknown bus protocol {protocol!r}; expected one of {PROTOCOLS}"
            )
        if data_width_bits <= 0 or data_width_bits % 8:
            raise ValueError(
                f"{self.full_name}: data_width_bits must be a positive multiple of 8, "
                f"not {data_width_bits}"
            )
        check_timing(
            self.full_name,
            clock_freq_hz,
            address_phase_cycles=address_phase_cycles,
            cycles_per_word=cycles_per_word,
        )
        self.clock_freq_hz = clock_freq_hz
        self.data_width_bits = data_width_bits
        self.address_phase_cycles = address_phase_cycles
        self.cycles_per_word = cycles_per_word
        self.protocol = protocol
        self.arbiter = Arbiter(self.sim, policy=arbitration, name=f"{self.full_name}.arbiter")
        self.monitor = BusMonitor(name=f"{self.full_name}.monitor")
        self._slaves: List[BusSlaveIf] = []
        self._priorities: Dict[str, int] = {}
        # One-entry decode cache: (low, high, route) of the last hit,
        # invalidated whenever the slave map changes, so a hit is always a
        # registered slave.  Bounds are snapshotted to skip the interface
        # method calls on the hot path (slave ranges are fixed; DRCF
        # reconfiguration swaps slaves, which invalidates the entry).
        self._decode_cache: Optional[tuple] = None
        # Cycle-count -> SimTime cache; cycle durations on the transfer path
        # repeat endlessly for the same burst sizes.  Keyed only by count:
        # ``clock_freq_hz`` is fixed at construction.
        self._cycle_cache: Dict[int, SimTime] = {}
        #: Bursts of trains booked in closed form, and the bursts at which
        #: the closed form declined, by reason (:data:`CLOSED_FORM_DECLINES`).
        self.closed_form_bursts = 0
        self.closed_form_declines: Dict[str, int] = dict.fromkeys(CLOSED_FORM_DECLINES, 0)

    # -- construction -----------------------------------------------------------
    @property
    def word_bytes(self) -> int:
        """Bytes per bus word."""
        return self.data_width_bits // 8

    def words_for_bytes(self, n_bytes: int) -> int:
        """Number of bus words needed to move ``n_bytes``."""
        return max(1, math.ceil(n_bytes / self.word_bytes))

    def register_slave(self, slave: BusSlaveIf) -> None:
        """Attach a slave; its address range must not overlap existing ones."""
        if not isinstance(slave, BusSlaveIf):
            raise SimulationError(
                f"{type(slave).__name__} does not implement BusSlaveIf"
            )
        low, high = slave.get_low_add(), slave.get_high_add()
        check_range(self._slave_name(slave), low, high)
        for other in self._slaves:
            if low <= other.get_high_add() and other.get_low_add() <= high:
                raise SimulationError(
                    f"address range [{low:#x}, {high:#x}] of "
                    f"{self._slave_name(slave)} overlaps "
                    f"{self._slave_name(other)}"
                )
        self._slaves.append(slave)
        self._decode_cache = None

    def unregister_slave(self, slave: BusSlaveIf) -> None:
        """Detach a slave (used by the DRCF model transformation)."""
        self._slaves.remove(slave)
        self._decode_cache = None

    @property
    def slaves(self) -> List[BusSlaveIf]:
        return list(self._slaves)

    def set_master_priority(self, master: str, priority: int) -> None:
        """Fixed priority for ``master`` (lower wins; only with priority policy)."""
        self._priorities[master] = priority

    def decode(self, addr: int) -> BusSlaveIf:
        """The slave whose range contains ``addr``."""
        return self._route(addr)[0]

    def _route(self, addr: int) -> Tuple[BusSlaveIf, Optional[Memory]]:
        """``(slave, memory)`` for ``addr``; ``memory`` is the slave when it
        is a :class:`Memory`, which the transfer loop reads itself."""
        cached = self._decode_cache
        if cached is not None and cached[0] <= addr <= cached[1]:
            return cached[2]
        for slave in self._slaves:
            low, high = slave.get_low_add(), slave.get_high_add()
            if low <= addr <= high:
                route = (slave, slave if isinstance(slave, Memory) else None)
                self._decode_cache = (low, high, route)
                return route
        raise SimulationError(f"bus {self.full_name}: no slave decodes address {addr:#x}")

    # -- timing helpers ------------------------------------------------------------
    def cycles(self, n: int) -> SimTime:
        """``n`` bus-clock cycles as a duration."""
        t = self._cycle_cache.get(n)
        if t is None:
            t = self._cycle_cache[n] = cycles_to_time(n, self.clock_freq_hz)
        return t

    def transfer_time(self, words: int) -> SimTime:
        """Pure data-path occupancy for a ``words``-word burst."""
        return self.cycles(self.address_phase_cycles + words * self.cycles_per_word)

    # -- BusMasterIf -------------------------------------------------------------
    def read(
        self,
        addr: int,
        count: int = 1,
        master: str = "?",
        tags: Sequence[str] = (),
        burst: Optional[int] = None,
    ):
        """Arbitrated burst read (use with ``yield from``). Returns a list of words.

        ``burst`` splits the read into a *burst train*: successive
        transfers of at most ``burst`` words, each arbitrated, timed and
        recorded on its own exactly like a separate read of that burst
        (see :meth:`_transfer`).  By default the read is one transfer.

        Validates eagerly and returns the transfer generator directly, so
        each resume walks one frame less of delegation.
        """
        if count <= 0:
            raise SimulationError("burst read count must be positive")
        if burst is None:
            burst = count
        elif burst <= 0:
            raise SimulationError("burst length must be positive")
        return self._transfer("read", addr, count, None, master, tags, burst)

    def write(
        self,
        addr: int,
        data: Union[int, Sequence[int]],
        master: str = "?",
        tags: Sequence[str] = (),
    ):
        """Arbitrated burst write (use with ``yield from``). Returns True on success."""
        words = normalize_write_data(data)
        if not words:
            raise SimulationError("burst write needs at least one word")
        return self._transfer("write", addr, len(words), words, master, tags, len(words))

    # -- core transfer ----------------------------------------------------------------
    def _transfer(
        self,
        kind: str,
        addr: int,
        count: int,
        payload: Optional[List[int]],
        master: str,
        tags: Sequence[str],
        burst: int,
    ):
        """The transfer loop: ``count`` words in bursts of at most ``burst``.

        Each burst is issued, arbitrated, decoded after its grant, timed
        phase by phase and recorded as one :class:`Transaction`; a single
        transfer is the one-iteration case.  :class:`Memory` slaves are
        read as "latency, then sample" in the loop itself.  In a train of
        several bursts, each burst first offers itself to
        :meth:`_closed_form`, which books it and the bursts after it at
        once while the fetching master is alone; a burst it declines runs
        phase by phase, each phase wait a kernel round trip.
        """
        sim = self.sim
        arbiter = self.arbiter
        priority = self._priorities.get(master, 0)
        split = self.protocol == "split"
        address_phase = self.cycles(self.address_phase_cycles)
        request_beat = self.cycles(1) if split else None
        train = count > burst
        if train:
            stride = burst * self.word_bytes
            words: List[int] = []
        while True:
            # Decode errors surface before arbitration.
            memory = self._route(addr)[1]
            if train:
                data = self._closed_form(
                    addr, count, burst, master, tags, memory, address_phase, request_beat
                )
                if data is not None:
                    words += data
                    count -= len(data)
                    if not count:
                        return words
                    addr += len(data) * self.word_bytes
                    continue
            n = burst if count > burst else count
            issued_at = sim.now
            if arbiter.try_acquire(master):
                granted_at = issued_at  # uncontended: granted in the same instant
            else:
                grant = arbiter.enqueue(master, priority)
                try:
                    yield grant
                except GeneratorExit:
                    arbiter.withdraw(master, grant)  # killed while queued
                    raise
                granted_at = sim.now
            held = True
            # Decode again now that the grant is held: the DRCF model
            # transformation may have swapped the slave map while this master
            # waited out arbitration, and the transfer must target the map
            # that is current at grant time.
            slave, memory = self._route(addr)
            status: Optional[str] = "ok"
            try:
                yield address_phase
                if split:
                    # Split: release the bus while the slave processes.
                    yield request_beat
                    arbiter.release(master)
                    held = False
                if kind != "read":
                    yield from slave.write(addr, payload if n > 1 else payload[0])
                elif memory is not None:
                    index, wait = memory._read_latency(addr, n)
                    yield wait
                    data = memory._read_sample(addr, index, n)
                else:
                    data = yield from slave.read(addr, n)
                if split:
                    if not arbiter.try_acquire(master):
                        grant = arbiter.enqueue(master, priority)
                        try:
                            yield grant
                        except GeneratorExit:
                            arbiter.withdraw(master, grant)
                            raise
                    held = True
                wait = self.cycles(n * self.cycles_per_word)
                yield wait
            except GeneratorExit:
                status = None  # master killed mid-transfer: nothing completed
                raise
            except BaseException:
                status = "error"
                raise
            finally:
                if held:
                    arbiter.release(master)
                if status is not None:
                    # Failed slave calls are recorded too (status="error"):
                    # they occupied the bus until the failure point, and
                    # silently dropping them would corrupt the monitor's
                    # occupancy and contention accounting.
                    self.monitor.record(
                        Transaction(
                            kind=kind,
                            master=master,
                            slave=self._slave_name(slave),
                            addr=addr,
                            words=n,
                            issued_at=issued_at,
                            granted_at=granted_at,
                            completed_at=sim.now,
                            tags=list(tags),
                            status=status,
                        )
                    )
            if not train:
                return data if kind == "read" else True
            words += data
            count -= n
            if not count:
                return words
            addr += stride

    def _closed_form(
        self,
        addr: int,
        count: int,
        burst: int,
        master: str,
        tags: Sequence[str],
        memory: Optional[Memory],
        address_phase: SimTime,
        request_beat: Optional[SimTime],
    ) -> Optional[List[int]]:
        """Book whole bursts of a read train at once; their words, or None.

        The ``count`` words left of the train start with a burst at
        ``addr``, which decodes to ``memory`` (None when its slave is not
        a :class:`Memory`).  While the fetching master is alone, no other
        process runs or observes the kernel between its phase waits, so the
        bursts' times, counters and data are known in advance: each burst
        is issued and granted at the previous one's completion and lasts
        its phases, the very cached durations the per-phase loop waits on.
        The largest number of whole bursts that end within the kernel's
        :meth:`~repro.kernel.Simulator.alone_horizon` (and whose phase
        waits stay within its ``max_waits``) is booked in one step: the
        kernel round trips, the arbiter grants, one memory slice and one
        :class:`~repro.bus.monitor.TrainRecord`.

        Declines, counted by reason in :attr:`closed_form_declines`, leave
        the burst to the per-phase loop: the arbiter is held or queued
        (``contended``); the burst's slave is not a :class:`Memory`
        (``not_memory``); the rest of the train is not one aligned span of
        that memory's words (``range``); the memory's read filter is armed
        (``read_filter``); the master is not alone (``not_alone``); or not
        even one burst fits the horizon (``horizon``).
        """
        reason = None
        if not self.arbiter.idle:
            reason = "contended"
        elif memory is None:
            reason = "not_memory"
        elif (
            memory.word_bytes != self.word_bytes
            or addr % self.word_bytes
            or (addr - memory.base) // self.word_bytes + count > memory.size_words
        ):
            reason = "range"
        elif not memory._read_filter_idle(addr, count):
            reason = "read_filter"
        else:
            horizon = self.sim.alone_horizon()
            if horizon is None:
                reason = "not_alone"
        if reason is None:
            last_wake_fs, max_waits = horizon
            phases = 3 if request_beat is None else 4
            full, rest = divmod(count, burst)
            full_fs = self._burst_fs(memory, burst, address_phase, request_beat)
            last_fs = self._burst_fs(memory, rest, address_phase, request_beat) if rest else full_fs
            start_fs = self.sim.now.femtoseconds
            # k: the most bursts whose waits fit max_waits and whose end
            # fits last_wake_fs (the full ones, then the partial last one).
            k = full + (rest > 0)
            if max_waits is not None:
                k = min(k, max_waits // phases)
            if last_wake_fs is not None:
                span = last_wake_fs - start_fs
                if k > full and full * full_fs + last_fs > span:
                    k = full  # the partial last burst does not fit
                if k <= full and k * full_fs > span:
                    k = span // full_fs if span >= 0 else 0
            if k <= 0:
                reason = "horizon"
        if reason is not None:
            self.closed_form_declines[reason] += 1
            return None
        if k > full:
            taken, end_fs = count, start_fs + full * full_fs + last_fs
        else:
            taken, end_fs, last_fs = k * burst, start_fs + k * full_fs, full_fs
        self.sim.book_alone(k * phases, end_fs)
        self.arbiter.book_grants(master, k if request_beat is None else 2 * k)
        self.monitor.record_train(
            TrainRecord(
                kind="read",
                master=master,
                slave=self._slave_name(memory),
                addr=addr,
                stride=burst * self.word_bytes,
                burst_words=burst,
                words=taken,
                start_fs=start_fs,
                burst_fs=full_fs,
                last_fs=last_fs,
                tags=tuple(tags),
            )
        )
        self.closed_form_bursts += k
        return memory._read_slice(addr, taken)

    def _burst_fs(
        self, memory: Memory, n: int, address_phase: SimTime, request_beat: Optional[SimTime]
    ) -> int:
        """Femtoseconds of an ``n``-word burst from ``memory``: the sum of
        the phases the per-phase loop waits on."""
        fs = (
            address_phase.femtoseconds
            + memory._burst_time(n).femtoseconds
            + self.cycles(n * self.cycles_per_word).femtoseconds
        )
        return fs if request_beat is None else fs + request_beat.femtoseconds

    @staticmethod
    def _slave_name(slave: BusSlaveIf) -> str:
        return getattr(slave, "full_name", type(slave).__name__)
