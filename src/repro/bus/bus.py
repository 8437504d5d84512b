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
:class:`Transaction`, exactly like a separate read, and calls its slave
through the slave's ``read``/``write`` method, whatever the slave is.

While the fetching master is alone, a train runs in closed form: at the
top of a burst, :meth:`Bus._closed_form` books as many whole bursts as
end within the kernel's :meth:`Simulator.alone_horizon
<repro.kernel.Simulator.alone_horizon>` in one step (the skipped kernel
round trips, the arbiter's grants, the slave's per-call records, one
slice of its words and one monitor
:class:`~repro.bus.monitor.TrainRecord`), with the same times, counters
and data as burst by burst (docs/KERNEL.md, "Closed-form trains").  A
burst it declines, counted by reason in :attr:`Bus.closed_form_declines`,
waits out its phases through the kernel, as single transfers do.

A CPU's STATUS poll loop runs in closed form the same way:
:meth:`Bus.book_polls` books every poll before the polled word can next
change as one train record of stride 0.  Both closed forms read the slave
through its optional :attr:`~repro.bus.interfaces.BusSlaveIf.closed_read`
and nothing else of it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Union

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
from .monitor import BusMonitor, TrainRecord

#: Supported bus protocols.
PROTOCOLS = ("blocking", "split")

#: Why the closed form left a burst of a train to the per-phase loop, in
#: the order the conditions are checked (see :meth:`Bus._closed_form`).
CLOSED_FORM_DECLINES = (
    "contended",
    "slave",
    "range",
    "read_filter",
    "not_alone",
    "horizon",
)

#: Why :meth:`Bus.book_polls` booked no poll train, in the order the
#: conditions are checked.
POLL_TRAIN_DECLINES = (
    "contended",
    "not_alone",
    "horizon",
    "range",
    "slave",
    "read_filter",
    "done",
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
        # One-entry decode cache: (low, high, slave) of the last hit,
        # invalidated whenever the slave map changes, so a hit is always a
        # registered slave.  Bounds are snapshotted to skip the interface
        # method calls on the hot path (slave ranges are fixed; DRCF
        # reconfiguration swaps slaves, which invalidates the entry).
        self._decode_cache: Optional[tuple] = None
        # One read's phases as the transfer loop waits them, for the closed
        # forms: the slave is called ``call_fs`` into the read (after the
        # address phase and, under split, the request beat), and the read
        # takes ``waits`` kernel waits and ``grants`` arbiter grants.  Its
        # duration is :meth:`_read_fs`.
        split = protocol == "split"
        call_fs = self.cycles(address_phase_cycles).femtoseconds
        if split:
            call_fs += self.cycles(1).femtoseconds
        self._read_phases = (call_fs, 4 if split else 3, 2 if split else 1)
        #: Bursts of trains booked in closed form, and the bursts at which
        #: the closed form declined, by reason (:data:`CLOSED_FORM_DECLINES`).
        self.closed_form_bursts = 0
        self.closed_form_declines: Dict[str, int] = dict.fromkeys(CLOSED_FORM_DECLINES, 0)
        #: Polls booked in closed form, and the poll trains declined, by
        #: reason (:data:`POLL_TRAIN_DECLINES`).
        self.closed_form_polls = 0
        self.closed_form_poll_declines: Dict[str, int] = dict.fromkeys(POLL_TRAIN_DECLINES, 0)

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
        cached = self._decode_cache
        if cached is not None and cached[0] <= addr <= cached[1]:
            return cached[2]
        for slave in self._slaves:
            low, high = slave.get_low_add(), slave.get_high_add()
            if low <= addr <= high:
                self._decode_cache = (low, high, slave)
                return slave
        raise SimulationError(f"bus {self.full_name}: no slave decodes address {addr:#x}")

    # -- timing helpers ------------------------------------------------------------
    def cycles(self, n: int) -> SimTime:
        """``n`` bus-clock cycles as a duration."""
        return cycles_to_time(n, self.clock_freq_hz)

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
        transfer is the one-iteration case.  The slave is called through
        its ``read`` or ``write`` method.  In a train of several bursts,
        each burst first offers itself to :meth:`_closed_form`, which
        books it and the bursts after it at once while the fetching master
        is alone; a burst it declines runs phase by phase, each phase wait
        a kernel round trip.
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
            slave = self.decode(addr)
            if train:
                data = self._closed_form(addr, count, burst, master, tags, slave)
                if data is not None:
                    taken = len(data)
                    # The booked words are a fresh list: put the words of
                    # the bursts before them in front instead of copying it.
                    data[:0] = words
                    words = data
                    count -= taken
                    if not count:
                        return words
                    addr += taken * self.word_bytes
                    continue
            n = burst if count > burst else count
            issued_at = sim.now
            if arbiter.try_acquire(master):
                # Uncontended: granted in the same instant, so the decode
                # above still holds.
                granted_at = issued_at
            else:
                grant = arbiter.enqueue(master, priority)
                try:
                    yield grant
                except GeneratorExit:
                    arbiter.withdraw(master, grant)  # killed while queued
                    raise
                granted_at = sim.now
                # Decode again now that the grant is held: the DRCF model
                # transformation may have swapped the slave map while this
                # master waited out arbitration, and the transfer must
                # target the map that is current at grant time.
                slave = self.decode(addr)
            held = True
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
        slave: BusSlaveIf,
    ) -> Optional[List[int]]:
        """Book whole bursts of a read train at once; their words, or None.

        The ``count`` words left of the train start with a burst at
        ``addr``, which decodes to ``slave``.  While the fetching master is
        alone, no other process runs or observes the kernel between its
        phase waits, so the bursts' times, counters and data are known in
        advance: each burst is issued and granted at the previous one's
        completion and lasts its phases (:meth:`_read_fs`), the very
        memoized durations the per-phase loop waits on, with the slave's
        access time from its
        :attr:`~repro.bus.interfaces.BusSlaveIf.closed_read`.  The largest
        number of whole bursts that end within the kernel's
        :meth:`~repro.kernel.Simulator.alone_horizon` (and whose phase
        waits stay within its ``max_waits``) is booked in one step: the
        kernel round trips, the arbiter grants, the slave's per-call
        records, one slice of its words and one
        :class:`~repro.bus.monitor.TrainRecord`.

        Declines, counted by reason in :attr:`closed_form_declines`, leave
        the burst to the per-phase loop: the arbiter is held or queued
        (``contended``); the slave has no closed-form read (``slave``); the
        rest of the train is not one aligned span of the slave's addresses
        (``range``); the slave declines the read, a memory because its
        read filter is armed (``read_filter``); the master is not alone
        (``not_alone``); or not even one burst fits the horizon
        (``horizon``).
        """
        reason = None
        word_bytes = self.word_bytes
        if not self.arbiter.idle:
            reason = "contended"
        elif slave.closed_read is None:
            reason = "slave"
        elif addr % word_bytes or addr + count * word_bytes - 1 > slave.get_high_add():
            reason = "range"
        else:
            answer = slave.closed_read(addr, count, word_bytes)
            if answer is None:
                reason = "read_filter"
            else:
                horizon = self.sim.alone_horizon()
                if horizon is None:
                    reason = "not_alone"
        if reason is None:
            access, words, book = answer
            last_wake_fs, max_waits = horizon
            call_fs, waits, grants = self._read_phases
            full, rest = divmod(count, burst)
            full_fs = self._read_fs(burst, access(burst))
            last_fs = self._read_fs(rest, access(rest)) if rest else full_fs
            start_fs = self.sim.now.femtoseconds
            # k: the most bursts whose waits fit max_waits and whose end
            # fits last_wake_fs (the full ones, then the partial last one).
            k = full + (rest > 0)
            if max_waits is not None:
                k = min(k, max_waits // waits)
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
        call_fs += start_fs  # the first burst's slave call
        if k > full:
            taken, end_fs = count, start_fs + full * full_fs + last_fs
            book(full, burst, call_fs, full_fs)
            book(1, rest, call_fs + full * full_fs, last_fs)
        else:
            taken, end_fs, last_fs = k * burst, start_fs + k * full_fs, full_fs
            book(k, burst, call_fs, full_fs)
        self.sim.book_alone(k * waits, end_fs)
        self.arbiter.book_grants(master, k * grants)
        self.monitor.record_train(
            TrainRecord(
                kind="read",
                master=master,
                slave=self._slave_name(slave),
                addr=addr,
                stride=burst * word_bytes,
                burst_words=burst,
                words=taken,
                start_fs=start_fs,
                burst_fs=full_fs,
                last_fs=last_fs,
                tags=tuple(tags),
            )
        )
        self.closed_form_bursts += k
        return words(taken)

    def book_polls(
        self,
        addr: int,
        mask: int,
        expect: int,
        interval_fs: Optional[int],
        max_polls: int,
        master: str,
    ) -> int:
        """Book up to ``max_polls`` polls of ``addr`` in closed form; how many.

        A poll is what :meth:`Processor.poll <repro.cpu.Processor.poll>`
        does once: a one-word read of ``addr``, then ``interval_fs`` of
        the master's compute (None: a compute that does not wait).  While the
        polling master is alone, each poll is issued and granted at once,
        and the polled word cannot change before the kernel's
        :meth:`~repro.kernel.Simulator.alone_horizon`: whatever changes it,
        the accelerator's completion or another master's write, runs at a
        timed action or after one.  So if the word fails the mask now, it
        fails it at every poll that ends by the horizon, and those polls
        are booked in one step: their kernel round trips (4 waits a poll
        under ``split``, 3 under ``blocking``, one more for the interval),
        their arbiter grants (2 a poll under ``split``, 1 under
        ``blocking``), the slave's per-call records and one
        :class:`~repro.bus.monitor.TrainRecord` of stride 0 whose
        ``gap_fs`` is the interval.  The caller counts its own reads and
        compute cycles.

        Declines, counted by reason in :attr:`closed_form_poll_declines`,
        leave the next poll to the kernel: the arbiter is held or queued
        (``contended``); the master is not alone (``not_alone``); not even
        one poll fits the horizon, judged on the bus's own phases first and
        then with the slave's access time (``horizon``); no slave decodes
        ``addr`` (``range``); the slave has no closed-form read (``slave``)
        or declines this one (``read_filter``); or the word already passes
        the mask (``done``).  The first three cost no decode, no slave call
        and no allocation.
        """
        declines = self.closed_form_poll_declines
        if not self.arbiter.idle:
            declines["contended"] += 1
            return 0
        sim = self.sim
        horizon = sim.alone_horizon()
        if horizon is None:
            declines["not_alone"] += 1
            return 0
        last_wake_fs, max_waits = horizon
        call_fs, waits, grants = self._read_phases
        bus_fs = self._read_fs(1, 0)  # the poll's read without the slave's access
        gap_fs = 0
        if interval_fs is not None:
            gap_fs = interval_fs
            waits += 1
        start_fs = sim.now.femtoseconds
        span = None if last_wake_fs is None else last_wake_fs - start_fs
        if (max_waits is not None and max_waits < waits) or (
            span is not None and span < bus_fs + gap_fs
        ):
            declines["horizon"] += 1
            return 0
        try:
            slave = self.decode(addr)
        except SimulationError:
            declines["range"] += 1  # the round trip raises the decode error
            return 0
        if slave.closed_read is None:
            declines["slave"] += 1
            return 0
        answer = slave.closed_read(addr, 1, self.word_bytes)
        if answer is None:
            declines["read_filter"] += 1
            return 0
        access, words, book = answer
        if words(1)[0] & mask == expect:
            declines["done"] += 1
            return 0
        read_fs = bus_fs + access(1)
        poll_fs = read_fs + gap_fs
        k = max_polls
        if max_waits is not None:
            k = min(k, max_waits // waits)
        if span is not None and poll_fs:
            k = min(k, span // poll_fs)
        if k <= 0:
            declines["horizon"] += 1
            return 0
        sim.book_alone(k * waits, start_fs + k * poll_fs)
        self.arbiter.book_grants(master, k * grants)
        book(k, 1, start_fs + call_fs, poll_fs)
        self.monitor.record_train(
            TrainRecord(
                kind="read",
                master=master,
                slave=self._slave_name(slave),
                addr=addr,
                stride=0,
                burst_words=1,
                words=k,
                start_fs=start_fs,
                burst_fs=read_fs,
                last_fs=read_fs,
                tags=(),
                gap_fs=gap_fs,
            )
        )
        self.closed_form_polls += k
        return k

    def _read_fs(self, n: int, access_fs: int) -> int:
        """Femtoseconds of an ``n``-word read whose slave takes
        ``access_fs``: the sum of the phases the transfer loop waits on."""
        data_fs = self.cycles(n * self.cycles_per_word).femtoseconds
        return self._read_phases[0] + access_fs + data_fs

    @staticmethod
    def _slave_name(slave: BusSlaveIf) -> str:
        return getattr(slave, "full_name", type(slave).__name__)
