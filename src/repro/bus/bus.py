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
after its grant, timed phase by phase, exactly like a separate read, and
recorded in the monitor as a one-read
:class:`~repro.bus.monitor.TrainRecord`, its times taken off the kernel's
integer clock; it calls its slave through the slave's ``read``/``write``
method, whatever the slave is.

While the fetching master is alone, a train runs in closed form: at the
top of a burst, :meth:`Bus._closed_form` books as many whole bursts as
end within the kernel's :meth:`Simulator.alone_horizon
<repro.kernel.Simulator.alone_horizon>` in one step, and a partial last
burst as a read of its own, with the same times, counters and data as
burst by burst (docs/KERNEL.md, "Closed-form trains").  A burst it
declines, counted by reason in :attr:`Bus.closed_form_declines`, waits
out its phases through the kernel, as single transfers do.

A CPU's STATUS poll loop runs in closed form the same way:
:meth:`Bus.book_polls` books every poll before the polled word can next
change.  Both closed forms book through one step, :meth:`Bus._book`,
which owns the count rule and books the skipped kernel round trips, the
arbiter's grants, the slave's per-call records and one monitor record
(of stride 0 and a gap of one poll interval for a poll train).  They read
the slave through its optional
:attr:`~repro.bus.interfaces.BusSlaveIf.closed_read` and nothing else of
it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Union

from ..kernel import Module, SimTime, SimulationError, cycles_to_time
from .arbiter import Arbiter
from .interfaces import (
    BusMasterIf,
    BusSlaveIf,
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
        # The decode table: (low, high, slave) of every registered slave,
        # sorted by low address whenever the slave map changes or an
        # address misses it, and the low addresses alone for ``bisect``.
        # Ranges never overlap, so the slave decoding an address is the
        # last one starting at or below it.
        self._ranges: List[tuple] = []
        self._lows: List[int] = []
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
        self._sort_ranges()

    def unregister_slave(self, slave: BusSlaveIf) -> None:
        """Detach a slave (used by the DRCF model transformation)."""
        self._slaves.remove(slave)
        self._sort_ranges()

    def _sort_ranges(self) -> None:
        """Rebuild the decode table from the slave map."""
        self._ranges = sorted(
            ((slave.get_low_add(), slave.get_high_add(), slave) for slave in self._slaves),
            key=itemgetter(0),
        )
        self._lows = [low for low, _, _ in self._ranges]

    @property
    def slaves(self) -> List[BusSlaveIf]:
        return list(self._slaves)

    def set_master_priority(self, master: str, priority: int) -> None:
        """Fixed priority for ``master`` (lower wins; only with priority policy)."""
        self._priorities[master] = priority

    def decode(self, addr: int) -> BusSlaveIf:
        """The slave whose range contains ``addr``."""
        index = bisect_right(self._lows, addr) - 1
        if index < 0 or addr > self._ranges[index][1]:
            # Read the bounds again before giving up: a DRCF's range
            # follows its contexts' modules, which may be rewired.
            self._sort_ranges()
            index = bisect_right(self._lows, addr) - 1
            if index < 0 or addr > self._ranges[index][1]:
                raise SimulationError(f"bus {self.full_name}: no slave decodes address {addr:#x}")
        return self._ranges[index][2]

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
        phase by phase and recorded as a one-read
        :class:`~repro.bus.monitor.TrainRecord`; a single transfer is the
        one-iteration case.  The slave is called through
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
        tags = tuple(tags)
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
                    # Both lists are fresh: copy the shorter into the
                    # longer, so a train whose bookings alternate with
                    # declined bursts does not copy every word fetched
                    # before each booking again.
                    if len(words) < taken:
                        data[:0] = words
                        words = data
                    else:
                        words += data
                    count -= taken
                    if not count:
                        return words
                    addr += taken * self.word_bytes
                    continue
            n = burst if count > burst else count
            issued_fs = sim._now_fs
            if arbiter.try_acquire(master):
                # Uncontended: granted in the same instant, so the decode
                # above still holds.
                granted_fs = issued_fs
            else:
                grant = arbiter.enqueue(master, priority)
                try:
                    yield grant
                except GeneratorExit:
                    arbiter.withdraw(master, grant)  # killed while queued
                    raise
                granted_fs = sim._now_fs
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
                        TrainRecord(
                            kind=kind,
                            master=master,
                            slave=self._slave_name(slave),
                            addr=addr,
                            stride=0,
                            burst_words=n,
                            bursts=1,
                            start_fs=issued_fs,
                            burst_fs=sim._now_fs - granted_fs,
                            tags=tags,
                            wait_fs=granted_fs - issued_fs,
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
        :attr:`~repro.bus.interfaces.BusSlaveIf.closed_read`.
        :meth:`_book` books as many of the full bursts as fit the kernel's
        :meth:`~repro.kernel.Simulator.alone_horizon`; when all of them
        fit, a second booking takes the partial last burst, if any, as a
        one-read record of its own.  One slice of the slave's words covers
        both.

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
            full, rest = divmod(count, burst)
            stride = burst * word_bytes
            k = self._book(horizon, full, answer, slave, addr, stride, burst, None, master, tags)
            if k == full and rest:
                # The partial last burst, from where the full ones end,
                # within what their waits left of the horizon.
                horizon = self.sim.alone_horizon()
                addr += full * stride
                k += self._book(horizon, 1, answer, slave, addr, stride, rest, None, master, tags)
            if not k:
                reason = "horizon"
        if reason is not None:
            self.closed_form_declines[reason] += 1
            return None
        self.closed_form_bursts += k
        _, words, _ = answer
        return words(min(k * burst, count))

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
        fails it at every poll that ends by the horizon, and :meth:`_book`
        books those polls in one step, as one record of stride 0 whose
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
        horizon = self.sim.alone_horizon()
        if horizon is None:
            declines["not_alone"] += 1
            return 0
        last_wake_fs, max_waits = horizon
        waits = self._read_phases[1] + (interval_fs is not None)
        if (max_waits is not None and max_waits < waits) or (
            last_wake_fs is not None
            and last_wake_fs - self.sim._now_fs < self._read_fs(1, 0) + (interval_fs or 0)
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
        _, words, _ = answer
        if words(1)[0] & mask == expect:
            declines["done"] += 1
            return 0
        k = self._book(horizon, max_polls, answer, slave, addr, 0, 1, interval_fs, master, ())
        if not k:
            declines["horizon"] += 1
        self.closed_form_polls += k
        return k

    def _book(
        self,
        horizon: tuple,
        most: int,
        answer: tuple,
        slave: BusSlaveIf,
        addr: int,
        stride: int,
        n: int,
        interval_fs: Optional[int],
        master: str,
        tags: Sequence[str],
    ) -> int:
        """Book up to ``most`` ``n``-word reads in closed form; how many.

        The reads start now and read ``slave``, which gave ``answer`` to
        :attr:`~repro.bus.interfaces.BusSlaveIf.closed_read`, from ``addr``
        on, ``stride`` bytes apart; each is followed by ``interval_fs`` of
        the master's compute (None: none, and no wait for it).  Read ``i``
        starts ``i`` periods from now, a period being the read's phases
        (:meth:`_read_fs`) and the interval.  The count rule takes the
        most reads that fit the kernel's ``horizon`` (an
        :meth:`~repro.kernel.Simulator.alone_horizon`): ``k = min(most,
        max_waits // waits, (last_wake_fs - now) // period)``, where a read
        takes ``waits`` kernel waits, and a read of no duration fits when
        it starts by ``last_wake_fs``.  The booking records exactly what
        ``k`` kernel round trips record: the waits (``book_alone``), the
        arbiter's grants (``book_grants``), the slave's per-call records
        (its ``book``) and one monitor :class:`~repro.bus.monitor.TrainRecord`.
        """
        access, _, book = answer
        last_wake_fs, max_waits = horizon
        call_fs, waits, grants = self._read_phases
        read_fs = self._read_fs(n, access(n))
        gap_fs = interval_fs or 0
        if interval_fs is not None:
            waits += 1
        period_fs = read_fs + gap_fs
        sim = self.sim
        start_fs = sim._now_fs
        k = most
        if max_waits is not None:
            k = min(k, max_waits // waits)
        if last_wake_fs is not None and (period_fs or start_fs > last_wake_fs):
            k = min(k, (last_wake_fs - start_fs) // (period_fs or 1))
        if k <= 0:
            return 0
        sim.book_alone(k * waits, start_fs + k * period_fs)
        self.arbiter.book_grants(master, k * grants)
        book(k, n, start_fs + call_fs, period_fs)
        self.monitor.record(
            TrainRecord(
                kind="read",
                master=master,
                slave=self._slave_name(slave),
                addr=addr,
                stride=stride,
                burst_words=n,
                bursts=k,
                start_fs=start_fs,
                burst_fs=read_fs,
                tags=tags,
                gap_fs=gap_fs,
            )
        )
        return k

    def _read_fs(self, n: int, access_fs: int) -> int:
        """Femtoseconds of an ``n``-word read whose slave takes
        ``access_fs``: the sum of the phases the transfer loop waits on."""
        data_fs = self.cycles(n * self.cycles_per_word).femtoseconds
        return self._read_phases[0] + access_fs + data_fs

    @staticmethod
    def _slave_name(slave: BusSlaveIf) -> str:
        return getattr(slave, "full_name", type(slave).__name__)
