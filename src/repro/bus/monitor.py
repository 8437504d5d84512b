"""Bus traffic monitor.

Collects every completed bus transfer and aggregates the statistics the
paper's methodology is built to expose: the memory-bus traffic generated
by context switching (Section 5.3) alongside ordinary data traffic, so
design-space exploration can weigh reconfiguration cost against
computation.

The log is one ordered list of :class:`TrainRecord` s, each of them
``bursts`` equal reads of one master.  A transfer that ran through the
kernel is a one-read record; a closed-form booking of the bus (see
:mod:`repro.bus.bus`) is one record for all the reads it booked: the
bursts of an uncontended burst train, or the reads of a poll train, one
every poll interval.  Every aggregate query reads the records directly,
and :attr:`BusMonitor.transactions` expands them into the per-transfer
:class:`~repro.bus.interfaces.Transaction` s.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..kernel import SimTime, ZERO_TIME
from .interfaces import Transaction


@dataclass(slots=True)
class TrainRecord:
    """Evenly spaced, equal transfers of one master, as one monitor entry.

    Of the ``bursts`` transfers, transfer ``i`` is issued at ``start_fs +
    i * (wait_fs + burst_fs + gap_fs)``, is granted ``wait_fs`` later,
    moves ``burst_words`` words at ``addr + i * stride`` and occupies the
    bus for ``burst_fs``.  A transfer that ran through the kernel is a
    one-read record, whatever its wait and status; the bursts of a
    closed-form burst train follow each other back to back (``gap_fs``
    0), and a poll train's one-word reads of one address (stride 0) are
    ``gap_fs`` apart, the poll interval.  The bus books only uncontended,
    completed transfers in closed form, so a record of several reads
    waits 0 and is ``"ok"``.
    """

    kind: str
    master: str
    slave: str
    addr: int
    stride: int
    burst_words: int
    bursts: int
    start_fs: int
    burst_fs: int
    tags: Tuple[str, ...]
    #: Arbitration wait of each transfer, from issue to grant.
    wait_fs: int = 0
    #: Idle bus time between one transfer's completion and the next's issue.
    gap_fs: int = 0
    #: "ok" for completed transfers; "error" when the slave call raised.
    status: str = "ok"

    @property
    def words(self) -> int:
        """Words of all the transfers together."""
        return self.bursts * self.burst_words

    @property
    def busy_fs(self) -> int:
        """Bus occupancy of all the transfers."""
        return self.bursts * self.burst_fs

    def expand(self) -> Iterator[Transaction]:
        """The per-transfer transactions, in order, each with its own tag list."""
        wait, duration = self.wait_fs, self.burst_fs
        period = wait + duration + self.gap_fs
        for i in range(self.bursts):
            issued_fs = self.start_fs + i * period
            yield Transaction(
                kind=self.kind,
                master=self.master,
                slave=self.slave,
                addr=self.addr + i * self.stride,
                words=self.burst_words,
                issued_at=SimTime.from_fs(issued_fs),
                granted_at=SimTime.from_fs(issued_fs + wait),
                completed_at=SimTime.from_fs(issued_fs + wait + duration),
                tags=list(self.tags),
                status=self.status,
            )


class BusMonitor:
    """Accumulates transfer records and serves aggregate queries."""

    def __init__(self, name: str = "monitor") -> None:
        self.name = name
        self._log: List[TrainRecord] = []
        self._count = 0
        self._busy_fs = 0

    # -- recording -----------------------------------------------------------
    def record(self, entry: TrainRecord) -> None:
        """Record completed transfers (called by the bus), counted and
        timed as their expansion would be."""
        self._log.append(entry)
        self._count += entry.bursts
        self._busy_fs += entry.busy_fs

    @property
    def transactions(self) -> List[Transaction]:
        """Every recorded transfer in order, each record expanded transfer
        by transfer (a new list on every read)."""
        out: List[Transaction] = []
        for entry in self._log:
            out += entry.expand()
        return out

    # -- aggregate queries -------------------------------------------------------
    @property
    def transaction_count(self) -> int:
        return self._count

    @property
    def error_count(self) -> int:
        """Transactions whose slave call raised (recorded with status="error")."""
        return sum(t.bursts for t in self._log if t.status != "ok")

    @property
    def total_words(self) -> int:
        """Total data words moved over the bus."""
        return sum(t.words for t in self._log)

    def words_by_tag(self, tag: str) -> int:
        """Words moved by transactions carrying ``tag`` (e.g. ``"config"``)."""
        return sum(t.words for t in self._log if tag in t.tags)

    def words_without_tag(self, tag: str) -> int:
        return sum(t.words for t in self._log if tag not in t.tags)

    def words_by_master(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for t in self._log:
            out[t.master] += t.words
        return dict(out)

    def words_by_slave(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for t in self._log:
            out[t.slave] += t.words
        return dict(out)

    def busy_time(self) -> SimTime:
        """Total time the bus data path was occupied."""
        return SimTime.from_fs(self._busy_fs)

    def utilization(self, elapsed: SimTime) -> float:
        """Fraction of ``elapsed`` during which the bus was occupied."""
        if elapsed.femtoseconds == 0:
            return 0.0
        return min(1.0, self._busy_fs / elapsed.femtoseconds)

    def mean_arbitration_wait(self, master: Optional[str] = None) -> SimTime:
        """Average grant wait, optionally filtered by master label."""
        total = count = 0
        for t in self._log:
            if master is None or t.master == master:
                total += t.bursts * t.wait_fs
                count += t.bursts
        if not count:
            return ZERO_TIME
        return SimTime.from_fs(int(total / count))

    def max_arbitration_wait(self) -> SimTime:
        return SimTime.from_fs(max((t.wait_fs for t in self._log), default=0))

    def reset(self) -> None:
        """Discard all recorded transactions (between experiment phases)."""
        self._log.clear()
        self._count = 0
        self._busy_fs = 0

    def summary(self) -> Dict[str, object]:
        """A dictionary summary used by the experiment reports."""
        return {
            "transactions": self.transaction_count,
            "total_words": self.total_words,
            "config_words": self.words_by_tag("config"),
            "data_words": self.words_without_tag("config"),
            "busy_time_ns": self.busy_time().to_ns(),
            "mean_arbitration_wait_ns": self.mean_arbitration_wait().to_ns(),
            "words_by_master": self.words_by_master(),
        }
