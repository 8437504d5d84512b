"""Bus interfaces, mirroring the paper's SystemC listings.

The paper's slave interface (Section 5.2)::

    class bus_slv_if : public virtual sc_interface {
    public:
        virtual sc_uint<ADDW> get_low_add()=0;
        virtual sc_uint<ADDW> get_high_add()=0;
        virtual bool read(sc_uint<ADDW> add, sc_int<DATAW> *data)=0;
        virtual bool write(sc_uint<ADDW> add, sc_int<DATAW> *data)=0;
    };

Our :class:`BusSlaveIf` is the direct analogue.  ``read``/``write`` are
*generator methods* (invoked with ``yield from``) because a slave may
consume simulated time before completing — this is exactly the hook the
DRCF uses to suspend a call while a context switch is in progress
(Section 5.3, step 4).  Burst variants carry ``count`` words per call.

The address-range methods ``get_low_add``/``get_high_add`` are required on
every slave; the paper makes the same requirement (Section 5.4,
limitation 2) because the DRCF transformation uses them to build its
internal routing multiplexer.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from ..kernel import Interface, SimTime


class BusSlaveIf(Interface):
    """Interface implemented by every bus slave (and by the DRCF)."""

    #: The slave's side of the bus's closed forms (docs/KERNEL.md,
    #: "Closed-form trains"); None, the class default, declines them all.
    #: A slave may define ``closed_read(addr, count, word_bytes)``.  It is
    #: asked, while the reading master is alone on the timeline, about
    #: reads that would start now of up to ``count`` words of
    #: ``word_bytes`` bytes from ``addr`` on.  It returns None when such a
    #: read could change the slave's state, or what it reads could change,
    #: before the kernel's alone horizon.  Otherwise it returns
    #: ``(access, words, book)``:
    #:
    #: * ``access(n)``: femtoseconds the slave takes to serve an ``n``-word
    #:   read;
    #: * ``words(n)``: the first ``n`` words from ``addr``, as reads return
    #:   them, in a fresh list (the bus keeps it and extends it);
    #: * ``book(reads, n, start_fs, period_fs)``: records in the slave what
    #:   ``reads`` calls of ``n``-word reads record, call ``i`` starting at
    #:   ``start_fs + i * period_fs``.
    closed_read = None

    @abc.abstractmethod
    def get_low_add(self) -> int:
        """Lowest address (inclusive) decoded by this slave."""

    @abc.abstractmethod
    def get_high_add(self) -> int:
        """Highest address (inclusive) decoded by this slave."""

    @abc.abstractmethod
    def read(self, addr: int, count: int = 1):
        """Blocking burst read (generator). Returns a list of ``count`` words."""

    @abc.abstractmethod
    def write(self, addr: int, data: Union[int, Sequence[int]]):
        """Blocking burst write (generator). Returns True on success."""


class BusMasterIf(Interface):
    """Interface a bus presents to its masters.

    Masters call through their ``mst_port``::

        data = yield from self.mst_port.read(addr, count, master=self.full_name)
    """

    @abc.abstractmethod
    def read(
        self,
        addr: int,
        count: int = 1,
        master: str = "?",
        tags: Sequence[str] = (),
        burst: Optional[int] = None,
    ):
        """Arbitrate, decode and perform a burst read (generator).

        With ``burst``, the read is a train of transfers of at most
        ``burst`` words each, arbitrated and recorded one by one.
        """

    @abc.abstractmethod
    def write(
        self,
        addr: int,
        data: Union[int, Sequence[int]],
        master: str = "?",
        tags: Sequence[str] = (),
    ):
        """Arbitrate, decode and perform a burst write (generator)."""


class InterruptIf(Interface):
    """Interface for a one-line interrupt sink (used by accelerators)."""

    @abc.abstractmethod
    def raise_irq(self, source: str) -> None:
        """Signal completion to the sink."""


@dataclass(slots=True)
class Transaction:
    """One completed bus transfer, as ``BusMonitor.transactions`` lists it."""

    kind: str  # "read" | "write"
    master: str
    slave: str
    addr: int
    words: int
    issued_at: SimTime
    granted_at: SimTime
    completed_at: SimTime
    tags: List[str] = field(default_factory=list)
    #: "ok" for completed transfers; "error" when the slave call raised.
    #: Errored transfers still occupied the bus, so the monitor records them.
    status: str = "ok"

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def arbitration_wait(self) -> SimTime:
        """Time spent waiting for bus grant."""
        return self.granted_at - self.issued_at

    @property
    def latency(self) -> SimTime:
        """End-to-end latency of the transfer."""
        return self.completed_at - self.issued_at

    def has_tag(self, tag: str) -> bool:
        return tag in self.tags


def normalize_write_data(data: Union[int, Sequence[int]]) -> List[int]:
    """Coerce scalar-or-sequence write payloads into a word list."""
    if isinstance(data, int):
        return [data]
    return list(data)


def check_range(name: str, low: int, high: int) -> None:
    """Validate a slave's advertised address range."""
    if low < 0 or high < low:
        raise ValueError(f"slave {name}: invalid address range [{low:#x}, {high:#x}]")


def check_timing(name: str, clock_freq_hz: float, **cycle_counts: int) -> None:
    """Validate a component's clock and cycle counts at construction, so a
    bad value fails there, naming the component, and not at its first
    transfer."""
    if not clock_freq_hz > 0:
        raise ValueError(f"{name}: clock_freq_hz must be positive, not {clock_freq_hz}")
    for parameter, value in cycle_counts.items():
        if value < 0:
            raise ValueError(f"{name}: {parameter} must be non-negative, not {value}")
