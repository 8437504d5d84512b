"""Hardware-accelerator base model.

These are the ``hwacc`` modules of the paper's example: bus slaves with an
address range advertised through ``get_low_add``/``get_high_add`` and a
register + buffer map, driven by software over the bus:

======================  =======================================================
offset (from base)      register
======================  =======================================================
``0x00``                CTRL (write 1 = START, write 2 = SOFT RESET)
``0x04``                STATUS (bit0 DONE, bit1 BUSY; read clears nothing)
``0x08``                JOBSIZE (number of input words to process)
``0x0c``                PARAM (algorithm-specific scalar, e.g. FFT points)
``0x10``–``0x4f``       COEF[0..15] (coefficients/keys)
``0x100``…              input buffer (``buffer_words`` words)
``0x100 + 4·buffer``…   output buffer (``buffer_words`` words)
======================  =======================================================

An accelerator is *functional and timed*: a START command launches an
internal thread that computes the subclass's golden function bit-exactly
(:meth:`compute`) and consumes the time given by the subclass's cycle model
(:meth:`job_cycles`) mapped through the implementation technology
(Section 5.5 issue 1 — the same block is slower on a fine-grain fabric than
as dedicated logic).  While computing, ``busy`` is set and ``idle_event``
fires on completion; the DRCF scheduler honours this handshake so a context
is never reconfigured away mid-computation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from ...bus import BusSlaveIf, normalize_write_data
from ...kernel import Event, Module, SimTime, SimulationError, ZERO_TIME
from ...tech import ASIC, ReconfigTechnology

#: Register word offsets.
REG_CTRL = 0x00
REG_STATUS = 0x04
REG_JOBSIZE = 0x08
REG_PARAM = 0x0C
REG_COEF_BASE = 0x10
N_COEFS = 16
#: Offset of the input buffer from the accelerator base address.
INBUF_OFFSET = 0x100

#: CTRL commands.
CMD_START = 1
CMD_RESET = 2

#: STATUS bits.
STATUS_DONE = 0x1
STATUS_BUSY = 0x2

_WORD_MASK = 0xFFFFFFFF


class Accelerator(Module, BusSlaveIf):
    """Base class for all accelerator IP blocks.

    Subclasses implement :meth:`compute` (the golden function over signed
    32-bit words) and :meth:`job_cycles` (the ASIC-reference cycle count),
    and may set :attr:`DEFAULT_GATES`.

    Parameters
    ----------
    base:
        Base address on the bus.
    buffer_words:
        Capacity of each of the input and output buffers.
    gates:
        Equivalent gate count (resource model; defaults to the class's
        ``DEFAULT_GATES``).
    tech:
        Implementation technology (timing derate + clock); dedicated ASIC
        by default, replaced by the fabric preset when mapped to a DRCF.
    access_cycles:
        Slave-side cycles to serve one register/buffer access.
    """

    DEFAULT_GATES = 10_000
    #: Human-readable algorithm name (overridden by subclasses).
    ALGORITHM = "generic"

    def __init__(
        self,
        name: str,
        parent: Optional[Module] = None,
        sim=None,
        *,
        base: int,
        buffer_words: int = 256,
        gates: Optional[int] = None,
        tech: ReconfigTechnology = ASIC,
        access_cycles: int = 1,
    ) -> None:
        super().__init__(name, parent=parent, sim=sim)
        if base % 4:
            raise SimulationError(f"{name}: base address must be word aligned")
        if buffer_words <= 0:
            raise SimulationError(f"{name}: buffer_words must be positive")
        self.base = base
        self.buffer_words = buffer_words
        self.gates = gates if gates is not None else self.DEFAULT_GATES
        self.tech = tech
        self.access_cycles = access_cycles
        # Register file.
        self._status = 0
        self._jobsize = 0
        self._param = 0
        self._coefs: List[int] = [0] * N_COEFS
        self._inbuf: List[int] = [0] * buffer_words
        self._outbuf: List[int] = [0] * buffer_words
        # Execution state.
        self.busy = False
        self.idle_event = Event(self.sim, f"{self.full_name}.idle")
        self._start_event = Event(self.sim, f"{self.full_name}.start")
        #: Optional hook set by a wrapping DRCF: ``sink(start, end)``.
        self.compute_sink = None
        #: Optional interrupt sink (see :meth:`connect_irq`).
        self.irq_sink = None
        self.irq_source = self.full_name
        # Statistics.
        self.jobs_done = 0
        self.total_compute_time: SimTime = ZERO_TIME
        self.add_thread(self._engine, name="engine", daemon=True)

    def connect_irq(self, controller, line: Optional[int] = None) -> int:
        """Route job completion to an interrupt controller line.

        Registers this accelerator as a source on ``controller`` (an
        :class:`~repro.bus.InterruptController`) and returns the line
        number.  Software can then sleep on
        ``controller.line_event(self.irq_source)`` instead of polling
        STATUS — removing the poll reads from the bus.
        """
        line = controller.register_source(self.irq_source, line)
        self.irq_sink = controller
        return line

    # -- subclass hooks ------------------------------------------------------
    def compute(self, inputs: List[int], param: int, coefs: List[int]) -> List[int]:
        """Golden function: signed-word inputs → signed-word outputs."""
        raise NotImplementedError

    def job_cycles(self, jobsize: int, param: int) -> int:
        """Cycle count of one job on dedicated (ASIC) logic."""
        raise NotImplementedError

    # -- address map ----------------------------------------------------------
    def get_low_add(self) -> int:
        return self.base

    def get_high_add(self) -> int:
        return self.base + INBUF_OFFSET + 2 * self.buffer_words * 4 - 1

    @property
    def inbuf_addr(self) -> int:
        """Bus address of the input buffer."""
        return self.base + INBUF_OFFSET

    @property
    def outbuf_addr(self) -> int:
        """Bus address of the output buffer."""
        return self.base + INBUF_OFFSET + self.buffer_words * 4

    # -- BusSlaveIf -----------------------------------------------------------
    def read(self, addr: int, count: int = 1):
        """Slave burst read (generator)."""
        yield self._access_time(count)
        offset = self._offset(addr)
        return [self._read_word(offset + 4 * i) for i in range(count)]

    def write(self, addr: int, data: Union[int, Sequence[int]]):
        """Slave burst write (generator)."""
        words = normalize_write_data(data)
        yield self._access_time(len(words))
        offset = self._offset(addr)
        for i, word in enumerate(words):
            self._write_word(offset + 4 * i, word & _WORD_MASK)
        return True

    def closed_read(self, addr: int, count: int, word_bytes: int):
        """The bus's closed-form read (:attr:`BusSlaveIf.closed_read`) of
        registers and buffers.  A read has no side effect and records
        nothing, and what it reads changes only on a bus write or at the
        engine's completion, a timed action, so not before the horizon.
        Unaligned and unmapped spans decline: their reads raise.  A
        subclass whose reads have side effects sets ``closed_read = None``."""
        offset = addr - self.base
        end = offset + 4 * count
        if word_bytes != 4 or offset % 4 or not (
            0 <= offset and end <= REG_COEF_BASE + 4 * N_COEFS
            or INBUF_OFFSET <= offset and end <= INBUF_OFFSET + 8 * self.buffer_words
        ):
            return None
        return (
            lambda n: self._access_time(n).femtoseconds,
            lambda n: [self._read_word(offset + 4 * i) for i in range(n)],
            _records_nothing,
        )

    def _access_time(self, words: int) -> SimTime:
        return self.tech.block_compute_time(self.access_cycles * words)

    def _offset(self, addr: int) -> int:
        if addr % 4:
            raise SimulationError(f"{self.full_name}: unaligned access {addr:#x}")
        offset = addr - self.base
        if offset < 0 or addr > self.get_high_add():
            raise SimulationError(
                f"{self.full_name}: access {addr:#x} outside "
                f"[{self.get_low_add():#x}, {self.get_high_add():#x}]"
            )
        return offset

    def _read_word(self, offset: int) -> int:
        if offset == REG_CTRL:
            return 0
        if offset == REG_STATUS:
            return self._status
        if offset == REG_JOBSIZE:
            return self._jobsize
        if offset == REG_PARAM:
            return self._param
        if REG_COEF_BASE <= offset < REG_COEF_BASE + 4 * N_COEFS:
            return self._coefs[(offset - REG_COEF_BASE) // 4]
        index = (offset - INBUF_OFFSET) // 4
        if 0 <= index < self.buffer_words:
            return self._inbuf[index]
        index -= self.buffer_words
        if 0 <= index < self.buffer_words:
            return self._outbuf[index]
        raise SimulationError(f"{self.full_name}: read from unmapped offset {offset:#x}")

    def _write_word(self, offset: int, word: int) -> None:
        if offset == REG_CTRL:
            self._command(word)
        elif offset == REG_JOBSIZE:
            self._jobsize = word
        elif offset == REG_PARAM:
            self._param = word
        elif REG_COEF_BASE <= offset < REG_COEF_BASE + 4 * N_COEFS:
            self._coefs[(offset - REG_COEF_BASE) // 4] = word
        elif offset == REG_STATUS:
            pass  # read-only; writes ignored like real status registers
        else:
            index = (offset - INBUF_OFFSET) // 4
            if 0 <= index < self.buffer_words:
                self._inbuf[index] = word
            else:
                index -= self.buffer_words
                if 0 <= index < self.buffer_words:
                    self._outbuf[index] = word
                else:
                    raise SimulationError(
                        f"{self.full_name}: write to unmapped offset {offset:#x}"
                    )

    def _command(self, word: int) -> None:
        if word == CMD_START:
            if self.busy:
                raise SimulationError(f"{self.full_name}: START while busy")
            if not 0 < self._jobsize <= self.buffer_words:
                raise SimulationError(
                    f"{self.full_name}: START with invalid JOBSIZE {self._jobsize}"
                )
            self._status = STATUS_BUSY
            self.busy = True
            self._start_event.notify()
        elif word == CMD_RESET:
            if self.busy:
                raise SimulationError(f"{self.full_name}: RESET while busy")
            self._status = 0
            self._jobsize = 0
            self._param = 0
        else:
            raise SimulationError(f"{self.full_name}: unknown CTRL command {word}")

    # -- the compute engine ----------------------------------------------------
    def _engine(self):
        while True:
            yield self._start_event
            start = self.sim.now
            inputs = [_to_signed(w) for w in self._inbuf[: self._jobsize]]
            outputs = self.compute(inputs, self._param, [_to_signed(c) for c in self._coefs])
            if len(outputs) > self.buffer_words:
                raise SimulationError(
                    f"{self.full_name}: compute produced {len(outputs)} words, "
                    f"buffer holds {self.buffer_words}"
                )
            duration = self.tech.block_compute_time(
                self.job_cycles(self._jobsize, self._param)
            )
            if duration > ZERO_TIME:
                yield duration
            for i, value in enumerate(outputs):
                self._outbuf[i] = value & _WORD_MASK
            end = self.sim.now
            self.jobs_done += 1
            self.total_compute_time = self.total_compute_time + (end - start)
            if self.compute_sink is not None:
                self.compute_sink(start, end)
            self.busy = False
            self._status = STATUS_DONE
            self.idle_event.notify()
            if self.irq_sink is not None:
                self.irq_sink.raise_irq(self.irq_source)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.full_name!r}, base={self.base:#x}, "
            f"tech={self.tech.name})"
        )


def _records_nothing(reads: int, n: int, start_fs: int, period_fs: int) -> None:
    """An accelerator's reads keep no per-call records."""


def _to_signed(word: int) -> int:
    """Reinterpret a 32-bit unsigned word as signed."""
    word &= _WORD_MASK
    return word - (1 << 32) if word & 0x80000000 else word


def to_words(values: Sequence[int]) -> List[int]:
    """Encode signed integers as 32-bit bus words (two's complement)."""
    return [v & _WORD_MASK for v in values]


def from_words(words: Sequence[int]) -> List[int]:
    """Decode 32-bit bus words to signed integers."""
    return [_to_signed(w) for w in words]
