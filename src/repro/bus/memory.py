"""Memory models.

:class:`Memory` is a bus slave with first-access latency and per-word
streaming cycles.  The paper's context scheduler "generate[s] proper data
reads in to the memory space that holds the required context" — those
reads land here and their cost is what experiment A3 varies.

The backing store is paged and sparse: words live in fixed 1024-word pages
allocated on the first write that touches them, and unwritten spans read
as the fill word, so a multi-megabyte configuration memory costs nothing
until written and a burst read or :meth:`Memory.peek` is one or two list
slices.  Every store mutation (bus write, :meth:`Memory.poke`, upset
injection, scrub repair) goes through one helper that bumps the memory's
write :attr:`~Memory.generation`.

A burst read (:meth:`Memory.read`) validates the burst, waits its
first-access-plus-streaming time and then takes the words, through the
fault hook when one is armed.  The bus's closed forms read through
:meth:`Memory.closed_read` instead, which takes all the booked words as
one slice, but only while ``_read_filter_idle`` says a read would return
them as stored: no fault hook, or one whose predicate promises to pass
them unchanged.

:class:`ConfigMemory` is a :class:`Memory` that additionally knows which
address ranges hold which configuration bitstreams, so reads from a context
region can be asserted against in tests.  Its integrity verdict
(:meth:`ConfigMemory.region_is_clean`) compares the region's CRC-32
(:func:`region_checksum`) with the one taken at registration.  The verdict
is memoized per region against the write generation, so a region is
re-hashed only after the store changed, and a region no write ever touched
takes the memoized CRC of its size in zero words.  A fault hook's
transient read errors hit every burst that overlaps a region
(:meth:`ConfigMemory.context_for_burst`).
"""

from __future__ import annotations

import sys
import zlib
from array import array
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..kernel import Module, SimTime, SimulationError, cycles_to_time
from .interfaces import BusSlaveIf, check_timing, normalize_write_data

#: Sparse-store page size (words); pages are allocated on first write.
_PAGE_BITS = 10
_PAGE_WORDS = 1 << _PAGE_BITS
_PAGE_MASK = _PAGE_WORDS - 1


#: The ``array`` type code of each word width it packs natively.
_TYPECODES = {array(code).itemsize: code for code in "BHIQ"}


@lru_cache(maxsize=None)
def _zero_checksum(n_words: int, word_bytes: int) -> int:
    """:func:`region_checksum` of ``n_words`` zero words, once per size
    and width."""
    return zlib.crc32(bytes(word_bytes * n_words))


def region_checksum(words, word_bytes: int = 4) -> int:
    """CRC-32 over a word sequence: the bitstream integrity check.

    Each word is packed as a native-order unsigned integer of
    ``word_bytes`` bytes (``array("I")`` for the default 4) and the bytes
    are hashed by ``zlib.crc32``, which detects every 1- and 2-bit error
    and every error burst of up to 32 bits.  A word outside the width
    counts as its low ``8 * word_bytes`` bits.  An all-zero sequence (an
    unwritten bitstream) takes the memoized CRC of its size.
    """
    size = len(words)
    if words.count(0) == size:
        return _zero_checksum(size, word_bytes)
    code = _TYPECODES.get(word_bytes)
    if code is not None:
        try:
            return zlib.crc32(array(code, words))
        except OverflowError:
            pass
    mask = (1 << 8 * word_bytes) - 1
    packed = b"".join((word & mask).to_bytes(word_bytes, sys.byteorder) for word in words)
    return zlib.crc32(packed)


def _page_spans(index: int, end: int) -> Iterator[Tuple[int, int, int]]:
    """``(page number, offset, length)`` of each page's share of ``[index, end)``."""
    while index < end:
        offset = index & _PAGE_MASK
        take = min(end - index, _PAGE_WORDS - offset)
        yield index >> _PAGE_BITS, offset, take
        index += take


class Memory(Module, BusSlaveIf):
    """A latency-modelled RAM bus slave.

    Parameters
    ----------
    base, size_words:
        Decoded address range is ``[base, base + size_words*word_bytes)``;
        ``base`` must be a multiple of ``word_bytes``.
    word_bytes:
        Addressing granularity (must match the bus word for simple systems).
    latency_cycles:
        Cycles before the first word of a burst is available.
    cycles_per_word:
        Additional cycles for each subsequent word of a burst.
    clock_freq_hz:
        Memory clock used to convert cycles to time.
    fill:
        The value every word reads as until it is written.

    A fault injector (:mod:`repro.faults`) may set :attr:`fault_hook`; the
    hook's ``on_memory_read`` then filters every burst read's data (modeling
    transient bus/storage errors).  The attribute is ``None`` by default and
    the read path pays a single ``is None`` test for it — arming faults is
    strictly opt-in and costs nothing when disarmed.

    The bus's closed forms read through :meth:`closed_read` and never call
    :meth:`read`, so a subclass that overrides :meth:`read` must also
    override :meth:`closed_read` or set ``closed_read = None``.
    """

    #: Optional read-path fault filter (class default: disarmed).
    fault_hook = None

    def __init__(
        self,
        name: str,
        parent: Optional[Module] = None,
        sim=None,
        *,
        base: int = 0,
        size_words: int = 1024,
        word_bytes: int = 4,
        latency_cycles: int = 2,
        cycles_per_word: int = 1,
        clock_freq_hz: float = 100e6,
        fill: int = 0,
    ) -> None:
        super().__init__(name, parent=parent, sim=sim)
        if size_words <= 0:
            raise ValueError(
                f"{self.full_name}: memory size must be positive, not size_words={size_words}"
            )
        if word_bytes <= 0:
            raise ValueError(f"{self.full_name}: word_bytes must be positive, not {word_bytes}")
        if base % word_bytes:
            raise ValueError(
                f"{self.full_name}: base {base:#x} is not a multiple of word_bytes={word_bytes}, "
                "so no word could be reached"
            )
        check_timing(
            self.full_name,
            clock_freq_hz,
            latency_cycles=latency_cycles,
            cycles_per_word=cycles_per_word,
        )
        self.base = base
        self.size_words = size_words
        self.word_bytes = word_bytes
        self.latency_cycles = latency_cycles
        self.cycles_per_word = cycles_per_word
        self.clock_freq_hz = clock_freq_hz
        self.fill = fill
        #: Page number -> its words; only pages something was written to.
        self._pages: Dict[int, List[int]] = {}
        #: Write generation: bumped by every store mutation.
        self.generation = 0
        self.read_word_count = 0
        self.write_word_count = 0

    # -- BusSlaveIf ----------------------------------------------------------
    def get_low_add(self) -> int:
        return self.base

    def get_high_add(self) -> int:
        return self.base + self.size_words * self.word_bytes - 1

    def _burst_time(self, count: int) -> SimTime:
        """A ``count``-word burst's first access plus its streaming."""
        return cycles_to_time(
            self.latency_cycles + (count - 1) * self.cycles_per_word, self.clock_freq_hz
        )

    def read(self, addr: int, count: int = 1):
        """Burst read (generator); returns ``count`` words.

        The words are taken when the burst's time has passed, through the
        fault hook when one is armed.
        """
        index = self._index(addr, count)
        yield self._burst_time(count)
        self.read_word_count += count
        data = self._load(index, count)
        hook = self.fault_hook
        if hook is not None:
            data = hook.on_memory_read(self, addr, count, data)
        return data

    def _read_filter_idle(self, addr: int, count: int) -> bool:
        """Would :meth:`read` return every burst of the ``count`` words
        from ``addr`` as stored, with no effect but the read count?

        True with no fault hook, or when the hook's
        ``passes_reads_unchanged(memory, addr, count)`` promises that
        ``on_memory_read`` returns each such burst unchanged, with no
        random draw and no log entry; a hook without that predicate keeps
        every burst on :meth:`read`.
        """
        hook = self.fault_hook
        if hook is None:
            return True
        passes = getattr(hook, "passes_reads_unchanged", None)
        return passes is not None and passes(self, addr, count)

    def closed_read(self, addr: int, count: int, word_bytes: int):
        """The bus's closed-form read (:attr:`BusSlaveIf.closed_read`):
        bursts and single words of this memory's own word size, while
        :meth:`_read_filter_idle` holds.  Nothing else changes the store
        before the horizon: writes and upsets come from processes and
        timed actions.  A read records only its words in
        :attr:`read_word_count`."""
        if word_bytes != self.word_bytes or addr % word_bytes:
            return None
        index = (addr - self.base) // word_bytes
        if index < 0 or index + count > self.size_words or not self._read_filter_idle(addr, count):
            return None

        def book(reads: int, n: int, start_fs: int, period_fs: int) -> None:
            self.read_word_count += reads * n

        return (
            lambda n: self._burst_time(n).femtoseconds,
            lambda n: self._load(index, n),
            book,
        )

    def write(self, addr: int, data: Union[int, Sequence[int]]):
        """Burst write (generator); returns True."""
        words = normalize_write_data(data)
        index = self._index(addr, len(words))
        yield self._burst_time(len(words))
        self._commit(index, words)
        self.write_word_count += len(words)
        return True

    # -- zero-time backdoor (test benches, loaders) --------------------------------
    def poke(self, addr: int, data: Union[int, Sequence[int]]) -> None:
        """Write words without consuming simulated time (test-bench backdoor)."""
        words = normalize_write_data(data)
        self._commit(self._index(addr, len(words)), words)

    def peek(self, addr: int, count: int = 1) -> List[int]:
        """Read words without consuming simulated time (test-bench backdoor)."""
        return self._load(self._index(addr, count), count)

    # -- the paged store ------------------------------------------------------------
    def _load(self, index: int, count: int) -> List[int]:
        """A fresh list of the ``count`` words from word ``index`` on."""
        pages = self._pages
        offset = index & _PAGE_MASK
        if offset + count <= _PAGE_WORDS:  # one page: the common burst
            page = pages.get(index >> _PAGE_BITS)
            return [self.fill] * count if page is None else page[offset:offset + count]
        first, last = index >> _PAGE_BITS, (index + count - 1) >> _PAGE_BITS
        if not any(page_no in pages for page_no in range(first, last + 1)):
            return [self.fill] * count  # nothing was ever written to the span
        words: List[int] = []
        for page_no, offset, take in _page_spans(index, index + count):
            page = pages.get(page_no)
            words += [self.fill] * take if page is None else page[offset:offset + take]
        return words

    def _commit(self, index: int, words: Sequence[int]) -> None:
        """Store ``words`` from word ``index`` on: the one mutation path."""
        self.generation += 1
        done = 0
        for page_no, offset, take in _page_spans(index, index + len(words)):
            page = self._pages.get(page_no)
            if page is None:
                page = self._pages[page_no] = [self.fill] * _PAGE_WORDS
            page[offset:offset + take] = words[done:done + take]
            done += take

    def _index(self, addr: int, count: int) -> int:
        if addr % self.word_bytes:
            raise SimulationError(
                f"{self.full_name}: unaligned access at {addr:#x} (word={self.word_bytes})"
            )
        index = (addr - self.base) // self.word_bytes
        if index < 0 or index + count > self.size_words:
            raise SimulationError(
                f"{self.full_name}: access [{addr:#x} +{count}w] outside "
                f"[{self.get_low_add():#x}, {self.get_high_add():#x}]"
            )
        return index


class ConfigMemory(Memory):
    """A memory that records named configuration (context) regions.

    The DRCF's context parameters point into this memory; registering the
    region here lets tests assert that context-switch traffic actually
    targeted the right bitstream bytes.

    For integrity modeling (fine-grain devices CRC-check each configuration
    frame), each region records a checksum of its content at registration
    time; :meth:`corrupt_region` models persistent upsets of the stored
    bitstream and :meth:`scrub_region` repairs them from the golden image.
    Transient read errors come from a :class:`Memory` fault hook, which
    finds the region a burst touches with :meth:`context_for_burst`.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._regions: Dict[str, Tuple[int, int]] = {}
        self._checksums: Dict[str, int] = {}
        #: Golden image of each region at registration time, for scrubbing
        #: repairs: copies of the pages that existed then (page number ->
        #: words); a page absent here held only fill words.
        self._golden: Dict[str, Dict[int, List[int]]] = {}
        #: Memoized :meth:`region_is_clean` verdict: (generation, clean).
        self._verdicts: Dict[str, Tuple[int, bool]] = {}
        #: Bits flipped by :meth:`corrupt_region`.
        self.injected_errors = 0

    def register_context_region(self, context_name: str, addr: int, size_bytes: int) -> None:
        """Declare that ``context_name``'s bitstream lives at ``[addr, addr+size)``."""
        if addr < self.get_low_add() or addr + size_bytes - 1 > self.get_high_add():
            raise SimulationError(
                f"context region {context_name!r} [{addr:#x} +{size_bytes}B] outside "
                f"{self.full_name}"
            )
        self._regions[context_name] = (addr, size_bytes)
        self._checksums[context_name] = self._compute_checksum(addr, size_bytes)
        lo, hi = self._region_indices(addr, size_bytes)
        self._golden[context_name] = {
            page_no: list(self._pages[page_no])
            for page_no, _, _ in _page_spans(lo, hi)
            if page_no in self._pages
        }
        self._verdicts[context_name] = (self.generation, True)

    def _region_indices(self, addr: int, size_bytes: int) -> Tuple[int, int]:
        """Half-open word-index range of a byte region."""
        lo = (addr - self.base) // self.word_bytes
        return lo, lo + max(1, -(-size_bytes // self.word_bytes))

    def _known_region(self, context_name: str) -> Tuple[int, int]:
        """Half-open word-index range of a registered region."""
        if context_name not in self._regions:
            raise SimulationError(
                f"{self.full_name}: unknown context region {context_name!r}"
            )
        return self._region_indices(*self._regions[context_name])

    def _compute_checksum(self, addr: int, size_bytes: int) -> int:
        words = max(1, -(-size_bytes // self.word_bytes))
        index = self._index(addr, words)
        first, last = index >> _PAGE_BITS, (index + words - 1) >> _PAGE_BITS
        if self.fill == 0 and not any(first <= page_no <= last for page_no in self._pages):
            return _zero_checksum(words, self.word_bytes)  # never written: all zero words
        return region_checksum(self._load(index, words), self.word_bytes)

    def region_of(self, context_name: str) -> Tuple[int, int]:
        """The (address, size) registered for ``context_name``."""
        return self._regions[context_name]

    def checksum_of(self, context_name: str) -> int:
        """The checksum recorded for the region at registration time."""
        return self._checksums[context_name]

    def corrupt_region(self, context_name: str, bit_indices: Sequence[int]) -> None:
        """Flip the given absolute bit positions inside a context region.

        Models persistent configuration-memory upsets (SEUs in the bitstream
        store): the corruption stays until :meth:`scrub_region` repairs it.
        ``bit_indices`` are offsets from the region start; callers derive
        them from a seeded RNG so injections are reproducible.
        """
        lo, hi = self._known_region(context_name)
        if not bit_indices:
            raise ValueError("need at least one bit to flip")
        word_bits = self.word_bytes * 8
        for bit in bit_indices:
            if bit < 0 or bit >= (hi - lo) * word_bits:
                raise ValueError(
                    f"bit offset {bit} outside region {context_name!r} "
                    f"({(hi - lo) * word_bits} bits)"
                )
            index = lo + bit // word_bits
            flipped = self._load(index, 1)[0] ^ (1 << (bit % word_bits))
            self._commit(index, (flipped,))
            self.injected_errors += 1

    def scrub_region(self, context_name: str) -> bool:
        """Restore a region to its golden (registration-time) image.

        Returns True if any word actually changed — the signal a scrubbing
        pass uses to count repairs.  The restore itself is zero-time (the
        scrubber pays for detection with real bus reads; the repair write-
        back is modeled as instantaneous ECC correction).
        """
        lo, hi = self._known_region(context_name)
        golden = self._golden[context_name]
        repaired = False
        for page_no, offset, take in _page_spans(lo, hi):
            page = self._pages.get(page_no)
            if page is None:  # never written: still all fill, as at registration
                continue
            saved = golden.get(page_no)
            want = [self.fill] * take if saved is None else saved[offset:offset + take]
            if page[offset:offset + take] != want:
                self._commit((page_no << _PAGE_BITS) + offset, want)
                repaired = True
        return repaired

    def region_is_clean(self, context_name: str) -> bool:
        """Does the region's current content match its registered checksum?

        The verdict is memoized against the write generation: the region is
        re-hashed only when the store changed since the last verdict
        (registration seeds "clean").
        """
        generation, clean = self._verdicts[context_name]
        if generation != self.generation:
            addr, size_bytes = self._regions[context_name]
            clean = self._compute_checksum(addr, size_bytes) == self._checksums[context_name]
            self._verdicts[context_name] = (self.generation, clean)
        return clean

    # Memory.read bound again in this class: its only reader is
    # perfbench/spans.py, which looks up each method it wraps in the
    # class's own ``__dict__``.
    read = Memory.read

    def context_for_address(self, addr: int) -> Optional[str]:
        """Which registered region (if any) contains ``addr``."""
        for name, (base, size) in self._regions.items():
            if base <= addr < base + size:
                return name
        return None

    def context_for_burst(self, addr: int, count: int) -> Optional[str]:
        """The region a ``count``-word burst from ``addr`` touches: the one
        holding its first word, else the first registered region it
        overlaps, else None."""
        region = self.context_for_address(addr)
        if region is not None:
            return region
        end = addr + count * self.word_bytes
        for name, (base, size) in self._regions.items():
            if addr < base + size and base < end:
                return name
        return None
