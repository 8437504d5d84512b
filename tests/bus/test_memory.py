"""Memory models: latency, bounds, sparse backing, config regions."""

import re
import sys
import zlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.bus.memory as memory_mod
from repro.bus import ConfigMemory, Memory, region_checksum
from repro.kernel import Module, SimulationError, Simulator
from tests.conftest import drive


class TestMemory:
    def test_address_range(self, sim):
        mem = Memory("m", sim=sim, base=0x100, size_words=16, word_bytes=4)
        assert mem.get_low_add() == 0x100
        assert mem.get_high_add() == 0x100 + 16 * 4 - 1

    def test_read_latency_model(self, sim):
        mem = Memory(
            "m", sim=sim, base=0, size_words=64,
            latency_cycles=3, cycles_per_word=2, clock_freq_hz=100e6,
        )

        def body():
            data = yield from mem.read(0, 4)
            return (data, sim.now.to_ns())

        box = drive(sim, body)
        sim.run()
        # 3 + (4-1)*2 = 9 cycles at 10 ns.
        assert box.value[1] == 90.0

    def test_write_read_roundtrip(self, sim):
        mem = Memory("m", sim=sim, base=0, size_words=64)

        def body():
            yield from mem.write(0x10, [5, 6])
            data = yield from mem.read(0x10, 2)
            return data

        box = drive(sim, body)
        sim.run()
        assert box.value == [5, 6]

    def test_uninitialized_reads_fill(self, sim):
        mem = Memory("m", sim=sim, base=0, size_words=8, fill=0xDEAD)
        assert mem.peek(0, 2) == [0xDEAD, 0xDEAD]

    def test_unaligned_access_rejected(self, sim):
        mem = Memory("m", sim=sim, base=0, size_words=8)
        with pytest.raises(SimulationError, match="unaligned"):
            mem.peek(2)

    def test_out_of_range_rejected(self, sim):
        mem = Memory("m", sim=sim, base=0, size_words=8)
        with pytest.raises(SimulationError, match="outside"):
            mem.peek(8 * 4)
        with pytest.raises(SimulationError, match="outside"):
            mem.poke(7 * 4, [1, 2])  # crosses the end

    def test_poke_peek_do_not_advance_time(self, sim):
        mem = Memory("m", sim=sim, base=0, size_words=8)
        mem.poke(0, [1, 2, 3])
        assert mem.peek(0, 3) == [1, 2, 3]
        assert sim.now.to_ns() == 0.0

    def test_word_counters(self, sim):
        mem = Memory("m", sim=sim, base=0, size_words=64)

        def body():
            yield from mem.write(0, [1, 2, 3])
            yield from mem.read(0, 2)

        sim.spawn("p", body)
        sim.run()
        assert mem.write_word_count == 3
        assert mem.read_word_count == 2

    def test_invalid_size(self, sim):
        with pytest.raises(ValueError, match="^m: memory size must be positive, not size_words=0$"):
            Memory("m", sim=sim, base=0, size_words=0)

    #: Parameter -> (a value no access could run with, the error after the
    #: memory's name).
    UNRUNNABLE = {
        "word_bytes": (0, "word_bytes must be positive, not 0"),
        "base": (2, "base 0x2 is not a multiple of word_bytes=4"),
        "latency_cycles": (-3, "latency_cycles must be non-negative, not -3"),
        "cycles_per_word": (-1, "cycles_per_word must be non-negative, not -1"),
        "clock_freq_hz": (0, "clock_freq_hz must be positive, not 0"),
    }

    @pytest.mark.parametrize("parameter", list(UNRUNNABLE))
    def test_unrunnable_parameter_fails_naming_the_memory(self, sim, parameter):
        value, message = self.UNRUNNABLE[parameter]
        top = Module("top", sim=sim)
        with pytest.raises(ValueError, match=re.escape(f"top.m: {message}")):
            Memory("m", parent=top, **{parameter: value})

    def test_zero_cycle_counts_and_an_aligned_base_are_accepted(self, sim):
        mem = Memory("m", sim=sim, base=8, word_bytes=8, latency_cycles=0, cycles_per_word=0)
        assert mem.get_low_add() == 8

    def test_sparse_backing_stays_small(self, sim):
        mem = Memory("m", sim=sim, base=0, size_words=1 << 24)
        mem.poke(0, [1])
        assert mem.peek(4 * ((1 << 24) - 1024), 1024) == [0] * 1024
        assert len(mem._pages) == 1  # one written page; reads allocate nothing


#: Pages of the property test's memory (1,024 words each).
PAGES = 6


class TestPagedLoad:
    @given(
        st.integers(0, PAGES * 1024 - 1),
        st.integers(1, 3 * 1024),
        st.sets(st.integers(0, PAGES - 1)),
        st.integers(0, 1023),
        st.sampled_from([0, 0xDEAD]),
    )
    @settings(deadline=None)
    def test_spans_match_a_per_word_reference(self, start, count, written, offset, fill):
        """Spans that cross page boundaries, over no, some or all written
        pages, read as the word-by-word reference: written words as
        written, every other word as the fill.  A written page holds data
        in its first ``offset + 1`` words."""
        mem = Memory("m", sim=Simulator(), base=0x400, size_words=PAGES * 1024, fill=fill)
        reference = {}
        for page in written:
            first = page * 1024
            words = list(range(first + 1, first + offset + 2))
            mem.poke(0x400 + 4 * first, words)
            reference.update(zip(range(first, first + offset + 1), words))
        count = min(count, PAGES * 1024 - start)
        expected = [reference.get(i, fill) for i in range(start, start + count)]
        assert mem._load(start, count) == expected
        assert mem.peek(0x400 + 4 * start, count) == expected


class TestConfigMemory:
    def test_region_registration_and_lookup(self, sim):
        mem = ConfigMemory("cfg", sim=sim, base=0x1000, size_words=1024)
        mem.register_context_region("fir", 0x1000, 256)
        mem.register_context_region("fft", 0x1100, 512)
        assert mem.region_of("fir") == (0x1000, 256)
        assert mem.context_for_address(0x1000) == "fir"
        assert mem.context_for_address(0x1100 + 511) == "fft"
        assert mem.context_for_address(0x1100 + 512) is None

    def test_region_outside_memory_rejected(self, sim):
        mem = ConfigMemory("cfg", sim=sim, base=0, size_words=16)
        with pytest.raises(SimulationError, match="outside"):
            mem.register_context_region("big", 0, 1 << 20)

    def test_unknown_region(self, sim):
        mem = ConfigMemory("cfg", sim=sim, base=0, size_words=16)
        with pytest.raises(KeyError):
            mem.region_of("nope")

    def test_scrub_reports_no_repair_when_no_word_changed(self, sim):
        mem = ConfigMemory("cfg", sim=sim, base=0, size_words=1024)
        mem.register_context_region("fir", 0, 256)
        mem.poke(0x10, [0])  # writes the fill value: the content is unchanged
        assert mem.region_is_clean("fir")
        assert mem.scrub_region("fir") is False

    def test_scrub_restores_only_the_region(self, sim):
        # Region "a" covers words [960, 1088): it straddles the first page
        # boundary and shares page 0 with words outside it.
        mem = ConfigMemory("cfg", sim=sim, base=0, size_words=4096)
        mem.poke(0x0FF8, [1, 2, 3, 4])  # words 1022..1025, before registration
        mem.register_context_region("a", 0x0F00, 0x200)
        image = mem.peek(0x0F00, 0x80)
        mem.poke(0x0E00, [5])  # outside the region, same page
        mem.poke(0x0F00, [9, 9])
        mem.poke(0x0FFC, [0, 0])
        mem.corrupt_region("a", [0x80 * 32 - 1])
        assert not mem.region_is_clean("a")
        assert mem.scrub_region("a") is True
        assert mem.peek(0x0F00, 0x80) == image
        assert mem.region_is_clean("a")
        assert mem.peek(0x0E00) == [5]
        assert mem.scrub_region("a") is False

    def test_a_region_is_touched_by_every_burst_overlapping_it(self, sim):
        mem = ConfigMemory("cfg", sim=sim, base=0, size_words=1024)
        mem.register_context_region("a", 0x100, 0x100)
        mem.register_context_region("b", 0x208, 0x10)
        assert mem.context_for_burst(0xF0, 4) is None  # ends at 0xFF
        assert mem.context_for_burst(0xF0, 8) == "a"  # straddles a's start
        assert mem.context_for_burst(0x1FC, 8) == "a"  # its first word is in a
        assert mem.context_for_burst(0x200, 8) == "b"


class TestWideWords:
    """A memory checksums its regions at its own word width."""

    def test_a_flip_above_bit_31_of_a_wide_word_is_caught(self, sim):
        mem = ConfigMemory("cfg", sim=sim, base=0, size_words=1024, word_bytes=8)
        mem.poke(0, list(range(1, 101)))
        mem.register_context_region("ctx", 0, 800)
        mem.corrupt_region("ctx", [40])
        assert not mem.region_is_clean("ctx")
        assert mem.scrub_region("ctx")
        assert mem.region_is_clean("ctx")
        mem.corrupt_region("ctx", [3])
        assert not mem.region_is_clean("ctx")

    def test_an_unwritten_wide_region_hashes_its_zero_bytes(self, sim):
        mem = ConfigMemory("cfg", sim=sim, base=0, size_words=1024, word_bytes=8)
        mem.register_context_region("ctx", 0, 800)
        assert mem.checksum_of("ctx") == zlib.crc32(bytes(800))

    @pytest.mark.parametrize("word_bytes", [1, 2, 3, 4, 8, 16])
    def test_words_are_packed_at_the_given_width(self, word_bytes):
        top = (1 << 8 * word_bytes) - 1
        words = [1, top, 0x5A]
        packed = b"".join(word.to_bytes(word_bytes, sys.byteorder) for word in words)
        assert region_checksum(words, word_bytes) == zlib.crc32(packed)
        assert region_checksum([0] * 3, word_bytes) == zlib.crc32(bytes(3 * word_bytes))
        # A word wider than the width counts as its low bits.
        assert region_checksum([top + 1 + 7], word_bytes) == region_checksum([7], word_bytes)


class TestRegionChecksumInClosedForm:
    """An unwritten region with a zero fill hashes without reading a word."""

    def test_unwritten_region(self, sim):
        mem = ConfigMemory("cfg", sim=sim, base=0, size_words=4096)
        with mock.patch.object(memory_mod, "region_checksum", wraps=region_checksum) as spy:
            mem.register_context_region("a", 0x400, 4 * 1500 - 2)  # a partial last word
        assert spy.call_count == 0
        assert mem.checksum_of("a") == region_checksum([0] * 1500)

    @pytest.mark.parametrize(
        "fill, poke, hashed",
        [(0, 0x1800, 1), (0, 0x1FFC, 1), (7, None, 1), (0, 0x3000, 0)],
        ids=["written", "last-word", "fill", "written-elsewhere"],
    )
    def test_regions_with_data_hash_their_words(self, sim, fill, poke, hashed):
        """Region [0x1000, 0x2000) is word page 1; a write anywhere in its
        page, or a nonzero fill, takes the word-by-word hash."""
        mem = ConfigMemory("cfg", sim=sim, base=0, size_words=4096, fill=fill)
        if poke is not None:
            mem.poke(poke, [5])
        with mock.patch.object(memory_mod, "region_checksum", wraps=region_checksum) as spy:
            mem.register_context_region("a", 0x1000, 0x1000)
        assert spy.call_count == hashed
        assert mem.checksum_of("a") == region_checksum(mem.peek(0x1000, 0x400))

    def test_registration_still_validates_the_region(self, sim):
        mem = ConfigMemory("cfg", sim=sim, base=0, size_words=16)
        with pytest.raises(SimulationError, match="unaligned"):
            mem.register_context_region("a", 0x2, 8)
