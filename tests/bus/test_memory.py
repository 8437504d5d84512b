"""Memory models: latency, bounds, sparse backing, config regions."""

import pytest

from repro.bus import ConfigMemory, Memory
from repro.kernel import SimulationError, ns
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
        with pytest.raises(ValueError):
            Memory("m", sim=sim, base=0, size_words=0)

    def test_sparse_backing_stays_small(self, sim):
        mem = Memory("m", sim=sim, base=0, size_words=1 << 24)
        mem.poke(0, [1])
        assert mem.peek(4 * ((1 << 24) - 1024), 1024) == [0] * 1024
        assert len(mem._pages) == 1  # one written page; reads allocate nothing


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
