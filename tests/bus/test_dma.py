"""DMA controller: copies, bursts, completion events, fetch-only mode."""

import pytest

from repro.bus import Bus, DmaController, DmaDescriptor, Memory
from repro.kernel import ns


def make_system(sim):
    bus = Bus("bus", sim=sim, clock_freq_hz=100e6)
    src = Memory("src", sim=sim, base=0x0000, size_words=256)
    dst = Memory("dst", sim=sim, base=0x4000, size_words=256)
    bus.register_slave(src)
    bus.register_slave(dst)
    dma = DmaController("dma", sim=sim)
    dma.mst_port.bind(bus)
    return bus, src, dst, dma


class TestDescriptor:
    def test_validation(self):
        with pytest.raises(ValueError):
            DmaDescriptor(src=0, dst=0x100, words=0)
        with pytest.raises(ValueError):
            DmaDescriptor(src=0, dst=0x100, words=4, burst=0)


class TestCopies:
    def test_memory_to_memory_copy(self, sim):
        bus, src, dst, dma = make_system(sim)
        src.poke(0, list(range(32)))
        done_times = []
        done = dma.submit(DmaDescriptor(src=0, dst=0x4000, words=32, burst=8))

        def watcher():
            yield done
            done_times.append(sim.now.to_ns())

        sim.spawn("w", watcher)
        sim.run()
        assert dst.peek(0x4000, 32) == list(range(32))
        assert done_times and done_times[0] > 0
        assert dma.jobs_completed == 1
        assert dma.words_moved == 32

    def test_fetch_only_descriptor(self, sim):
        bus, src, dst, dma = make_system(sim)
        dma.submit(DmaDescriptor(src=0, dst=None, words=16, tags=["config"]))
        sim.run()
        assert dma.words_moved == 16
        assert bus.monitor.words_by_tag("config") == 16
        # Nothing written anywhere.
        assert all(t.kind == "read" for t in bus.monitor.transactions)

    def test_burst_chopping_allows_interleaving(self, sim):
        bus, src, dst, dma = make_system(sim)
        dma.submit(DmaDescriptor(src=0, dst=0x4000, words=64, burst=4))
        cpu_done = []

        def cpu():
            yield ns(5)
            yield from bus.read(0x0000, 1, master="cpu")
            cpu_done.append(sim.now.to_ns())

        sim.spawn("cpu", cpu)
        sim.run()
        dma_end = max(t.completed_at for t in bus.monitor.transactions).to_ns()
        # The CPU read slotted between DMA bursts, well before the DMA end.
        assert cpu_done[0] < dma_end

    def test_multiple_jobs_fifo(self, sim):
        bus, src, dst, dma = make_system(sim)
        src.poke(0, [1, 2, 3, 4])
        dma.submit(DmaDescriptor(src=0, dst=0x4000, words=2))
        dma.submit(DmaDescriptor(src=8, dst=0x4008, words=2))
        assert dma.pending_jobs == 2
        sim.run()
        assert dma.jobs_completed == 2
        assert dst.peek(0x4000, 4) == [1, 2, 3, 4]

    def test_completed_at_stamped(self, sim):
        bus, src, dst, dma = make_system(sim)
        descriptor = DmaDescriptor(src=0, dst=0x4000, words=4)
        dma.submit(descriptor)
        sim.run()
        assert descriptor.completed_at is not None
        assert descriptor.completed_at.to_ns() > 0
