"""Streaming (bus-master) accelerators, standalone and inside a DRCF."""

from repro.apps.accelerators import (
    CMD_START,
    REG_CTRL,
    REG_DST,
    REG_JOBSIZE,
    REG_PARAM,
    REG_SRC,
    REG_STATUS,
    REG_COEF_BASE,
    STATUS_DONE,
    StreamingFirAccelerator,
    fir_filter,
    to_words,
)
from repro.bus import Bus, ConfigMemory, Memory
from repro.core import Context, Drcf, context_parameters_for
from repro.kernel import Simulator
from repro.tech import MORPHOSYS

SRC = 0x0100
DST = 0x0800
SAMPLES = [500, -200, 350, 125, -75, 60, 10, -20]
COEFS = [1 << 14, 1 << 13]


def build(wrapped: bool):
    sim = Simulator()
    bus = Bus("bus", sim=sim, clock_freq_hz=100e6, protocol="split")
    mem = Memory("mem", sim=sim, base=0, size_words=1024)
    bus.register_slave(mem)
    acc = StreamingFirAccelerator("sfir", sim=sim, base=0x4000, buffer_words=64)
    if wrapped:
        cfg = ConfigMemory("cfg", sim=sim, base=0x100000, size_words=1 << 16)
        bus.register_slave(cfg)
        params = context_parameters_for(MORPHOSYS, acc.gates, 0x100000)
        cfg.register_context_region("sfir", params.config_addr, params.size_bytes)
        drcf = Drcf(
            "drcf", sim=sim,
            contexts=[Context("sfir", acc, params, gates=acc.gates)],
            tech=MORPHOSYS,
        )
        drcf.mst_port.bind(bus)
        bus.register_slave(drcf)
        acc.mst_port.bind(drcf.mst_port)  # the paper's generated binding
    else:
        acc.mst_port.bind(bus)
        bus.register_slave(acc)
    mem.poke(SRC, to_words(SAMPLES))
    return sim, bus, mem, acc


def drive_job(bus, base):
    yield from bus.write(base + REG_SRC, SRC, master="cpu")
    yield from bus.write(base + REG_DST, DST, master="cpu")
    yield from bus.write(base + REG_COEF_BASE, to_words(COEFS), master="cpu")
    yield from bus.write(base + REG_JOBSIZE, len(SAMPLES), master="cpu")
    yield from bus.write(base + REG_PARAM, len(COEFS), master="cpu")
    yield from bus.write(base + REG_CTRL, CMD_START, master="cpu")
    while True:
        status = yield from bus.read(base + REG_STATUS, 1, master="cpu")
        if status[0] & STATUS_DONE:
            break


class TestStandalone:
    def test_streams_compute_and_store(self):
        sim, bus, mem, acc = build(wrapped=False)

        def body():
            yield from drive_job(bus, 0x4000)

        sim.spawn("cpu", body)
        sim.run()
        expected = to_words(fir_filter(SAMPLES, COEFS))
        assert mem.peek(DST, len(SAMPLES)) == expected
        assert acc.words_streamed == 2 * len(SAMPLES)
        assert acc.jobs_done == 1

    def test_master_traffic_tagged(self):
        sim, bus, mem, acc = build(wrapped=False)

        def body():
            yield from drive_job(bus, 0x4000)

        sim.spawn("cpu", body)
        sim.run()
        assert bus.monitor.words_by_tag("stream") == 2 * len(SAMPLES)

    def test_src_dst_registers_readback(self):
        sim, bus, mem, acc = build(wrapped=False)
        out = {}

        def body():
            yield from bus.write(0x4000 + REG_SRC, 0xAA0, master="cpu")
            data = yield from bus.read(0x4000 + REG_SRC, 1, master="cpu")
            out["src"] = data[0]

        sim.spawn("cpu", body)
        sim.run()
        assert out["src"] == 0xAA0


class TestInsideDrcf:
    def test_master_traffic_rides_the_fabric_port(self):
        sim, bus, mem, acc = build(wrapped=True)

        def body():
            yield from drive_job(bus, 0x4000)

        sim.spawn("cpu", body)
        sim.run()
        expected = to_words(fir_filter(SAMPLES, COEFS))
        assert mem.peek(DST, len(SAMPLES)) == expected
        # The stream transactions are attributed to the accelerator (whose
        # port chains through the DRCF), distinct from config traffic.
        assert bus.monitor.words_by_tag("stream") == 2 * len(SAMPLES)
        assert bus.monitor.words_by_tag("config") > 0
        masters = bus.monitor.words_by_master()
        assert any("sfir" in master for master in masters)

    def test_busy_handshake_blocks_switch_during_stream(self):
        sim, bus, mem, acc = build(wrapped=True)
        # While streaming, the module is busy; the scheduler protocol sees
        # the flag exactly as with buffer-fed accelerators.
        seen = {}

        def body():
            yield from bus.write(0x4000 + REG_SRC, SRC, master="cpu")
            yield from bus.write(0x4000 + REG_DST, DST, master="cpu")
            yield from bus.write(0x4000 + REG_COEF_BASE, to_words(COEFS), master="cpu")
            yield from bus.write(0x4000 + REG_JOBSIZE, len(SAMPLES), master="cpu")
            yield from bus.write(0x4000 + REG_PARAM, len(COEFS), master="cpu")
            yield from bus.write(0x4000 + REG_CTRL, CMD_START, master="cpu")
            seen["busy_after_start"] = acc.busy
            while True:
                status = yield from bus.read(0x4000 + REG_STATUS, 1, master="cpu")
                if status[0] & STATUS_DONE:
                    break

        sim.spawn("cpu", body)
        sim.run()
        assert seen["busy_after_start"]
        assert not acc.busy
