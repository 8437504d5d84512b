"""Accelerator modules driven over the bus: register protocol, timing, errors."""

import pytest

from repro.apps.accelerators import (
    CMD_RESET,
    CMD_START,
    FirAccelerator,
    INBUF_OFFSET,
    REG_COEF_BASE,
    REG_CTRL,
    REG_JOBSIZE,
    REG_PARAM,
    REG_STATUS,
    STATUS_BUSY,
    STATUS_DONE,
    CryptoAccelerator,
    fir_filter,
    from_words,
    to_words,
)
from repro.bus import Bus
from repro.kernel import SimulationError, Simulator, us
from repro.tech import ASIC, VIRTEX2PRO
from tests.conftest import drive


def make_rig(sim, cls=FirAccelerator, **kwargs):
    bus = Bus("bus", sim=sim, clock_freq_hz=100e6)
    acc = cls("acc", sim=sim, base=0x4000, buffer_words=64, **kwargs)
    bus.register_slave(acc)
    return bus, acc


def run_job(bus, acc, inputs, param, coefs=None):
    base = acc.base
    if coefs:
        yield from bus.write(base + REG_COEF_BASE, to_words(coefs), master="cpu")
    yield from bus.write(base + REG_JOBSIZE, len(inputs), master="cpu")
    yield from bus.write(base + REG_PARAM, param, master="cpu")
    yield from bus.write(base + INBUF_OFFSET, to_words(inputs), master="cpu")
    yield from bus.write(base + REG_CTRL, CMD_START, master="cpu")
    while True:
        status = yield from bus.read(base + REG_STATUS, 1, master="cpu")
        if status[0] & STATUS_DONE:
            break
    out = yield from bus.read(
        base + INBUF_OFFSET + acc.buffer_words * 4, len(inputs), master="cpu"
    )
    return from_words(out)


class TestRegisterProtocol:
    def test_full_job_matches_golden(self, sim):
        bus, acc = make_rig(sim)
        inputs = [100, -50, 25, 300]
        coefs = [1 << 14, 1 << 13]

        def body():
            out = yield from run_job(bus, acc, inputs, 2, coefs)
            return out

        box = drive(sim, body)
        sim.run()
        assert box.value == fir_filter(inputs, coefs)
        assert acc.jobs_done == 1

    def test_status_transitions(self, sim):
        bus, acc = make_rig(sim)
        seen = {}

        def body():
            yield from bus.write(acc.base + REG_JOBSIZE, 4, master="cpu")
            yield from bus.write(acc.base + REG_PARAM, 1, master="cpu")
            yield from bus.write(acc.base + INBUF_OFFSET, [1, 2, 3, 4], master="cpu")
            yield from bus.write(acc.base + REG_CTRL, CMD_START, master="cpu")
            status = yield from bus.read(acc.base + REG_STATUS, 1, master="cpu")
            seen["during"] = status[0]
            yield us(50)
            status = yield from bus.read(acc.base + REG_STATUS, 1, master="cpu")
            seen["after"] = status[0]

        sim.spawn("p", body)
        sim.run()
        assert seen["during"] & STATUS_BUSY
        assert seen["after"] & STATUS_DONE

    def test_reset_clears_registers(self, sim):
        bus, acc = make_rig(sim)

        def body():
            yield from bus.write(acc.base + REG_JOBSIZE, 9, master="cpu")
            yield from bus.write(acc.base + REG_CTRL, CMD_RESET, master="cpu")
            size = yield from bus.read(acc.base + REG_JOBSIZE, 1, master="cpu")
            return size[0]

        box = drive(sim, body)
        sim.run()
        assert box.value == 0

    def test_register_readback(self, sim):
        bus, acc = make_rig(sim)

        def body():
            yield from bus.write(acc.base + REG_PARAM, 7, master="cpu")
            yield from bus.write(acc.base + REG_COEF_BASE + 8, 0x55, master="cpu")
            param = yield from bus.read(acc.base + REG_PARAM, 1, master="cpu")
            coef = yield from bus.read(acc.base + REG_COEF_BASE + 8, 1, master="cpu")
            ctrl = yield from bus.read(acc.base + REG_CTRL, 1, master="cpu")
            return param[0], coef[0], ctrl[0]

        box = drive(sim, body)
        sim.run()
        assert box.value == (7, 0x55, 0)


class TestErrors:
    def test_start_without_jobsize(self, sim):
        bus, acc = make_rig(sim)

        def body():
            yield from bus.write(acc.base + REG_CTRL, CMD_START, master="cpu")

        sim.spawn("p", body)
        with pytest.raises(Exception, match="invalid JOBSIZE"):
            sim.run()

    def test_unknown_command(self, sim):
        bus, acc = make_rig(sim)

        def body():
            yield from bus.write(acc.base + REG_CTRL, 99, master="cpu")

        sim.spawn("p", body)
        with pytest.raises(Exception, match="unknown CTRL command"):
            sim.run()

    def test_unmapped_offset(self, sim):
        bus, acc = make_rig(sim)

        def body():
            yield from bus.read(acc.base + 0x60, 1, master="cpu")  # hole

        sim.spawn("p", body)
        with pytest.raises(Exception, match="unmapped"):
            sim.run()

    def test_unaligned_address(self, sim):
        _, acc = make_rig(sim)

        def body():
            yield from acc.read(acc.base + 2)

        sim.spawn("p", body)
        with pytest.raises(Exception, match="unaligned"):
            sim.run()

    def test_constructor_validation(self, sim):
        with pytest.raises(SimulationError, match="aligned"):
            FirAccelerator("a", sim=sim, base=0x4002)
        with pytest.raises(SimulationError, match="buffer_words"):
            FirAccelerator("b", sim=sim, base=0x4000, buffer_words=0)


class TestTiming:
    def test_fabric_tech_slows_compute(self):
        durations = {}
        for tech in (ASIC, VIRTEX2PRO):
            sim = Simulator()
            bus, acc = make_rig(sim, tech=tech)

            def body():
                yield from run_job(bus, acc, [1] * 32, 8, [1 << 14] * 8)

            sim.spawn("p", body)
            sim.run()
            durations[tech.name] = acc.total_compute_time

        assert durations["virtex2pro"] > durations["asic"]

    def test_busy_idle_handshake(self, sim):
        bus, acc = make_rig(sim)
        idle_at = []

        def watcher():
            yield acc.idle_event
            idle_at.append(sim.now.to_ns())

        def body():
            yield from run_job(bus, acc, [1, 2], 1, [1 << 15])

        sim.spawn("watch", watcher)
        sim.spawn("p", body)
        sim.run()
        assert idle_at and not acc.busy

    def test_compute_sink_reports_interval(self, sim):
        bus, acc = make_rig(sim)
        intervals = []
        acc.compute_sink = lambda start, end: intervals.append((start, end))

        def body():
            yield from run_job(bus, acc, [1, 2, 3], 1, [1 << 15])

        sim.spawn("p", body)
        sim.run()
        assert len(intervals) == 1
        start, end = intervals[0]
        assert end > start


class TestEncoding:
    def test_word_conversion_roundtrip(self):
        values = [-1, 0, 1, -(2**31), 2**31 - 1]
        assert from_words(to_words(values)) == values

    def test_crypto_uses_unsigned_lanes(self, sim):
        bus, acc = make_rig(sim, cls=CryptoAccelerator)
        key = [9, 8, 7, 6]

        def body():
            out = yield from run_job(bus, acc, [123, 456], 0, key)
            return out

        box = drive(sim, body)
        sim.run()
        from repro.apps.accelerators import xtea_encrypt_block

        expected = xtea_encrypt_block(123, 456, key)
        got = [w & 0xFFFFFFFF for w in box.value]
        assert tuple(got) == expected
