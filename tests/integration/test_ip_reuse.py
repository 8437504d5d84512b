"""The paper's industrial requirement: existing IP wraps without changes.

"Use of existing code-base and IP must be simple.  Co-simulation with
existing models must be possible without modifications."  The DRCF only
needs ``BusSlaveIf`` (with the two address methods) — so a stock
:class:`~repro.bus.Memory`, written with no knowledge of reconfiguration,
folds into a context unchanged, and behaves identically before and after.
"""

from repro.bus import Bus, ConfigMemory, Memory
from repro.core import Context, Drcf, context_parameters_for
from repro.kernel import Simulator
from repro.tech import VARICORE


def build(wrapped: bool):
    """Two scratchpad memories, either raw on the bus or folded in a DRCF."""
    sim = Simulator()
    bus = Bus("bus", sim=sim, clock_freq_hz=100e6, protocol="split")
    cfg = ConfigMemory("cfg", sim=sim, base=0x100000, size_words=1 << 18)
    bus.register_slave(cfg)
    mem_a = Memory("pad_a", sim=sim, base=0x1000, size_words=64)
    mem_b = Memory("pad_b", sim=sim, base=0x2000, size_words=64)
    if not wrapped:
        bus.register_slave(mem_a)
        bus.register_slave(mem_b)
        return sim, bus, (mem_a, mem_b), None
    contexts = [
        Context("pad_a", mem_a, context_parameters_for(VARICORE, 2000, 0x100000)),
        Context("pad_b", mem_b, context_parameters_for(VARICORE, 2000, 0x120000)),
    ]
    drcf = Drcf("drcf", sim=sim, contexts=contexts, tech=VARICORE)
    drcf.mst_port.bind(bus)
    bus.register_slave(drcf)
    return sim, bus, (mem_a, mem_b), drcf


def exercise(sim, bus):
    """A little program touching both scratchpads; returns the read log."""
    log = []

    def body():
        yield from bus.write(0x1000, [1, 2, 3], master="cpu")
        yield from bus.write(0x2000, [9, 8], master="cpu")
        a = yield from bus.read(0x1000, 3, master="cpu")
        b = yield from bus.read(0x2000, 2, master="cpu")
        log.append(("a", a))
        log.append(("b", b))

    sim.spawn("p", body)
    sim.run()
    return log


class TestUnmodifiedIpInDrcf:
    def test_stock_memory_wraps_without_changes(self):
        sim, bus, mems, drcf = build(wrapped=True)
        log = exercise(sim, bus)
        assert log == [("a", [1, 2, 3]), ("b", [9, 8])]
        # The wrapped IP's own state and counters behaved normally.
        assert mems[0].peek(0x1000, 3) == [1, 2, 3]
        assert mems[0].write_word_count == 3
        # And the DRCF accounted the switches around it.
        assert drcf.stats.total_switches == 4
        assert drcf.stats.total_config_words > 0

    def test_functionally_identical_to_unwrapped(self):
        _, bus_raw, _, _ = build(wrapped=False)
        sim_raw, bus_raw, _, _ = build(wrapped=False)
        raw_log = exercise(sim_raw, bus_raw)
        sim_wrapped, bus_wrapped, _, _ = build(wrapped=True)
        wrapped_log = exercise(sim_wrapped, bus_wrapped)
        assert raw_log == wrapped_log

    def test_no_busy_protocol_required(self):
        # Memory has no busy/idle handshake; the scheduler treats it as
        # always switchable (the optional-protocol design).
        sim, bus, mems, drcf = build(wrapped=True)
        exercise(sim, bus)
        assert not hasattr(mems[0], "busy")
