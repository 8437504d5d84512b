"""The DRCF component: construction, routing, serialization, busy handshake."""

import pytest

from repro.bus import BusSlaveIf
from repro.core import Context, ContextParameters, Drcf
from repro.kernel import SimulationError, Simulator, ZERO_TIME, ns, us
from repro.tech import ASIC
from tests.conftest import drive
from tests.core.helpers import DrcfRig, DummySlave, small_tech


class TestConstruction:
    def test_needs_contexts(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="at least one context"):
            Drcf("d", sim=sim, contexts=[], tech=small_tech())

    def test_rejects_non_reconfigurable_tech(self):
        sim = Simulator()
        slave = DummySlave("s", sim=sim, base=0x1000)
        ctx = Context("s", slave, ContextParameters(0, 64))
        with pytest.raises(SimulationError, match="not reconfigurable"):
            Drcf("d", sim=sim, contexts=[ctx], tech=ASIC)

    @pytest.mark.parametrize(
        "parameter, value", [("config_burst_words", -4), ("config_burst_words", 0), ("word_bytes", 0)]
    )
    def test_rejects_non_positive_burst_or_word_size(self, parameter, value):
        """Caught at construction, not at the first context switch."""
        sim = Simulator()
        slave = DummySlave("s", sim=sim, base=0x1000)
        ctx = Context("s", slave, ContextParameters(0, 64))
        with pytest.raises(SimulationError, match=f"DRCF d: {parameter} must be positive"):
            Drcf("d", sim=sim, contexts=[ctx], tech=small_tech(), **{parameter: value})

    def test_rejects_overlapping_context_ranges(self):
        sim = Simulator()
        s1 = DummySlave("s1", sim=sim, base=0x1000, words=32)
        s2 = DummySlave("s2", sim=sim, base=0x1040, words=32)  # overlaps s1
        contexts = [
            Context("s1", s1, ContextParameters(0, 64)),
            Context("s2", s2, ContextParameters(64, 64)),
        ]
        with pytest.raises(SimulationError, match="overlapping"):
            Drcf("d", sim=sim, contexts=contexts, tech=small_tech())

    def test_union_address_range(self):
        rig = DrcfRig(n_contexts=3)
        assert rig.drcf.get_low_add() == rig.slaves[0].base
        assert rig.drcf.get_high_add() == rig.slaves[2].get_high_add()

    def test_implements_slave_interface(self):
        rig = DrcfRig()
        assert isinstance(rig.drcf, BusSlaveIf)

    def test_context_builders_instantiate_inside(self):
        sim = Simulator()

        def builder(drcf):
            slave = DummySlave("inner", parent=drcf, base=0x1000)
            return Context("inner", slave, ContextParameters(0, 64))

        drcf = Drcf("d", sim=sim, context_builders=[builder], tech=small_tech())
        assert drcf.child("inner").full_name == "d.inner"
        assert drcf.contexts[0].name == "inner"

    def test_area_slots_require_partial_reconfig(self):
        sim = Simulator()
        slave = DummySlave("s", sim=sim, base=0x1000)
        ctx = Context("s", slave, ContextParameters(0, 64))
        with pytest.raises(SimulationError, match="partial"):
            Drcf(
                "d", sim=sim, contexts=[ctx],
                tech=small_tech(partial_reconfig=False),
                use_area_slots=True,
            )

    def test_resource_introspection(self):
        rig = DrcfRig(n_contexts=2, context_gates=1000)
        assert rig.drcf.largest_context_gates() == 1000
        assert rig.drcf.total_config_bytes() == 2 * rig.tech.context_size_bytes(1000)


class TestRoutingAndSerialization:
    def test_concurrent_masters_serialize_on_fabric(self):
        rig = DrcfRig(n_contexts=2)
        done = {}

        def master(label, index):
            def body():
                yield from rig.master_read(rig.addr(index), master=label)
                done[label] = rig.sim.now.to_ns()

            return body

        rig.sim.spawn("m1", master("m1", 0))
        rig.sim.spawn("m2", master("m2", 1))
        rig.sim.run()
        assert len(done) == 2
        # Two different contexts back to back: two fetches happened.
        assert rig.drcf.stats.fetch_misses == 2

    def test_active_context_name(self):
        rig = DrcfRig(n_contexts=2)
        assert rig.drcf.active_context_name is None

        def body():
            yield from rig.master_read(rig.addr(1))

        rig.sim.spawn("p", body)
        rig.sim.run()
        assert rig.drcf.active_context_name == "s1"

    def test_write_returns_true(self):
        rig = DrcfRig()

        def body():
            ok = yield from rig.drcf.write(rig.addr(0), 5)
            return ok

        box = drive(rig.sim, body)
        rig.sim.run()
        assert box.value is True


class TestBusyHandshake:
    """A context computing asynchronously must not be switched away."""

    class BusySlave(DummySlave):
        """Goes busy for a fixed time after each write."""

        def __init__(self, *args, busy_ns=500, **kwargs):
            super().__init__(*args, **kwargs)
            self.busy = False
            self.idle_event = self.event("idle")
            self.busy_ns = busy_ns
            self.add_thread(self._work, name="work", daemon=True)
            self._kick = self.event("kick")

        def write(self, addr, data):
            result = yield from super().write(addr, data)
            self.busy = True
            self._kick.notify()
            return result

        def _work(self):
            while True:
                yield self._kick
                yield ns(self.busy_ns)
                self.busy = False
                self.idle_event.notify()

    def test_switch_waits_for_idle(self):
        rig = DrcfRig(n_contexts=2)
        busy = self.BusySlave("busy", sim=rig.sim, base=0x9000, busy_ns=2000)
        # Rewire context 0 onto the busy slave (its range follows the module).
        rig.drcf.contexts[0].module = busy
        switch_started = {}

        def body():
            yield from rig.master_write(0x9000, 1)  # context s0 active + busy
            t0 = rig.sim.now
            yield from rig.master_read(rig.addr(1))  # forces switch
            switch_started["elapsed"] = (rig.sim.now - t0).to_ns()

        rig.sim.spawn("p", body)
        rig.sim.run()
        # The switch had to wait out the 2000 ns busy period.
        assert switch_started["elapsed"] >= 2000.0

    def test_compute_sink_installed_when_supported(self):
        sim = Simulator()

        class SinkSlave(DummySlave):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.compute_sink = None

        slave = SinkSlave("s", sim=sim, base=0x1000)
        ctx = Context("s", slave, ContextParameters(0, 64))
        drcf = Drcf("d", sim=sim, contexts=[ctx], tech=small_tech())
        assert slave.compute_sink is not None
        slave.compute_sink(ZERO_TIME, us(1))
        assert drcf.stats.context("s").active_time == us(1)


class TestPrefetchApi:
    def test_prefetch_requires_background_load(self):
        rig = DrcfRig(n_contexts=2)  # default tech: no background load
        assert rig.drcf.prefetch("s1") is None

    def test_prefetch_unknown_context(self):
        rig = DrcfRig()
        with pytest.raises(KeyError, match="no context named"):
            rig.drcf.prefetch("ghost")

    def test_prefetch_loads_into_idle_slot(self):
        tech = small_tech(context_slots=2, background_load=True)
        rig = DrcfRig(n_contexts=2, tech=tech)

        def body():
            yield from rig.master_read(rig.addr(0))
            done = rig.drcf.prefetch("s1")
            assert done is not None
            yield done
            t0 = rig.sim.now
            yield from rig.master_read(rig.addr(1))
            return (rig.sim.now - t0).to_ns()

        box = drive(rig.sim, body)
        rig.sim.run()
        stats = rig.drcf.stats
        assert stats.background_loads == 1
        assert stats.prefetch_hits == 1
        assert stats.fetch_misses == 1  # only the initial s0 load
        # The switch to the prefetched context was cheap (no fetch).
        assert box.value < 1000.0
