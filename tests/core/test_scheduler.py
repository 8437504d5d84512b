"""The Section 5.3 context scheduler: the five protocol steps and timing."""

import pytest

from repro.kernel import ZERO_TIME, us
from tests.conftest import drive
from tests.core.helpers import DrcfRig, small_tech


class TestStep1Decode:
    def test_call_routed_to_correct_context(self):
        rig = DrcfRig(n_contexts=2)

        def body():
            yield from rig.master_write(rig.addr(1, 0), 77)
            data = yield from rig.master_read(rig.addr(1, 0))
            return data

        box = drive(rig.sim, body)
        rig.sim.run()
        assert box.value == [77]
        assert rig.slaves[1].writes == 1
        assert rig.slaves[0].writes == 0

    def test_hole_between_contexts_rejected(self):
        rig = DrcfRig(n_contexts=2)

        def body():
            # 0x1fff+1 .. 0x2000-1 region between contexts is a hole.
            yield from rig.master_read(rig.addr(0) + 16 * 4 + 0x100)

        rig.sim.spawn("p", body)
        with pytest.raises(Exception, match="not decoded by any context"):
            rig.sim.run()


class TestStep2ForwardWhenActive:
    def test_second_call_to_active_context_has_no_switch(self):
        rig = DrcfRig(n_contexts=2)

        def body():
            yield from rig.master_read(rig.addr(0))
            t1 = rig.sim.now
            yield from rig.master_read(rig.addr(0))
            return (rig.sim.now - t1).to_ns()

        box = drive(rig.sim, body)
        rig.sim.run()
        stats = rig.drcf.stats
        assert stats.total_switches == 1  # only the initial load
        assert stats.context("s0").calls == 2
        # Second call: bus (split: ~addr+req+resp+word) + 10ns slave only.
        assert box.value < 200.0


class TestStep3And4SwitchSuspendsFetch:
    def test_switch_fetches_bitstream_from_config_memory(self):
        rig = DrcfRig(n_contexts=2, context_gates=1000)

        def body():
            yield from rig.master_read(rig.addr(0))
            yield from rig.master_read(rig.addr(1))

        rig.sim.spawn("p", body)
        rig.sim.run()
        words = rig.tech.context_size_bytes(1000) // 4
        assert rig.bus.monitor.words_by_tag("config") == 2 * words
        # Fetches targeted the right regions.
        config_txns = [t for t in rig.bus.monitor.transactions if t.has_tag("config")]
        assert all(rig.cfgmem.context_for_address(t.addr) in ("s0", "s1") for t in config_txns)
        assert any(t.has_tag("s1") for t in config_txns)

    def test_call_suspended_until_switch_completes(self):
        rig = DrcfRig(n_contexts=2, context_gates=4000)
        timeline = {}

        def body():
            yield from rig.master_read(rig.addr(0))
            timeline["before"] = rig.sim.now
            yield from rig.master_read(rig.addr(1))
            timeline["after"] = rig.sim.now

        rig.sim.spawn("p", body)
        rig.sim.run()
        switch_time = (timeline["after"] - timeline["before"]).to_ns()
        # 4000 gates * 8 bits = 4000 bytes = 1000 words at >=10ns each.
        assert switch_time > 9_000

    def test_extra_delay_parameter_applied(self):
        rig = DrcfRig(n_contexts=1)
        rig.drcf.contexts[0].params.extra_delay = us(50)

        def body():
            yield from rig.master_read(rig.addr(0))

        rig.sim.spawn("p", body)
        rig.sim.run()
        assert rig.drcf.stats.total_reconfig_time >= us(50)

    def test_port_bound_load_time(self):
        # A very slow configuration port dominates the bus transfer time.
        slow = small_tech(config_port_width_bits=1, config_port_freq_hz=1e6)
        rig = DrcfRig(n_contexts=1, tech=slow, context_gates=1000)

        def body():
            yield from rig.master_read(rig.addr(0))

        rig.sim.spawn("p", body)
        rig.sim.run()
        port_time = slow.raw_load_time(slow.context_size_bytes(1000) * 8)
        assert rig.drcf.stats.total_reconfig_time >= port_time


class TestStep5Instrumentation:
    def test_active_and_reconfig_time_tracked(self):
        rig = DrcfRig(n_contexts=2)

        def body():
            yield from rig.master_read(rig.addr(0))
            yield from rig.master_read(rig.addr(1))
            yield from rig.master_read(rig.addr(1))

        rig.sim.spawn("p", body)
        rig.sim.run()
        stats = rig.drcf.stats
        assert stats.context("s0").calls == 1
        assert stats.context("s1").calls == 2
        assert stats.context("s0").reconfigurations == 1
        assert stats.context("s1").reconfigurations == 1
        assert stats.total_active_time > ZERO_TIME
        assert stats.total_reconfig_time > ZERO_TIME
        # Call wait time accumulated for the switching calls.
        assert stats.context("s1").call_wait_time > ZERO_TIME

    def test_switch_history_records_order(self):
        rig = DrcfRig(n_contexts=3)

        def body():
            for index in (0, 1, 0, 2):
                yield from rig.master_read(rig.addr(index))

        rig.sim.spawn("p", body)
        rig.sim.run()
        assert rig.drcf.scheduler.switch_history == ["s0", "s1", "s0", "s2"]

    def test_timeline_has_active_and_reconfig_tracks(self):
        rig = DrcfRig(n_contexts=2)

        def body():
            yield from rig.master_read(rig.addr(0))
            yield from rig.master_read(rig.addr(1))

        rig.sim.spawn("p", body)
        rig.sim.run()
        tracks = {row[2] for row in rig.drcf.stats.timeline.rows}
        assert {"active", "reconfig"} <= tracks


class TestMultiSlot:
    def test_resident_context_avoids_refetch(self):
        rig = DrcfRig(n_contexts=2, tech=small_tech(context_slots=2))

        def body():
            yield from rig.master_read(rig.addr(0))
            yield from rig.master_read(rig.addr(1))
            yield from rig.master_read(rig.addr(0))  # still resident

        rig.sim.spawn("p", body)
        rig.sim.run()
        stats = rig.drcf.stats
        assert stats.total_switches == 3
        assert stats.fetch_misses == 2
        assert stats.resident_hits == 1
        assert set(rig.drcf.resident_context_names()) == {"s0", "s1"}

    def test_thrash_with_single_slot(self):
        rig = DrcfRig(n_contexts=2, tech=small_tech(context_slots=1))

        def body():
            for index in (0, 1, 0, 1):
                yield from rig.master_read(rig.addr(index))

        rig.sim.spawn("p", body)
        rig.sim.run()
        assert rig.drcf.stats.fetch_misses == 4
        assert rig.drcf.stats.resident_hits == 0

    def test_activation_time_charged_on_resident_switch(self):
        tech = small_tech(context_slots=2, activation_overhead_cycles=100)
        rig = DrcfRig(n_contexts=2, tech=tech)

        def body():
            yield from rig.master_read(rig.addr(0))
            yield from rig.master_read(rig.addr(1))
            t0 = rig.sim.now
            yield from rig.master_read(rig.addr(0))  # resident activation
            return (rig.sim.now - t0).to_ns()

        box = drive(rig.sim, body)
        rig.sim.run()
        assert box.value >= 1000.0  # 100 cycles @ 10 ns
