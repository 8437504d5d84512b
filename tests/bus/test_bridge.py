"""Bus bridge: windowed forwarding between buses."""

import pytest

from repro.bus import Bus, BusBridge, Memory
from repro.kernel import ns
from tests.conftest import drive


def make_two_bus_system(sim, upstream_protocol="blocking"):
    up = Bus("up", sim=sim, clock_freq_hz=100e6, protocol=upstream_protocol)
    down = Bus("down", sim=sim, clock_freq_hz=100e6)
    near = Memory("near", sim=sim, base=0x0000, size_words=64)
    far = Memory("far", sim=sim, base=0x8000, size_words=64)
    up.register_slave(near)
    down.register_slave(far)
    bridge = BusBridge("bridge", sim=sim, low=0x8000, high=0x8000 + 64 * 4 - 1)
    up.register_slave(bridge)
    bridge.dn_port.bind(down)
    return up, down, near, far, bridge


class TestForwarding:
    def test_write_read_through_bridge(self, sim):
        up, down, near, far, bridge = make_two_bus_system(sim)

        def body():
            yield from up.write(0x8010, [7, 8], master="cpu")
            data = yield from up.read(0x8010, 2, master="cpu")
            return data

        box = drive(sim, body)
        sim.run()
        assert box.value == [7, 8]
        assert far.peek(0x8010, 2) == [7, 8]
        assert bridge.forwarded_reads == 2
        assert bridge.forwarded_writes == 2

    def test_local_traffic_does_not_cross(self, sim):
        up, down, near, far, bridge = make_two_bus_system(sim)

        def body():
            yield from up.write(0x0000, 1, master="cpu")

        sim.spawn("p", body)
        sim.run()
        assert down.monitor.transaction_count == 0
        assert bridge.forwarded_writes == 0

    def test_downstream_transactions_tagged_and_attributed(self, sim):
        up, down, near, far, bridge = make_two_bus_system(sim)

        def body():
            yield from up.read(0x8000, 4, master="cpu")

        sim.spawn("p", body)
        sim.run()
        txns = down.monitor.transactions
        assert len(txns) == 1
        assert txns[0].master == "bridge"
        assert txns[0].has_tag("bridged")

    def test_bridge_adds_latency(self, sim):
        up, down, near, far, bridge = make_two_bus_system(sim)
        times = {}

        def body():
            t0 = sim.now
            yield from up.read(0x0000, 1, master="cpu")  # local
            times["local"] = (sim.now - t0).to_ns()
            t0 = sim.now
            yield from up.read(0x8000, 1, master="cpu")  # bridged
            times["bridged"] = (sim.now - t0).to_ns()

        sim.spawn("p", body)
        sim.run()
        assert times["bridged"] > times["local"]

    def test_access_outside_window_rejected(self, sim):
        up, down, near, far, bridge = make_two_bus_system(sim)

        def body():
            # Burst starting inside but running past the window end.
            yield from up.read(0x8000 + 63 * 4, 2, master="cpu")

        sim.spawn("p", body)
        with pytest.raises(Exception, match="outside the bridged window"):
            sim.run()

    def test_range_validation(self, sim):
        with pytest.raises(ValueError):
            BusBridge("b", sim=sim, low=0x100, high=0x0)


class TestContention:
    def test_bridge_competes_on_downstream_bus(self, sim):
        up, down, near, far, bridge = make_two_bus_system(sim)
        done = {}

        def cpu_body():
            yield from up.read(0x8000, 16, master="cpu")
            done["cpu"] = sim.now.to_ns()

        def local_master():
            yield ns(5)
            yield from down.read(0x8000, 16, master="local")
            done["local"] = sim.now.to_ns()

        sim.spawn("cpu", cpu_body)
        sim.spawn("local", local_master)
        sim.run()
        assert set(done) == {"cpu", "local"}
        # Both used the downstream bus; arbitration happened.
        assert down.arbiter.grant_count == 2
