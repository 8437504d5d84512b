"""Signals and clocks: evaluate/update semantics, edges, periods."""

from repro.kernel import Clock, Signal, ns


class TestSignalSemantics:
    def test_write_visible_after_delta(self, sim):
        signal = Signal(sim, 0, "s")
        observed = []

        def writer():
            signal.write(5)
            observed.append(("same-phase", signal.read()))
            yield signal.value_changed
            observed.append(("after-delta", signal.read()))

        sim.spawn("w", writer)
        sim.run()
        assert observed == [("same-phase", 0), ("after-delta", 5)]

    def test_equal_write_absorbed(self, sim):
        signal = Signal(sim, 3, "s")
        changes = []

        def watcher():
            while True:
                yield signal.value_changed
                changes.append(signal.read())

        def writer():
            signal.write(3)  # no change
            yield ns(1)
            signal.write(4)
            yield ns(1)

        sim.spawn("watch", watcher, daemon=True)
        sim.spawn("write", writer)
        sim.run()
        assert changes == [4]

    def test_last_write_in_delta_wins(self, sim):
        signal = Signal(sim, 0, "s")

        def writer():
            signal.write(1)
            signal.write(2)
            yield ns(1)

        sim.spawn("w", writer)
        sim.run()
        assert signal.read() == 2

    def test_posedge_negedge(self, sim):
        signal = Signal(sim, False, "s")
        edges = []

        def watch_pos():
            while True:
                yield signal.posedge
                edges.append(("pos", sim.now.to_ns()))

        def watch_neg():
            while True:
                yield signal.negedge
                edges.append(("neg", sim.now.to_ns()))

        def writer():
            yield ns(1)
            signal.write(True)
            yield ns(1)
            signal.write(False)
            yield ns(1)

        sim.spawn("wp", watch_pos, daemon=True)
        sim.spawn("wn", watch_neg, daemon=True)
        sim.spawn("w", writer)
        sim.run()
        assert edges == [("pos", 1.0), ("neg", 2.0)]

    def test_on_update_callback(self, sim):
        signal = Signal(sim, 0, "s")
        seen = []
        signal.on_update(lambda t, v: seen.append((t.to_ns(), v)))

        def writer():
            yield ns(2)
            signal.write(9)
            yield ns(1)

        sim.spawn("w", writer)
        sim.run()
        assert seen == [(2.0, 9)]

    def test_value_property(self, sim):
        signal = Signal(sim, 7, "s")
        assert signal.value == 7


class TestClock:
    def test_posedges_at_period(self, sim):
        clock = Clock("clk", ns(10), sim=sim)
        edges = []

        def watch():
            while True:
                yield clock.posedge
                edges.append(sim.now.to_ns())

        sim.spawn("w", watch, daemon=True)
        sim.run(until=ns(45))
        assert edges == [10.0, 20.0, 30.0, 40.0]

    def test_start_low_first_posedge_after_low_phase(self, sim):
        clock = Clock("clk", ns(10), sim=sim, start_low=True)
        edges = []

        def watch():
            while True:
                yield clock.posedge
                edges.append(sim.now.to_ns())

        sim.spawn("w", watch, daemon=True)
        sim.run(until=ns(24))
        assert edges == [5.0, 15.0]

    def test_duty_cycle(self, sim):
        clock = Clock("clk", ns(10), sim=sim, duty=0.3)
        transitions = []
        clock.signal.on_update(lambda t, v: transitions.append((t.to_ns(), v)))
        sim.run(until=ns(20))
        assert (3.0, False) in transitions
        assert (10.0, True) in transitions

    def test_cycles_elapsed(self, sim):
        clock = Clock("clk", ns(10), sim=sim)
        sim.run(until=ns(35))
        assert clock.cycles_elapsed == 3

    def test_invalid_parameters(self, sim):
        import pytest

        with pytest.raises(ValueError):
            Clock("c1", ns(0), sim=sim)
        with pytest.raises(ValueError):
            Clock("c2", ns(10), sim=sim, duty=1.5)
