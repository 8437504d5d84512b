"""Clock morphing (pausable clocks) — the paper's reference [7] mechanism."""

from repro.kernel import Clock, ns


def edge_recorder(sim, clock):
    edges = []

    def watch():
        while True:
            yield clock.posedge
            edges.append(sim.now.to_ns())

    sim.spawn("edges", watch, daemon=True)
    return edges


class TestPauseResume:
    def test_pause_delays_edges_by_pause_duration(self, sim):
        clock = Clock("clk", ns(10), sim=sim)
        edges = edge_recorder(sim, clock)

        def controller():
            yield ns(12)  # mid low-phase of cycle 2
            clock.pause()
            yield ns(30)
            clock.resume()

        sim.spawn("ctl", controller)
        sim.run(until=ns(75))
        # Edge at 10 happened; the edge that would be at 20 slips to 50.
        assert edges[0] == 10.0
        assert edges[1] == 50.0
        assert edges[2] == 60.0
        assert clock.total_paused_time == ns(30)

    def test_pause_preserves_partial_phase(self, sim):
        clock = Clock("clk", ns(10), sim=sim)
        edges = edge_recorder(sim, clock)

        def controller():
            yield ns(7)  # 2 ns remain of the first low... (high phase here)
            clock.pause()
            yield ns(100)
            clock.resume()

        sim.spawn("ctl", controller)
        sim.run(until=ns(130))
        # The high phase had 3 ns left (started high at 0, 5 ns high time
        # elapsed at 5... with 50% duty: high 0-5, low 5-10).  Paused at 7:
        # 3 ns of low remain; next posedge at 107 + ... = resume(107) + 3.
        assert edges[0] == 110.0

    def test_level_frozen_while_paused(self, sim):
        clock = Clock("clk", ns(10), sim=sim)
        observed = []

        def controller():
            yield ns(2)  # high phase
            clock.pause()
            yield ns(50)
            observed.append(clock.read())
            clock.resume()

        sim.spawn("ctl", controller)
        sim.run(until=ns(60))
        assert observed == [True]

    def test_idempotent_pause_resume(self, sim):
        clock = Clock("clk", ns(10), sim=sim)
        clock.pause()
        clock.pause()
        assert clock.paused
        clock.resume()
        clock.resume()
        assert not clock.paused

    def test_unpaused_clock_unaffected(self, sim):
        clock = Clock("clk", ns(10), sim=sim)
        edges = edge_recorder(sim, clock)
        sim.run(until=ns(45))
        assert edges == [10.0, 20.0, 30.0, 40.0]
        assert clock.total_paused_time.is_zero()


class TestClockMorphingScenario:
    def test_rtl_process_does_not_advance_during_reconfiguration(self, sim):
        """The ref-[7] idea: an RTL counter clocked by a context's virtual
        clock freezes while the context is reconfigured."""
        clock = Clock("vclk", ns(10), sim=sim)
        counted = []

        def rtl_counter():
            count = 0
            while True:
                yield clock.posedge
                count += 1
                counted.append((sim.now.to_ns(), count))

        sim.spawn("rtl", rtl_counter, daemon=True)

        def reconfigure():
            yield ns(25)
            clock.pause()  # context switched out
            yield ns(100)  # reconfiguration in progress
            clock.resume()  # context active again

        sim.spawn("cfg", reconfigure)
        sim.run(until=ns(165))
        counts_during_reconfig = [c for t, c in counted if 25 < t < 125]
        assert counts_during_reconfig == []  # frozen
        # Counting resumed afterwards at the same rate.
        assert [t for t, c in counted if c == 3] == [130.0]
