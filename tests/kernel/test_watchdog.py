"""The wall-clock watchdog on Simulator.run (max_wall_s)."""

import pytest

from repro.kernel import Simulator, ns, us


def spinner(sim):
    """A livelock: timed activity forever, so the run never starves."""

    def spin():
        while True:
            yield ns(10)

    sim.spawn("spinner", spin)


class TestWatchdog:
    def test_disabled_by_default(self):
        sim = Simulator()

        def body():
            yield us(1)

        sim.spawn("p", body)
        sim.run()
        assert sim.watchdog_fired is False
        assert sim.watchdog_report is None

    def test_trips_on_livelock(self):
        sim = Simulator()
        spinner(sim)
        sim.run(max_wall_s=0.05)
        assert sim.watchdog_fired is True
        # The analysis layer is importable here, so a post-mortem attaches.
        report = sim.watchdog_report
        assert report is not None
        assert report.watchdog is True
        assert report.wall_s == pytest.approx(0.05)
        assert "WATCHDOG" in report.render()

    def test_until_bound_still_wins_when_fast(self):
        sim = Simulator()
        spinner(sim)
        end = sim.run(until=us(1), max_wall_s=60.0)
        assert sim.watchdog_fired is False
        assert end == us(1)

    def test_watchdog_state_resets_between_runs(self):
        sim = Simulator()
        spinner(sim)
        sim.run(max_wall_s=0.05)
        assert sim.watchdog_fired is True
        # A later bounded run clears the flag.
        sim.run(until=sim.now + us(1), max_wall_s=60.0)
        assert sim.watchdog_fired is False

    def test_tripped_run_lists_blocked_processes(self):
        sim = Simulator()
        spinner(sim)
        waited = sim.event("never")

        def stuck():
            yield waited

        sim.spawn("stuck_process", stuck)
        sim.run(max_wall_s=0.05)
        names = [b.name for b in sim.watchdog_report.blocked]
        assert "stuck_process" in names
