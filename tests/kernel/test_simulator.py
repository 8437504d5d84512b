"""Scheduler semantics: determinism, run-until, delta loops, stop, spawn."""

import gc

import pytest

from repro.kernel import (
    DeadlockError,
    Event,
    SchedulingError,
    Signal,
    Simulator,
    ns,
)


class TestRunControl:
    def test_run_until_stops_at_boundary(self, sim):
        ticks = []

        def body():
            while True:
                yield ns(10)
                ticks.append(sim.now.to_ns())

        sim.spawn("p", body, daemon=True)
        end = sim.run(until=ns(35))
        assert ticks == [10.0, 20.0, 30.0]
        assert end == ns(35)

    def test_run_resumable(self, sim):
        ticks = []

        def body():
            while True:
                yield ns(10)
                ticks.append(sim.now.to_ns())

        sim.spawn("p", body, daemon=True)
        sim.run(until=ns(15))
        sim.run(until=ns(45))
        assert ticks == [10.0, 20.0, 30.0, 40.0]

    def test_run_to_starvation(self, sim):
        def body():
            yield ns(7)

        sim.spawn("p", body)
        end = sim.run()
        assert end == ns(7)

    def test_stop_request(self, sim):
        progressed = []

        def body():
            for _ in range(100):
                yield ns(1)
                progressed.append(sim.now.to_ns())
                if len(progressed) == 3:
                    sim.stop()

        sim.spawn("p", body)
        sim.run()
        assert len(progressed) == 3

    def test_error_on_deadlock(self, sim):
        ev = Event(sim, "never")

        def body():
            yield ev

        sim.spawn("stuck", body)
        with pytest.raises(DeadlockError, match="stuck"):
            sim.run(error_on_deadlock=True)

    def test_run_until_earlier_than_now_rejected(self, sim):
        def ticker():
            while True:
                yield ns(3)

        sim.spawn("ticker", ticker, daemon=True)
        sim.run(until=ns(10))
        with pytest.raises(SchedulingError, match=r"until=5 ns.*current time 10 ns"):
            sim.run(until=ns(5))
        assert sim.now == ns(10)  # time did not run backwards
        assert sim.run(until=ns(10)) == ns(10)  # until == now stays legal

    def test_schedule_in_past_rejected(self, sim):
        def body():
            yield ns(10)
            sim._schedule_timed_fs(0, lambda: None)

        sim.spawn("p", body)
        with pytest.raises(Exception, match="past"):
            sim.run()

    def test_collector_held_off_during_the_run_and_resumed_after(self, sim):
        seen = []

        def body():
            seen.append(gc.isenabled())
            yield ns(1)
            seen.append(gc.isenabled())
            raise RuntimeError("process failed")

        sim.spawn("p", body)
        gc.collect()  # a young generation well under the threshold
        with pytest.raises(Exception, match="process failed"):
            sim.run()
        assert seen == [False, False]
        assert gc.isenabled()  # resumed although the run raised

    def test_collector_runs_once_the_young_generation_outgrows_it(self, sim):
        class Young:
            pass

        seen, starts = [], []

        def body():
            kept = [Young() for _ in range(2 * gc.get_threshold()[0])]
            seen.append(gc.isenabled())
            yield ns(1)  # the first instant boundary checks the generation
            seen.append(gc.isenabled())
            kept.append(Young())  # the run's next allocation collects

        def on_gc(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        sim.spawn("p", body)
        gc.collect()
        gc.callbacks.append(on_gc)
        try:
            sim.run()
        finally:
            gc.callbacks.remove(on_gc)
        assert seen == [False, True]
        assert starts

    def test_collector_disabled_before_the_run_stays_disabled(self, sim):
        class Young:
            pass

        seen = []

        def body():
            kept = [Young() for _ in range(2 * gc.get_threshold()[0])]
            yield ns(1)
            seen.append((gc.isenabled(), len(kept)))

        sim.spawn("p", body)
        gc.disable()
        try:
            sim.run()
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert seen == [(False, 2 * gc.get_threshold()[0])]


class TestDeterminism:
    def _run_once(self, seed_order):
        sim = Simulator()
        log = []

        def make(name, delay):
            def body():
                for _ in range(3):
                    yield ns(delay)
                    log.append((name, sim.now.to_ns()))

            return body

        for name, delay in seed_order:
            sim.spawn(name, make(name, delay))
        sim.run()
        return log

    def test_identical_runs_identical_logs(self):
        order = [("a", 5), ("b", 5), ("c", 3)]
        assert self._run_once(order) == self._run_once(order)

    def test_same_time_ties_resolve_by_spawn_order(self):
        log = self._run_once([("a", 5), ("b", 5)])
        pairs = [entry for entry in log if entry[1] == 5.0]
        assert pairs == [("a", 5.0), ("b", 5.0)]


class TestDeltaCycles:
    def test_delta_loop_guard(self, sim):
        ev = Event(sim, "ping")

        def body():
            while True:
                got = yield ev
                ev.notify_delta()

        sim.spawn("p", body, daemon=True)
        ev.notify_delta()
        with pytest.raises(SchedulingError, match="delta cycles"):
            sim.run(max_deltas_per_instant=100)

    def test_signal_update_counts(self, sim):
        signal = Signal(sim, 0, "s")

        def body():
            for i in range(4):
                signal.write(i)
                yield ns(1)

        sim.spawn("p", body)
        sim.run()
        # First write is 0 -> 0 (absorbed); updates still requested 4 times.
        assert sim.stats.signal_updates == 4
        assert signal.read() == 3


class TestSpawnDynamics:
    def test_spawn_after_start(self, sim):
        log = []

        def child():
            yield ns(1)
            log.append(("child", sim.now.to_ns()))

        def parent():
            yield ns(5)
            sim.spawn("child", child)
            yield ns(10)

        sim.spawn("parent", parent)
        sim.run()
        assert log == [("child", 6.0)]

    def test_blocked_process_listing(self, sim):
        ev = Event(sim, "never")

        def body():
            yield ev

        sim.spawn("stuck", body)
        sim.run()
        blocked = sim.blocked_processes()
        assert [p.name for p in blocked] == ["stuck"]
        assert "never" in blocked[0].wait_description

    def test_pending_timed_count(self, sim):
        ev = Event(sim, "e")
        ev.notify(ns(5))
        assert sim.pending_timed_count() == 1
        ev.cancel()
        assert sim.pending_timed_count() == 0
