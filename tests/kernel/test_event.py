"""Event notification semantics: immediate / delta / timed, overrides, cancel."""

import pytest

from repro.kernel import Event, SchedulingError, ZERO_TIME, ns


def waiter_log(sim, event, log, label="w"):
    def body():
        while True:
            yield event
            log.append((label, sim.now.to_ns()))

    sim.spawn(label, body, daemon=True)


class TestTimedNotify:
    def test_timed_notification_fires_at_delay(self, sim):
        ev = Event(sim, "e")
        log = []
        waiter_log(sim, ev, log)
        ev.notify(ns(10))
        sim.run()
        assert log == [("w", 10.0)]

    def test_earlier_timed_overrides_later(self, sim):
        ev = Event(sim, "e")
        log = []
        waiter_log(sim, ev, log)
        ev.notify(ns(10))
        ev.notify(ns(3))  # earlier: replaces
        sim.run()
        assert log == [("w", 3.0)]

    def test_later_timed_is_ignored(self, sim):
        ev = Event(sim, "e")
        log = []
        waiter_log(sim, ev, log)
        ev.notify(ns(3))
        ev.notify(ns(10))  # later: ignored
        sim.run()
        assert log == [("w", 3.0)]

    def test_notify_rejects_non_simtime(self, sim):
        ev = Event(sim, "e")
        with pytest.raises(SchedulingError):
            ev.notify(5)  # type: ignore[arg-type]


class TestDeltaNotify:
    def test_delta_notification_fires_same_time_next_delta(self, sim):
        ev = Event(sim, "e")
        log = []
        waiter_log(sim, ev, log)
        ev.notify(ZERO_TIME)
        sim.run()
        assert log == [("w", 0.0)]
        assert sim.stats.delta_cycles >= 1

    def test_delta_overrides_timed(self, sim):
        ev = Event(sim, "e")
        log = []
        waiter_log(sim, ev, log)
        ev.notify(ns(10))
        ev.notify_delta()
        sim.run()
        assert log == [("w", 0.0)]

    def test_timed_after_delta_is_ignored(self, sim):
        ev = Event(sim, "e")
        log = []
        waiter_log(sim, ev, log)
        ev.notify_delta()
        ev.notify(ns(10))
        sim.run()
        assert log == [("w", 0.0)]
        assert ev.trigger_count == 1


class TestImmediateNotify:
    def test_immediate_resumes_in_same_evaluation(self, sim):
        ev = Event(sim, "e")
        order = []

        def waiter():
            yield ev
            order.append("waiter")

        def notifier():
            order.append("notify")
            ev.notify()
            if False:
                yield  # pragma: no cover

        sim.spawn("w", waiter)
        sim.spawn("n", notifier)
        sim.run()
        assert order == ["notify", "waiter"]

    def test_immediate_cancels_pending_timed(self, sim):
        ev = Event(sim, "e")
        log = []
        waiter_log(sim, ev, log)
        ev.notify(ns(10))
        ev.notify()
        sim.run()
        # Only the immediate trigger happened.
        assert ev.trigger_count == 1


class TestCancel:
    def test_cancel_removes_timed(self, sim):
        ev = Event(sim, "e")
        log = []
        waiter_log(sim, ev, log)
        ev.notify(ns(10))
        ev.cancel()
        sim.run()
        assert log == []
        assert ev.trigger_count == 0

    def test_cancel_removes_delta(self, sim):
        ev = Event(sim, "e")
        log = []
        waiter_log(sim, ev, log)
        ev.notify_delta()
        ev.cancel()
        sim.run()
        assert log == []

    def test_cancel_idempotent(self, sim):
        ev = Event(sim, "e")
        ev.cancel()
        ev.cancel()


class TestIntrospection:
    def test_trigger_count_and_time(self, sim):
        ev = Event(sim, "e")
        assert ev.trigger_count == 0
        assert ev.last_trigger_time is None
        ev.notify(ns(4))
        sim.run()
        assert ev.trigger_count == 1
        assert ev.last_trigger_time == ns(4)

    def test_has_waiters(self, sim):
        ev = Event(sim, "e")
        assert not ev.has_waiters()
        waiter_log(sim, ev, [])
        sim.initialize()
        # Run one evaluation so the waiter suspends on the event.
        sim.run()
        assert ev.has_waiters()

    def test_lost_notification_without_waiter(self, sim):
        # Events are edges: a notify with no waiter is lost (SystemC rule).
        ev = Event(sim, "e")
        ev.notify(ns(1))
        sim.run()
        log = []
        waiter_log(sim, ev, log)
        sim.run()
        assert log == []
