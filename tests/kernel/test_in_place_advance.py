"""``Simulator.alone_horizon`` / ``book_alone``: waiting in place, the
kernel half of closed-form burst trains.

The horizon must be None whenever anything else could run or observe the
kernel before the running thread's next wake, and a booking must leave
the books exactly as the kernel round trips (``yield delay``) would.
"""

import pytest

from repro.kernel import Event, MethodProcess, SchedulingError, Signal, Simulator, ns


def _probe(sim, setup=None):
    """Spawn a thread that runs ``setup()``, then records ``alone_horizon()``."""
    seen = []

    def body():
        if setup is not None:
            setup()
        seen.append(sim.alone_horizon())
        yield ns(1)

    sim.spawn("probe", body)
    return seen


def _horizon(sim, setup=None, **run_kwargs):
    """The probe's horizon in a run of ``sim`` with ``run_kwargs``."""
    seen = _probe(sim, setup)
    sim.run(**run_kwargs)
    return seen[0]


#: A wake 10 ns after the probe asks.
WAKE_FS = ns(10).femtoseconds


class TestPredicate:
    """When a thread may wait in place at all, and how far."""

    def test_alone_process_advances(self, sim):
        outcome = {}

        def body():
            outcome["horizon"] = sim.alone_horizon()
            sim.book_alone(1, WAKE_FS)
            outcome["now"] = sim.now
            yield ns(1)

        sim.spawn("probe", body)
        sim.run()
        assert outcome == {"horizon": (None, None), "now": ns(10)}
        assert sim.now == ns(11)
        assert sim.stats.in_place_advances == 1

    def test_false_outside_a_thread_execution(self, sim):
        assert sim.alone_horizon() is None  # no process is running
        seen = []
        method = MethodProcess(sim, "m", lambda: seen.append(sim.alone_horizon()))
        sim.register_process(method)
        sim.run()
        assert seen == [None]  # methods cannot wait

    def test_refused_when_another_process_is_runnable(self, sim):
        seen = _probe(sim)
        sim.spawn("other", lambda: (yield ns(50)))  # still runnable when the probe asks
        sim.run()
        assert seen == [None]

    def test_refused_with_pending_update(self, sim):
        sig = Signal(sim, 0, name="s")
        assert _horizon(sim, lambda: sig.write(1)) is None

    def test_refused_with_pending_delta_notification(self, sim):
        ev = Event(sim, "e")
        assert _horizon(sim, ev.notify_delta) is None

    def test_refused_with_trace_hook(self, sim):
        sim.trace_hooks.append(lambda now: None)
        assert _horizon(sim) is None

    @pytest.mark.parametrize("at, fits", [(ns(5), False), (ns(10), False), (ns(11), True)])
    def test_timed_action_at_or_before_wake(self, sim, at, fits):
        """A wake fits the horizon only strictly before the next timed action."""
        ev = Event(sim, "e")
        last_wake_fs, _ = _horizon(sim, lambda: ev.notify(at))
        assert (WAKE_FS <= last_wake_fs) is fits

    def test_cancelled_timed_actions_do_not_block(self, sim):
        """Cancelled actions at the front of the queue are discarded on the
        way to the next live one."""
        early, late = Event(sim, "early"), Event(sim, "late")
        seen = []

        def body():
            early.notify(ns(5))
            early.cancel()
            late.notify(ns(50))
            seen.append((len(sim._timed_heap), sim.alone_horizon(), len(sim._timed_heap)))
            yield ns(1)

        sim.spawn("probe", body)
        sim.run()
        assert seen == [(2, (ns(50).femtoseconds - 1, None), 1)]

    @pytest.mark.parametrize("until, fits", [(ns(9), False), (ns(10), True)])
    def test_wake_must_be_within_until(self, sim, until, fits):
        last_wake_fs, _ = _horizon(sim, until=until)
        assert (WAKE_FS <= last_wake_fs) is fits

    def test_refused_after_stop_request(self, sim):
        assert _horizon(sim, sim.stop) is None

    def test_refused_when_watchdog_check_is_due(self, sim):
        # The first execution leaves process_executions at 1, but no timed
        # activation has happened yet: the timed-phase check (count 0) is due.
        assert _horizon(sim, max_wall_s=60.0) == (None, 0)


class TestHorizon:
    """``alone_horizon``: how far the running thread may wait in place."""

    def test_unbounded(self, sim):
        assert _horizon(sim) == (None, None)

    def test_before_the_next_live_timed_action_and_until(self, sim):
        ev = Event(sim, "e")
        one_fs_before = ns(50).femtoseconds - 1
        assert _horizon(sim, lambda: ev.notify(ns(50))) == (one_fs_before, None)
        assert _horizon(Simulator(), until=ns(30)) == (ns(30).femtoseconds, None)

    def test_none_when_not_alone(self, sim):
        assert _horizon(sim, lambda: sim.spawn("other", lambda: (yield ns(5)))) is None

    @pytest.mark.parametrize(
        "executions, activations, waits",
        [(1, 1, 255), (255, 3, 1), (200, 250, 6), (256, 1, 0), (3, 512, 0)],
    )
    def test_waits_left_before_a_watchdog_check(self, sim, executions, activations, waits):
        def setup():
            sim.stats.process_executions = executions
            sim.stats.timed_activations = activations

        assert _horizon(sim, setup, max_wall_s=60.0) == (None, waits)

    def test_book_alone_books_each_round_trip(self):
        sims = {}
        for in_place in (True, False):
            sim = sims[in_place] = Simulator()

            def body(sim=sim, in_place=in_place):
                yield ns(1)
                if in_place:
                    sim.book_alone(5, sim.now.femtoseconds + ns(50).femtoseconds)
                else:
                    for _ in range(5):
                        yield ns(10)

            sim.spawn("p", body)
            sim.run()
        fast, slow = sims[True], sims[False]
        assert fast.now == slow.now == ns(51)
        assert fast._seq == slow._seq
        assert fast.stats.in_place_advances == 5
        fast_stats = fast.stats.as_dict()
        fast_stats["in_place_advances"] = 0
        assert fast_stats == slow.stats.as_dict()


def test_simulator_keeps_a_compact_attribute_table():
    """CPython 3.11 stops sharing instance attribute keys past 29
    attributes; the scheduler loop's attribute reads then slow down."""
    sim = Simulator()
    sim.spawn("p", lambda: (yield ns(1)))
    sim.run(until=ns(5), max_wall_s=60.0)
    assert len(vars(sim)) <= 29


class TestBooks:
    """A booking records what the round trip would have."""

    @staticmethod
    def _wait_10ns(sim, in_place):
        """Wait 10 ns, booked in place or as a kernel round trip."""
        if in_place:
            assert sim.alone_horizon() == (None, None)  # alone, unbounded
            sim.book_alone(1, sim.now.femtoseconds + WAKE_FS)
        else:
            yield ns(10)

    def _run(self, in_place):
        sim = Simulator()
        log = []

        def body():
            for _ in range(3):
                yield from self._wait_10ns(sim, in_place)
                log.append(sim.now)

        sim.spawn("p", body)
        sim.run()
        return sim, log

    def test_counters_match_the_round_trip(self):
        fast, fast_log = self._run(True)
        slow, slow_log = self._run(False)
        assert fast_log == slow_log
        assert fast.now == slow.now
        assert fast.stats.in_place_advances == 3
        fast_stats = fast.stats.as_dict()
        del fast_stats["in_place_advances"]
        slow_stats = slow.stats.as_dict()
        del slow_stats["in_place_advances"]
        assert fast_stats == slow_stats
        assert fast._seq == slow._seq

    @pytest.mark.parametrize("in_place", [False, True])
    def test_delta_guard_restarts_at_the_new_instant(self, in_place):
        """Seven delta cycles before the wait and seven after it stay under
        a guard of ten per instant on both paths."""
        sim = Simulator()
        ev = Event(sim, "e")

        def churn():
            for _ in range(7):
                ev.notify_delta()
                yield ev

        def body():
            yield from churn()
            yield from self._wait_10ns(sim, in_place)
            yield from churn()

        sim.spawn("p", body)
        sim.run(max_deltas_per_instant=10)
        assert sim.stats.delta_cycles == 14
        assert sim.stats.in_place_advances == (1 if in_place else 0)

    def test_delta_guard_still_trips_within_one_instant(self, sim):
        ev = Event(sim, "e")

        def body():
            yield from self._wait_10ns(sim, True)
            for _ in range(11):
                ev.notify_delta()
                yield ev

        sim.spawn("p", body)
        with pytest.raises(SchedulingError, match="more than 10 delta cycles"):
            sim.run(max_deltas_per_instant=10)
