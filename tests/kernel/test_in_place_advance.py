"""``Simulator.alone_until`` / ``advance_alone``: the burst-train fast path.

Each case runs a thread that asks to advance in place; the predicate must
refuse whenever anything else could run or observe the kernel before the
wake, and an accepted advance must leave the books exactly as the kernel
round trip (``yield delay``) would.
"""

import pytest

from repro.kernel import Event, MethodProcess, SchedulingError, Signal, Simulator, ns


def _probe(sim, setup=None, delay=ns(10)):
    """Spawn a thread that runs ``setup()`` then tries to advance by ``delay``."""
    outcome = {}

    def body():
        if setup is not None:
            setup()
        outcome["advanced"] = sim.advance_alone(delay)
        outcome["now"] = sim.now
        yield ns(1)

    sim.spawn("probe", body)
    return outcome


class TestPredicate:
    def test_alone_process_advances(self, sim):
        outcome = _probe(sim)
        sim.run()
        assert outcome == {"advanced": True, "now": ns(10)}
        assert sim.stats.in_place_advances == 1

    def test_false_outside_a_thread_execution(self, sim):
        assert not sim.alone_until(0)  # no process is running
        seen = []
        method = MethodProcess(sim, "m", lambda: seen.append(sim.alone_until(10)))
        sim.register_process(method)
        sim.run()
        assert seen == [False]  # methods cannot wait

    def test_refused_when_another_process_is_runnable(self, sim):
        outcome = _probe(sim)
        sim.spawn("other", lambda: (yield ns(50)))  # still runnable when the probe asks
        sim.run()
        assert outcome["advanced"] is False
        assert outcome["now"] == ns(0)

    def test_refused_with_pending_update(self, sim):
        sig = Signal(sim, 0, name="s")
        outcome = _probe(sim, lambda: sig.write(1))
        sim.run()
        assert outcome["advanced"] is False

    def test_refused_with_pending_delta_notification(self, sim):
        ev = Event(sim, "e")
        outcome = _probe(sim, ev.notify_delta)
        sim.run()
        assert outcome["advanced"] is False

    def test_refused_with_trace_hook(self, sim):
        sim.trace_hooks.append(lambda now: None)
        outcome = _probe(sim)
        sim.run()
        assert outcome["advanced"] is False

    @pytest.mark.parametrize("at, advanced", [(ns(5), False), (ns(10), False), (ns(11), True)])
    def test_timed_action_at_or_before_wake(self, sim, at, advanced):
        ev = Event(sim, "e")
        outcome = _probe(sim, lambda: ev.notify(at))
        sim.run()
        assert outcome["advanced"] is advanced

    def test_cancelled_timed_actions_do_not_block(self, sim):
        ev = Event(sim, "e")

        def setup():
            ev.notify(ns(5))
            ev.cancel()

        outcome = _probe(sim, setup)
        sim.run()
        assert outcome["advanced"] is True
        assert sim.pending_timed_count() == 0

    @pytest.mark.parametrize("until, advanced", [(ns(9), False), (ns(10), True)])
    def test_wake_must_be_within_until(self, sim, until, advanced):
        outcome = _probe(sim)
        sim.run(until=until)
        assert outcome["advanced"] is advanced

    def test_refused_after_stop_request(self, sim):
        outcome = _probe(sim, sim.stop)
        sim.run()
        assert outcome["advanced"] is False

    def test_refused_when_watchdog_check_is_due(self, sim):
        # The first execution leaves process_executions at 1, but no timed
        # activation has happened yet: the timed-phase check (count 0) is due.
        outcome = _probe(sim)
        sim.run(max_wall_s=60.0)
        assert outcome["advanced"] is False

    def test_negative_delay_goes_through_the_kernel(self, sim):
        def body():
            assert not sim.alone_until(-1)
            yield ns(1)

        sim.spawn("p", body)
        sim.run()


class TestHorizon:
    """``alone_horizon``: how far the running thread may wait in place."""

    @staticmethod
    def _horizon(sim, setup=None, **run_kwargs):
        seen = []

        def body():
            if setup is not None:
                setup()
            seen.append(sim.alone_horizon())
            yield ns(1)

        sim.spawn("probe", body)
        sim.run(**run_kwargs)
        return seen[0]

    def test_unbounded(self, sim):
        assert self._horizon(sim) == (None, None)

    def test_before_the_next_live_timed_action_and_until(self, sim):
        ev = Event(sim, "e")
        one_fs_before = ns(50).femtoseconds - 1
        assert self._horizon(sim, lambda: ev.notify(ns(50))) == (one_fs_before, None)
        assert self._horizon(Simulator(), until=ns(30)) == (ns(30).femtoseconds, None)

    def test_none_when_not_alone(self, sim):
        assert self._horizon(sim, lambda: sim.spawn("other", lambda: (yield ns(5)))) is None

    @pytest.mark.parametrize(
        "executions, activations, waits",
        [(1, 1, 255), (255, 3, 1), (200, 250, 6), (256, 1, 0), (3, 512, 0)],
    )
    def test_waits_left_before_a_watchdog_check(self, sim, executions, activations, waits):
        def setup():
            sim.stats.process_executions = executions
            sim.stats.timed_activations = activations

        assert self._horizon(sim, setup, max_wall_s=60.0) == (None, waits)

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
    """An accepted advance records what the round trip would have."""

    @staticmethod
    def _run(in_place):
        sim = Simulator()
        log = []

        def body():
            for _ in range(3):
                if not (in_place and sim.advance_alone(ns(10))):
                    yield ns(10)
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
            if not (in_place and sim.advance_alone(ns(10))):
                yield ns(10)
            yield from churn()

        sim.spawn("p", body)
        sim.run(max_deltas_per_instant=10)
        assert sim.stats.delta_cycles == 14
        assert sim.stats.in_place_advances == (1 if in_place else 0)

    def test_delta_guard_still_trips_within_one_instant(self, sim):
        ev = Event(sim, "e")

        def body():
            assert sim.advance_alone(ns(10))
            for _ in range(11):
                ev.notify_delta()
                yield ev

        sim.spawn("p", body)
        with pytest.raises(SchedulingError, match="more than 10 delta cycles"):
            sim.run(max_deltas_per_instant=10)
