"""Simulator API surface: hooks, scheduling helpers, guards."""

import pytest

from repro.kernel import ElaborationError, ns


class TestElaborationHooks:
    def test_hook_runs_once_before_first_evaluation(self, sim):
        order = []
        sim.add_end_of_elaboration_hook(lambda: order.append("hook"))

        def body():
            order.append("process")
            yield ns(1)

        sim.spawn("p", body)
        sim.run()
        sim.run()  # second run must not re-run the hook
        assert order == ["hook", "process"]

    def test_hook_after_start_rejected(self, sim):
        sim.run()
        with pytest.raises(ElaborationError, match="already started"):
            sim.add_end_of_elaboration_hook(lambda: None)


class TestScheduleHelper:
    def test_callback_fires_at_delay(self, sim):
        fired = []
        sim.schedule(ns(7), lambda: fired.append(sim.now.to_ns()))
        sim.run()
        assert fired == [7.0]

    def test_cancel_prevents_firing(self, sim):
        fired = []
        action = sim.schedule(ns(7), lambda: fired.append(True))
        action.cancel()
        sim.run()
        assert fired == []

    def test_ordering_of_equal_times(self, sim):
        fired = []
        sim.schedule(ns(5), lambda: fired.append("first"))
        sim.schedule(ns(5), lambda: fired.append("second"))
        sim.run()
        assert fired == ["first", "second"]


class TestGuards:
    def test_run_is_not_reentrant(self, sim):
        def body():
            sim.run()
            yield ns(1)

        sim.spawn("p", body)
        with pytest.raises(Exception, match="not reentrant"):
            sim.run()

    def test_stats_accumulate(self, sim):
        def body():
            for _ in range(3):
                yield ns(1)

        sim.spawn("p", body)
        sim.run()
        stats = sim.stats.as_dict()
        assert stats["process_executions"] >= 4  # start + 3 resumes
        assert stats["timed_activations"] >= 3

    def test_repr_mentions_time(self, sim):
        sim.run()
        assert "now=" in repr(sim)


class TestTraceHooks:
    def test_hook_called_once_per_active_instant(self, sim):
        times = []
        sim.trace_hooks.append(lambda t: times.append(t.to_ns()))

        def body():
            yield ns(5)
            yield ns(5)

        sim.spawn("p", body)
        sim.run()
        # The initial evaluation at t=0 is an instant too.
        assert times == [0.0, 5.0, 10.0]

    def test_hook_fires_for_delta_only_instants(self, sim):
        """A model whose activity is all delta cycles at t=0 is still traced."""
        from repro.kernel import Event, Signal

        times = []
        sim.trace_hooks.append(lambda t: times.append(t.femtoseconds))
        sig = Signal(sim, 0, "s")
        done = Event(sim, "done")

        def waiter():
            yield sig.value_changed
            done.notify_delta()

        def writer():
            sig.write(1)
            yield done

        sim.spawn("w", waiter)
        sim.spawn("p", writer)
        sim.run()
        assert times == [0]  # once, after the t=0 deltas settled

    def test_hook_fires_once_per_instant_despite_many_deltas(self, sim):
        from repro.kernel import Event

        times = []
        sim.trace_hooks.append(lambda t: times.append(t.to_ns()))
        ping = Event(sim, "ping")

        def bouncer():
            for _ in range(5):
                ping.notify_delta()
                yield ping
            yield ns(3)

        sim.spawn("b", bouncer)
        sim.run()
        assert times == [0.0, 3.0]

    def test_hook_sees_settled_signal_values(self, sim):
        """Hooks run after the instant finishes, so committed values are visible."""
        from repro.kernel import Signal

        seen = []
        sig = Signal(sim, 0, "s")
        sim.trace_hooks.append(lambda t: seen.append((t.to_ns(), sig.read())))

        def body():
            sig.write(7)
            yield ns(1)
            sig.write(9)

        sim.spawn("p", body)
        sim.run()
        assert seen == [(0.0, 7), (1.0, 9)]

    def test_no_hook_calls_for_empty_simulation(self, sim):
        times = []
        sim.trace_hooks.append(lambda t: times.append(t))
        sim.run()
        assert times == []
