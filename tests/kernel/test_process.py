"""Thread/method processes: wait specs, AnyOf/AllOf, errors, kill."""

import pytest

from repro.kernel import (
    TIMEOUT,
    AllOf,
    AnyOf,
    Event,
    Module,
    ProcessError,
    SchedulingError,
    ns,
)
from tests.conftest import drive


class TestThreadWaits:
    def test_timeout_wait(self, sim):
        times = []

        def body():
            yield ns(5)
            times.append(sim.now.to_ns())
            yield ns(7)
            times.append(sim.now.to_ns())

        sim.spawn("p", body)
        sim.run()
        assert times == [5.0, 12.0]

    def test_event_wait_returns_event(self, sim):
        ev = Event(sim, "e")

        def body():
            got = yield ev
            return got

        box = drive(sim, body)
        ev.notify(ns(1))
        sim.run()
        assert box.done
        assert box.value is ev

    def test_anyof_returns_first_event(self, sim):
        e1, e2 = Event(sim, "e1"), Event(sim, "e2")

        def body():
            got = yield AnyOf([e1, e2])
            return got

        box = drive(sim, body)
        e2.notify(ns(2))
        e1.notify(ns(5))
        sim.run()
        assert box.value is e2

    def test_anyof_timeout(self, sim):
        e1 = Event(sim, "e1")

        def body():
            got = yield AnyOf([e1], timeout=ns(3))
            return got

        box = drive(sim, body)
        sim.run()
        assert box.value is TIMEOUT
        assert sim.now == ns(3)

    def test_anyof_requires_events_or_timeout(self):
        with pytest.raises(SchedulingError):
            AnyOf([])

    def test_allof_waits_for_all(self, sim):
        e1, e2 = Event(sim, "e1"), Event(sim, "e2")
        done_time = []

        def body():
            yield AllOf([e1, e2])
            done_time.append(sim.now.to_ns())

        sim.spawn("p", body)
        e1.notify(ns(2))
        e2.notify(ns(9))
        sim.run()
        assert done_time == [9.0]

    def test_allof_requires_events(self):
        with pytest.raises(SchedulingError):
            AllOf([])

    def test_invalid_wait_spec_raises_process_error(self, sim):
        def body():
            yield "nonsense"

        sim.spawn("p", body)
        with pytest.raises(ProcessError, match="invalid wait specification"):
            sim.run()

    def test_plain_callable_runs_once(self, sim):
        ran = []

        def body():
            ran.append(sim.now.to_ns())

        sim.spawn("p", body)
        sim.run()
        assert ran == [0.0]

    def test_yield_from_composition(self, sim):
        def inner():
            yield ns(3)
            return 42

        def outer():
            value = yield from inner()
            yield ns(1)
            return value + 1

        box = drive(sim, outer)
        sim.run()
        assert box.value == 43
        assert sim.now == ns(4)


class TestProcessLifecycle:
    def test_exception_wrapped_as_process_error(self, sim):
        def body():
            yield ns(1)
            raise ValueError("boom")

        sim.spawn("broken", body)
        with pytest.raises(ProcessError, match="broken.*ValueError: boom"):
            sim.run()

    def test_kill_prevents_execution(self, sim):
        ran = []

        def body():
            yield ns(1)
            ran.append(True)

        process = sim.spawn("p", body)
        process.kill()
        sim.run()
        assert ran == []
        assert process.terminated

    def test_terminated_event_fires(self, sim):
        ev_times = []

        def short():
            yield ns(2)

        process = sim.spawn("short", short)

        def watcher():
            yield process.terminated_event
            ev_times.append(sim.now.to_ns())

        sim.spawn("watch", watcher)
        sim.run()
        assert ev_times == [2.0]

    def test_static_sensitivity_yield_none(self, sim):
        ev = Event(sim, "tick")
        counts = []

        def body():
            while True:
                yield None
                counts.append(sim.now.to_ns())

        process = sim.spawn("p", body, daemon=True)
        process.add_sensitivity(ev)
        ev.notify(ns(1))
        sim.run()
        ev.notify(ns(1))
        sim.run()
        assert counts == [1.0, 2.0]

    def test_yield_none_without_sensitivity_is_error(self, sim):
        def body():
            yield None

        sim.spawn("p", body)
        with pytest.raises(ProcessError, match="static sensitivity"):
            sim.run()


class TestMethodProcesses:
    def test_method_runs_on_sensitivity(self, sim):
        class M(Module):
            def __init__(self, name, sim):
                super().__init__(name, sim=sim)
                self.ev = self.event("tick")
                self.hits = []
                self.add_method(self.on_tick, sensitivity=[self.ev], initialize=False)

            def on_tick(self):
                self.hits.append(self.sim.now.to_ns())

        m = M("m", sim)
        m.ev.notify(ns(3))
        sim.run()
        m.ev.notify(ns(2))
        sim.run()
        assert m.hits == [3.0, 5.0]

    def test_method_initialize_runs_at_start(self, sim):
        class M(Module):
            def __init__(self, name, sim):
                super().__init__(name, sim=sim)
                self.hits = 0
                self.add_method(self.on_tick, initialize=True)

            def on_tick(self):
                self.hits += 1

        m = M("m", sim)
        sim.run()
        assert m.hits == 1

    def test_method_exception_wrapped(self, sim):
        class M(Module):
            def __init__(self, name, sim):
                super().__init__(name, sim=sim)
                self.add_method(self.on_tick, initialize=True)

            def on_tick(self):
                raise RuntimeError("method boom")

        M("m", sim)
        with pytest.raises(ProcessError, match="method boom"):
            sim.run()
