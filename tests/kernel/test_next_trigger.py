"""SC_METHOD dynamic sensitivity: ``next_trigger`` semantics."""

import pytest

from repro.kernel import AnyOf, Module, ProcessError, ProcessState, ns


class Ticker(Module):
    """A method process whose body re-arms itself via next_trigger."""

    def __init__(self, name, sim, program):
        super().__init__(name, sim=sim)
        self.static_ev = self.event("static")
        self.dynamic_ev = self.event("dynamic")
        self.program = list(program)
        self.activations = []
        self.process = self.add_method(
            self.body, sensitivity=[self.static_ev], initialize=False
        )

    def body(self):
        self.activations.append(self.sim.now.to_ns())
        if self.program:
            self.process.next_trigger(self.program.pop(0))


class TestNextTrigger:
    def test_timed_next_trigger_overrides_static(self, sim):
        ticker = Ticker("t", sim, program=[ns(7)])
        ticker.static_ev.notify(ns(1))  # first activation, installs +7ns
        ticker.static_ev.notify(ns(3))  # must be ignored (dynamic pending)
        sim.run()
        assert ticker.activations == [1.0, 8.0]

    def test_event_next_trigger(self, sim):
        ticker = Ticker("t", sim, program=[])

        def body_program():
            ticker.process.next_trigger(ticker.dynamic_ev)

        ticker.program = []
        # First activation arms the dynamic event manually via program:
        ticker.program.append(ticker.dynamic_ev)
        ticker.static_ev.notify(ns(1))
        ticker.dynamic_ev.notify(ns(5))
        sim.run()
        assert ticker.activations == [1.0, 5.0]

    def test_one_shot_then_static_restored(self, sim):
        ticker = Ticker("t", sim, program=[ns(4)])
        ticker.static_ev.notify(ns(1))   # activation 1 -> dynamic +4ns
        sim.run()
        ticker.static_ev.notify(ns(1))   # dynamic consumed: static works again
        sim.run()
        assert ticker.activations == [1.0, 5.0, 6.0]

    def test_next_trigger_none_restores_static(self, sim):
        # `next_trigger(None)` explicitly selects the static list again.
        ticker = Ticker("t", sim, program=[None])
        ticker.static_ev.notify(ns(1))
        sim.run()
        ticker.static_ev.notify(ns(1))
        sim.run()
        assert ticker.activations == [1.0, 2.0]

    def test_anyof_next_trigger(self, sim):
        ticker = Ticker("t", sim, program=[])
        ticker.program = [AnyOf([ticker.dynamic_ev], timeout=ns(50))]
        ticker.static_ev.notify(ns(1))
        sim.run()
        # Timeout fired (the event never did).
        assert ticker.activations == [1.0, 51.0]

    def test_invalid_spec_raises(self, sim):
        ticker = Ticker("t", sim, program=["garbage"])
        ticker.static_ev.notify(ns(1))
        with pytest.raises(ProcessError, match="invalid next_trigger"):
            sim.run()

    def test_invalid_spec_terminates_the_process(self, sim):
        # Like a thread with a bad wait spec or a method whose body
        # raises: the process is terminated and raises only once.
        ticker = Ticker("t", sim, program=[42])
        ticker.static_ev.notify(ns(1))
        with pytest.raises(ProcessError):
            sim.run()
        assert ticker.process.state is ProcessState.TERMINATED
        ticker.static_ev.notify(ns(1))
        sim.run()
        assert ticker.activations == [1.0]

    def test_initialize_run_can_install_dynamic(self, sim):
        class SelfTimer(Module):
            def __init__(self, name, sim):
                super().__init__(name, sim=sim)
                self.hits = []
                self.process = self.add_method(self.body, initialize=True)

            def body(self):
                self.hits.append(self.sim.now.to_ns())
                if len(self.hits) < 3:
                    self.process.next_trigger(ns(10))

        timer = SelfTimer("st", sim)
        sim.run()
        # A method process with no static sensitivity becomes a timer.
        assert timer.hits == [0.0, 10.0, 20.0]
