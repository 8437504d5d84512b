"""Property: a closed simulation is freed by reference counting alone.

The generated programs of test_determinism_property.py (timed waits,
bounded event waits, immediate and timed notifications, signal writes)
run up to a drawn ``until``, so :meth:`Simulator.close` finds their
processes in every kind of wait: a timed wait, an event wait bounded by a
timeout, a pending timed notification, or already terminated.  ``close()``
must never raise, and with the cycle collector held off nothing of the run
may outlive its last reference.
"""

import gc
import weakref

from hypothesis import given, settings, strategies as st

from repro.kernel import AnyOf, Event, Signal, Simulator, ns
from tests.kernel.test_determinism_property import programs


def build(program):
    """The simulator, events, signal and log of ``program``, not yet run."""
    sim = Simulator()
    events = [Event(sim, f"e{i}") for i in range(4)]
    signal = Signal(sim, 0, "shared")
    log = []

    def make_body(pid, script):
        def body():
            for kind, operand in script:
                if kind == "wait":
                    yield ns(operand)
                elif kind == "notify":
                    events[operand].notify()
                elif kind == "notify_timed":
                    events[operand].notify(ns(5))
                elif kind == "wait_event":
                    yield AnyOf([events[operand]], timeout=ns(200))
                elif kind == "write":
                    signal.write(operand)
                elif kind == "read":
                    log.append((sim.now.femtoseconds, pid, "read", signal.read()))
                log.append((sim.now.femtoseconds, pid, kind))
            log.append((sim.now.femtoseconds, pid, "done"))

        return body

    for pid, script in enumerate(program):
        sim.spawn(f"p{pid}", make_body(pid, script))
    return sim, events, signal, log


@given(programs, st.integers(0, 400))
@settings(deadline=None)
def test_a_closed_run_dies_with_its_last_reference(program, until_ns):
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim, events, signal, log = build(program)
        sim.run(until=ns(until_ns))
        processes = list(sim._processes)
        refs = [weakref.ref(obj) for obj in (sim, signal, *events, *processes)]
        sim.close()
        del sim, events, signal, log, processes
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()
