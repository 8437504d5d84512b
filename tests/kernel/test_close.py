"""Simulator.close(): ending a simulation for good.

``close()`` kills every process, empties the queues, and cuts every
reference from the design back to the simulator and up the module
hierarchy, so reference counting frees a finished run.  What the run
measured (``stats``, ``now``, the module tree and each module's own
state) stays readable.
"""

import gc
import weakref

import pytest

from repro.bus import Bus, Memory
from repro.core import Drcf
from repro.kernel import (
    AnyOf,
    Event,
    Module,
    ProcessError,
    SchedulingError,
    Signal,
    SimulationError,
    Simulator,
    ns,
)
from tests.core.helpers import small_tech


class Leaf(Module):
    """A child with one thread in a bounded event wait and one method
    process statically sensitive to a signal."""

    def __init__(self, name, parent):
        super().__init__(name, parent=parent)
        self.done = Event(self.sim, f"{self.full_name}.done")
        self.level = Signal(self.sim, 0, name=f"{self.full_name}.level")
        self.ticks = 0
        self.add_thread(self._work)
        self.add_method(self._watch, [self.level.value_changed])

    def _work(self):
        while True:
            yield ns(10)
            self.ticks += 1
            self.level.write(self.ticks)
            yield AnyOf([self.done], timeout=ns(25))

    def _watch(self):
        pass


class Top(Module):
    def __init__(self, name, sim):
        super().__init__(name, sim=sim)
        self.left = Leaf("left", self)
        self.right = Leaf("right", self)


def _tree(sim):
    return [
        (module.full_name, [child.basename for child in module.children])
        for top in sim._top_modules
        for module in (top, *top.descendants())
    ]


@pytest.fixture
def collector_off():
    """Hold the cycle collector off, so only reference counting frees."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


class TestLifecycle:
    def test_a_second_close_is_a_no_op(self, sim):
        Top("top", sim)
        sim.run(until=ns(100))
        sim.close()
        sim.close()
        assert sim._processes == []

    def test_close_inside_run_raises(self, sim):
        def body():
            yield ns(5)
            sim.close()

        sim.spawn("closer", body)
        with pytest.raises(ProcessError, match=r"close\(\) inside run\(\)"):
            sim.run()

    def test_run_after_close_raises_naming_the_simulator(self):
        sim = Simulator(name="point7")
        Top("top", sim)
        sim.run(until=ns(50))
        sim.close()
        with pytest.raises(SchedulingError, match="'point7' is closed"):
            sim.run()

    def test_a_cleanup_that_raises_is_raised_once_everything_is_cut(self, sim):
        top = Top("top", sim)

        def stubborn():
            try:
                yield ns(1000)
            finally:
                raise RuntimeError("cleanup failed")

        sim.spawn("stubborn", stubborn)
        sim.run(until=ns(50))
        with pytest.raises(RuntimeError, match="cleanup failed"):
            sim.close()
        assert sim._processes == [] and top.left.sim is None and top.right.parent is None
        sim.close()  # already closed: a no-op

    def test_modules_whose_constructors_raised_close(self, sim):
        """A netlist that fails to elaborate leaves half-built modules in
        the tree; the linter reports it (REP001) and closes its scratch
        simulator all the same."""
        with pytest.raises(ValueError, match="unknown bus protocol"):
            Bus("bus", sim=sim, protocol="bogus")
        with pytest.raises(SimulationError, match="needs at least one context"):
            Drcf("drcf", sim=sim, tech=small_tech())
        sim.close()
        assert [top.sim for top in sim._top_modules] == [None, None]

    def test_a_never_started_simulator_closes(self, sim):
        top = Top("top", sim)
        worker, watcher = top.left.processes
        sim.close()
        assert worker.terminated and watcher.terminated
        assert sim.stats.process_executions == 0

    def test_close_empties_the_queues_and_hooks(self, sim):
        top = Top("top", sim)
        sim.trace_hooks.append(lambda now: None)
        sim.run(until=ns(100))
        top.left.done.notify(ns(3))
        top.right.level.write(99)
        worker = top.left.processes[0]
        sim.close()
        assert not (sim._runnable or sim._timed_heap or sim._delta_events or sim._update_queue)
        assert sim.trace_hooks == [] and sim.pending_timed_count() == 0
        assert top.left.processes == [] and worker.sim is None

    def test_close_cuts_the_design_from_the_simulator(self, sim):
        top = Top("top", sim)
        sim.run(until=ns(100))
        sim.close()
        leaf = top.left
        assert leaf.sim is None and leaf.parent is None
        assert leaf.done.sim is None and leaf.level.sim is None
        assert leaf.level.value_changed.sim is None


class TestWhatStaysReadable:
    def test_stats_now_and_the_module_tree_read_the_same(self, sim):
        top = Top("top", sim)
        sim.run(until=ns(170))
        before = (sim.stats.as_dict(), sim.now, sim._seq, _tree(sim), top.left.ticks)
        sim.close()
        after = (sim.stats.as_dict(), sim.now, sim._seq, _tree(sim), top.left.ticks)
        assert after == before
        assert top.child("left") is top.left


class TestKilledMasters:
    """Masters killed mid-transfer leave the bus as ``kill()`` does."""

    @pytest.mark.parametrize("first", ["holder", "queued"])
    def test_the_holder_releases_and_the_queued_master_withdraws(self, sim, first):
        bus = Bus("bus", sim=sim, protocol="blocking")
        memory = Memory("mem", sim=sim, base=0, size_words=1024, latency_cycles=50)
        bus.register_slave(memory)
        log = []

        def master(label):
            def body():
                data = yield from bus.read(0, 16, master=label)
                log.append((label, data))

            return body

        order = ["holder", "queued"] if first == "holder" else ["queued", "holder"]
        delays = {"holder": 0, "queued": 1}
        for label in order:
            def delayed(label=label):
                yield ns(delays[label])
                yield from master(label)()

            sim.spawn(label, delayed)
        sim.run(until=ns(100))
        arbiter = bus.arbiter
        assert arbiter.owner == "holder" and arbiter.waiters == ["queued"]
        sim.close()
        assert arbiter.owner is None and arbiter.waiters == []
        assert arbiter.idle
        assert log == [] and bus.monitor.transaction_count == 0


class TestReferenceCounting:
    def test_weak_references_die_with_the_last_strong_one(self, collector_off):
        sim = Simulator()
        top = Top("top", sim)
        sim.run(until=ns(130))
        leaf = top.left
        event, process = leaf.done, leaf.processes[0]
        refs = {
            "sim": weakref.ref(sim),
            "module": weakref.ref(leaf),
            "event": weakref.ref(event),
            "process": weakref.ref(process),
        }
        sim.close()
        del sim
        assert refs["sim"]() is None
        del process
        assert refs["process"]() is None
        del event
        assert refs["event"]() is not None  # the module still holds it
        del leaf
        assert refs["module"]() is not None  # its parent still holds it
        del top
        assert [name for name, ref in refs.items() if ref() is not None] == []

    def test_a_closed_bus_design_is_freed(self, collector_off):
        sim = Simulator()
        bus = Bus("bus", sim=sim, protocol="split")
        memory = Memory("mem", sim=sim, base=0, size_words=1024)
        bus.register_slave(memory)

        def body():
            while True:
                yield from bus.read(0, 4, master="m")

        sim.spawn("m", body)
        sim.run(until=ns(333))
        refs = [weakref.ref(obj) for obj in (sim, bus, bus.arbiter, memory)]
        sim.close()
        del sim, bus, memory, body
        assert [ref() for ref in refs] == [None] * len(refs)
