"""The process-body dataflow analyzer: REP4xx rules and the dynamic cross-check.

Every fixture class lives at module level in this file on purpose: the
analyzer reads process bodies with :func:`inspect.getsource`, which needs
the defining file on disk (classes built in a REPL or ``exec`` string are
conservatively skipped, not analyzed).
"""

import pytest

from repro.analysis import (
    DesignDataflow,
    cross_check,
    run_lint,
    summarize_process,
)
from repro.apps.soc import (
    make_baseline_netlist,
    make_multi_fabric_netlist,
    make_reconfigurable_netlist,
)
from repro.core import Netlist
from repro.kernel import (
    Event,
    Module,
    Port,
    Signal,
    Simulator,
    events_of,
    ns,
    processes_of,
)
from repro.tech import MORPHOSYS


# ---------------------------------------------------------------------------
# Fixture modules, one per rule (positive + clean counterpart)
# ---------------------------------------------------------------------------

class Racy(Module):
    """REP401 positive: two always-runnable threads write one signal."""

    def __init__(self, name, parent=None, sim=None):
        super().__init__(name, parent=parent, sim=sim)
        self.flag = Signal(self.sim, 0, name=f"{self.full_name}.flag")
        self.add_thread(self.writer_a, name="writer_a")
        self.add_thread(self.writer_b, name="writer_b")

    def writer_a(self):
        while True:
            self.flag.write(1)
            yield ns(10)

    def writer_b(self):
        while True:
            self.flag.write(0)
            yield ns(10)


class RacySharedEvent(Module):
    """REP401 positive: two methods fired by the same event write one signal."""

    def __init__(self, name, parent=None, sim=None):
        super().__init__(name, parent=parent, sim=sim)
        self.tick = Signal(self.sim, 0, name="tick")
        self.out = Signal(self.sim, 0, name="out")
        self.add_method(
            self.m_a,
            sensitivity=(self.tick.value_changed,),
            name="m_a",
            initialize=False,
        )
        self.add_method(
            self.m_b,
            sensitivity=(self.tick.value_changed,),
            name="m_b",
            initialize=False,
        )
        self.add_thread(self.stim, name="stim")

    def m_a(self):
        self.out.write(self.tick.read())

    def m_b(self):
        self.out.write(-self.tick.read())

    def stim(self):
        self.tick.write(1)
        yield ns(10)


class PhasedWriters(Module):
    """REP401 fires statically, but the writers never collide at run time:
    the second writer sleeps before its first write, so the dynamic
    cross-check must report the finding *unconfirmed*."""

    def __init__(self, name, parent=None, sim=None):
        super().__init__(name, parent=parent, sim=sim)
        self.flag = Signal(self.sim, 0, name="flag")
        self.add_thread(self.early, name="early")
        self.add_thread(self.late, name="late")

    def early(self):
        self.flag.write(1)
        yield ns(10)

    def late(self):
        yield ns(5)
        self.flag.write(2)


class HandedOff(Module):
    """REP401 clean: two writers with disjoint activation events — they can
    never be runnable in the same delta cycle."""

    def __init__(self, name, parent=None, sim=None):
        super().__init__(name, parent=parent, sim=sim)
        self.sel_a = Signal(self.sim, 0, name="sel_a")
        self.sel_b = Signal(self.sim, 0, name="sel_b")
        self.flag = Signal(self.sim, 0, name="flag")
        self.add_method(
            self.on_a,
            sensitivity=(self.sel_a.posedge,),
            name="on_a",
            initialize=False,
        )
        self.add_method(
            self.on_b,
            sensitivity=(self.sel_b.posedge,),
            name="on_b",
            initialize=False,
        )
        self.add_thread(self.stim, name="stim")

    def on_a(self):
        self.flag.write(1)

    def on_b(self):
        self.flag.write(2)

    def stim(self):
        self.sel_a.write(1)
        yield ns(10)
        self.sel_a.write(0)
        self.sel_b.write(1)
        yield ns(10)


class BadMethod(Module):
    """REP402 positive (react reads ``other`` outside its sensitivity) and
    REP404 positive (``blocking`` is a method process containing a yield)."""

    def __init__(self, name, parent=None, sim=None):
        super().__init__(name, parent=parent, sim=sim)
        self.inp = Signal(self.sim, 0, name="inp")
        self.other = Signal(self.sim, 0, name="other")
        self.out = Signal(self.sim, 0, name="out")
        self.add_method(
            self.react, sensitivity=(self.inp.value_changed,), name="react"
        )
        self.add_method(
            self.blocking, sensitivity=(self.inp.value_changed,), name="blocking"
        )

    def react(self):
        self.out.write(self.inp.read() + self.other.read())

    def blocking(self):
        yield ns(5)


class GoodMethod(Module):
    """REP402/REP404 clean: every read signal is in the sensitivity list."""

    def __init__(self, name, parent=None, sim=None):
        super().__init__(name, parent=parent, sim=sim)
        self.a = Signal(self.sim, 0, name="a")
        self.b = Signal(self.sim, 0, name="b")
        self.out = Signal(self.sim, 0, name="out")
        self.add_method(
            self.add_them,
            sensitivity=(self.a.value_changed, self.b.value_changed),
            name="add_them",
        )

    def add_them(self):
        self.out.write(self.a.read() + self.b.read())


class Looping(Module):
    """REP403 positive: m1 and m2 retrigger each other forever."""

    def __init__(self, name, parent=None, sim=None):
        super().__init__(name, parent=parent, sim=sim)
        self.a = Signal(self.sim, 0, name="a")
        self.b = Signal(self.sim, 0, name="b")
        self.add_method(self.m1, sensitivity=(self.a.value_changed,), name="m1")
        self.add_method(self.m2, sensitivity=(self.b.value_changed,), name="m2")

    def m1(self):
        self.b.write(self.a.read() + 1)

    def m2(self):
        self.a.write(self.b.read() + 1)


class Chained(Module):
    """REP403 clean: a method chain without a cycle (a -> b -> c)."""

    def __init__(self, name, parent=None, sim=None):
        super().__init__(name, parent=parent, sim=sim)
        self.a = Signal(self.sim, 0, name="a")
        self.b = Signal(self.sim, 0, name="b")
        self.c = Signal(self.sim, 0, name="c")
        self.add_method(self.s1, sensitivity=(self.a.value_changed,), name="s1")
        self.add_method(self.s2, sensitivity=(self.b.value_changed,), name="s2")

    def s1(self):
        self.b.write(self.a.read())

    def s2(self):
        self.c.write(self.b.read())


class DeadWait(Module):
    """REP405 positive: ``go`` is waited on but nothing ever notifies it."""

    def __init__(self, name, parent=None, sim=None):
        super().__init__(name, parent=parent, sim=sim)
        self.go = Signal  # shadowed below; keeps linters honest about attrs
        self.go = Event(self.sim, f"{self.full_name}.go")
        self.add_thread(self.waiter, name="waiter")

    def waiter(self):
        yield self.go


class LiveWait(Module):
    """REP405 clean: the waited event has a notifier process."""

    def __init__(self, name, parent=None, sim=None):
        super().__init__(name, parent=parent, sim=sim)
        self.go = Event(self.sim, "go")
        self.add_thread(self.waiter, name="waiter")
        self.add_thread(self.kicker, name="kicker")

    def waiter(self):
        yield self.go

    def kicker(self):
        yield ns(1)
        self.go.notify()


class Holder(Module):
    """Half of the cross-module REP204/REP401 pair: owns the raced signal."""

    def __init__(self, name, parent=None, sim=None):
        super().__init__(name, parent=parent, sim=sim)
        self.level = Signal(self.sim, 0, name=f"{self.full_name}.level")
        self.add_thread(self.local_driver, name="local_driver")

    def local_driver(self):
        while True:
            self.level.write(1)
            yield ns(20)


class RemoteDriver(Module):
    """Other half: writes the holder's signal through a bound port."""

    def __init__(self, name, parent=None, sim=None):
        super().__init__(name, parent=parent, sim=sim)
        self.out_port = Port(self, name="out_port")
        self.add_thread(self.remote_driver, name="remote_driver")

    def remote_driver(self):
        while True:
            self.out_port.write(0)
            yield ns(20)


def _single(module_cls, net_name="net"):
    """Wrap one fixture module as a netlist with instance name ``dut``."""
    netlist = Netlist(net_name)
    netlist.add("dut", module_cls)
    return netlist


def _bind_remote(inst, design):
    inst.out_port.bind(design["holder"].level)


def cross_module_netlist():
    netlist = Netlist("net")
    netlist.add("holder", Holder)
    netlist.add("remote", RemoteDriver, post_elaborate=_bind_remote)
    return netlist


# ---------------------------------------------------------------------------
# REP401 — same-delta multi-driver race
# ---------------------------------------------------------------------------

class TestRep401:
    def test_two_initial_threads_race(self):
        report = run_lint(_single(Racy), dataflow=True)
        diags = report.by_code("REP401")
        assert len(diags) == 1, report.render()
        d = diags[0]
        assert d.severity == "error"
        assert d.location == "net.dut.flag"
        assert "writer_a" in d.message and "writer_b" in d.message
        assert "first delta cycle" in d.message

    def test_shared_activation_event_race(self):
        report = run_lint(_single(RacySharedEvent), dataflow=True)
        diags = report.by_code("REP401")
        assert len(diags) == 1, report.render()
        assert diags[0].location == "net.dut.out"
        assert "activated by event" in diags[0].message

    def test_event_handoff_is_clean(self):
        report = run_lint(_single(HandedOff), dataflow=True)
        assert report.by_code("REP401") == [], report.render()

    def test_not_reported_without_dataflow_layer(self):
        report = run_lint(_single(Racy))
        assert report.by_code("REP401") == []
        # the always-on REP204 still sees the double driver
        assert report.by_code("REP204")


# ---------------------------------------------------------------------------
# REP402 — method reads outside its static sensitivity
# ---------------------------------------------------------------------------

class TestRep402:
    def test_read_outside_sensitivity_flagged(self):
        report = run_lint(_single(BadMethod), dataflow=True)
        diags = report.by_code("REP402")
        assert len(diags) == 1, report.render()
        d = diags[0]
        assert d.severity == "warning"
        assert d.location == "net.dut.react"
        assert "other" in d.message

    def test_fully_sensitive_method_is_clean(self):
        report = run_lint(_single(GoodMethod), dataflow=True)
        assert report.by_code("REP402") == [], report.render()


# ---------------------------------------------------------------------------
# REP403 — combinational loop through method processes
# ---------------------------------------------------------------------------

class TestRep403:
    def test_mutual_retrigger_loop(self):
        report = run_lint(_single(Looping), dataflow=True)
        diags = report.by_code("REP403")
        assert len(diags) == 1, report.render()
        d = diags[0]
        assert d.severity == "warning"
        assert "net.dut.m1" in d.message and "net.dut.m2" in d.message

    def test_acyclic_chain_is_clean(self):
        report = run_lint(_single(Chained), dataflow=True)
        assert report.by_code("REP403") == [], report.render()


# ---------------------------------------------------------------------------
# REP404 — yield inside a method process
# ---------------------------------------------------------------------------

class TestRep404:
    def test_generator_method_process_flagged(self):
        report = run_lint(_single(BadMethod), dataflow=True)
        diags = report.by_code("REP404")
        assert len(diags) == 1, report.render()
        d = diags[0]
        assert d.severity == "error"
        assert d.location == "net.dut.blocking"

    def test_thread_process_yield_is_fine(self):
        report = run_lint(_single(LiveWait), dataflow=True)
        assert report.by_code("REP404") == [], report.render()


# ---------------------------------------------------------------------------
# REP405 — wait on an event nothing notifies
# ---------------------------------------------------------------------------

class TestRep405:
    def test_dead_wait_flagged(self):
        report = run_lint(_single(DeadWait), dataflow=True)
        diags = report.by_code("REP405")
        assert len(diags) == 1, report.render()
        d = diags[0]
        assert d.severity == "error"
        assert d.location == "net.dut.go"

    def test_notified_event_is_clean(self):
        report = run_lint(_single(LiveWait), dataflow=True)
        assert report.by_code("REP405") == [], report.render()


# ---------------------------------------------------------------------------
# REP406 — DRCF unreachable from any master
# ---------------------------------------------------------------------------

class TestRep406:
    def test_fabric_without_master_flagged(self):
        netlist, _ = make_reconfigurable_netlist()
        netlist.remove("cpu")
        report = run_lint(netlist, dataflow=True)
        diags = report.by_code("REP406")
        assert len(diags) == 1, report.render()
        d = diags[0]
        assert d.severity == "warning"
        assert d.location == "top.drcf1"

    def test_reconfigurable_template_is_clean(self):
        netlist, _ = make_reconfigurable_netlist()
        report = run_lint(netlist, dataflow=True)
        assert report.by_code("REP406") == [], report.render()


# ---------------------------------------------------------------------------
# Satellite 1 — REP204 attribution across port binding chains
# ---------------------------------------------------------------------------

class TestRep204PortChain:
    def test_cross_module_port_writer_attributed(self):
        report = run_lint(cross_module_netlist(), dataflow=True)
        diags = report.by_code("REP204")
        assert len(diags) == 1, report.render()
        d = diags[0]
        assert d.location == "net.holder.level"
        assert "net.holder.local_driver" in d.message
        assert "net.remote.remote_driver" in d.message
        # the sharpened rule sees the same pair
        assert report.by_code("REP401"), report.render()


# ---------------------------------------------------------------------------
# Dynamic cross-check (`--confirm` engine)
# ---------------------------------------------------------------------------

class TestCrossCheck:
    def test_race_confirmed(self):
        netlist = _single(Racy)
        report = run_lint(netlist, dataflow=True)
        statuses = cross_check(netlist, report.diagnostics)
        assert statuses[("REP401", "net.dut.flag")] == "confirmed"

    def test_dead_wait_confirmed(self):
        netlist = _single(DeadWait)
        report = run_lint(netlist, dataflow=True)
        statuses = cross_check(netlist, report.diagnostics)
        assert statuses[("REP405", "net.dut.go")] == "confirmed"

    def test_phased_writers_unconfirmed(self):
        netlist = _single(PhasedWriters)
        report = run_lint(netlist, dataflow=True)
        assert report.by_code("REP401"), report.render()
        statuses = cross_check(netlist, report.diagnostics)
        assert statuses[("REP401", "net.dut.flag")] == "unconfirmed"

    def test_no_targets_returns_empty(self):
        netlist = _single(GoodMethod)
        report = run_lint(netlist, dataflow=True)
        assert cross_check(netlist, report.diagnostics) == {}


# ---------------------------------------------------------------------------
# Analyzer internals: summaries and the design-level graph
# ---------------------------------------------------------------------------

class TestSummaries:
    def _elaborate(self, module_cls):
        sim = Simulator()
        netlist = _single(module_cls)
        return netlist.elaborate(sim)

    def test_thread_summary_collects_effects(self):
        design = self._elaborate(LiveWait)
        dut = design["dut"]
        by_name = {p.name: p for p in processes_of(dut)}
        kicker = summarize_process(by_name["net.dut.kicker"])
        assert kicker.kind == "thread"
        assert kicker.runs_at_start
        assert dut.go in kicker.notified_events
        waiter = summarize_process(by_name["net.dut.waiter"])
        assert dut.go in waiter.waited_events

    def test_method_summary_reads_and_writes(self):
        design = self._elaborate(GoodMethod)
        dut = design["dut"]
        (proc,) = processes_of(dut)
        summary = summarize_process(proc)
        assert summary.kind == "method"
        assert dut.a in summary.signal_reads
        assert dut.b in summary.signal_reads
        assert dut.out in summary.signal_writes
        assert not summary.yields_in_body

    def test_design_dataflow_signal_uses(self):
        design = self._elaborate(Racy)
        analysis = DesignDataflow(design.top)
        uses = {u.label: u for u in analysis.signal_uses()}
        use = uses["net.dut.flag"]
        assert sorted(w.name for w in use.writers) == [
            "net.dut.writer_a",
            "net.dut.writer_b",
        ]


# ---------------------------------------------------------------------------
# Kernel hooks the analyzer relies on
# ---------------------------------------------------------------------------

class TestKernelHooks:
    def test_events_of_finds_module_events(self):
        sim = Simulator()
        design = _single(DeadWait).elaborate(sim)
        events = events_of(design["dut"])
        assert list(events) == ["go"]
        assert events["go"] is design["dut"].go

    def test_signal_events_triple(self):
        sim = Simulator()
        sig = Signal(sim, 0, name="s")
        assert sig.events() == (sig.value_changed, sig.posedge, sig.negedge)

    def test_process_kind_and_runs_at_start(self):
        sim = Simulator()
        design = _single(GoodMethod).elaborate(sim)
        (method,) = processes_of(design["dut"])
        assert method.kind == "method"
        assert method.runs_at_start  # add_method initializes by default
        design2 = _single(Racy).elaborate(Simulator())
        for proc in processes_of(design2["dut"]):
            assert proc.kind == "thread"
            assert proc.runs_at_start

    def test_write_hook_sees_writer_process(self):
        sim = Simulator()
        design = _single(Racy).elaborate(sim)
        seen = []
        design["dut"].flag.write_hook = lambda sig, value: seen.append(
            (sim.current_process.name if sim.current_process else None, value)
        )
        sim.run(until=ns(5))
        writers = {name for name, _ in seen}
        assert writers == {"net.dut.writer_a", "net.dut.writer_b"}
        assert sim.current_process is None  # reset after run()


# ---------------------------------------------------------------------------
# Acceptance: the shipped templates carry no REP4xx findings
# ---------------------------------------------------------------------------

class TestTemplatesClean:
    @pytest.mark.parametrize(
        "factory",
        [
            make_baseline_netlist,
            make_reconfigurable_netlist,
            lambda: make_multi_fabric_netlist(
                {"fa": (("fir",), MORPHOSYS), "fb": (("fft",), MORPHOSYS)}
            ),
        ],
        ids=["baseline", "reconfigurable", "multi_fabric"],
    )
    def test_template_has_no_rep4xx(self, factory):
        netlist, _ = factory()
        report = run_lint(netlist, dataflow=True)
        rep4 = [d for d in report.diagnostics if d.code.startswith("REP4")]
        assert rep4 == [], report.render()
