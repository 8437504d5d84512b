"""The control-flow layer: CFGs, their rule-support queries, REP5xx rules.

Every fixture class lives at module level in this file on purpose: the
analyzer reads process bodies with :func:`inspect.getsource`, which needs
the defining file on disk (classes built in a REPL or ``exec`` string are
conservatively treated as unresolved, not analyzed).
"""

import pytest

from repro.analysis import cfg as C
from repro.analysis.lint import RULES, run_lint
from repro.kernel import AnyOf, Clock, Module, Signal, Simulator, TIMEOUT, ns


# ---------------------------------------------------------------------------
# Synthetic bodies covering the CFG corner cases
# ---------------------------------------------------------------------------

class Synth(Module):
    def __init__(self, name, sim=None, parent=None):
        super().__init__(name, parent=parent, sim=sim)
        self.a = Signal(self.sim, 0, name="a")
        self.b = Signal(self.sim, 0, name="b")
        self.req = Signal(self.sim, False, name="req")

    def single_writer(self):
        while True:
            self.a.write(self.a.read() + 1)
            yield ns(10)

    def double_writer(self):
        while True:
            self.a.write(0)
            self.a.write(1)
            yield ns(10)

    def pulse_method(self):
        self.b.write(True)
        self.b.write(False)

    def timeout_refined(self):
        while True:
            result = yield AnyOf([self.req.posedge], timeout=ns(5))
            if result is TIMEOUT:
                self.a.write(1)

    def while_else(self):
        n = 0
        while n < 3:
            n += 1
            yield ns(1)
        else:
            self.a.write(n)
        yield ns(1)

    def nested_break_continue(self):
        for i in range(4):
            while True:
                if i % 2:
                    break
                yield ns(1)
                break
            if i == 3:
                continue
            self.a.write(i)
            yield ns(1)

    def try_finally_wait(self):
        try:
            yield ns(5)
            self.a.write(1)
        finally:
            self.b.write(1)
        yield ns(5)

    def early_return(self):
        yield ns(1)
        if self.a.read() > 10:
            return
        self.b.write(1)
        yield ns(1)

    def livelock(self):
        while True:
            if self.req.read():
                yield self.req.negedge

    def no_livelock(self):
        while True:
            yield ns(10)
            self.a.write(1)

    def dead_code(self):
        while True:
            yield ns(1)
        self.a.write(99)

    def helper_write(self):
        self.a.write(1)

    def calls_helper(self):
        while True:
            self.helper_write()
            yield ns(10)

    def double_via_helper(self):
        while True:
            self.a.write(0)
            self.helper_write()
            yield ns(10)

    def gen_helper(self):
        yield ns(10)

    def splices(self):
        while True:
            self.a.write(1)
            yield from self.gen_helper()

    def foreign_splice(self):
        yield from iter([ns(1)])

    def recursive(self):
        yield ns(1)
        yield from self.recursive()


def _flow(name):
    return C.analyze_function(Synth, getattr(Synth, name))


class TestCornerCases:
    """Each construct must yield a well-formed CFG or a conservative
    unresolved flag — never a crash."""

    @pytest.mark.parametrize(
        "name",
        [
            "single_writer", "double_writer", "pulse_method",
            "timeout_refined", "while_else", "nested_break_continue",
            "try_finally_wait", "early_return", "livelock", "no_livelock",
            "dead_code", "calls_helper", "double_via_helper", "splices",
        ],
    )
    def test_resolves_to_machine(self, name):
        flow = _flow(name)
        assert not flow.unresolved, flow.reason
        cfg = flow.cfg
        assert cfg is not None
        # Well-formed: every edge lands on a node, the reachable waits are
        # wait nodes, and the written paths are the nodes' own writes.
        for node in cfg.nodes:
            for succ in node.succs + node.exc_succs:
                assert 0 <= succ < len(cfg.nodes)
        assert cfg.nodes[cfg.entry].kind == "entry" and cfg.nodes[cfg.exit].kind == "exit"
        assert all(node.kind == "wait" for node in C.reachable_waits(flow))
        assert flow.write_paths <= {p for node in cfg.nodes for p in node.writes}

    def test_while_else_effects(self):
        flow = _flow("while_else")
        # The else-arm write is reachable, also before any wait when the
        # loop body never runs.
        assert flow.write_paths == {("a",)}
        assert flow.entry_writes == {("a",)}

    def test_nested_break_continue_states(self):
        flow = _flow("nested_break_continue")
        waits = [node for node in C.reachable_waits(flow) if node.wait.kind == "timed"]
        assert len(waits) == 2
        assert not C.waitless_loops(flow)  # break/continue is not a livelock

    def test_try_finally_wait(self):
        flow = _flow("try_finally_wait")
        # The finally-body write is reachable on the normal path, after
        # the try body's first statement has waited.
        assert flow.write_paths == {("a",), ("b",)}
        assert flow.entry_writes == frozenset()

    def test_early_return_reaches_exit(self):
        flow = _flow("early_return")
        assert flow.cfg.exit in flow.cfg.reachable()
        assert flow.write_paths == {("b",)}

    def test_foreign_yield_from_unresolved(self):
        flow = _flow("foreign_splice")
        assert flow.unresolved and "yield from" in flow.reason

    def test_recursive_splice_unresolved(self):
        flow = _flow("recursive")
        assert flow.unresolved

    def test_analyze_never_raises_without_source(self):
        flow = C.analyze_function(Synth, len)  # builtin: no source at all
        assert flow.unresolved


class TestRuleQueries:
    def test_livelock_positive(self):
        flow = _flow("livelock")
        loops = C.waitless_loops(flow)
        assert loops and all(isinstance(line, int) for line, _ in loops)

    def test_livelock_negative(self):
        assert not C.waitless_loops(_flow("no_livelock"))

    def test_unreachable(self):
        dead = C.unreachable_statements(_flow("dead_code"))
        assert dead and any("99" in source for _, source in dead)
        assert not C.unreachable_statements(_flow("no_livelock"))

    def test_write_coverage(self):
        may, must = C.write_coverage(_flow("pulse_method"))
        assert ("b",) in may and ("b",) in must


# ---------------------------------------------------------------------------
# REP5xx rules: one positive and one clean negative design each
# ---------------------------------------------------------------------------

class LivelockTop(Module):
    def __init__(self, name, sim=None):
        super().__init__(name, sim=sim)
        self.req = Signal(self.sim, False, name="req")
        self.add_thread(self.spin)

    def spin(self):
        while True:
            if self.req.read():
                yield self.req.negedge


class NoLivelockTop(Module):
    def __init__(self, name, sim=None):
        super().__init__(name, sim=sim)
        self.req = Signal(self.sim, False, name="req")
        self.add_thread(self.tick)

    def tick(self):
        while True:
            yield ns(10)


class DeadCodeTop(Module):
    def __init__(self, name, sim=None):
        super().__init__(name, sim=sim)
        self.done = Signal(self.sim, False, name="done")
        self.add_thread(self.run_forever)

    def run_forever(self):
        while True:
            yield ns(10)
        self.done.write(True)


class LatchTop(Module):
    """REP503 positive: clocked method writes q only when enable is high."""

    def __init__(self, name, sim=None):
        super().__init__(name, sim=sim)
        self.clk = Clock("clk", ns(10), parent=self)
        self.d = Signal(self.sim, 0, name="d")
        self.q = Signal(self.sim, 0, name="q")
        self.enable = Signal(self.sim, True, name="en")
        self.add_method(self.stage, sensitivity=(self.clk.posedge,), initialize=False)

    def stage(self):
        if self.enable.read():
            self.q.write(self.d.read())


class RegisteredTop(Module):
    """REP503 negative: same shape but q written on every path."""

    def __init__(self, name, sim=None):
        super().__init__(name, sim=sim)
        self.clk = Clock("clk", ns(10), parent=self)
        self.d = Signal(self.sim, 0, name="d")
        self.q = Signal(self.sim, 0, name="q")
        self.enable = Signal(self.sim, True, name="en")
        self.add_method(self.stage, sensitivity=(self.clk.posedge,), initialize=False)

    def stage(self):
        if self.enable.read():
            self.q.write(self.d.read())
        else:
            self.q.write(self.q.read())


class HandshakeTop(Module):
    """REP504 positive: waits only when ack is low."""

    def __init__(self, name, sim=None):
        super().__init__(name, sim=sim)
        self.ack = Signal(self.sim, False, name="ack")
        self.data = Signal(self.sim, 0, name="data")
        self.add_thread(self.producer)

    def producer(self):
        while True:
            if not self.ack.read():
                yield self.ack.posedge
            self.data.write(self.data.read() + 1)
            yield ns(10)


class GuardedTop(Module):
    """REP504 negative: the non-waiting arm leaves the branch entirely."""

    def __init__(self, name, sim=None):
        super().__init__(name, sim=sim)
        self.ack = Signal(self.sim, False, name="ack")
        self.data = Signal(self.sim, 0, name="data")
        self.add_thread(self.producer)

    def producer(self):
        while True:
            if not self.ack.read():
                yield ns(1)
                continue
            self.data.write(self.data.read() + 1)
            yield ns(10)


class ParamGuardTop(Module):
    """REP504 negative: the guard reads only a local, so the variable
    latency is a modeled parameter (the accelerator ``if duration >
    ZERO_TIME: yield duration`` idiom), not signal data."""

    def __init__(self, name, sim=None):
        super().__init__(name, sim=sim)
        self.data = Signal(self.sim, 0, name="data")
        self.add_thread(self.engine)

    def engine(self):
        while True:
            duration = self.latency()
            if duration > ns(0):
                yield duration
            self.data.write(self.data.read() + 1)

    def latency(self):
        return ns(5)


class CdcTop(Module):
    """REP505 positive: flag written in clk_a domain, read in clk_b domain."""

    def __init__(self, name, sim=None):
        super().__init__(name, sim=sim)
        self.clk_a = Clock("clk_a", ns(10), parent=self)
        self.clk_b = Clock("clk_b", ns(7), parent=self)
        self.src = Signal(self.sim, 0, name="src")
        self.flag = Signal(self.sim, 0, name="flag")
        self.out = Signal(self.sim, 0, name="out")
        self.other = Signal(self.sim, 0, name="other")
        self.add_method(self.producer, sensitivity=(self.clk_a.posedge,), initialize=False)
        self.add_method(self.consumer, sensitivity=(self.clk_b.posedge,), initialize=False)

    def producer(self):
        self.flag.write(self.src.read())

    def consumer(self):
        # reads two signals -> not a synchronizer flop
        self.out.write(self.flag.read() + self.other.read())


class CdcSyncTop(Module):
    """REP505 negative: the crossing goes through a synchronizer flop."""

    def __init__(self, name, sim=None):
        super().__init__(name, sim=sim)
        self.clk_a = Clock("clk_a", ns(10), parent=self)
        self.clk_b = Clock("clk_b", ns(7), parent=self)
        self.src = Signal(self.sim, 0, name="src")
        self.flag = Signal(self.sim, 0, name="flag")
        self.flag_sync = Signal(self.sim, 0, name="flag_sync")
        self.out = Signal(self.sim, 0, name="out")
        self.other = Signal(self.sim, 0, name="other")
        self.add_method(self.producer, sensitivity=(self.clk_a.posedge,), initialize=False)
        self.add_method(self.sync, sensitivity=(self.clk_b.posedge,), initialize=False)
        self.add_method(self.consumer, sensitivity=(self.clk_b.posedge,), initialize=False)

    def producer(self):
        self.flag.write(self.src.read())

    def sync(self):
        self.flag_sync.write(self.flag.read())

    def consumer(self):
        self.out.write(self.flag_sync.read() + self.other.read())


class EntryRaceTop(Module):
    """REP506 positive: two threads write mode before their first wait."""

    def __init__(self, name, sim=None):
        super().__init__(name, sim=sim)
        self.mode = Signal(self.sim, 0, name="mode")
        self.add_thread(self.init_a)
        self.add_thread(self.init_b)

    def init_a(self):
        self.mode.write(1)
        yield ns(10)

    def init_b(self):
        self.mode.write(2)
        yield ns(10)


class StaggeredTop(Module):
    """REP506 negative: second writer waits before writing."""

    def __init__(self, name, sim=None):
        super().__init__(name, sim=sim)
        self.mode = Signal(self.sim, 0, name="mode")
        self.add_thread(self.init_a)
        self.add_thread(self.init_b)

    def init_a(self):
        self.mode.write(1)
        yield ns(10)

    def init_b(self):
        yield ns(5)
        self.mode.write(2)
        yield ns(10)


def _codes(top_cls, select):
    sim = Simulator()
    top = top_cls("t", sim=sim)
    report = run_lint(design=top, cfg=True, select=select)
    return [d.code for d in report.diagnostics]


class TestRep5xxRules:
    @pytest.mark.parametrize(
        "code,positive,negative",
        [
            ("REP501", LivelockTop, NoLivelockTop),
            ("REP502", DeadCodeTop, NoLivelockTop),
            ("REP503", LatchTop, RegisteredTop),
            ("REP504", HandshakeTop, GuardedTop),
            ("REP504", HandshakeTop, ParamGuardTop),
            ("REP505", CdcTop, CdcSyncTop),
            ("REP506", EntryRaceTop, StaggeredTop),
        ],
    )
    def test_positive_and_clean_negative(self, code, positive, negative):
        assert code in _codes(positive, code)
        assert _codes(negative, code) == []

    def test_cfg_layer_is_opt_in(self):
        sim = Simulator()
        top = LivelockTop("t", sim=sim)
        report = run_lint(design=top, dataflow=True, select="REP5")
        assert report.diagnostics == []

    def test_layer_field(self):
        sim = Simulator()
        top = LivelockTop("t", sim=sim)
        report = run_lint(design=top, cfg=True, select="REP501")
        [diag] = report.diagnostics
        assert diag.layer == "cfg"
        assert diag.to_dict()["layer"] == "cfg"

    def test_every_rep5_rule_has_example(self):
        rep5 = [r for code, r in RULES.items() if code.startswith("REP5")]
        assert len(rep5) == 6
        for entry in rep5:
            assert entry.example.strip()
            assert entry.layer == "cfg"

    def test_stable_sort_with_layers(self):
        sim = Simulator()
        top = LivelockTop("t", sim=sim)
        report = run_lint(design=top, cfg=True)
        keys = [(d.code, d.location, d.message) for d in report.diagnostics]
        assert keys == sorted(keys)
