"""Golden rows for the analysis layer.

Each row pins what the lint rules read of one function or process:

* from the control-flow layer (:mod:`repro.analysis.cfg`): whether the
  body resolved, its entry writes, its may/must write coverage, its
  waitless loops, unreachable statements and one-sided wait branches, and
  the blocking calls (``yield from self.<path>.<method>(...)``) it can
  reach;
* from the dataflow layer (:mod:`repro.analysis.dataflow`): the
  ``self``-rooted paths a fixture method reads, writes, waits on and
  notifies, or, for a process of a shipped design, the labels of the
  signals and events its summary resolves to; plus the summary's flags.

Rows cover every method of the fixture classes in ``tests/analysis/`` and
every process of the four ``repro lint --builtin`` designs.  Paths are
dotted and empty fields are left out.  Line numbers are the ones the lint
messages print: relative to the source of the analyzed function (or of
the helper a statement was spliced from), so editing other code in a file
does not move them.  A row that changes is a change of what the lint
rules see, never noise: the analysis is deterministic.

``python -m tests.analysis.test_analysis_golden`` prints the rows.
"""

import importlib
import types

import pytest

from repro.analysis import cfg as C
from repro.analysis.dataflow import DesignDataflow, _fn_facts
from repro.analysis.lint import run_lint
from repro.cli import _builtin_netlists
from repro.kernel import Module, Signal, Simulator, ns

#: The test modules whose module-level classes are fixtures.
FIXTURE_MODULES = (
    "test_cfg",
    "test_dataflow",
    "test_interproc",
    "test_lint",
    "test_analysis_golden",
)

BUILTINS = ("baseline", "reconfigurable", "deadlock", "broken")

#: Dataflow flags a row lists when set.
FLAGS = ("yields_in_body", "opaque_calls", "unresolved_notify")


# ---------------------------------------------------------------------------
# Entry-segment fixtures
# ---------------------------------------------------------------------------

class RaiseBeforeWaitTop(Module):
    """One thread writes ``mode`` and then raises with no handler before
    its first wait; the other writes ``mode`` before its first wait.  The
    raising write never reaches a wait, so it is not an entry write and
    the threads do not race (REP506 stays silent)."""

    def __init__(self, name, sim=None):
        super().__init__(name, sim=sim)
        self.mode = Signal(self.sim, 0, name="mode")
        self.add_thread(self.fail_fast)
        self.add_thread(self.init)

    def fail_fast(self):
        self.mode.write(1)
        raise RuntimeError("unconfigured")
        yield ns(10)  # unreachable; makes this a generator

    def init(self):
        self.mode.write(2)
        yield ns(10)


class HandlerWaitTop(Module):
    """The write sits in a ``try`` whose handler reaches a wait: it is an
    entry write through the exception edge, so REP506 fires."""

    def __init__(self, name, sim=None):
        super().__init__(name, sim=sim)
        self.mode = Signal(self.sim, 0, name="mode")
        self.add_thread(self.retry_init)
        self.add_thread(self.init)

    def retry_init(self):
        try:
            self.mode.write(3)
            raise ValueError("not ready")
        except ValueError:
            yield ns(5)

    def init(self):
        self.mode.write(2)
        yield ns(10)


# ---------------------------------------------------------------------------
# Row builders
# ---------------------------------------------------------------------------

def _dotted(paths):
    return sorted({".".join(path) for path in paths})


def _blocking_calls(flow):
    """``target.method`` of every reachable blocking call, in CFG order.

    Trees that still built a wait-state machine per body read the
    reachable waits off the machine's states instead.
    """
    if hasattr(C, "reachable_waits"):
        infos = [node.wait for node in C.reachable_waits(flow)]
    elif flow.machine is not None:
        infos = [state.info for state in C.reachable_wait_states(flow.machine)]
    else:
        infos = []
    return [
        ".".join(info.target + (info.method,)) for info in infos if info.kind == "external"
    ]


def _flow_row(flow):
    """The control-flow facts of one analyzed function."""
    may, must = C.write_coverage(flow)
    return {
        "unresolved": flow.unresolved,
        "entry_writes": _dotted(flow.entry_writes),
        "may": _dotted(may),
        "must": _dotted(must),
        "read_paths": _dotted(flow.read_paths),
        "waitless_loops": C.waitless_loops(flow),
        "unreachable": C.unreachable_statements(flow),
        "one_sided": C.one_sided_wait_branches(flow),
        "blocking_calls": _blocking_calls(flow),
    }


def _compact(row):
    return {key: value for key, value in row.items() if value}


def _fixture_classes(module_name):
    module = importlib.import_module(f"{__package__}.{module_name}")
    for name, obj in vars(module).items():
        if isinstance(obj, type) and obj.__module__ == module.__name__:
            if not name.startswith("Test"):
                yield obj


def fixture_rows(module_name):
    """Rows of every method defined in the module's fixture classes."""
    rows = {}
    for cls in _fixture_classes(module_name):
        for name, fn in vars(cls).items():
            if not isinstance(fn, types.FunctionType):
                continue
            row = _flow_row(C.analyze_function(cls, fn))
            facts = _fn_facts(fn)
            if facts is None:
                row["facts"] = "unparseable"
            else:
                row.update(
                    reads=_dotted(facts.reads),
                    writes=_dotted(facts.writes),
                    waits=_dotted(facts.waits),
                    notifies=_dotted(facts.notifies),
                    flags=[flag for flag in FLAGS if getattr(facts, flag)],
                )
            rows[f"{cls.__name__}.{name}"] = _compact(row)
    return rows


def builtin_rows(which):
    """Rows of every process of one ``repro lint --builtin`` design."""
    ((_, netlist),) = _builtin_netlists(which)
    top = netlist.elaborate(Simulator(name="lint")).top
    analysis = DesignDataflow(top)
    rows = {}
    for summary in analysis.summaries:
        row = _flow_row(C.analyze_process(summary.process).flow)
        row.update(
            reads=sorted(analysis.signal_label(sig) for sig in summary.signal_reads),
            writes=sorted(analysis.signal_label(sig) for sig in summary.signal_writes),
            waits=sorted(analysis.event_label(event) for event in summary.waited_events),
            notifies=sorted(analysis.event_label(event) for event in summary.notified_events),
            flags=[flag for flag in FLAGS if getattr(summary, flag)],
        )
        rows[summary.name] = _compact(row)
    return rows


# ---------------------------------------------------------------------------
# Recorded rows
# ---------------------------------------------------------------------------

GOLDEN_FIXTURES = {
    'test_cfg': {
        'CdcSyncTop.__init__': {'flags': ['opaque_calls']},
        'CdcSyncTop.consumer': {
            'entry_writes': ['out'], 'may': ['out'], 'must': ['out'],
            'read_paths': ['flag_sync', 'other'], 'reads': ['flag_sync', 'other'],
            'writes': ['out'],
        },
        'CdcSyncTop.producer': {
            'entry_writes': ['flag'], 'may': ['flag'], 'must': ['flag'], 'read_paths': ['src'],
            'reads': ['src'], 'writes': ['flag'],
        },
        'CdcSyncTop.sync': {
            'entry_writes': ['flag_sync'], 'may': ['flag_sync'], 'must': ['flag_sync'],
            'read_paths': ['flag'], 'reads': ['flag'], 'writes': ['flag_sync'],
        },
        'CdcTop.__init__': {'flags': ['opaque_calls']},
        'CdcTop.consumer': {
            'entry_writes': ['out'], 'may': ['out'], 'must': ['out'],
            'read_paths': ['flag', 'other'], 'reads': ['flag', 'other'], 'writes': ['out'],
        },
        'CdcTop.producer': {
            'entry_writes': ['flag'], 'may': ['flag'], 'must': ['flag'], 'read_paths': ['src'],
            'reads': ['src'], 'writes': ['flag'],
        },
        'DeadCodeTop.__init__': {'flags': ['opaque_calls']},
        'DeadCodeTop.run_forever': {
            'may': ['done'], 'unreachable': [(4, 'self.done.write(True)')], 'writes': ['done'],
            'flags': ['yields_in_body'],
        },
        'EntryRaceTop.__init__': {'flags': ['opaque_calls']},
        'EntryRaceTop.init_a': {
            'entry_writes': ['mode'], 'may': ['mode'], 'must': ['mode'], 'writes': ['mode'],
            'flags': ['yields_in_body'],
        },
        'EntryRaceTop.init_b': {
            'entry_writes': ['mode'], 'may': ['mode'], 'must': ['mode'], 'writes': ['mode'],
            'flags': ['yields_in_body'],
        },
        'GuardedTop.__init__': {'flags': ['opaque_calls']},
        'GuardedTop.producer': {
            'entry_writes': ['data'], 'may': ['data'], 'read_paths': ['ack', 'data'],
            'reads': ['ack', 'data'], 'writes': ['data'], 'flags': ['yields_in_body'],
        },
        'HandshakeTop.__init__': {'flags': ['opaque_calls']},
        'HandshakeTop.producer': {
            'entry_writes': ['data'], 'may': ['data'], 'read_paths': ['ack', 'data'],
            'one_sided': [(3, 'not self.ack.read()')], 'reads': ['ack', 'data'], 'writes': ['data'],
            'waits': ['ack.posedge'], 'flags': ['yields_in_body'],
        },
        'LatchTop.__init__': {'flags': ['opaque_calls']},
        'LatchTop.stage': {
            'entry_writes': ['q'], 'may': ['q'], 'read_paths': ['d', 'enable'],
            'reads': ['d', 'enable'], 'writes': ['q'],
        },
        'LivelockTop.__init__': {'flags': ['opaque_calls']},
        'LivelockTop.spin': {
            'read_paths': ['req'], 'waitless_loops': [(2, 'True')],
            'one_sided': [(3, 'self.req.read()')], 'reads': ['req'], 'waits': ['req.negedge'],
            'flags': ['yields_in_body'],
        },
        'NoLivelockTop.__init__': {'flags': ['opaque_calls']},
        'NoLivelockTop.tick': {'flags': ['yields_in_body']},
        'ParamGuardTop.__init__': {'flags': ['opaque_calls']},
        'ParamGuardTop.engine': {
            'entry_writes': ['data'], 'may': ['data'], 'read_paths': ['data'],
            'waitless_loops': [(2, 'True')], 'reads': ['data'], 'writes': ['data'],
            'flags': ['yields_in_body'],
        },
        'ParamGuardTop.latency': {},
        'RegisteredTop.__init__': {'flags': ['opaque_calls']},
        'RegisteredTop.stage': {
            'entry_writes': ['q'], 'may': ['q'], 'must': ['q'], 'read_paths': ['d', 'enable', 'q'],
            'reads': ['d', 'enable', 'q'], 'writes': ['q'],
        },
        'StaggeredTop.__init__': {'flags': ['opaque_calls']},
        'StaggeredTop.init_a': {
            'entry_writes': ['mode'], 'may': ['mode'], 'must': ['mode'], 'writes': ['mode'],
            'flags': ['yields_in_body'],
        },
        'StaggeredTop.init_b': {
            'may': ['mode'], 'must': ['mode'], 'writes': ['mode'], 'flags': ['yields_in_body'],
        },
        'Synth.__init__': {'flags': ['opaque_calls']},
        'Synth.calls_helper': {'entry_writes': ['a'], 'may': ['a'], 'flags': ['yields_in_body']},
        'Synth.dead_code': {
            'may': ['a'], 'unreachable': [(4, 'self.a.write(99)')], 'writes': ['a'],
            'flags': ['yields_in_body'],
        },
        'Synth.double_via_helper': {
            'entry_writes': ['a'], 'may': ['a'], 'writes': ['a'], 'flags': ['yields_in_body'],
        },
        'Synth.double_writer': {
            'entry_writes': ['a'], 'may': ['a'], 'writes': ['a'], 'flags': ['yields_in_body'],
        },
        'Synth.early_return': {
            'may': ['b'], 'read_paths': ['a'], 'reads': ['a'], 'writes': ['b'],
            'flags': ['yields_in_body'],
        },
        'Synth.foreign_splice': {'unresolved': True, 'flags': ['yields_in_body']},
        'Synth.gen_helper': {'flags': ['yields_in_body']},
        'Synth.helper_write': {'entry_writes': ['a'], 'may': ['a'], 'must': ['a'], 'writes': ['a']},
        'Synth.livelock': {
            'read_paths': ['req'], 'waitless_loops': [(2, 'True')],
            'one_sided': [(3, 'self.req.read()')], 'reads': ['req'], 'waits': ['req.negedge'],
            'flags': ['yields_in_body'],
        },
        'Synth.nested_break_continue': {
            'entry_writes': ['a'], 'may': ['a'], 'writes': ['a'], 'flags': ['yields_in_body'],
        },
        'Synth.no_livelock': {'may': ['a'], 'writes': ['a'], 'flags': ['yields_in_body']},
        'Synth.pulse_method': {'entry_writes': ['b'], 'may': ['b'], 'must': ['b'], 'writes': ['b']},
        'Synth.recursive': {'unresolved': True, 'flags': ['yields_in_body']},
        'Synth.single_writer': {
            'entry_writes': ['a'], 'may': ['a'], 'read_paths': ['a'], 'reads': ['a'],
            'writes': ['a'], 'flags': ['yields_in_body'],
        },
        'Synth.splices': {
            'entry_writes': ['a'], 'may': ['a'], 'writes': ['a'], 'flags': ['yields_in_body'],
        },
        'Synth.timeout_refined': {
            'may': ['a'], 'writes': ['a'], 'waits': ['req.posedge'], 'flags': ['yields_in_body'],
        },
        'Synth.try_finally_wait': {
            'may': ['a', 'b'], 'must': ['a', 'b'], 'writes': ['a', 'b'],
            'flags': ['yields_in_body'],
        },
        'Synth.while_else': {
            'entry_writes': ['a'], 'may': ['a'], 'must': ['a'], 'writes': ['a'],
            'flags': ['yields_in_body'],
        },
    },
    'test_dataflow': {
        'BadMethod.__init__': {'flags': ['opaque_calls']},
        'BadMethod.blocking': {'flags': ['yields_in_body']},
        'BadMethod.react': {
            'entry_writes': ['out'], 'may': ['out'], 'must': ['out'],
            'read_paths': ['inp', 'other'], 'reads': ['inp', 'other'], 'writes': ['out'],
        },
        'Chained.__init__': {'flags': ['opaque_calls']},
        'Chained.s1': {
            'entry_writes': ['b'], 'may': ['b'], 'must': ['b'], 'read_paths': ['a'], 'reads': ['a'],
            'writes': ['b'],
        },
        'Chained.s2': {
            'entry_writes': ['c'], 'may': ['c'], 'must': ['c'], 'read_paths': ['b'], 'reads': ['b'],
            'writes': ['c'],
        },
        'DeadWait.__init__': {'flags': ['opaque_calls']},
        'DeadWait.waiter': {'waits': ['go'], 'flags': ['yields_in_body']},
        'GoodMethod.__init__': {'flags': ['opaque_calls']},
        'GoodMethod.add_them': {
            'entry_writes': ['out'], 'may': ['out'], 'must': ['out'], 'read_paths': ['a', 'b'],
            'reads': ['a', 'b'], 'writes': ['out'],
        },
        'HandedOff.__init__': {'flags': ['opaque_calls']},
        'HandedOff.on_a': {
            'entry_writes': ['flag'], 'may': ['flag'], 'must': ['flag'], 'writes': ['flag'],
        },
        'HandedOff.on_b': {
            'entry_writes': ['flag'], 'may': ['flag'], 'must': ['flag'], 'writes': ['flag'],
        },
        'HandedOff.stim': {
            'entry_writes': ['sel_a'], 'may': ['sel_a', 'sel_b'], 'must': ['sel_a', 'sel_b'],
            'writes': ['sel_a', 'sel_b'], 'flags': ['yields_in_body'],
        },
        'Holder.__init__': {'flags': ['opaque_calls']},
        'Holder.local_driver': {
            'entry_writes': ['level'], 'may': ['level'], 'writes': ['level'],
            'flags': ['yields_in_body'],
        },
        'LiveWait.__init__': {'flags': ['opaque_calls']},
        'LiveWait.kicker': {'notifies': ['go'], 'flags': ['yields_in_body']},
        'LiveWait.waiter': {'waits': ['go'], 'flags': ['yields_in_body']},
        'Looping.__init__': {'flags': ['opaque_calls']},
        'Looping.m1': {
            'entry_writes': ['b'], 'may': ['b'], 'must': ['b'], 'read_paths': ['a'], 'reads': ['a'],
            'writes': ['b'],
        },
        'Looping.m2': {
            'entry_writes': ['a'], 'may': ['a'], 'must': ['a'], 'read_paths': ['b'], 'reads': ['b'],
            'writes': ['a'],
        },
        'PhasedWriters.__init__': {'flags': ['opaque_calls']},
        'PhasedWriters.early': {
            'entry_writes': ['flag'], 'may': ['flag'], 'must': ['flag'], 'writes': ['flag'],
            'flags': ['yields_in_body'],
        },
        'PhasedWriters.late': {
            'may': ['flag'], 'must': ['flag'], 'writes': ['flag'], 'flags': ['yields_in_body'],
        },
        'Racy.__init__': {'flags': ['opaque_calls']},
        'Racy.writer_a': {
            'entry_writes': ['flag'], 'may': ['flag'], 'writes': ['flag'],
            'flags': ['yields_in_body'],
        },
        'Racy.writer_b': {
            'entry_writes': ['flag'], 'may': ['flag'], 'writes': ['flag'],
            'flags': ['yields_in_body'],
        },
        'RacySharedEvent.__init__': {'flags': ['opaque_calls']},
        'RacySharedEvent.m_a': {
            'entry_writes': ['out'], 'may': ['out'], 'must': ['out'], 'read_paths': ['tick'],
            'reads': ['tick'], 'writes': ['out'],
        },
        'RacySharedEvent.m_b': {
            'entry_writes': ['out'], 'may': ['out'], 'must': ['out'], 'read_paths': ['tick'],
            'reads': ['tick'], 'writes': ['out'],
        },
        'RacySharedEvent.stim': {
            'entry_writes': ['tick'], 'may': ['tick'], 'must': ['tick'], 'writes': ['tick'],
            'flags': ['yields_in_body'],
        },
        'RemoteDriver.__init__': {'flags': ['opaque_calls']},
        'RemoteDriver.remote_driver': {
            'entry_writes': ['out_port'], 'may': ['out_port'], 'writes': ['out_port'],
            'flags': ['yields_in_body'],
        },
    },
    'test_interproc': {
        'BuriedReleaseTop.__init__': {'flags': ['opaque_calls']},
        'BuriedReleaseTop._kick': {'flags': ['opaque_calls']},
        'BuriedReleaseTop.other': {'flags': ['yields_in_body']},
        'InvertedLocksTop.__init__': {'flags': ['opaque_calls']},
        'InvertedLocksTop.worker_a': {
            'read_paths': ['m1', 'm2'], 'blocking_calls': ['m1.lock', 'm2.lock'],
            'flags': ['yields_in_body', 'opaque_calls'],
        },
        'InvertedLocksTop.worker_b': {
            'read_paths': ['m1', 'm2'], 'blocking_calls': ['m2.lock', 'm1.lock'],
            'flags': ['yields_in_body', 'opaque_calls'],
        },
        'LonelyAcquireTop.__init__': {'flags': ['opaque_calls']},
        'LonelyAcquireTop.other': {'flags': ['yields_in_body']},
        'LonelyAcquireTop.worker': {
            'read_paths': ['sem'], 'blocking_calls': ['sem.wait'],
            'flags': ['yields_in_body', 'opaque_calls'],
        },
        'OrderedLocksTop.worker_b': {
            'read_paths': ['m1', 'm2'], 'blocking_calls': ['m1.lock', 'm2.lock'],
            'flags': ['yields_in_body', 'opaque_calls'],
        },
        'PostedAcquireTop.other': {'flags': ['yields_in_body', 'opaque_calls']},
        'UnresolvedLockTop.__init__': {'flags': ['opaque_calls']},
        'UnresolvedLockTop.worker': {
            'unresolved': True, 'flags': ['yields_in_body', 'opaque_calls'],
        },
    },
    'test_lint': {
        '_TwoWriters.__init__': {'flags': ['opaque_calls']},
        '_TwoWriters.clearer': {
            'entry_writes': ['flag'], 'may': ['flag'], 'must': ['flag'], 'writes': ['flag'],
            'flags': ['yields_in_body'],
        },
        '_TwoWriters.raiser': {
            'entry_writes': ['flag'], 'may': ['flag'], 'must': ['flag'], 'writes': ['flag'],
            'flags': ['yields_in_body'],
        },
    },
    'test_analysis_golden': {
        'HandlerWaitTop.__init__': {'flags': ['opaque_calls']},
        'HandlerWaitTop.init': {
            'entry_writes': ['mode'], 'may': ['mode'], 'must': ['mode'], 'writes': ['mode'],
            'flags': ['yields_in_body'],
        },
        'HandlerWaitTop.retry_init': {
            'entry_writes': ['mode'], 'may': ['mode'], 'writes': ['mode'],
            'flags': ['yields_in_body', 'opaque_calls'],
        },
        'RaiseBeforeWaitTop.__init__': {'flags': ['opaque_calls']},
        'RaiseBeforeWaitTop.fail_fast': {
            'may': ['mode'], 'unreachable': [(4, 'yield ns(10)')], 'writes': ['mode'],
            'flags': ['yields_in_body', 'opaque_calls'],
        },
        'RaiseBeforeWaitTop.init': {
            'entry_writes': ['mode'], 'may': ['mode'], 'must': ['mode'], 'writes': ['mode'],
            'flags': ['yields_in_body'],
        },
    },
}

GOLDEN_BUILTINS = {
    'baseline': {
        'top.fft.engine': {
            'waits': ['top.fft._start_event'], 'notifies': ['top.fft.idle_event'],
            'flags': ['yields_in_body', 'opaque_calls'],
        },
        'top.fir.engine': {
            'waits': ['top.fir._start_event'], 'notifies': ['top.fir.idle_event'],
            'flags': ['yields_in_body', 'opaque_calls'],
        },
        'top.viterbi.engine': {
            'waits': ['top.viterbi._start_event'], 'notifies': ['top.viterbi.idle_event'],
            'flags': ['yields_in_body', 'opaque_calls'],
        },
        'top.xtea.engine': {
            'waits': ['top.xtea._start_event'], 'notifies': ['top.xtea.idle_event'],
            'flags': ['yields_in_body', 'opaque_calls'],
        },
    },
    'reconfigurable': {
        'top.drcf1.fft.engine': {
            'waits': ['top.drcf1.fft._start_event'], 'notifies': ['top.drcf1.fft.idle_event'],
            'flags': ['yields_in_body', 'opaque_calls'],
        },
        'top.drcf1.fir.engine': {
            'waits': ['top.drcf1.fir._start_event'], 'notifies': ['top.drcf1.fir.idle_event'],
            'flags': ['yields_in_body', 'opaque_calls'],
        },
        'top.drcf1.viterbi.engine': {
            'waits': ['top.drcf1.viterbi._start_event'],
            'notifies': ['top.drcf1.viterbi.idle_event'],
            'flags': ['yields_in_body', 'opaque_calls'],
        },
        'top.drcf1.xtea.engine': {
            'waits': ['top.drcf1.xtea._start_event'], 'notifies': ['top.drcf1.xtea.idle_event'],
            'flags': ['yields_in_body', 'opaque_calls'],
        },
    },
    'deadlock': {
        'top.drcf1.fft.engine': {
            'waits': ['top.drcf1.fft._start_event'], 'notifies': ['top.drcf1.fft.idle_event'],
            'flags': ['yields_in_body', 'opaque_calls'],
        },
        'top.drcf1.fir.engine': {
            'waits': ['top.drcf1.fir._start_event'], 'notifies': ['top.drcf1.fir.idle_event'],
            'flags': ['yields_in_body', 'opaque_calls'],
        },
        'top.drcf1.viterbi.engine': {
            'waits': ['top.drcf1.viterbi._start_event'],
            'notifies': ['top.drcf1.viterbi.idle_event'],
            'flags': ['yields_in_body', 'opaque_calls'],
        },
        'top.drcf1.xtea.engine': {
            'waits': ['top.drcf1.xtea._start_event'], 'notifies': ['top.drcf1.xtea.idle_event'],
            'flags': ['yields_in_body', 'opaque_calls'],
        },
    },
    'broken': {
        'top.fabric_a.fir.engine': {
            'waits': ['top.fabric_a.fir._start_event'], 'notifies': ['top.fabric_a.fir.idle_event'],
            'flags': ['yields_in_body', 'opaque_calls'],
        },
        'top.fabric_b.fft.engine': {
            'waits': ['top.fabric_b.fft._start_event'], 'notifies': ['top.fabric_b.fft.idle_event'],
            'flags': ['yields_in_body', 'opaque_calls'],
        },
    },
}


@pytest.mark.parametrize("module_name", FIXTURE_MODULES)
def test_fixture_rows(module_name):
    assert fixture_rows(module_name) == GOLDEN_FIXTURES[module_name]


@pytest.mark.parametrize("which", BUILTINS)
def test_builtin_rows(which):
    assert builtin_rows(which) == GOLDEN_BUILTINS[which]


def _rep506(top_cls):
    report = run_lint(design=top_cls("t", sim=Simulator()), cfg=True, select="REP506")
    return report.diagnostics


def test_write_before_unhandled_raise_is_not_an_entry_write():
    flow = C.analyze_function(RaiseBeforeWaitTop, RaiseBeforeWaitTop.fail_fast)
    assert not flow.unresolved
    assert flow.entry_writes == frozenset()
    assert _rep506(RaiseBeforeWaitTop) == []


def test_write_before_handler_wait_is_an_entry_write():
    flow = C.analyze_function(HandlerWaitTop, HandlerWaitTop.retry_init)
    assert flow.entry_writes == {("mode",)}
    [diag] = _rep506(HandlerWaitTop)
    assert diag.location == "t.mode"


if __name__ == "__main__":
    from pprint import pprint

    pprint({name: fixture_rows(name) for name in FIXTURE_MODULES}, width=100)
    pprint({which: builtin_rows(which) for which in BUILTINS}, width=100)
