"""The analysis shortcuts give exactly what the full walks they skip give.

* ``DesignDataflow.notify_scan`` parses only methods whose code names
  ``notify``/``notify_delta`` and walks each class once per scan; the
  tests hold it to the full per-owner walk over every method.
* REP104 reads slave ranges off the instances of a design elaborated from
  the linted netlist's own specs; the tests hold it to the scratch
  instances it builds otherwise.

Fixture classes live at module level: the analyzer reads bodies with
:func:`inspect.getsource`.
"""

import importlib
import inspect
import pkgutil
import sys
import types
from pathlib import Path

import pytest

import repro
import repro.analysis.lint as lint_mod
from repro.analysis import DesignDataflow, run_lint
from repro.analysis.dataflow import _UNRESOLVED, _as_event, _fn_facts, _names_notify, _resolve_path
from repro.cli import _builtin_netlists, _load_netlists_from_file
from repro.core import Netlist
from repro.kernel import Event, Module, Simulator

EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples").glob("*.py"))


# ---------------------------------------------------------------------------
# The notify-name test
# ---------------------------------------------------------------------------

def _class_functions():
    """Every function defined on every class of every ``repro`` module."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for klass in vars(module).values():
            if not inspect.isclass(klass) or klass.__module__ != module.__name__:
                continue
            for member in vars(klass).values():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                accessors = (
                    (member.fget, member.fset, member.fdel)
                    if isinstance(member, property)
                    else (member,)
                )
                for func in accessors:
                    if isinstance(func, types.FunctionType):
                        yield func


class ComprehensionNotifier(Module):
    """Notifies only inside a comprehension: nested code before 3.12."""

    def __init__(self, name, parent=None, sim=None):
        super().__init__(name, parent=parent, sim=sim)
        self.go = Event(self.sim, "go")

    def kick_twice(self):
        return [self.go.notify() for _ in range(2)]


def test_functions_not_naming_notify_have_no_notifies():
    functions = list(_class_functions())
    skipped = [f for f in functions if not _names_notify(f.__code__)]
    assert 0 < len(skipped) < len(functions)
    for func in skipped:
        facts = _fn_facts(func)
        if facts is not None:
            where = f"{func.__module__}.{func.__qualname__}"
            assert facts.notifies == (), where
            assert not facts.unresolved_notify, where


def test_notify_in_comprehension_is_named():
    code = ComprehensionNotifier.kick_twice.__code__
    if sys.version_info < (3, 12):
        # The comprehension is its own code object, nested in the method's.
        assert "notify" not in code.co_names
    assert _names_notify(code)
    assert _fn_facts(ComprehensionNotifier.kick_twice).notifies == (("go",),)


# ---------------------------------------------------------------------------
# notify_scan against the full per-owner walk
# ---------------------------------------------------------------------------

def _reference_notify_scan(analysis):
    """The scan without shortcuts: every method of every class of every
    owner, parsed and resolved per owner."""
    notified = set()
    unresolved = False
    owners = list(analysis.modules)
    for summary in analysis.summaries:
        notified.update(id(e) for e in summary.notified_events)
        unresolved = unresolved or summary.unresolved_notify
        if summary.owner is not None and all(summary.owner is not o for o in owners):
            owners.append(summary.owner)
    for owner in owners:
        for klass in type(owner).__mro__[:-1]:  # every class but object
            for member in vars(klass).values():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if not isinstance(member, types.FunctionType):
                    continue
                facts = _fn_facts(member)
                if facts is None:
                    continue
                unresolved = unresolved or facts.unresolved_notify
                for path in facts.notifies:
                    obj = _resolve_path(owner, path)
                    event = _as_event(obj)
                    if event is not None:
                        notified.add(id(event))
                    elif obj is _UNRESOLVED:
                        unresolved = True
    return notified, unresolved


def _benchmark_designs(monkeypatch, which):
    """The designs one run of a benchmark workload elaborates."""
    designs = []
    elaborate = Netlist.elaborate

    def capture(netlist, sim):
        designs.append(elaborate(netlist, sim))
        return designs[-1]

    monkeypatch.setattr(Netlist, "elaborate", capture)
    accels = ("fir", "fft", "viterbi", "xtea")
    if which == "soc_interleaved":
        from repro.dse import evaluate_architecture

        evaluate_architecture(
            dict(tech="virtex2pro", accels=accels, workload="interleaved", n_frames=1, seed=42)
        )
    elif which == "soc_contended":
        from repro.dse import evaluate_architecture

        evaluate_architecture(
            dict(
                tech="asic", accels=accels, workload="interleaved", n_frames=2,
                background_gap_cycles=8, seed=42,
            )
        )
    elif which == "campaign_full":
        from repro.faults import CampaignScenario, run_campaign

        scenario = CampaignScenario(
            name="exactness", accels=("fir", "xtea"), tech="virtex2pro", n_frames=1,
            workload="interleaved", workload_seed=42,
        )
        run_campaign(scenario, trials=1, seed=42, recovery="full", workers=1)
    else:
        from repro.dse import evaluate_flow

        evaluate_flow(dict(tech="virtex2pro", accels=accels, n_frames=1, seed=42))
    monkeypatch.undo()
    return designs


@pytest.mark.parametrize(
    "which", ["soc_interleaved", "soc_contended", "campaign_full", "adriatic_flow"]
)
def test_notify_scan_matches_full_walk(monkeypatch, which):
    designs = _benchmark_designs(monkeypatch, which)
    assert designs
    for design in designs:
        analysis = DesignDataflow(design.top)
        notified, unresolved = analysis.notify_scan()
        assert (notified, unresolved) == _reference_notify_scan(analysis)
        assert notified


class Kicked(Module):
    """A worker waits on ``go``; only the interface method ``kick`` could
    notify it, and as defined here it does not."""

    def __init__(self, name, parent=None, sim=None):
        super().__init__(name, parent=parent, sim=sim)
        self.go = Event(self.sim, "go")
        self.add_thread(self.worker, name="worker")

    def worker(self):
        while True:
            yield self.go

    def kick(self):
        pass


def _kick_notifies(self):
    self.go.notify()


def test_rebound_method_is_seen_by_the_next_lint(monkeypatch):
    top = Kicked("k", sim=Simulator())

    def dead_waits():
        return run_lint(design=top, dataflow=True, select="REP405").codes()

    assert dead_waits() == ["REP405"]
    monkeypatch.setattr(Kicked, "kick", _kick_notifies)
    assert dead_waits() == []
    monkeypatch.undo()
    assert dead_waits() == ["REP405"]


# ---------------------------------------------------------------------------
# REP104 with and without the design
# ---------------------------------------------------------------------------

def _lint_targets():
    for which in ("baseline", "reconfigurable", "deadlock", "broken"):
        yield from _builtin_netlists(which)
    for index, path in enumerate(EXAMPLES):
        yield from _load_netlists_from_file(str(path), index)


def _count_scratch_simulators(monkeypatch):
    built = []

    def counting(*args, **kwargs):
        built.append(kwargs.get("name"))
        return Simulator(*args, **kwargs)

    monkeypatch.setattr(lint_mod, "Simulator", counting)
    return built


def test_rep104_reads_the_design_it_is_given(monkeypatch):
    checked = 0
    for label, netlist in _lint_targets():
        try:
            design = netlist.elaborate(Simulator())
        except Exception:
            continue  # REP104 then has no design to read
        scratch = run_lint(netlist, elaborate=False, select="REP104").diagnostics
        built = _count_scratch_simulators(monkeypatch)
        given = run_lint(netlist, design=design, select="REP104").diagnostics
        monkeypatch.undo()
        assert given == scratch, label
        assert built == [], label
        checked += 1
    assert checked > len(EXAMPLES)


def test_rep104_builds_scratch_slaves_for_specs_the_design_was_not_built_from(monkeypatch):
    from repro.apps import make_baseline_netlist

    netlist, _ = make_baseline_netlist(("fir", "fft"))
    design = netlist.elaborate(Simulator())
    # Replace fft's spec after elaboration with one overlapping fir's window.
    fft = netlist.remove("fft")
    netlist.add("fft", fft.factory, master_of=fft.master_of, slave_of=fft.slave_of,
                **{**fft.kwargs, "base": netlist.component("fir").kwargs["base"]})
    built = _count_scratch_simulators(monkeypatch)
    report = run_lint(netlist, design=design, select="REP104")
    assert built == ["lint_scratch_fft"]
    assert report.codes() == ["REP104"]
    assert report.diagnostics == run_lint(netlist, elaborate=False, select="REP104").diagnostics
