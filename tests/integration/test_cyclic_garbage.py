"""A finished run leaves nothing for the cycle collector.

Each owner of a simulator closes it after its last read
(:meth:`~repro.kernel.Simulator.close`), so reference counting frees the
simulator, its design and everything the run made as soon as the entry
point returns.  Each of the benchmark's four entry points runs here with
the benchmark's own parameters (perfbench/workloads.py), and so do the
linter's and the CLI's own simulators: once to warm up first-use caches,
then once under ``gc.DEBUG_SAVEALL``, which keeps every object a
collection finds unreachable in ``gc.garbage``.
"""

import collections
import contextlib
import gc
import io

import pytest

from repro.kernel import Event, Module, SimulationError, Signal, ns

SOC_ACCELS = ("fir", "fft", "viterbi", "xtea")


def _soc_interleaved(seed):
    from repro.dse import evaluate_architecture

    params = dict(tech="virtex2pro", accels=SOC_ACCELS, workload="interleaved", n_frames=1)
    return evaluate_architecture(dict(params, seed=seed), verify=True)


def _soc_contended(seed):
    from repro.dse import evaluate_architecture

    params = dict(
        tech="asic",
        accels=SOC_ACCELS,
        workload="interleaved",
        n_frames=8,
        background_gap_cycles=8,
    )
    return evaluate_architecture(dict(params, seed=seed), verify=True)


def _campaign_full(seed):
    from repro.faults import CampaignScenario, run_campaign

    scenario = CampaignScenario(
        name="perfbench",
        accels=("fir", "xtea"),
        tech="virtex2pro",
        n_frames=1,
        workload="interleaved",
        workload_seed=seed,
    )
    return run_campaign(scenario, trials=4, seed=seed, recovery="full", workers=1)


def _adriatic_flow(seed):
    from repro.dse import evaluate_flow

    return evaluate_flow(dict(tech="virtex2pro", accels=SOC_ACCELS, n_frames=1, seed=seed))


ENTRY_POINTS = {
    "soc_interleaved": _soc_interleaved,
    "soc_contended": _soc_contended,
    "campaign_full": _campaign_full,
    "adriatic_flow": _adriatic_flow,
}


class RacyAndDead(Module):
    """Two threads write one signal in the same instant (REP401), and a
    third waits on an event nothing notifies (REP405)."""

    def __init__(self, name, parent=None, sim=None):
        super().__init__(name, parent=parent, sim=sim)
        self.flag = Signal(self.sim, 0, name=f"{self.full_name}.flag")
        self.go = Event(self.sim, f"{self.full_name}.go")
        self.add_thread(self.writer_a)
        self.add_thread(self.writer_b)
        self.add_thread(self.waiter)

    def writer_a(self):
        while True:
            self.flag.write(1)
            yield ns(100)

    def writer_b(self):
        while True:
            self.flag.write(2)
            yield ns(100)

    def waiter(self):
        yield self.go


def _lint():
    """``run_lint``'s own elaboration and REP104's scratch instances."""
    from repro.analysis import run_lint
    from repro.apps import make_reconfigurable_netlist

    return run_lint(make_reconfigurable_netlist()[0], dataflow=True, cfg=True, interproc=True)


def _lint_confirm():
    """The dynamic cross-check's bounded run (``lint --confirm``)."""
    from repro.analysis import cross_check, run_lint
    from repro.core import Netlist

    netlist = Netlist("net")
    netlist.add("dut", RacyAndDead)
    statuses = cross_check(netlist, run_lint(netlist, dataflow=True).diagnostics)
    assert set(statuses.values()) == {"confirmed"}
    return statuses


def _cli_deadlock():
    """The CLI's Section 5.4 deadlock table (past argparse, whose parser
    is cyclic itself)."""
    from repro.cli import cmd_deadlock

    with contextlib.redirect_stdout(io.StringIO()):
        return cmd_deadlock(None)


SCRATCH_OWNERS = {"lint": _lint, "lint_confirm": _lint_confirm, "cli_deadlock": _cli_deadlock}


def cyclic_garbage(call):
    """The objects that only the cycle collector frees after ``call()``."""
    call()  # warm up
    gc.collect()
    flags = gc.get_debug()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        call()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


@pytest.mark.parametrize("seed", [42, 1009])
@pytest.mark.parametrize("workload", sorted(ENTRY_POINTS))
def test_one_call_leaves_no_cyclic_garbage(workload, seed):
    garbage = cyclic_garbage(lambda: ENTRY_POINTS[workload](seed))
    kinds = collections.Counter(type(obj).__name__ for obj in garbage)
    assert not garbage, f"{len(garbage)} objects left for the collector: {kinds.most_common(8)}"


@pytest.mark.parametrize("owner", sorted(SCRATCH_OWNERS))
def test_scratch_and_cli_simulators_leave_no_cyclic_garbage(owner):
    garbage = cyclic_garbage(SCRATCH_OWNERS[owner])
    kinds = collections.Counter(type(obj).__name__ for obj in garbage)
    assert not garbage, f"{len(garbage)} objects left for the collector: {kinds.most_common(8)}"


@pytest.mark.parametrize("stage", ["template", "mapped"])
def test_a_flow_that_fails_lint_leaves_no_cyclic_garbage(stage, monkeypatch):
    """The flow closes the simulator of a design it rejects: a stage-2
    template that does not elaborate, a stage-4 design that fails lint."""
    import repro.dse.flow as flow_mod
    from repro.cpu import Processor
    from repro.tech import preset

    if stage == "template":
        make_baseline = flow_mod.make_baseline_netlist

        def overlapping(accels):
            netlist, info = make_baseline(accels)
            netlist.component("fft").kwargs["base"] = netlist.component("fir").kwargs["base"]
            return netlist, info

        monkeypatch.setattr(flow_mod, "make_baseline_netlist", overlapping)
    else:
        transform = flow_mod.transform_to_drcf

        def with_unbound_master(*args, **kwargs):
            result = transform(*args, **kwargs)
            result.netlist.add("cpu2", Processor)  # its mst_port stays unbound
            return result

        monkeypatch.setattr(flow_mod, "transform_to_drcf", with_unbound_master)

    failure = "stage-2 architecture" if stage == "template" else "stage-4 mapped"

    def rejected_flow():
        flow = flow_mod.AdriaticFlow(SOC_ACCELS, tech=preset("virtex2pro"), n_frames=1)
        with pytest.raises(SimulationError, match=f"{failure} .* fails lint"):
            flow.run()

    garbage = cyclic_garbage(rejected_flow)
    kinds = collections.Counter(type(obj).__name__ for obj in garbage)
    assert not garbage, f"{len(garbage)} objects left for the collector: {kinds.most_common(8)}"
