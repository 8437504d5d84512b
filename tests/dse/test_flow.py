"""The ADRIATIC flow (Figure 3) end to end."""

import pytest

import repro.dse.flow as flow_mod
from repro.analysis import run_lint
from repro.apps import frame_interleaved_jobs, golden_outputs
from repro.core import Netlist
from repro.cpu import Processor
from repro.dse import AdriaticFlow
from repro.kernel import SimulationError, Simulator
from repro.tech import MORPHOSYS, preset

SOC_ACCELS = ("fir", "fft", "viterbi", "xtea")


@pytest.fixture(scope="module")
def flow_result():
    flow = AdriaticFlow(
        ("fir", "fft"),
        tech=MORPHOSYS,
        n_frames=1,
        designer_flags={"fft": {"spec_change_expected": True}},
    )
    return flow.run(back_annotate_scale=3.0)


class TestStages:
    def test_stage1_executable_specification(self, flow_result):
        assert len(flow_result.golden) == 2
        assert all(out for out in flow_result.golden.values())

    def test_stage3_partitioning_used_profiles(self, flow_result):
        names = {p.name for p in flow_result.profiles}
        assert names == {"fir", "fft"}
        assert all(0 <= p.utilization <= 1 for p in flow_result.profiles)
        assert set(flow_result.recommendation.candidates) == {"fir", "fft"}

    def test_stage4_transform_happened(self, flow_result):
        assert flow_result.transform is not None
        assert "drcf1" in flow_result.transform.netlist.component_names

    def test_stage5_both_architectures_verified(self, flow_result):
        assert flow_result.baseline_run.outputs_match_spec
        assert flow_result.mapped_run.outputs_match_spec
        assert flow_result.mapped_run.switches > 0
        assert flow_result.baseline_run.switches == 0
        assert flow_result.mapped_run.makespan_us > flow_result.baseline_run.makespan_us

    def test_stage6_back_annotation_increases_delay(self, flow_result):
        back = flow_result.back_annotated_run
        assert back is not None
        assert back.makespan_us >= flow_result.mapped_run.makespan_us
        assert back.outputs_match_spec

    def test_summary_rows(self, flow_result):
        rows = flow_result.summary_rows()
        assert [r["architecture"] for r in rows] == [
            "figure-1a baseline",
            "figure-1b mapped",
            "back-annotated",
        ]


class TestNoCandidateCase:
    def test_flow_without_candidates_skips_mapping(self):
        # A single block matches no rule -> no mapping stage.
        flow = AdriaticFlow(("viterbi",), tech=MORPHOSYS, n_frames=1)
        result = flow.run()
        assert result.recommendation.candidates == []
        assert result.transform is None
        assert result.mapped_run is None
        assert result.baseline_run.outputs_match_spec

    def test_unknown_accels_rejected(self):
        with pytest.raises(KeyError):
            AdriaticFlow(("gpu",), tech=MORPHOSYS)

    def test_repeated_accels_rejected(self):
        with pytest.raises(ValueError, match="'fir'"):
            AdriaticFlow(("fir", "fft", "fir"), tech=MORPHOSYS)


# ---------------------------------------------------------------------------
# One elaboration per architecture
# ---------------------------------------------------------------------------

def _perfbench_flow(seed):
    """The end-to-end benchmark's flow: every SoC block on virtex2pro."""
    return AdriaticFlow(SOC_ACCELS, tech=preset("virtex2pro"), n_frames=1, seed=seed), None


def _morphosys_flow(seed):
    flow = AdriaticFlow(
        ("fir", "fft"),
        tech=MORPHOSYS,
        n_frames=1,
        seed=seed,
        designer_flags={"fft": {"spec_change_expected": True}},
    )
    return flow, 3.0


def _row(architecture, makespan_us, config_words, data_words, switches, reconfig_us):
    return dict(
        architecture=architecture,
        makespan_us=makespan_us,
        bus_config_words=config_words,
        bus_data_words=data_words,
        switches=switches,
        reconfig_time_us=reconfig_us,
        outputs_match_spec=True,
    )


# Recorded from the flow as it was when every lint elaborated a scratch
# copy of its netlist; the seed changes job data, not timing.
EXPECTED_ROWS = {
    "perfbench": [
        _row("figure-1a baseline", 13.715, 0, 505, 0, 0.0),
        _row("figure-1b mapped", 7576.199090862, 124220, 585, 4, 7548.409090908999),
    ],
    "morphosys": [
        _row("figure-1a baseline", 5.685, 0, 283, 0, 0.0),
        _row("figure-1b mapped", 56.44, 2313, 294, 2, 47.39),
        _row("back-annotated", 56.44, 2313, 294, 2, 47.39),
    ],
}
FLOWS = {"perfbench": _perfbench_flow, "morphosys": _morphosys_flow}


@pytest.mark.parametrize("seed", [42, 1009])
@pytest.mark.parametrize("which", sorted(FLOWS))
def test_flow_matches_scratch_lint_and_specification(which, seed):
    flow, scale = FLOWS[which](seed)
    result = flow.run(back_annotate_scale=scale)
    assert result.summary_rows() == EXPECTED_ROWS[which]
    jobs = frame_interleaved_jobs(flow.accels, flow.n_frames, seed=seed)
    assert result.golden == {job.label: golden_outputs(job) for job in jobs}
    # Each gate linted the design it simulated; a standalone lint of the
    # same netlist (on a scratch elaboration) reports the same.
    assert result.baseline_lint == run_lint(result.baseline_netlist, dataflow=True)
    assert result.mapped_lint == run_lint(result.transform.netlist, dataflow=True)


@pytest.mark.parametrize(
    "which, elaborations, golden_calls", [("perfbench", 2, 4), ("morphosys", 3, 2)]
)
def test_one_elaboration_per_architecture(monkeypatch, which, elaborations, golden_calls):
    calls = {"elaborate": 0, "golden": 0}
    elaborate = Netlist.elaborate

    def counting_elaborate(netlist, sim):
        calls["elaborate"] += 1
        return elaborate(netlist, sim)

    def counting_golden(job):
        calls["golden"] += 1
        return golden_outputs(job)

    monkeypatch.setattr(Netlist, "elaborate", counting_elaborate)
    monkeypatch.setattr(flow_mod, "golden_outputs", counting_golden)
    flow, scale = FLOWS[which](42)
    flow.run(back_annotate_scale=scale)
    # One per simulated architecture; one golden output per job.
    assert calls == {"elaborate": elaborations, "golden": golden_calls}


def _count_runs(monkeypatch):
    runs = []
    run = Simulator.run

    def counting_run(sim, *args, **kwargs):
        runs.append(sim)
        return run(sim, *args, **kwargs)

    monkeypatch.setattr(Simulator, "run", counting_run)
    return runs


def test_template_that_fails_to_elaborate_reports_standalone_lint(monkeypatch):
    make_baseline = flow_mod.make_baseline_netlist

    def overlapping(accels):
        netlist, info = make_baseline(accels)
        netlist.component("fft").kwargs["base"] = netlist.component("fir").kwargs["base"]
        return netlist, info

    expected = run_lint(overlapping(SOC_ACCELS)[0], dataflow=True)
    assert expected.codes() == ["REP001", "REP104"]
    monkeypatch.setattr(flow_mod, "make_baseline_netlist", overlapping)
    runs = _count_runs(monkeypatch)
    with pytest.raises(SimulationError) as failure:
        _perfbench_flow(42)[0].run()
    assert str(failure.value) == (
        f"stage-2 architecture template fails lint:\n{expected.render()}"
    )
    assert runs == []


def test_mapped_design_that_fails_lint_is_never_simulated(monkeypatch):
    transform = flow_mod.transform_to_drcf

    def with_unbound_master(*args, **kwargs):
        result = transform(*args, **kwargs)
        result.netlist.add("cpu2", Processor)  # its mst_port stays unbound
        return result

    monkeypatch.setattr(flow_mod, "transform_to_drcf", with_unbound_master)
    runs = _count_runs(monkeypatch)
    flow = _perfbench_flow(42)[0]
    with pytest.raises(SimulationError) as failure:
        flow.run()
    baseline, info = flow_mod.make_baseline_netlist(SOC_ACCELS)
    mapped = with_unbound_master(
        baseline, list(SOC_ACCELS), tech=flow.tech,
        config_memory=info.config_memory_name, config_base=info.cfg_base,
    ).netlist
    expected = run_lint(mapped, dataflow=True)
    assert expected.codes() == ["REP201"]
    assert str(failure.value) == f"stage-4 mapped netlist fails lint:\n{expected.render()}"
    assert len(runs) == 1  # the baseline only
