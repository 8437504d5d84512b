"""The campaign engine: fault grid, trial classification, reporting."""

import json
import os
import subprocess
import sys

import pytest

from repro.faults import (
    FAULT_KINDS,
    OUTCOMES,
    CampaignScenario,
    SCENARIOS,
    build_fault_grid,
    run_campaign,
)
from repro.faults.campaign import TIME_FRACTIONS, _run_trial


class TestScenario:
    def test_builtins(self):
        assert set(SCENARIOS) == {"minimal", "modem", "wireless"}
        for scenario in SCENARIOS.values():
            assert len(scenario.accels) >= 2

    def test_roundtrips_through_dict(self):
        scenario = SCENARIOS["modem"]
        assert CampaignScenario.from_dict(scenario.to_dict()) == scenario


class TestFaultGrid:
    def test_deterministic(self):
        scenario = SCENARIOS["minimal"]
        first = build_fault_grid(scenario, 12, seed=5, golden_makespan_ns=1e6)
        second = build_fault_grid(scenario, 12, seed=5, golden_makespan_ns=1e6)
        assert first == second
        assert first != build_fault_grid(scenario, 12, seed=6, golden_makespan_ns=1e6)

    def test_cycles_kinds_then_targets_then_times(self):
        scenario = SCENARIOS["minimal"]  # two targets
        grid = build_fault_grid(scenario, 24, seed=1, golden_makespan_ns=1e6)
        assert [s.kind for s in grid[:4]] == list(FAULT_KINDS)
        # After a full pass over kinds the target advances ...
        assert {s.target for s in grid[:8]} == set(scenario.accels)
        # ... and after kinds x targets the injection instant advances.
        fractions = sorted({s.at_ns / 1e6 for s in grid})
        assert fractions == sorted(TIME_FRACTIONS)

    def test_injection_times_scale_with_the_golden_makespan(self):
        scenario = SCENARIOS["minimal"]
        grid = build_fault_grid(scenario, 2, seed=1, golden_makespan_ns=2e6)
        assert grid[0].at_ns == pytest.approx(2e6 * TIME_FRACTIONS[0])


class TestTrialDeterminism:
    def test_same_payload_gives_identical_results(self):
        scenario = SCENARIOS["minimal"]
        grid = build_fault_grid(scenario, 2, seed=9, golden_makespan_ns=1e6)
        payload = {
            "scenario": scenario.to_dict(),
            "recovery": "retry",
            "fault": grid[1].to_dict(),
            "trial": 1,
            "trial_seed": 9 * 1_000_003 + 1,
            "until_ns": 5e7,
            "max_wall_s": 120.0,
        }
        assert _run_trial(payload) == _run_trial(payload)


class TestCampaign:
    @pytest.fixture(scope="class")
    def report(self):
        return run_campaign(SCENARIOS["minimal"], trials=4, seed=3, recovery="retry")

    def test_every_trial_lands_in_exactly_one_outcome(self, report):
        assert sum(report.counts.values()) == report.trials == 4
        assert set(report.counts) == set(OUTCOMES)
        for result in report.results:
            assert result.outcome in OUTCOMES

    def test_results_are_ordered_and_carry_their_fault(self, report):
        grid = build_fault_grid(
            SCENARIOS["minimal"], 4, seed=3,
            golden_makespan_ns=report.golden_makespan_ns,
        )
        assert [r.trial for r in report.results] == [0, 1, 2, 3]
        assert [r.fault for r in report.results] == [s.to_dict() for s in grid]

    def test_aggregates_are_consistent(self, report):
        assert report.golden_makespan_ns > 0
        not_masked = sum(report.counts[k] for k in ("recovered", "sdc", "hang"))
        if not_masked:
            assert report.coverage == pytest.approx(
                report.counts["recovered"] / not_masked
            )
        else:
            assert report.coverage is None
        for result in report.results:
            if result.outcome == "hang":
                assert result.makespan_ns is None
            else:
                assert result.makespan_ns is not None

    def test_json_is_deterministic_and_complete(self, report):
        text = report.to_json()
        assert text == report.to_json()
        data = json.loads(text)
        assert data["scenario"]["name"] == "minimal"
        assert data["recovery"] == "retry"
        assert len(data["results"]) == 4

    def test_render_mentions_the_headline_numbers(self, report):
        text = report.render()
        assert "fault campaign" in text
        assert "golden makespan" in text
        for name in OUTCOMES:
            assert name in text


class TestValidation:
    def test_rejects_empty_campaigns(self):
        with pytest.raises(ValueError):
            run_campaign(SCENARIOS["minimal"], trials=0, seed=1)

    def test_rejects_unknown_recovery_presets(self):
        with pytest.raises(KeyError, match="unknown recovery preset"):
            run_campaign(SCENARIOS["minimal"], trials=1, seed=1, recovery="heroic")


def test_campaign_loads_neither_dse_nor_lint():
    """A campaign builds its workload schedule without the DSE layer, so
    its set-up pays for neither that layer nor the linter it imports."""
    probe = (
        "import sys\n"
        "from repro.faults import SCENARIOS, run_campaign\n"
        "run_campaign(SCENARIOS['minimal'], trials=1, seed=1)\n"
        "print(sorted(m for m in ('repro.dse', 'repro.analysis.lint') if m in sys.modules))\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"
