"""The benchmark's workloads: one public ``repro`` entry point each.

Every workload is a closed loop of identical iterations (same inputs, same
seed), so each iteration's public result must equal the first one's.  Job
sizes are fixed; the seed changes only input data, background-traffic gaps
and fault parameters, which keeps the host work per iteration nearly
seed-independent.

Sizes differ from the paper-scale runs on purpose: the closed loop needs
about a hundred iterations per run for the p90 to have ten samples beyond
it (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

#: Default workload seed (the repo's own default design-point seed).
DEFAULT_SEED = 42
#: Seed held out from tuning; performance claims must also hold on it.
HELD_OUT_SEED = 1009

SOC_ACCELS = ("fir", "fft", "viterbi", "xtea")
CAMPAIGN_ACCELS = ("fir", "xtea")
CAMPAIGN_TRIALS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``run(seed)`` -> the entry point's public result.
    run: Callable[[int], object]
    #: ``check(result, reference)`` -> None when correct, else the reason.
    #: ``reference`` is the first iteration's result (None on that one).
    check: Callable[[object, Optional[object]], Optional[str]]
    #: Simulated microseconds of modelled SoC time behind one result.
    sim_us: Callable[[object], float]


def _soc_interleaved(seed: int) -> dict:
    from repro.dse import evaluate_architecture

    return evaluate_architecture(
        dict(tech="virtex2pro", accels=SOC_ACCELS, workload="interleaved", n_frames=1, seed=seed),
        verify=True,
    )


def _soc_contended(seed: int) -> dict:
    from repro.dse import evaluate_architecture

    return evaluate_architecture(
        dict(
            tech="asic",
            accels=SOC_ACCELS,
            workload="interleaved",
            n_frames=8,
            background_gap_cycles=8,
            seed=seed,
        ),
        verify=True,
    )


def _campaign_full(seed: int):
    from repro.faults import CampaignScenario, run_campaign

    scenario = CampaignScenario(
        name="perfbench",
        accels=CAMPAIGN_ACCELS,
        tech="virtex2pro",
        n_frames=1,
        workload="interleaved",
        workload_seed=seed,
    )
    return run_campaign(scenario, trials=CAMPAIGN_TRIALS, seed=seed, recovery="full", workers=1)


def _adriatic_flow(seed: int) -> dict:
    from repro.dse import evaluate_flow

    return evaluate_flow(dict(tech="virtex2pro", accels=SOC_ACCELS, n_frames=1, seed=seed))


def _same_row(result: dict, reference: Optional[dict]) -> Optional[str]:
    if reference is not None and result != reference:
        changed = sorted(k for k in set(result) | set(reference) if result.get(k) != reference.get(k))
        return f"metric row differs from the first iteration in {changed}"
    return None


def _same_report(report, reference) -> Optional[str]:
    if reference is not None and report.to_json() != reference.to_json():
        return "campaign report JSON differs from the first iteration"
    return None


def _flow_ok(result: dict, reference: Optional[dict]) -> Optional[str]:
    if not result.get("baseline_ok") or not result.get("mapped_ok"):
        return f"flow outputs do not match the specification: {result}"
    return _same_row(result, reference)


def _campaign_sim_us(report) -> float:
    trials = [r.makespan_ns for r in report.results if r.makespan_ns is not None]
    return (report.golden_makespan_ns + sum(trials)) / 1e3


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "soc_interleaved",
            "every job switches context: the config-fetch path through bus and memory dominates",
            _soc_interleaved,
            _same_row,
            lambda row: row["makespan_us"],
        ),
        Workload(
            "soc_contended",
            "dedicated-logic SoC with background traffic: a saturated bus, no fetch, no checksum",
            _soc_contended,
            _same_row,
            lambda row: row["makespan_us"],
        ),
        Workload(
            "campaign_full",
            "serial fault campaign with full recovery: checksum and scrubbing dominate",
            _campaign_full,
            _same_report,
            _campaign_sim_us,
        ),
        Workload(
            "adriatic_flow",
            "the Figure 3 flow: elaboration, lint and transformation weigh most",
            _adriatic_flow,
            _flow_ok,
            lambda row: row["baseline_makespan_us"] + row["mapped_makespan_us"],
        ),
    )
}
