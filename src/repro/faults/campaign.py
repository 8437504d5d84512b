"""The fault-injection campaign engine.

A campaign runs one golden (fault-free) trial to learn the reference
makespan and outputs, then N seeded trials, each injecting exactly one
:class:`~repro.faults.models.FaultSpec` from a deterministic grid over
(fault kind x target context x injection-time fraction).  Every trial is
classified into exactly one outcome:

``masked``
    The run completed with correct outputs and no recovery intervention —
    the fault landed somewhere the system never consumed.
``recovered``
    Correct outputs, but the DRCF's recovery instrumentation shows at
    least one intervention (retry, scrub repair, fetch timeout, fallback).
``sdc``
    The run completed but some job's outputs differ from the executable
    specification — silent data corruption.
``hang``
    The run did not complete all jobs within the simulated-time bound
    (``hang_factor`` x golden makespan), or the wall-clock watchdog
    tripped.

Trials are independent full simulations, so the engine fans them out over
``multiprocessing`` workers (:func:`repro.parallel.map_ordered`, shared
with the DSE sweep engine); every payload is primitives-only and each
trial derives its private RNG via :func:`repro.parallel.derive_seed`,
making the whole campaign byte-for-byte reproducible from (scenario,
trials, seed, recovery) alone.  Reports carry no wall-clock data for
exactly that reason.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..parallel import derive_seed, map_ordered
from .models import FAULT_KINDS, FaultSpec
from .scenarios import CampaignScenario

#: The four trial outcomes (each trial lands in exactly one).
OUTCOMES = ("masked", "recovered", "sdc", "hang")

#: Injection instants as fractions of the golden makespan.
TIME_FRACTIONS = (0.1, 0.35, 0.6)

#: Simulated-time bound = golden * HANG_FACTOR + slack (see run_campaign).
DEFAULT_HANG_FACTOR = 50.0
_HANG_SLACK_NS = 2_000_000.0  # 2 ms of absolute headroom for stalls/backoff

#: Wall-clock safety net per trial; the deterministic sim-time bound fires
#: long before this on any healthy machine.
DEFAULT_MAX_WALL_S = 120.0


@dataclass
class TrialResult:
    """Outcome of one campaign trial (primitives only; picklable)."""

    trial: int
    outcome: str
    fault: Optional[dict]
    #: None for hang trials (their stop point may not be meaningful).
    makespan_ns: Optional[float] = None
    recovery_actions: Optional[int] = None
    recovery_time_ns: Optional[float] = None
    config_retries: Optional[int] = None
    scrub_repairs: Optional[int] = None
    fallbacks: Optional[int] = None
    fetch_timeouts: Optional[int] = None
    #: ``[t_ns, description]`` audit trail of applied injections.
    events: Optional[list] = None

    def to_dict(self) -> dict:
        return {
            "trial": self.trial,
            "outcome": self.outcome,
            "fault": self.fault,
            "makespan_ns": self.makespan_ns,
            "recovery_actions": self.recovery_actions,
            "recovery_time_ns": self.recovery_time_ns,
            "config_retries": self.config_retries,
            "scrub_repairs": self.scrub_repairs,
            "fallbacks": self.fallbacks,
            "fetch_timeouts": self.fetch_timeouts,
            "events": self.events,
        }


def build_fault_grid(
    scenario: CampaignScenario,
    trials: int,
    seed: int,
    golden_makespan_ns: float,
) -> List[FaultSpec]:
    """The deterministic fault-point grid of a campaign.

    Kind, target and injection-time fraction cycle deterministically so
    even a small trial count covers every kind; the kind-specific
    parameters vary per trial through the trial's private seeded RNG.
    """
    targets = scenario.accels
    specs: List[FaultSpec] = []
    for i in range(trials):
        rng = random.Random(derive_seed(seed, i))
        kind = FAULT_KINDS[i % len(FAULT_KINDS)]
        target = targets[(i // len(FAULT_KINDS)) % len(targets)]
        fraction = TIME_FRACTIONS[
            (i // (len(FAULT_KINDS) * len(targets))) % len(TIME_FRACTIONS)
        ]
        specs.append(
            FaultSpec(
                kind=kind,
                target=target,
                at_ns=round(golden_makespan_ns * fraction, 3),
                n_bits=rng.randint(1, 3),
                drop_fraction=rng.choice((0.25, 0.5, 0.75)),
                n_bursts=rng.randint(1, 2),
                stall_us=float(rng.choice((100, 250, 400))),
            )
        )
    return specs


# ---------------------------------------------------------------------------
# trial execution (top-level so multiprocessing can pickle it)
# ---------------------------------------------------------------------------

def _build_system(scenario_dict: dict):
    """Build (netlist, info) for one trial from a scenario dictionary."""
    from ..apps import make_reconfigurable_netlist
    from ..tech import preset

    scenario = CampaignScenario.from_dict(scenario_dict)
    if scenario.netlist_path is not None:
        from .scenarios import _load_netlist

        netlist, info = _load_netlist(scenario.netlist_path)
        if info is None or info.drcf_name is None:
            raise ValueError(
                f"{scenario.netlist_path}: build_netlist() must return "
                "(netlist, SocInfo) with a DRCF"
            )
        return netlist, info
    return make_reconfigurable_netlist(
        scenario.accels,
        tech=preset(scenario.tech),
        bus_protocol=scenario.bus_protocol,
    )


def _run_trial(payload: dict) -> dict:
    """Run one campaign trial (worker entry point; primitives in and out)."""
    from ..apps import JobRunner, golden_outputs
    from ..apps.workloads import workload_jobs
    from ..core import recovery_preset
    from ..kernel import Simulator, ns
    from .injector import FaultInjector

    netlist, info = _build_system(payload["scenario"])
    scenario = CampaignScenario.from_dict(payload["scenario"])
    jobs = workload_jobs(
        scenario.workload, scenario.accels, scenario.n_frames, seed=scenario.workload_seed
    )
    sim = Simulator()
    injector = None
    try:
        design = netlist.elaborate(sim)
        drcf = design[info.drcf_name]
        drcf.set_recovery(recovery_preset(payload["recovery"]))
        runner = JobRunner(info.accel_bases, info.buffer_words)
        workload_proc = design[info.cpu_name].run_task(runner.task(jobs), name="workload")

        # Daemons (the scrubber, background traffic) never starve the event
        # queue; end the run when the workload completes instead.
        def stopper():
            yield workload_proc.terminated_event
            sim.stop()

        sim.spawn("stopper", stopper)

        fault_dict = payload.get("fault")
        if fault_dict is not None:
            injector = FaultInjector(seed=payload["trial_seed"])
            injector.arm(FaultSpec.from_dict(fault_dict))
            injector.attach(sim, design, info)

        until_ns = payload.get("until_ns")
        sim.run(
            until=ns(until_ns) if until_ns is not None else None,
            max_wall_s=payload.get("max_wall_s"),
        )

        completed = len(runner.results) == len(jobs) and not sim.watchdog_fired
        result = TrialResult(trial=payload["trial"], outcome="hang", fault=fault_dict)
        if completed:
            wrong = any(r.outputs != golden_outputs(r.spec) for r in runner.results)
            stats = drcf.stats
            actions = stats.recovery_actions
            if wrong:
                result.outcome = "sdc"
            elif actions > 0:
                result.outcome = "recovered"
            else:
                result.outcome = "masked"
            result.makespan_ns = max(r.end_ns for r in runner.results)
            result.recovery_actions = actions
            result.recovery_time_ns = stats.total_recovery_time.to_ns()
            result.config_retries = stats.config_retries
            result.scrub_repairs = stats.scrub_repairs
            result.fallbacks = stats.fallbacks
            result.fetch_timeouts = stats.fetch_timeouts
            result.events = (
                [[t, msg] for t, msg in injector.events] if injector is not None else []
            )
    finally:
        if injector is not None:
            injector.detach()
        sim.close()
    return result.to_dict()


# ---------------------------------------------------------------------------
# the campaign
# ---------------------------------------------------------------------------

@dataclass
class CampaignReport:
    """Everything a campaign measured (JSON- and table-renderable)."""

    scenario: dict
    recovery: str
    trials: int
    seed: int
    golden_makespan_ns: float
    counts: Dict[str, int]
    #: recovered / (recovered + sdc + hang); None when every fault masked.
    coverage: Optional[float]
    #: Mean simulated recovery time of recovered trials (MTTR), ns.
    mttr_ns: Optional[float]
    #: Mean makespan inflation of completed-correct trials vs golden.
    recovery_overhead: Optional[float]
    results: List[TrialResult] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "recovery": self.recovery,
            "trials": self.trials,
            "seed": self.seed,
            "golden_makespan_ns": self.golden_makespan_ns,
            "counts": dict(self.counts),
            "coverage": self.coverage,
            "mttr_ns": self.mttr_ns,
            "recovery_overhead": self.recovery_overhead,
            "results": [r.to_dict() for r in self.results],
        }

    def to_json(self) -> str:
        """Deterministic JSON: sorted keys, no wall-clock data anywhere."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render(self) -> str:
        """Human-readable campaign report."""
        from ..dse import format_table

        lines = [
            f"fault campaign: scenario={self.scenario['name']} "
            f"recovery={self.recovery} trials={self.trials} seed={self.seed}",
            f"golden makespan: {self.golden_makespan_ns / 1e3:.2f} us",
            "",
        ]
        lines.append(
            "outcomes: "
            + "  ".join(f"{name}={self.counts[name]}" for name in OUTCOMES)
        )
        coverage = "n/a" if self.coverage is None else f"{self.coverage:.1%}"
        mttr = "n/a" if self.mttr_ns is None else f"{self.mttr_ns / 1e3:.2f} us"
        overhead = (
            "n/a" if self.recovery_overhead is None else f"{self.recovery_overhead:+.2%}"
        )
        lines.append(
            f"coverage: {coverage}   MTTR: {mttr}   recovery overhead: {overhead}"
        )
        lines.append("")
        rows = []
        for result in self.results:
            fault = result.fault or {}
            rows.append(
                {
                    "trial": result.trial,
                    "kind": fault.get("kind", "-"),
                    "target": fault.get("target", "-"),
                    "at_us": round(fault.get("at_ns", 0.0) / 1e3, 2),
                    "outcome": result.outcome,
                    "actions": "-"
                    if result.recovery_actions is None
                    else result.recovery_actions,
                }
            )
        lines.append(format_table(rows, title="trials"))
        return "\n".join(lines)


def run_campaign(
    scenario: CampaignScenario,
    *,
    trials: int,
    seed: int,
    recovery: str = "retry",
    workers: int = 1,
    hang_factor: float = DEFAULT_HANG_FACTOR,
    max_wall_s: Optional[float] = DEFAULT_MAX_WALL_S,
) -> CampaignReport:
    """Run a fault-injection campaign and aggregate its report.

    The golden trial runs first (serially) to learn the reference
    makespan; it must come back fault-free or the scenario itself is
    broken.  The N faulted trials then run serially or across a
    ``multiprocessing`` pool — identical arguments give byte-identical
    reports either way.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    from ..kernel import SimulationError

    scenario_dict = scenario.to_dict()
    golden_payload = {
        "scenario": scenario_dict,
        "recovery": recovery,
        "fault": None,
        "trial": -1,
        "trial_seed": seed,
        "until_ns": None,
        "max_wall_s": max_wall_s,
    }
    golden = _run_trial(golden_payload)
    if golden["outcome"] != "masked":
        raise SimulationError(
            f"golden (fault-free) trial classified {golden['outcome']!r}; "
            "the scenario must run clean before faults are injected"
        )
    golden_ns = float(golden["makespan_ns"])
    until_ns = golden_ns * hang_factor + _HANG_SLACK_NS

    grid = build_fault_grid(scenario, trials, seed, golden_ns)
    payloads = [
        {
            "scenario": scenario_dict,
            "recovery": recovery,
            "fault": spec.to_dict(),
            "trial": i,
            "trial_seed": derive_seed(seed, i),
            "until_ns": until_ns,
            "max_wall_s": max_wall_s,
        }
        for i, spec in enumerate(grid)
    ]
    raw = list(map_ordered(_run_trial, payloads, workers=workers))

    results = [TrialResult(**r) for r in raw]
    counts = {name: 0 for name in OUTCOMES}
    for result in results:
        counts[result.outcome] += 1

    not_masked = counts["recovered"] + counts["sdc"] + counts["hang"]
    coverage = counts["recovered"] / not_masked if not_masked else None
    recovered = [r for r in results if r.outcome == "recovered"]
    mttr_ns = (
        sum(r.recovery_time_ns for r in recovered) / len(recovered)
        if recovered
        else None
    )
    correct = [r for r in results if r.outcome in ("masked", "recovered")]
    recovery_overhead = (
        sum((r.makespan_ns - golden_ns) / golden_ns for r in correct) / len(correct)
        if correct
        else None
    )
    return CampaignReport(
        scenario=scenario_dict,
        recovery=recovery,
        trials=trials,
        seed=seed,
        golden_makespan_ns=golden_ns,
        counts=counts,
        coverage=coverage,
        mttr_ns=mttr_ns,
        recovery_overhead=recovery_overhead,
        results=results,
    )
