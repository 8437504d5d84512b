"""Canned design-point evaluators.

:func:`evaluate_architecture` is the workhorse behind the technology sweep
(E6), the policy/prefetch ablations (A1/A2) and the memory-organization
study (A3): it builds a SoC from a parameter dictionary, runs a workload
to completion, and returns the metric dictionary the paper's methodology is
designed to produce quickly (makespan, context-switch counts, reconfig
time, configuration traffic, bus utilization, area and energy).

Recognized parameters (all optional unless noted):

``tech``            technology preset name, or ``"asic"`` for Figure 1(a)
``accels``          tuple of accelerator names (default fir/fft/viterbi/xtea)
``workload``        ``"interleaved"`` | ``"batched"`` | ``"random"``
``n_frames``        frames (or jobs for random)
``policy``          replacement policy name
``prefetch``        bool — attach a sequence prefetcher
``use_area_slots``  bool — partial-reconfiguration slot model
``fabric_capacity_gates``  gate budget for area slots
``dedicated_config_bus``   bool — private configuration bus (A3)
``config_burst_words``     configuration fetch burst length (A3)
``bus_protocol``    ``"split"`` (default) or ``"blocking"``
``baseline_model``  ``"full"`` (default) or ``"ref8"`` — use the Ref8Drcf
``background_gap_cycles``  attach a background traffic generator with this
                    mean inter-transaction gap (None/absent = no generator;
                    smaller = heavier bus load) — experiment E8
``cfg_latency_cycles``     configuration-memory first-access latency (A3)
``seed``            workload seed
"""

from __future__ import annotations

from typing import Dict, Optional

from ..apps import (
    JobRunner,
    golden_outputs,
    make_baseline_netlist,
    make_reconfigurable_netlist,
)
from ..apps.soc import accelerator_gate_counts, architecture_area_um2
from ..apps.workloads import workload_jobs
from ..core import PowerModel, Ref8Drcf
from ..core.policies import make_policy
from ..core.prefetch import ContextPrefetcher, SequencePredictor
from ..kernel import SimulationError, Simulator
from ..tech import ASIC, preset

DEFAULT_ACCELS = ("fir", "fft", "viterbi", "xtea")


def make_jobs(params: Dict[str, object]):
    """Build the workload schedule a design point asks for."""
    return workload_jobs(
        str(params.get("workload", "interleaved")),
        tuple(params.get("accels", DEFAULT_ACCELS)),
        int(params.get("n_frames", 2)),
        seed=int(params.get("seed", 42)),
    )


def evaluate_architecture(params: Dict[str, object], *, verify: bool = True) -> Dict[str, object]:
    """Build, run and measure one design point; returns the metric row."""
    accels = tuple(params.get("accels", DEFAULT_ACCELS))
    tech_name = str(params.get("tech", "virtex2pro"))
    jobs = make_jobs(params)
    common = dict(
        bus_protocol=str(params.get("bus_protocol", "split")),
        cfg_latency_cycles=int(params.get("cfg_latency_cycles", 2)),
    )
    prefetcher: Optional[ContextPrefetcher] = None
    if tech_name == "asic":
        netlist, info = make_baseline_netlist(accels, **common)
    else:
        tech = preset(tech_name)
        policy_name = params.get("policy")
        # The random policy draws from a seeded generator; feeding it the
        # design point's seed keeps the whole evaluation reproducible.
        policy_kwargs = (
            {"seed": int(params.get("seed", 42))} if policy_name == "random" else {}
        )
        netlist, info = make_reconfigurable_netlist(
            accels,
            tech=tech,
            policy=make_policy(str(policy_name), **policy_kwargs) if policy_name else None,
            use_area_slots=bool(params.get("use_area_slots", False)),
            fabric_capacity_gates=params.get("fabric_capacity_gates"),
            config_burst_words=int(params.get("config_burst_words", 64)),
            dedicated_config_bus=bool(params.get("dedicated_config_bus", False)),
            **common,
        )
        if str(params.get("baseline_model", "full")) == "ref8":
            netlist.component(info.drcf_name).factory = Ref8Drcf

    sim = Simulator()
    try:
        design = netlist.elaborate(sim)
        gap = params.get("background_gap_cycles")
        if gap is not None:
            from ..cpu import TrafficGenerator

            generator = TrafficGenerator(
                "bg",
                parent=design.top,
                base=0x0000_8000,  # upper half of the data memory
                span_bytes=32 * 1024,
                gap_cycles=int(gap),
                seed=int(params.get("seed", 42)) + 1,
                n_transactions=None,
            )
            generator.mst_port.bind(design["system_bus"])
        if tech_name != "asic" and bool(params.get("prefetch", False)):
            prefetcher = ContextPrefetcher(
                "prefetcher",
                parent=design.top,
                drcf=design[info.drcf_name],
                predictor=SequencePredictor(list(accels)),
            )
        runner = JobRunner(info.accel_bases, info.buffer_words)
        workload_proc = design[info.cpu_name].run_task(runner.task(jobs), name="workload")
        if gap is not None:
            # The background generator never starves the event queue; end the
            # run when the workload completes instead.
            def stopper():
                yield workload_proc.terminated_event
                sim.stop()

            sim.spawn("stopper", stopper)
        sim.run()

        if len(runner.results) != len(jobs):
            raise SimulationError(
                f"workload incomplete: {len(runner.results)}/{len(jobs)} jobs "
                f"finished (deadlock?)"
            )
        if verify:
            for result in runner.results:
                if result.outputs != golden_outputs(result.spec):
                    raise SimulationError(
                        f"job {result.spec.label} produced wrong output"
                    )

        bus = design[info.bus_name]
        makespan_ns = max(r.end_ns for r in runner.results)
        metrics: Dict[str, object] = {
            "makespan_us": makespan_ns / 1e3,
            "jobs": len(runner.results),
            "mean_job_latency_us": runner.total_latency_ns / len(runner.results) / 1e3,
            "bus_utilization": bus.monitor.utilization(sim.now),
            "bus_data_words": bus.monitor.words_without_tag("config"),
            "bus_config_words": bus.monitor.words_by_tag("config"),
        }
        gates = accelerator_gate_counts(accels)
        if tech_name == "asic":
            metrics.update(
                switches=0,
                fetch_misses=0,
                prefetch_hits=0,
                reconfig_time_us=0.0,
                reconfig_overhead_fraction=0.0,
                area_um2=architecture_area_um2(accels, asic_tech=ASIC),
                fabric_gates=sum(gates.values()),
                flexible=False,
                area_saving_vs_static_fabric=0.0,
            )
        else:
            drcf = design[info.drcf_name]
            s = drcf.stats.summary()
            tech = preset(tech_name)
            # Dynamic sharing sizes the fabric for the *largest* context; the
            # flexible alternative without dynamic reconfiguration needs the
            # *sum* of all contexts resident (a statically configured fabric) —
            # that ratio is the paper's area argument for run-time sharing.
            dynamic_area = architecture_area_um2(
                accels, asic_tech=ASIC, fabric_tech=tech, folded=accels
            )
            static_fabric_area = tech.fabric_area_um2(sum(gates.values()))
            metrics.update(
                switches=s["switches"],
                fetch_misses=s["fetch_misses"],
                prefetch_hits=s["prefetch_hits"],
                reconfig_time_us=s["reconfig_time_ns"] / 1e3,
                reconfig_overhead_fraction=s["reconfig_overhead_fraction"],
                area_um2=dynamic_area,
                area_static_fabric_um2=static_fabric_area,
                area_saving_vs_static_fabric=1.0 - dynamic_area / static_fabric_area,
                fabric_gates=drcf.largest_context_gates(),
                flexible=True,
            )
            energy = PowerModel(tech).drcf_total(drcf, sim.now)
            metrics["energy_mj"] = energy.total_j * 1e3
            if prefetcher is not None:
                metrics["prefetch_requests"] = prefetcher.requests_issued
        return metrics
    finally:
        sim.close()


def evaluate_robustness(params: Dict[str, object]) -> Dict[str, object]:
    """Throughput *and* dependability of one design point.

    Runs :func:`evaluate_architecture` for the performance metrics, then a
    seeded fault campaign (:mod:`repro.faults`) under the design point's
    ``recovery`` preset, and merges both metric sets — the row feeding the
    throughput-vs-coverage Pareto front (faster recovery policies cost
    makespan; none at all costs coverage).

    Extra recognized parameters: ``recovery`` (preset name, default
    ``"retry"``), ``fault_trials`` (default 8), ``fault_seed`` (defaults
    to ``seed``), ``fault_workers`` (default 1).  ``tech`` must be a
    reconfigurable preset — a dedicated-logic design point has no
    configuration path to attack.
    """
    from ..faults import CampaignScenario, run_campaign

    tech_name = str(params.get("tech", "virtex2pro"))
    if tech_name == "asic":
        raise KeyError("evaluate_robustness needs a reconfigurable tech preset")
    metrics = evaluate_architecture(params)
    seed = int(params.get("seed", 42))
    scenario = CampaignScenario(
        name=f"dse-{tech_name}",
        accels=tuple(params.get("accels", DEFAULT_ACCELS)),
        tech=tech_name,
        n_frames=int(params.get("n_frames", 2)),
        workload=str(params.get("workload", "interleaved")),
        workload_seed=seed,
        bus_protocol=str(params.get("bus_protocol", "split")),
    )
    report = run_campaign(
        scenario,
        trials=int(params.get("fault_trials", 8)),
        seed=int(params.get("fault_seed", seed)),
        recovery=str(params.get("recovery", "retry")),
        workers=int(params.get("fault_workers", 1)),
    )
    metrics.update(
        recovery=report.recovery,
        fault_trials=report.trials,
        fault_coverage=report.coverage if report.coverage is not None else 1.0,
        sdc_rate=report.counts["sdc"] / report.trials,
        hang_rate=report.counts["hang"] / report.trials,
        masked_rate=report.counts["masked"] / report.trials,
        mttr_us=(report.mttr_ns / 1e3) if report.mttr_ns is not None else 0.0,
        recovery_overhead=report.recovery_overhead
        if report.recovery_overhead is not None
        else 0.0,
    )
    return metrics


# The inner campaign is byte-identical for any worker count, so the worker
# knob must not split the evaluation cache (see repro.dse.cache).
evaluate_robustness.cache_exclude = ("fault_workers",)
