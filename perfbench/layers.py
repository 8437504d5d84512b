"""Per-layer metrics of one iteration.

Two sources feed them:

* :func:`simulated_counts` reads the objects an iteration created
  (captured simulators, their designs, job runners) and its public result.
  These values are deterministic, available without tracing, and are the
  fidelity reference: a traced iteration must reproduce them exactly.
* :func:`host_metrics` turns a :class:`~spans.Tracer`'s self times and
  wrapper counters into host-time metrics.  Wrapper counters (checksum
  calls, scrub checks, fetched words) are deterministic too, but exist only
  in a traced run, so they are checked across traced iterations instead.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Every per-layer metric the traced run reports: (name, unit, clock).
#: ``host`` values are host time (or derived from it), ``sim`` values come
#: from the simulated model, ``count`` values are deterministic counters.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("netlist.elaborate_s", "s", "host"),
    ("specialize.analyze_s", "s", "host"),
    ("specialize.fallbacks", "count", "count"),
    ("specialize.specialized_commits", "count", "count"),
    ("specialize.compiled_thread_waits", "count", "count"),
    ("kernel.simulate_s", "s", "host"),
    ("kernel.self_s", "s", "host"),
    ("kernel.process_executions", "count", "count"),
    ("kernel.delta_cycles", "count", "count"),
    ("kernel.timed_activations", "count", "count"),
    ("kernel.ns_per_exec", "ns", "host"),
    ("bus.self_s", "s", "host"),
    ("bus.transactions", "count", "count"),
    ("bus.config_words", "words", "count"),
    ("bus.data_words", "words", "count"),
    ("bus.us_per_txn", "us", "host"),
    ("bus.utilization", "ratio", "sim"),
    ("bus.mean_arb_wait_ns", "ns", "sim"),
    ("memory.self_s", "s", "host"),
    ("memory.read_words", "words", "count"),
    ("memory.write_words", "words", "count"),
    ("checksum.s", "s", "host"),
    ("checksum.calls", "count", "count"),
    ("checksum.words", "words", "count"),
    ("checksum.ns_per_word", "ns", "host"),
    ("drcf.fetch_s", "s", "host"),
    ("drcf.switches", "count", "count"),
    ("drcf.fetch_misses", "count", "count"),
    ("drcf.reconfig_time_us", "us", "sim"),
    ("recovery.scrub_s", "s", "host"),
    ("recovery.config_retries", "count", "count"),
    ("recovery.scrub_checks", "count", "count"),
    ("recovery.scrub_clean_ratio", "ratio", "count"),
    ("recovery.scrub_repairs", "count", "count"),
    ("recovery.fetch_timeouts", "count", "count"),
    ("recovery.fallbacks", "count", "count"),
    ("recovery.useful_fetch_ratio", "ratio", "count"),
    ("faults.trials", "count", "count"),
    ("faults.masked", "count", "count"),
    ("faults.recovered", "count", "count"),
    ("faults.sdc", "count", "count"),
    ("faults.hang", "count", "count"),
    ("apps.verify_s", "s", "host"),
    ("apps.jobs", "count", "count"),
    ("model.makespan_us", "us", "sim"),
    ("lint.s", "s", "host"),
    ("lint.diagnostics", "count", "count"),
    ("transform.s", "s", "host"),
    ("unattributed_frac", "ratio", "host"),
    ("trace.overhead_frac", "ratio", "host"),
    ("trace.untraceable_layers", "count", "count"),
]


def _modules(sim):
    for top in sim._top_modules:
        yield top
        yield from top.descendants()


def simulated_counts(capture, result, workload) -> Tuple[Dict[str, float], str]:
    """Deterministic per-layer values of one iteration, plus the
    specialization verdict (the fallback reasons, or ``specialized``)."""
    from repro.bus import Bus, Memory
    from repro.core import Drcf

    out: Dict[str, float] = {
        "kernel.process_executions": 0,
        "kernel.delta_cycles": 0,
        "kernel.timed_activations": 0,
        "specialize.fallbacks": 0,
        "specialize.specialized_commits": 0,
        "specialize.compiled_thread_waits": 0,
        "bus.transactions": 0,
        "bus.config_words": 0,
        "bus.data_words": 0,
        "memory.read_words": 0,
        "memory.write_words": 0,
        "drcf.switches": 0,
        "drcf.fetch_misses": 0,
        "recovery.config_retries": 0,
        "recovery.scrub_repairs": 0,
        "recovery.fetch_timeouts": 0,
        "recovery.fallbacks": 0,
    }
    busy_fs = window_fs = wait_fs = reconfig_ns = 0
    reasons = set()
    for sim in capture.sims:
        if not sim._started:
            continue  # built for static analysis only, never simulated
        stats = sim.stats
        out["kernel.process_executions"] += stats.process_executions
        out["kernel.delta_cycles"] += stats.delta_cycles
        out["kernel.timed_activations"] += stats.timed_activations
        out["specialize.specialized_commits"] += stats.specialized_commits
        out["specialize.compiled_thread_waits"] += stats.compiled_thread_waits
        if sim.specialize_fallback_reasons:
            out["specialize.fallbacks"] += 1
            reasons.update(sim.specialize_fallback_reasons)
        for module in _modules(sim):
            if isinstance(module, Bus):
                monitor = module.monitor
                out["bus.transactions"] += monitor.transaction_count
                out["bus.config_words"] += monitor.words_by_tag("config")
                out["bus.data_words"] += monitor.words_without_tag("config")
                busy_fs += monitor.utilization(sim.now) * sim.now.femtoseconds
                window_fs += sim.now.femtoseconds
                wait_fs += sum(t.arbitration_wait.femtoseconds for t in monitor.transactions)
            elif isinstance(module, Memory):
                out["memory.read_words"] += module.read_word_count
                out["memory.write_words"] += module.write_word_count
            elif isinstance(module, Drcf):
                s = module.stats
                out["drcf.switches"] += s.total_switches
                out["drcf.fetch_misses"] += s.fetch_misses
                reconfig_ns += s.total_reconfig_time.to_ns()
                out["recovery.config_retries"] += s.config_retries
                out["recovery.scrub_repairs"] += s.scrub_repairs
                out["recovery.fetch_timeouts"] += s.fetch_timeouts
                out["recovery.fallbacks"] += s.fallbacks
    out["bus.utilization"] = busy_fs / window_fs if window_fs else 0.0
    out["bus.mean_arb_wait_ns"] = (
        wait_fs / out["bus.transactions"] / 1e6 if out["bus.transactions"] else 0.0
    )
    out["drcf.reconfig_time_us"] = reconfig_ns / 1e3
    out["apps.jobs"] = sum(len(runner.results) for runner in capture.runners)
    out["model.makespan_us"] = workload.sim_us(result)
    counts = getattr(result, "counts", None)  # a CampaignReport
    out["faults.trials"] = result.trials if counts is not None else 0
    for outcome in ("masked", "recovered", "sdc", "hang"):
        out[f"faults.{outcome}"] = counts[outcome] if counts is not None else 0
    verdict = "; ".join(sorted(reasons)) if reasons else "specialized"
    return out, verdict


def host_metrics(tracer, iter_s: float, sim: Dict[str, float]) -> Dict[str, float]:
    """Host-time metrics and wrapper counters of one traced iteration."""
    self_s = tracer.self_s
    counts = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "netlist.elaborate_s": tracer.total_s["netlist"],
        "specialize.analyze_s": tracer.total_s["specialize"],
        "kernel.simulate_s": tracer.total_s["kernel"],
        "kernel.self_s": self_s["kernel"],
        "kernel.ns_per_exec": ratio(self_s["kernel"] * 1e9, sim["kernel.process_executions"]),
        "bus.self_s": self_s["bus"],
        "bus.us_per_txn": ratio(self_s["bus"] * 1e6, sim["bus.transactions"]),
        "memory.self_s": self_s["memory"],
        "checksum.s": self_s["checksum"],
        "checksum.calls": counts["checksum.calls"],
        "checksum.words": counts["checksum.words"],
        "checksum.ns_per_word": ratio(self_s["checksum"] * 1e9, counts["checksum.words"]),
        "drcf.fetch_s": self_s["drcf"],
        "recovery.scrub_s": self_s["recovery"],
        "recovery.scrub_checks": counts["recovery.scrub_checks"],
        "recovery.scrub_clean_ratio": ratio(
            counts["recovery.scrub_clean"], counts["recovery.scrub_checks"]
        ),
        "recovery.useful_fetch_ratio": ratio(
            counts["drcf.accepted_words"], counts["drcf.fetched_words"]
        ),
        "apps.verify_s": self_s["apps"],
        "lint.s": tracer.total_s["lint"],
        "lint.diagnostics": counts["lint.diagnostics"],
        "transform.s": tracer.total_s["transform"],
        "unattributed_frac": ratio(self_s["root"], iter_s),
    }


#: Wrapper counters: deterministic, but only a traced run has them.
TRACED_COUNTS = (
    "checksum.calls",
    "checksum.words",
    "recovery.scrub_checks",
    "recovery.scrub_clean_ratio",
    "recovery.useful_fetch_ratio",
    "lint.diagnostics",
)


def mismatched_layers(reference: Dict[str, float], traced: Dict[str, float]) -> List[str]:
    """Layers (metric-name prefixes) whose deterministic values differ."""
    return sorted({name.split(".")[0] for name in reference if reference[name] != traced.get(name)})
