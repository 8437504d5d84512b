"""Kitchen-sink stress test: every feature active in one system.

Two fabrics (one with prefetch + bitstream cache + verification, one
plain), an interrupt controller, a DMA-mediated pipeline step, background
bus traffic, a transient configuration error, and waveform tracing — all
simultaneously, with functional verification and bit-level determinism.
"""

import pytest

from repro.apps import (
    frame_interleaved_jobs,
    golden_outputs,
    make_multi_fabric_netlist,
)
from repro.apps.driver import run_accelerator_job
from repro.bus import DmaController, InterruptController
from repro.core import ContextPrefetcher, RecoveryPolicy, SequencePredictor
from repro.cpu import TrafficGenerator
from repro.kernel import Simulator, VcdTracer
from repro.tech import MORPHOSYS, VARICORE

GROUPS = {
    "fab_a": (("fir", "fft"), MORPHOSYS),
    "fab_b": (("viterbi", "xtea"), VARICORE),
}
ALL = ("fir", "fft", "viterbi", "xtea")


def run_system(inject_error: bool):
    netlist, info = make_multi_fabric_netlist(GROUPS)
    netlist.add("irqc", InterruptController, slave_of="system_bus", base=0x3000_0000)
    netlist.add("dma", DmaController, master_of="system_bus")
    # Enable cache + verification on fabric A.
    spec = netlist.component("fab_a")
    spec.kwargs["config_cache_bytes"] = 1 << 16
    spec.kwargs["recovery"] = RecoveryPolicy(verify=True)

    sim = Simulator()
    design = netlist.elaborate(sim)
    ContextPrefetcher(
        "pf", parent=design.top, drcf=design["fab_a"],
        predictor=SequencePredictor(["fir", "fft"]),
    )
    generator = TrafficGenerator(
        "bg", parent=design.top, base=0x0000_8000, span_bytes=32 * 1024,
        gap_cycles=60, seed=5, n_transactions=300,
    )
    generator.mst_port.bind(design["system_bus"])
    irqc = design["irqc"]
    accel_of = {}
    for fabric, (accels, _t) in GROUPS.items():
        for name in accels:
            module = design[fabric].child(name)
            module.connect_irq(irqc)
            accel_of[name] = module
    tracer = VcdTracer("kitchen_sink")
    tracer.trace(design["fab_a"].active_context_signal, name="fab_a", width=8)
    tracer.trace(design["fab_b"].active_context_signal, name="fab_b", width=8)

    if inject_error:
        design["cfgmem"].inject_transient_error("fir")

    jobs = frame_interleaved_jobs(ALL, n_frames=2, seed=21)
    results = []

    def workload(cpu):
        for spec in jobs:
            out = yield from run_accelerator_job(
                cpu,
                info.accel_bases[spec.accel],
                spec.inputs,
                param=spec.param,
                coefs=spec.coefs,
                n_outputs=spec.n_outputs,
                buffer_words=info.buffer_words,
                irq=(irqc, accel_of[spec.accel].irq_source),
            )
            results.append((spec, out))

    proc = design["cpu"].run_task(workload, name="wl")

    def stopper():
        yield proc.terminated_event
        sim.stop()

    sim.spawn("stopper", stopper)
    sim.run()
    return sim, design, results, jobs, tracer


class TestKitchenSink:
    @pytest.fixture(scope="class")
    def clean_run(self):
        return run_system(inject_error=False)

    def test_all_outputs_golden(self, clean_run):
        _, _, results, jobs, _ = clean_run
        assert len(results) == len(jobs)
        for spec, out in results:
            assert out == golden_outputs(spec), spec.label

    def test_every_subsystem_was_exercised(self, clean_run):
        sim, design, _, jobs, tracer = clean_run
        bus = design["system_bus"]
        assert bus.monitor.words_by_tag("config") > 0
        assert bus.monitor.words_by_tag("background") > 0
        assert design["irqc"].raised_count == len(jobs)
        assert design["fab_a"].stats.total_switches > 0
        assert design["fab_b"].stats.total_switches > 0
        assert design["fab_a"].config_cache is not None
        assert tracer.change_count > 2

    def test_transient_config_error_recovered(self):
        sim_clean, design_clean, results_clean, _, _ = run_system(False)
        sim_err, design_err, results_err, _, _ = run_system(True)
        # Same functional results despite the corrupted fetch...
        assert [out for _, out in results_clean] == [out for _, out in results_err]
        # ...because the verify-enabled fabric refetched once.
        assert design_err["fab_a"].stats.config_retries == 1
        assert design_clean["fab_a"].stats.config_retries == 0
        assert design_err["cfgmem"].injected_errors == 1

    def test_bit_level_determinism(self):
        runs = []
        for _ in range(2):
            sim, design, results, _, _ = run_system(False)
            runs.append(
                (
                    sim.now,
                    [tuple(out) for _, out in results],
                    design["fab_a"].stats.summary(),
                    design["fab_b"].stats.summary(),
                    design["system_bus"].monitor.total_words,
                )
            )
        assert runs[0] == runs[1]
