#!/usr/bin/env python3
"""The paper's motivating scenario: a field-upgradeable multi-standard modem.

Chapter 2 argues manufacturers adopt reconfigurable hardware because
products must "conform to multiple or migrating international standards"
and gain features after shipping.  This example plays that story out:

* **Product v1** ships a modem pipeline (FIR + FFT + Viterbi) mapped onto a
  MorphoSys-style fabric, alternating between two 'standards' (parameter
  sets) at runtime — low-cost adaptivity by sharing one fabric.
* **Field upgrade**: a security requirement arrives after fabrication; the
  XTEA cipher is added as a *new context* — only a new bitstream in
  configuration memory, no silicon change.  The dedicated-hardware product
  (Figure 1a) would have needed a re-spin.
* A background prefetcher (MorphoSys loads the inactive context bank while
  the array computes) hides part of the switching cost.

Run:  python examples/wireless_multistandard.py
"""

from repro.apps import (
    JobRunner,
    frame_interleaved_jobs,
    golden_outputs,
    make_reconfigurable_netlist,
)
from repro.core import ContextPrefetcher, SequencePredictor
from repro.dse import format_table
from repro.kernel import Simulator
from repro.tech import MORPHOSYS

V1_BLOCKS = ("fir", "fft", "viterbi")
V2_BLOCKS = ("fir", "fft", "viterbi", "xtea")


def build_netlist():
    """The full second-generation product architecture (`repro lint` entry)."""
    return make_reconfigurable_netlist(V2_BLOCKS, tech=MORPHOSYS)


def run(blocks, *, prefetch: bool, n_frames: int = 3, seed: int = 11):
    """Simulate one product configuration; returns a result row."""
    jobs = frame_interleaved_jobs(blocks, n_frames, seed=seed)
    netlist, info = make_reconfigurable_netlist(blocks, tech=MORPHOSYS)
    sim = Simulator()
    design = netlist.elaborate(sim)
    drcf = design[info.drcf_name]
    if prefetch:
        ContextPrefetcher(
            "prefetcher",
            parent=design.top,
            drcf=drcf,
            predictor=SequencePredictor(list(blocks)),
        )
    runner = JobRunner(info.accel_bases, info.buffer_words)
    design["cpu"].run_task(runner.task(jobs), name="modem")
    sim.run()
    assert all(r.outputs == golden_outputs(r.spec) for r in runner.results)
    stats = drcf.stats.summary()
    return {
        "blocks": "+".join(blocks),
        "prefetch": prefetch,
        "jobs": len(runner.results),
        "makespan_us": max(r.end_ns for r in runner.results) / 1e3,
        "switches": stats["switches"],
        "prefetch_hits": stats["prefetch_hits"],
        "reconfig_us": stats["reconfig_time_ns"] / 1e3,
        "fabric_gates": drcf.largest_context_gates(),
    }


def main() -> None:
    rows = [
        run(V1_BLOCKS, prefetch=False),
        run(V1_BLOCKS, prefetch=True),
        run(V2_BLOCKS, prefetch=False),  # after the field upgrade
        run(V2_BLOCKS, prefetch=True),
    ]
    print(format_table(rows, title="multi-standard modem on a MorphoSys-style fabric"))

    v1 = rows[0]
    v2 = rows[2]
    dedicated_gates_v2 = sum(
        {"fir": 12_000, "fft": 25_000, "viterbi": 30_000, "xtea": 8_000}[b]
        for b in V2_BLOCKS
    )
    print(
        f"\nfield upgrade added the cipher with zero silicon change: the fabric "
        f"still hosts {v2['fabric_gates']} gates (largest context), while the "
        f"Figure 1(a) product would now need {dedicated_gates_v2} gates of "
        f"dedicated logic — and a re-fabrication."
    )
    hidden = rows[2]["makespan_us"] - rows[3]["makespan_us"]
    print(
        f"background context loading hid {hidden:.1f} us of reconfiguration "
        f"({rows[3]['prefetch_hits']} prefetch hits)."
    )


if __name__ == "__main__":
    main()
