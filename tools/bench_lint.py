#!/usr/bin/env python
"""Lint performance smoke: bound the deep analysis layers' wall-clock.

The REP4xx dataflow layer parses every registered process body with the
``ast`` module and assembles a design-level graph, the REP5xx cfg layer
builds a statement-level CFG per body on top of it, and the REP6xx
interproc layer adds wait-for/lock-order traces over the elaborated
design, so their cost grows with the model.  This harness times
``run_lint(dataflow=True)``, ``run_lint(dataflow=True, cfg=True)`` and
``run_lint(dataflow=True, cfg=True, interproc=True)`` on the largest
built-in architecture (the multi-fabric modem, every accelerator split
across two fabrics) and — with ``--check`` — fails when a full analysis
pass of any exceeds a generous wall-clock bound.  The point is not a precise
perf trajectory (``bench_kernel.py`` owns that) but a CI tripwire: an
accidentally quadratic rule or a lost cache shows up as seconds, not
milliseconds.

Usage::

    PYTHONPATH=src python tools/bench_lint.py            # run + report
    PYTHONPATH=src python tools/bench_lint.py --check    # CI smoke: fail over budget
"""

from __future__ import annotations

import argparse
import os
import sys
import time

if __name__ == "__main__" and __package__ is None:
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis import run_lint
from repro.apps.soc import make_multi_fabric_netlist
from repro.tech import MORPHOSYS, VIRTEX2PRO

#: CI budget for one full dataflow lint pass of the largest example, in
#: seconds.  A warm pass takes well under a second; the slack absorbs
#: slow shared CI machines, not algorithmic regressions.
CHECK_BUDGET_S = 5.0

#: Timed passes (the first pass also pays the AST-cache warm-up; both are
#: reported so a cache regression is visible as pass-1 ~= pass-2).
PASSES = 3


def largest_netlist():
    """The biggest shipped architecture: all four accelerators, two fabrics."""
    netlist, _ = make_multi_fabric_netlist(
        {
            "fabric_a": (("fir", "viterbi"), MORPHOSYS),
            "fabric_b": (("fft", "xtea"), VIRTEX2PRO),
        }
    )
    return netlist


def timed_passes(n_passes: int = PASSES, cfg: bool = False, interproc: bool = False):
    """Wall-clock of ``n_passes`` full lint runs of one layer, in seconds."""
    times = []
    for _ in range(n_passes):
        netlist = largest_netlist()
        start = time.perf_counter()
        report = run_lint(netlist, dataflow=True, cfg=cfg, interproc=interproc)
        times.append(time.perf_counter() - start)
        if report.has_errors:
            raise SystemExit(
                f"bench_lint: the benchmark architecture fails lint:\n"
                f"{report.render()}"
            )
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"fail when a pass exceeds {CHECK_BUDGET_S:.1f}s",
    )
    args = parser.parse_args(argv)

    layers = (
        ("dataflow", False, False),
        ("dataflow+cfg", True, False),
        ("dataflow+cfg+interproc", True, True),
    )
    for label, cfg, interproc in layers:
        times = timed_passes(cfg=cfg, interproc=interproc)
        for i, t in enumerate(times, 1):
            print(f"{label} pass {i}: {t * 1e3:8.1f} ms")
        worst = max(times)
        print(f"{label} worst:  {worst * 1e3:8.1f} ms  (budget {CHECK_BUDGET_S:.1f}s)")
        if args.check and worst > CHECK_BUDGET_S:
            print(
                f"bench_lint: FAIL — slowest {label} lint pass took "
                f"{worst:.2f}s (> {CHECK_BUDGET_S:.1f}s budget)",
                file=sys.stderr,
            )
            return 1

    if args.check:
        print("bench_lint: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
