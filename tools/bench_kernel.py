#!/usr/bin/env python
"""Kernel performance harness: measure, record and police simulator throughput.

The discrete-event kernel is the substrate every experiment in this repo
runs on, so its per-event cost directly bounds how large a model (or DSE
sweep) is practical.  This harness times six workloads that stress the
scheduler's distinct hot paths and records the results in
``BENCH_kernel.json`` at the repository root, giving every future change a
perf trajectory to compare against:

``timed_event``
    One process yielding timed waits — the timed-heap push/pop path.
``ping_pong``
    Two processes trading immediate notifications — the dynamic-waiter
    arm/disarm and runnable-queue path.
``signal_fanout``
    Many signals written every cycle, each with its own watcher — the
    update-queue (request_update) and update-phase path.
``delta_heavy``
    Many processes re-arming on one broadcast event every delta — the
    waiter-list management and delta-queue path.
``bus_transaction``
    Full-stack bus writes through arbiter + memory — a macro workload
    representative of the paper's bus-cycle-accurate models.
``drcf_slave``
    The paper's reconfigurable SoC serving frame jobs through the DRCF
    slave — a macro workload over blocking transport, context switches
    and configuration fetches.

Usage::

    PYTHONPATH=src python tools/bench_kernel.py            # run + report
    PYTHONPATH=src python tools/bench_kernel.py --write    # refresh BENCH_kernel.json
    PYTHONPATH=src python tools/bench_kernel.py --check    # CI smoke: fail on >30% regression
    PYTHONPATH=src python tools/bench_kernel.py --quick    # smaller n (fast sanity run)

``--write`` preserves the recorded ``seed_baseline`` section (the numbers
measured on the original seed kernel) so the speedup-vs-seed trajectory is
never lost; pass ``--seed-baseline <file>`` to (re)initialize it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
from typing import Callable, Dict, Optional

if __name__ == "__main__" and __package__ is None:
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bus import Bus, Memory
from repro.kernel import Event, Module, Signal, Simulator, ns

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
DEFAULT_BASELINE = os.path.join(REPO_ROOT, "BENCH_kernel.json")
SCHEMA = "bench-kernel/v1"

#: CI tolerance: --check fails when a workload drops below this fraction of
#: the committed events/sec.
CHECK_THRESHOLD = 0.70


# ---------------------------------------------------------------------------
# Workloads.  Each returns the number of "events" processed (its own unit:
# timed activations, notification hops, signal updates, wakeups or bus
# transactions); throughput is events / wall-clock second.
# ---------------------------------------------------------------------------

def run_timed_events(n: int) -> int:
    sim = Simulator()
    count = 0

    def body():
        nonlocal count
        for _ in range(n):
            yield ns(1)
            count += 1

    sim.spawn("p", body)
    sim.run()
    return count


def run_event_pingpong(n: int) -> int:
    sim = Simulator()
    ping, pong = Event(sim, "ping"), Event(sim, "pong")
    hops = 0

    def a():
        nonlocal hops
        for _ in range(n):
            ping.notify()
            yield pong
            hops += 1

    def b():
        while True:
            yield ping
            pong.notify()

    sim.spawn("b", b, daemon=True)  # waiter first so ping finds it armed
    sim.spawn("a", a)
    sim.run()
    return hops


def run_signal_fanout(n: int, fanout: int = 100) -> int:
    """One writer updates ``fanout`` signals per cycle, each with a watcher.

    Stresses ``request_update`` dedup (the update queue holds ``fanout``
    channels per delta) and the update phase itself.
    """
    sim = Simulator()
    signals = [Signal(sim, 0, f"s{i}") for i in range(fanout)]
    seen = 0

    def make_watcher(sig):
        def watcher():
            nonlocal seen
            while True:
                yield sig.value_changed
                seen += 1

        return watcher

    for sig in signals:
        sim.spawn(f"w.{sig.name}", make_watcher(sig), daemon=True)

    def writer():
        cycles = max(1, n // fanout)
        for i in range(cycles):
            for sig in signals:
                sig.write(i + 1)
            yield ns(1)

    sim.spawn("writer", writer)
    sim.run()
    return seen


def run_delta_heavy(n: int, waiters: int = 100) -> int:
    """``waiters`` processes re-arm on one broadcast event every delta.

    Stresses dynamic-waiter add/remove on a single fat waiter list and the
    delta notification queue.
    """
    sim = Simulator()
    tick = Event(sim, "tick")
    wakeups = 0

    def waiter():
        nonlocal wakeups
        while True:
            yield tick
            wakeups += 1

    for i in range(waiters):
        sim.spawn(f"w{i}", waiter, daemon=True)

    def driver():
        rounds = max(1, n // waiters)
        for _ in range(rounds):
            tick.notify_delta()
            yield ns(1)

    sim.spawn("driver", driver)
    sim.run()
    return wakeups


class _BusMaster(Module):
    """One bus master issuing ``rounds`` blocking single-word writes."""

    def __init__(self, name, sim, bus, rounds):
        super().__init__(name, sim=sim)
        self.bus = bus
        self.rounds = rounds
        self.add_thread(self.drive)

    def drive(self):
        for i in range(self.rounds):
            yield from self.bus.write((i % 64) * 4, i, master=self.full_name)


def run_bus_transactions(n: int) -> int:
    """``n`` transactions split across two contending masters.

    Two masters so the workload exercises both kinds of wait: the timed
    bus/memory cycles and the grant waits the arbiter resolves under
    contention.
    """
    sim = Simulator()
    bus = Bus("bus", sim=sim, clock_freq_hz=100e6)
    mem = Memory("mem", sim=sim, base=0, size_words=64)
    bus.register_slave(mem)
    _BusMaster("cpu0", sim, bus, n // 2)
    _BusMaster("cpu1", sim, bus, n - n // 2)
    sim.run()
    return bus.monitor.transaction_count


def run_drcf_slave(n: int) -> int:
    """The paper's DRCF SoC serving ``n // 2`` frames of accelerator jobs.

    A macro workload over the reconfigurable netlist: the CPU masters
    blocking transport into the DRCF slave, which context-switches and
    fetches bitstreams over the configuration path.  Events are bus
    transactions observed on the system bus.
    """
    from repro.apps import (
        JobRunner,
        frame_interleaved_jobs,
        make_reconfigurable_netlist,
    )

    frames = max(1, n // 2)
    netlist, info = make_reconfigurable_netlist(("fir", "xtea"))
    sim = Simulator()
    design = netlist.elaborate(sim)
    jobs = frame_interleaved_jobs(("fir", "xtea"), n_frames=frames, seed=11)
    runner = JobRunner(info.accel_bases, info.buffer_words)
    design["cpu"].run_task(runner.task(jobs), name="wl")
    sim.run()
    assert len(runner.results) == len(jobs), "jobs were dropped"
    return design["system_bus"].monitor.transaction_count


#: name -> (workload fn, default n, quick n)
WORKLOADS: Dict[str, tuple] = {
    "timed_event": (run_timed_events, 30_000, 3_000),
    "ping_pong": (run_event_pingpong, 15_000, 1_500),
    "signal_fanout": (run_signal_fanout, 30_000, 5_000),
    "delta_heavy": (run_delta_heavy, 30_000, 5_000),
    # Same n both modes: small enough that the monitor's growing
    # transaction list doesn't crowd the cache.
    "bus_transaction": (run_bus_transactions, 4_000, 4_000),
    "drcf_slave": (run_drcf_slave, 8, 2),
}

def measure(fn: Callable[[int], int], n: int, repeats: int = 3) -> Dict[str, float]:
    """Best-of-``repeats`` wall-clock measurement of one workload.

    Runs with the garbage collector off (collected first, restored after)
    so collector pauses don't smear the timings of allocation-heavy
    workloads.
    """
    if repeats < 1:
        raise ValueError("--repeats must be at least 1")
    best = None
    events = 0
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            events = fn(n)
            elapsed = time.perf_counter() - t0
            if best is None or elapsed < best:
                best = elapsed
    finally:
        if gc_was_enabled:
            gc.enable()
    assert events > 0, "workload processed no events"
    return {
        "n": n,
        "events": events,
        "seconds": round(best, 6),
        "events_per_sec": round(events / best, 1),
    }


def run_all(quick: bool = False, repeats: int = 3) -> Dict[str, Dict[str, float]]:
    results = {}
    for name, (fn, n, quick_n) in WORKLOADS.items():
        results[name] = measure(fn, quick_n if quick else n, repeats=repeats)
    return results


# ---------------------------------------------------------------------------
# Baseline file handling.
# ---------------------------------------------------------------------------

def load_baseline(path: str) -> Optional[dict]:
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_baseline(
    path: str,
    results: Dict[str, Dict[str, float]],
    seed_baseline: Optional[Dict[str, Dict[str, float]]],
    quick_results: Optional[Dict[str, Dict[str, float]]] = None,
) -> dict:
    doc = {
        "schema": SCHEMA,
        "generated_by": "tools/bench_kernel.py --write",
        "python": platform.python_version(),
        "workloads": results,
    }
    if quick_results:
        # Reference numbers at the quick-n sizes --check measures with, so
        # the smoke comparison is apples-to-apples (short runs amortize
        # elaboration differently and report lower events/sec).
        doc["quick_workloads"] = quick_results
    if seed_baseline:
        doc["seed_baseline"] = seed_baseline
        doc["speedup_vs_seed"] = {
            name: round(
                results[name]["events_per_sec"] / seed_baseline[name]["events_per_sec"],
                2,
            )
            for name in results
            if name in seed_baseline
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return doc


def report(
    results: Dict[str, Dict[str, float]],
    baseline: Optional[dict],
    quick: bool = False,
) -> None:
    seed = (baseline or {}).get("seed_baseline", {})
    # Quick runs compare against the quick-n reference (short runs report
    # lower events/sec, so full-n numbers would read as false regressions).
    if quick:
        committed = (baseline or {}).get("quick_workloads") or {}
    else:
        committed = (baseline or {}).get("workloads", {})
    header = f"{'workload':>16} {'n':>8} {'events/s':>12} {'vs committed':>13} {'vs seed':>9}"
    print(header)
    print("-" * len(header))
    for name, row in results.items():
        eps = row["events_per_sec"]
        vs_committed = (
            f"{eps / committed[name]['events_per_sec']:.2f}x" if name in committed else "-"
        )
        vs_seed = f"{eps / seed[name]['events_per_sec']:.2f}x" if name in seed else "-"
        print(f"{name:>16} {row['n']:>8} {eps:>12,.0f} {vs_committed:>13} {vs_seed:>9}")


def check(results: Dict[str, Dict[str, float]], baseline: Optional[dict]) -> int:
    """CI smoke mode: fail (non-zero) on >30% regression vs the baseline."""
    if baseline is None:
        print("check: no BENCH_kernel.json baseline committed; run --write first")
        return 2
    committed = baseline.get("quick_workloads") or baseline.get("workloads", {})
    failures = []
    for name, row in results.items():
        if name not in committed:
            continue
        floor = committed[name]["events_per_sec"] * CHECK_THRESHOLD
        eps = row["events_per_sec"]
        if eps < floor:
            # Machine noise on shared runners can exceed the threshold;
            # re-measure with more repeats before declaring a regression.
            fn, _n, quick_n = WORKLOADS[name]
            retry = measure(fn, quick_n, repeats=6)
            eps = max(eps, retry["events_per_sec"])
        if eps < floor:
            failures.append(
                f"  {name}: {eps:,.0f} ev/s < "
                f"{floor:,.0f} ev/s ({CHECK_THRESHOLD:.0%} of committed "
                f"{committed[name]['events_per_sec']:,.0f})"
            )
    rc = 0
    if failures:
        print("check: THROUGHPUT REGRESSION (>30% below committed baseline):")
        print("\n".join(failures))
        rc = 1
    else:
        print(f"check: ok — all {len(results)} workloads within "
              f"{1 - CHECK_THRESHOLD:.0%} of the committed baseline")
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="path of BENCH_kernel.json (default: repo root)")
    parser.add_argument("--write", action="store_true",
                        help="write the measured numbers to the baseline file")
    parser.add_argument("--check", action="store_true",
                        help="smoke mode: rerun (quick n) and fail on >30%% regression")
    parser.add_argument("--quick", action="store_true",
                        help="use the smaller quick-n per workload")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of repeats per workload (default 3)")
    parser.add_argument("--seed-baseline", default=None,
                        help="JSON file of seed-kernel measurements to embed "
                             "as the seed_baseline section on --write")
    parser.add_argument("--emit-raw", action="store_true",
                        help="print the raw measurement dict as JSON to stdout")
    args = parser.parse_args(argv)

    baseline = load_baseline(args.baseline)
    results = run_all(quick=args.quick or args.check, repeats=args.repeats)

    if args.emit_raw:
        print(json.dumps(results, indent=2))
        return 0
    if args.check:
        return check(results, baseline)
    report(results, baseline, quick=args.quick)
    if args.write:
        if args.seed_baseline:
            with open(args.seed_baseline, "r", encoding="utf-8") as fh:
                seed = json.load(fh)
        else:
            seed = (baseline or {}).get("seed_baseline")
        quick_results = (
            results if args.quick else run_all(quick=True, repeats=args.repeats)
        )
        write_baseline(args.baseline, results, seed, quick_results=quick_results)
        print(f"\nwrote {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
