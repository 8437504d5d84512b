"""End-to-end benchmark of the paper's workloads, with a traced layer pass.

Runs one workload as a closed loop in this interpreter: each iteration
starts when the previous one finishes, all iterations use the same seeded
inputs, and every result is checked against the first.  See README.md for
the workloads, the metrics and the prediction table.

    python3 perfbench/run.py --workload soc_interleaved --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload soc_interleaved --trace 1   # per-layer pass
    python3 perfbench/run.py --workload all                         # every workload

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from calibration import Sampler

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Fresh-interpreter set-up probes per run; the median is reported.
SETUP_RUNS = 5

#: (name, unit) of the end-to-end metrics, reported with tracing off.
END_TO_END = [
    ("iter_s.p50", "s"),
    ("iter_s.p90", "s"),
    ("sim_us_per_s", "us/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


class Loop:
    """Closed loop of identical iterations, each checked for correctness."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.reference = None
        self.attempted = 0
        self.failed = 0
        #: When set, its accumulators bracket exactly the timed call.
        self.tracer = None
        #: When set, iterations are timed in calibrated seconds and the
        #: raw seconds of the last one are kept in :attr:`last_raw_s`.
        self.sampler = None
        self.last_raw_s = 0.0

    def iterate(self):
        """One iteration: ``(seconds, result)``, result None on failure."""
        self.attempted += 1
        tracer, sampler = self.tracer, self.sampler
        if tracer is not None:
            tracer.reset()
        start = sampler.start() if sampler is not None else perf_counter()
        try:
            result = self.workload.run(self.seed)
        except Exception:
            # A failed iteration is counted and reported, never fatal.
            self.failed += 1
            print(f"iteration {self.attempted} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            result = None
        finally:
            if tracer is not None:
                tracer.flush()
        if sampler is not None:
            elapsed, self.last_raw_s = sampler.scaled(start)
        else:
            elapsed = self.last_raw_s = perf_counter() - start
        if result is None:
            return elapsed, None
        error = self.workload.check(result, self.reference)
        if error is not None:
            self.failed += 1
            print(f"iteration {self.attempted}: {error}", file=sys.stderr)
            return elapsed, None
        if self.reference is None:
            self.reference = result
        return elapsed, result


def measure_setup(name: str, seed: int):
    """Set-up time over fresh interpreters (see setup_probe.py).

    Returns the median calibrated and the median raw seconds.
    """
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", name, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        scaled.append(probe["setup_s"])
        raw.append(probe["raw_setup_s"])
    return statistics.median(scaled), statistics.median(raw)


def percentile_90(samples):
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def run_untraced(workload, seed: int, seconds: float) -> dict:
    print(f"{workload.name}: {workload.why}")
    loop = Loop(workload, seed)
    # Warm-up: lazy imports and analysis caches fill here (set-up time is
    # measured separately, in fresh interpreters).  Checked, not timed.
    loop.iterate()
    setup_s, raw_setup_s = measure_setup(workload.name, seed)
    samples, raw = [], []
    with Sampler() as sampler:
        loop.sampler = sampler
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            elapsed, result = loop.iterate()
            if result is not None:
                samples.append(elapsed)
                raw.append(loop.last_raw_s)
        loop.sampler = None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not samples or loop.reference is None:
        values = dict.fromkeys((name for name, _ in END_TO_END), 0.0)
    else:
        p50 = statistics.median(samples)
        p90 = percentile_90(samples)
        values = {
            "iter_s.p50": p50,
            "iter_s.p90": p90,
            "sim_us_per_s": workload.sim_us(loop.reference) / p50,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        beyond = sum(1 for s in samples if s > p90)
        print(f"{workload.name}: {len(samples)} timed iterations, {beyond} beyond p90")
        print(
            f"  raw host seconds: iter p50 {statistics.median(raw):.6g}, "
            f"p90 {percentile_90(raw):.6g}, setup {raw_setup_s:.6g}"
        )
    for name, unit in END_TO_END:
        print(f"  {name:<14} {values[name]:>14.6g} {unit}")
    print(f"  fail_frac      {loop.failed}/{loop.attempted}")
    return {
        "correct": loop.failed == 0 and bool(samples),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
    }


class TracedRun:
    """Result of :func:`trace_workload`."""

    def __init__(self, loop, verdict, reference, untraced, rows, untraceable):
        self.loop = loop
        #: Specialization verdict of the untraced reference iteration.
        self.verdict = verdict
        #: Deterministic per-layer values of the untraced reference.
        self.reference = reference
        #: Host seconds of untraced iterations (object capture only).
        self.untraced = untraced
        #: Per traced iteration: (elapsed_s, sum_of_self_s, simulated, host).
        self.rows = rows
        #: Layers whose values a wrapper changed, or that did not repeat.
        self.untraceable = untraceable

    def metrics(self) -> dict:
        from layers import TRACED_COUNTS

        values = dict(self.reference)
        rows = self.rows
        for name in rows[0][3] if rows else ():
            if name in TRACED_COUNTS:
                values[name] = rows[0][3][name]
            else:
                values[name] = statistics.median(row[3][name] for row in rows)
        traced_p50 = statistics.median(row[1] for row in rows) if rows else 0.0
        untraced_p50 = statistics.median(self.untraced) if self.untraced else traced_p50
        values["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1 if untraced_p50 else 0.0
        values["trace.untraceable_layers"] = len(self.untraceable)
        return values


def trace_workload(workload, seed: int, seconds: float) -> TracedRun:
    """Untraced reference and timing, then traced iterations.

    The first iteration runs with object capture only and gives the
    reference counts; ``seconds / 2`` of untraced iterations time the
    program as users run it; then every layer wrapper is installed and
    ``seconds / 2`` (at least two iterations, so repetition is checked) run
    traced, each checked against the reference.
    """
    from layers import TRACED_COUNTS, host_metrics, mismatched_layers, simulated_counts
    from spans import Capture, Tracer

    loop = Loop(workload, seed)
    capture = Capture()
    capture.install()
    tracer = Tracer()
    try:
        _, result = loop.iterate()
        if result is None:
            raise RuntimeError(f"{workload.name}: the untraced reference iteration failed")
        reference, verdict = simulated_counts(capture, result, workload)
        capture.clear()
        untraced = []
        deadline = perf_counter() + seconds / 2
        while perf_counter() < deadline:
            elapsed, result = loop.iterate()
            capture.clear()
            if result is not None:
                untraced.append(elapsed)

        tracer.install()
        loop.tracer = tracer
        rows = []
        untraceable = set()
        deadline = perf_counter() + seconds / 2
        while perf_counter() < deadline or (len(rows) < 2 and loop.failed == 0):
            elapsed, result = loop.iterate()
            if result is None:
                capture.clear()
                continue
            sim, traced_verdict = simulated_counts(capture, result, workload)
            capture.clear()
            iter_s = sum(tracer.self_s.values())
            host = host_metrics(tracer, iter_s, sim)
            untraceable.update(mismatched_layers(reference, sim))
            if traced_verdict != verdict:
                untraceable.add("specialize")
            if rows:
                first = rows[0][3]
                untraceable.update(mismatched_layers({k: first[k] for k in TRACED_COUNTS}, host))
            rows.append((elapsed, iter_s, sim, host))
    finally:
        tracer.uninstall()
        capture.uninstall()
    return TracedRun(loop, verdict, reference, untraced, rows, untraceable)


def run_traced(workload, seed: int, seconds: float) -> dict:
    from layers import PER_LAYER

    print(f"{workload.name}: {workload.why}")
    run = trace_workload(workload, seed, seconds)
    values = run.metrics()
    loop = run.loop
    print(f"{workload.name}: {len(run.rows)} traced, {len(run.untraced)} untraced iterations")
    print(f"specialize.verdict: {run.verdict}")
    if run.untraceable:
        print(f"untraceable layers (a wrapper changed the program): {sorted(run.untraceable)}")
    for name, unit, clock in PER_LAYER:
        print(f"  {name:<34} {values[name]:>14.6g} {unit} ({clock})")
    print(f"  fail_frac {loop.failed}/{loop.attempted}")
    return {
        "correct": loop.failed == 0 and bool(run.rows) and not run.untraceable,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER},
    }


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter, as one table."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            capture_output=True,
            text=True,
            timeout=900,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exited with {done.returncode}")
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"{'workload':<16} {'metric':<34} {'value':>14} unit")
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{name:<16} {metric:<34} {entry['value']:>14.6g} {entry['unit']}")
        fail_frac = result["failed"] / result["attempted"]
        print(
            f"{name:<16} {'fail_frac':<34} {fail_frac:>14.6g} "
            f"({result['failed']} of {result['attempted']} attempted)"
        )
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default 42)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC} holds no repro package; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.seed is None:
        args.seed = DEFAULT_SEED
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    run = run_traced if args.trace else run_untraced
    print(json.dumps(run(workload, args.seed, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
