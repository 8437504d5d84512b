"""Self-tests of the benchmark itself (not of ``repro``).

Runs every workload through the traced pass at its benchmark size (each
iteration takes 0.1-3 s) with the minimum number of iterations, and checks:

* counts and simulated values repeat exactly across two traced iterations
  and equal the untraced reference (no wrapper changed the program);
* layer self times plus unattributed time add up to the iteration time;
* each workload still stresses the layer it was chosen for.

    python3 perfbench/selftest.py            # all workloads, about 30 s
    python3 perfbench/selftest.py soc_contended

Exits 1 when any check fails.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from run import trace_workload  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def _share(rows, names) -> float:
    """Median over traced iterations of the named layers' share of it."""
    shares = sorted(sum(row[3][name] for name in names) / row[1] for row in rows)
    return shares[len(shares) // 2]


def dominance_checks(name: str, values: dict, rows):
    """(description, passed) pairs: the workload stresses its layer."""
    if name == "soc_interleaved":
        share = _share(rows, ("drcf.fetch_s", "bus.self_s", "memory.self_s"))
        yield f"fetch + bus + memory self time is {share:.0%} of an iteration (> 50%)", share > 0.5
    elif name == "campaign_full":
        share = _share(rows, ("checksum.s", "recovery.scrub_s"))
        yield f"checksum + scrub self time is {share:.0%} of an iteration (> 50%)", share > 0.5
    elif name == "soc_contended":
        yield "no configuration words on the bus", values["bus.config_words"] == 0
        yield "no time in the configuration fetch", values["drcf.fetch_s"] == 0
        yield "no checksum calls", values["checksum.calls"] == 0
        yield "bus saturated (utilization 1.0)", values["bus.utilization"] == 1.0
    elif name == "adriatic_flow":
        yield "lint ran", values["lint.s"] > 0
        yield "the DRCF transformation ran", values["transform.s"] > 0
        yield "two architectures simulated", values["specialize.fallbacks"] == 2


def check_workload(name: str):
    run = trace_workload(WORKLOADS[name], DEFAULT_SEED, seconds=0.0)
    yield "no iteration failed", run.loop.failed == 0
    yield "two traced iterations", len(run.rows) >= 2
    yield (
        f"traced counts equal the untraced reference and repeat (untraceable: "
        f"{sorted(run.untraceable) or 'none'})",
        not run.untraceable,
    )
    for elapsed, iter_s, _, _ in run.rows:
        gap = abs(elapsed - iter_s)
        yield (
            f"self times sum to the iteration time ({iter_s:.6f} s vs {elapsed:.6f} s)",
            gap <= 1e-3 + 1e-3 * elapsed,
        )
    yield from dominance_checks(name, run.metrics(), run.rows)


def main(argv) -> int:
    names = argv or list(WORKLOADS)
    failures = 0
    for name in names:
        for description, passed in check_workload(name):
            failures += not passed
            print(f"{'PASS' if passed else 'FAIL'} {name}: {description}")
    print(f"{failures} failed check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
