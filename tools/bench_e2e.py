#!/usr/bin/env python
"""Record end-to-end benchmark medians of one checkout in BENCH_e2e.json.

Runs the repository's end-to-end benchmark over every workload
(``perfbench/run.py --workload all --trace 0``, see perfbench/README.md)
``RUNS`` times at one seed, and stores the median of every end-to-end
metric with the checkout's git revision under a label.  ``--repo`` points
at another checkout (for example a clone at the parent commit), so the
before and after numbers of a change come from the same script:

    python tools/bench_e2e.py --label change --seed 42
    python tools/bench_e2e.py --label parent --seed 42 --repo ../parent-checkout

A record is keyed by (label, seed); measuring the same pair again replaces
it.  The benchmark runs from the measured checkout's own ``perfbench/``.
When tracked files differ from the revision, the record also stores
``diff_sha1``, the SHA-1 of ``git diff HEAD`` without the output file,
which tells measured uncommitted trees apart.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_e2e.json"
SCHEMA = "bench-e2e/v1"
#: Benchmark runs per record; the record keeps their median.
RUNS = 3


def git(repo: Path, *args: str) -> bytes:
    return subprocess.run(["git", "-C", str(repo), *args], capture_output=True, check=True).stdout


def uncommitted_diff(repo: Path, out: Path) -> bytes:
    """``git diff HEAD`` of ``repo``, leaving out ``out`` when it lies inside.

    The output file changes with every record, so including it would give
    each record of one tree a different ``diff_sha1``.
    """
    paths = ["."]
    if out.resolve().is_relative_to(repo):
        paths.append(f":(exclude){out.resolve().relative_to(repo)}")
    return git(repo, "diff", "HEAD", "--", *paths)


def run_once(repo: Path, seed: int) -> dict:
    """One benchmark run over every workload: workload -> its result."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed), "--trace", "0"],
        cwd=repo,
        capture_output=True,
        text=True,
        timeout=3600,
    )
    if not done.stdout.strip():
        raise RuntimeError(f"benchmark in {repo} exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(runs) -> dict:
    """Per workload: correctness, iteration counts and per-metric medians."""
    return {
        workload: {
            "correct": all(run[workload]["correct"] for run in runs),
            "attempted": sum(run[workload]["attempted"] for run in runs),
            "failed": sum(run[workload]["failed"] for run in runs),
            "metrics": {
                name: {
                    "median": statistics.median(run[workload]["metrics"][name]["value"] for run in runs),
                    "unit": entry["unit"],
                    "runs": [run[workload]["metrics"][name]["value"] for run in runs],
                }
                for name, entry in result["metrics"].items()
            },
        }
        for workload, result in runs[0].items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--label", required=True, help="record label, e.g. parent or change")
    parser.add_argument("--seed", type=int, default=42, help="workload seed (default 42)")
    parser.add_argument("--repo", type=Path, default=REPO_ROOT,
                        help="git checkout to measure (default: this one)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="output file (default: BENCH_e2e.json at the repo root)")
    args = parser.parse_args(argv)

    repo = args.repo.resolve()
    diff = uncommitted_diff(repo, args.out)
    record = {
        "label": args.label,
        "seed": args.seed,
        "revision": git(repo, "rev-parse", "HEAD").decode().strip(),
        # Tracked files differ from the revision: an uncommitted change.
        "dirty": bool(diff),
        "runs": RUNS,
    }
    if diff:
        record["diff_sha1"] = hashlib.sha1(diff).hexdigest()
    dirty = f" (dirty, diff {record['diff_sha1'][:12]})" if record["dirty"] else ""
    print(f"{args.label}: {record['revision'][:12]}{dirty}, "
          f"seed {args.seed}, {RUNS} runs")
    runs = []
    for i in range(RUNS):
        runs.append(run_once(repo, args.seed))
        p50s = ", ".join(f"{w} {r['metrics']['iter_s.p50']['value']:.4g}" for w, r in runs[-1].items())
        print(f"  run {i + 1}/{RUNS}: iter_s.p50 [s] {p50s}", flush=True)
    record["workloads"] = summarize(runs)

    doc = {"schema": SCHEMA, "records": []}
    if args.out.exists():
        doc = json.loads(args.out.read_text(encoding="utf-8"))
    doc["generated_by"] = "tools/bench_e2e.py"
    doc["host"] = {"python": platform.python_version(), "cpus": os.cpu_count()}
    doc["records"] = [
        r for r in doc["records"] if (r["label"], r["seed"]) != (args.label, args.seed)
    ] + [record]
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0 if all(w["correct"] for w in record["workloads"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
