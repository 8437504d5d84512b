"""Command-line interface.

Drives the reproduction's main entry points without writing Python::

    python -m repro info
    python -m repro compare --tech morphosys --frames 2
    python -m repro sweep --techs asic,virtex2pro,morphosys --csv out.csv
    python -m repro sweep --workers 4 --cache-dir .sweep-cache --json
    python -m repro sweep --resume sweep.jsonl --check
    python -m repro flow --tech varicore
    python -m repro transform --accels fir,fft --tech virtex2pro --listing
    python -m repro deadlock
    python -m repro lint examples/*.py
    python -m repro lint --builtin broken --json
    python -m repro inject --builtin modem --trials 64 --seed 7 --json

Every command prints the same tables the experiment benches regenerate.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

from .apps.soc import ACCELERATOR_CLASSES
from .tech import PRESETS

DEFAULT_ACCELS = "fir,fft,viterbi,xtea"


def _accel_list(text: str) -> List[str]:
    accels = [a.strip() for a in text.split(",") if a.strip()]
    unknown = [a for a in accels if a not in ACCELERATOR_CLASSES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown accelerators {unknown}; known: {sorted(ACCELERATOR_CLASSES)}"
        )
    if not accels:
        raise argparse.ArgumentTypeError("need at least one accelerator")
    return accels


def _tech_name(text: str) -> str:
    if text != "asic" and text not in PRESETS:
        raise argparse.ArgumentTypeError(
            f"unknown technology {text!r}; known: {sorted(PRESETS)}"
        )
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'System-Level Modeling of Dynamically "
            "Reconfigurable Hardware with SystemC' (RAW/IPDPS 2003)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package map, technology presets, Figure 2 bands")

    compare = sub.add_parser(
        "compare", help="run Figure 1(a) vs 1(b) on the same workload"
    )
    compare.add_argument("--accels", type=_accel_list, default=_accel_list(DEFAULT_ACCELS))
    compare.add_argument("--tech", type=_tech_name, default="morphosys")
    compare.add_argument("--frames", type=int, default=2)
    compare.add_argument(
        "--workload", choices=("interleaved", "batched", "random"), default="interleaved"
    )
    compare.add_argument("--seed", type=int, default=42)

    sweep = sub.add_parser("sweep", help="technology/workload design-space sweep")
    sweep.add_argument(
        "--techs",
        default="asic,virtex2pro,varicore,morphosys",
        help="comma-separated technology names",
    )
    sweep.add_argument("--workloads", default="interleaved,batched")
    sweep.add_argument("--accels", type=_accel_list, default=_accel_list(DEFAULT_ACCELS))
    sweep.add_argument("--frames", type=int, default=2)
    sweep.add_argument("--csv", default=None, help="also write rows to this CSV file")
    sweep.add_argument(
        "--workers", type=int, default=1, help="multiprocessing design-point workers"
    )
    sweep.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed evaluation cache directory (see docs/DSE.md)",
    )
    sweep.add_argument(
        "--resume",
        default=None,
        metavar="JOURNAL",
        help=(
            "journal file (created if missing): completed points are "
            "replayed, only the remainder simulates"
        ),
    )
    sweep.add_argument("--json", action="store_true", help="machine-readable output")
    sweep.add_argument(
        "--check",
        action="store_true",
        help=(
            "re-run the sweep serially without cache/journal and fail "
            "unless both JSON reports are byte-identical"
        ),
    )

    flow = sub.add_parser("flow", help="run the Figure 3 ADRIATIC flow")
    flow.add_argument("--accels", type=_accel_list, default=_accel_list(DEFAULT_ACCELS))
    flow.add_argument("--tech", type=_tech_name, default="varicore")
    flow.add_argument("--frames", type=int, default=2)
    flow.add_argument("--back-annotate-scale", type=float, default=None)

    transform = sub.add_parser(
        "transform", help="run the Section 5.2 transformation and print sources"
    )
    transform.add_argument("--accels", type=_accel_list, default=_accel_list("fir,fft"))
    transform.add_argument("--tech", type=_tech_name, default="virtex2pro")
    transform.add_argument(
        "--listing", action="store_true", help="also print the generated DRCF class"
    )

    sub.add_parser("deadlock", help="reproduce the Section 5.4 deadlock matrix")

    lint = sub.add_parser(
        "lint", help="statically verify netlists (no simulation); see docs/LINT.md"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help=(
            "Python files to lint; each is imported and its build_netlist() "
            "result plus any module-level Netlist objects are checked"
        ),
    )
    lint.add_argument(
        "--builtin",
        choices=("baseline", "reconfigurable", "deadlock", "broken"),
        default=None,
        help="lint a built-in architecture template instead of files",
    )
    lint.add_argument("--json", action="store_true", help="machine-readable output")
    lint.add_argument(
        "--select", default=None, help="comma-separated code prefixes to enable (e.g. REP3)"
    )
    lint.add_argument(
        "--ignore", default=None, help="comma-separated code prefixes to suppress"
    )
    lint.add_argument(
        "--strict", action="store_true", help="warnings also make the exit code non-zero"
    )
    lint.add_argument(
        "--no-elaborate",
        action="store_true",
        help="pre-elaboration rules only (skip design/DRCF layers)",
    )
    lint.add_argument(
        "--dataflow",
        action="store_true",
        help="also run the process-body dataflow rules (REP4xx)",
    )
    lint.add_argument(
        "--confirm",
        action="store_true",
        help=(
            "dynamically cross-check REP401/REP405 findings with a short "
            "bounded simulation (implies --dataflow)"
        ),
    )
    lint.add_argument(
        "--cfg",
        action="store_true",
        help=(
            "also run the control-flow rules (REP5xx): a statement-level "
            "CFG per process body (implies --dataflow)"
        ),
    )
    lint.add_argument(
        "--interproc",
        action="store_true",
        help=(
            "also run the interprocedural rules (REP6xx): "
            "static deadlock, lock-order and release-free-acquire checks "
            "(implies --dataflow and --cfg)"
        ),
    )
    lint.add_argument(
        "--explain",
        metavar="REPnnn",
        default=None,
        help="print the registry entry for a rule code and exit",
    )

    inject = sub.add_parser(
        "inject",
        help="run a seeded fault-injection campaign (see docs/FAULTS.md)",
    )
    inject.add_argument(
        "model",
        nargs="?",
        default=None,
        help=(
            "Python file whose build_netlist() returns (netlist, SocInfo) "
            "with a DRCF; omit and use --builtin for a shipped scenario"
        ),
    )
    inject.add_argument(
        "--builtin",
        choices=("minimal", "modem", "wireless"),
        default=None,
        help="run a built-in campaign scenario instead of a file",
    )
    inject.add_argument("--trials", type=int, default=16)
    inject.add_argument("--seed", type=int, default=7)
    inject.add_argument(
        "--recovery",
        choices=("none", "verify", "retry", "full"),
        default="retry",
        help="DRCF recovery policy preset under test",
    )
    inject.add_argument(
        "--workers", type=int, default=1, help="multiprocessing trial workers"
    )
    inject.add_argument("--json", action="store_true", help="machine-readable output")
    inject.add_argument(
        "--check",
        action="store_true",
        help="run the campaign twice and fail unless the JSON reports are identical",
    )

    experiments = sub.add_parser(
        "experiments",
        help="regenerate every paper artifact (runs the benchmark suite)",
    )
    experiments.add_argument(
        "--path",
        default="benchmarks",
        help="benchmark directory of a repository checkout (default: ./benchmarks)",
    )
    experiments.add_argument(
        "--filter", default=None, help="only benches matching this -k expression"
    )
    return parser


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_info(args) -> int:
    from . import __version__
    from .dse import format_table
    from .tech import efficiency_table

    print(f"repro {__version__} — DRCF system-level modeling reproduction")
    print("\ntechnology presets:")
    for name, tech in sorted(PRESETS.items()):
        print(f"  {tech.describe()}")
    print("\naccelerator IP:", ", ".join(sorted(ACCELERATOR_CLASSES)))
    rows = [
        {
            "class": entry["label"],
            "flexibility": entry["flexibility"],
            "band_mops_per_mw": "{}-{}".format(*entry["band_mops_per_mw"]),
        }
        for entry in efficiency_table()
    ]
    print()
    print(format_table(rows, title="Figure 2 bands"))
    return 0


def cmd_compare(args) -> int:
    from .dse import evaluate_architecture, format_table

    rows = []
    for tech in ("asic", args.tech):
        metrics = evaluate_architecture(
            {
                "tech": tech,
                "accels": tuple(args.accels),
                "n_frames": args.frames,
                "workload": args.workload,
                "seed": args.seed,
            }
        )
        rows.append(
            {
                "architecture": "fig-1a (dedicated)" if tech == "asic" else f"fig-1b ({tech})",
                "makespan_us": metrics["makespan_us"],
                "switches": metrics["switches"],
                "reconfig_us": metrics["reconfig_time_us"],
                "config_words": metrics["bus_config_words"],
                "area_um2": metrics["area_um2"],
            }
        )
    print(format_table(rows, title=f"figure 1 comparison ({args.workload}, {args.frames} frames)"))
    print("\n(all outputs verified against the executable specification)")
    return 0


def cmd_sweep(args) -> int:
    from .dse import (
        EvalCache,
        Explorer,
        ParameterSpace,
        SweepJournal,
        evaluate_architecture,
        evaluator_fingerprint,
        format_points,
        points_to_rows,
        write_csv,
    )

    techs = [_tech_name(t.strip()) for t in args.techs.split(",") if t.strip()]
    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    space = (
        ParameterSpace()
        .add_axis("tech", techs)
        .add_axis("workload", workloads)
        .add_axis("n_frames", [args.frames])
        .add_axis("accels", [tuple(args.accels)])
    )
    explorer = Explorer(evaluate_architecture)
    fingerprint = evaluator_fingerprint(evaluate_architecture)
    cache = EvalCache(args.cache_dir, fingerprint) if args.cache_dir else None
    journal = SweepJournal(args.resume, fingerprint) if args.resume else None
    report = explorer.sweep(
        space, workers=max(1, args.workers), cache=cache, journal=journal
    )
    if args.check:
        # Ground truth: a fresh serial sweep with no cache and no journal.
        # Matching bytes prove the pool fan-out, the cache replays and the
        # journal replays all reproduce the plain for-loop exactly.
        fresh = explorer.sweep(space, workers=1)
        if report.to_json() != fresh.to_json():
            print(
                "REPRODUCIBILITY FAILURE: parallel/cached sweep differs "
                "from the serial re-run",
                file=sys.stderr,
            )
            return 1
    metric_keys = (
        "makespan_us", "switches", "reconfig_time_us", "bus_config_words", "area_um2",
    )
    if args.json:
        print(report.to_json())
    else:
        print(
            f"sweep: {len(report.points)} points  evaluated={report.evaluated}  "
            f"resumed={report.resumed}  workers={report.workers}"
        )
        if report.cache is not None:
            rate = report.cache["hit_rate"]
            print(
                "cache: hits={hits} misses={misses} stores={stores} "
                "invalidated={invalidated}".format(**report.cache)
                + (f" (hit rate {rate:.0%})" if rate is not None else "")
            )
        print()
        print(format_points(report.points, ("tech", "workload"), metric_keys, title="DSE sweep"))
        if args.check:
            print("\nreproducibility check: OK (serial re-run, identical JSON)")
    if args.csv:
        write_csv(args.csv, points_to_rows(report.points, ("tech", "workload"), metric_keys))
        if not args.json:
            print(f"\nrows written to {args.csv}")
    return 0


def cmd_flow(args) -> int:
    from .dse import AdriaticFlow, format_table
    from .tech import preset

    flow = AdriaticFlow(tuple(args.accels), tech=preset(args.tech), n_frames=args.frames)
    result = flow.run(back_annotate_scale=args.back_annotate_scale)
    print("partitioning recommendation:", ", ".join(result.recommendation.candidates) or "(none)")
    for name in result.recommendation.candidates:
        for reason in result.recommendation.reason(name):
            print(f"  {name}: {reason}")
    print()
    print(format_table(result.summary_rows(), title="flow stage comparison"))
    return 0


def cmd_transform(args) -> int:
    from .apps import make_baseline_netlist
    from .core import generate_build_source, generate_drcf_listing, generate_transformation_diff, transform_to_drcf
    from .tech import preset

    netlist, info = make_baseline_netlist(tuple(args.accels))
    result = transform_to_drcf(
        netlist, list(args.accels), tech=preset(args.tech),
        config_memory="cfgmem", config_base=info.cfg_base,
    )
    print("# original construction source")
    print(generate_build_source(netlist))
    print(generate_transformation_diff(netlist, result.netlist))
    if args.listing:
        print("# generated DRCF component")
        print(generate_drcf_listing(result.report))
    for alloc in result.report.allocations:
        print(
            f"# context {alloc.name}: {alloc.size_bytes} bytes at "
            f"{alloc.config_addr:#x} (+{alloc.extra_delay})"
        )
    return 0


def cmd_experiments(args) -> int:
    import os

    import pytest as _pytest

    if not os.path.isdir(args.path):
        print(
            f"benchmark directory {args.path!r} not found — run from a "
            "repository checkout or pass --path"
        )
        return 2
    argv = [args.path, "--benchmark-only", "-q"]
    if args.filter:
        argv += ["-k", args.filter]
    code = int(_pytest.main(argv))
    results = os.path.join(args.path, "results")
    if os.path.isdir(results):
        print(f"\nregenerated tables archived under {results}/")
    return code


def cmd_inject(args) -> int:
    from .faults import SCENARIOS, run_campaign, scenario_from_file

    if (args.model is None) == (args.builtin is None):
        print("error: pass exactly one of <model> or --builtin", file=sys.stderr)
        return 2
    if args.trials < 1:
        print("error: --trials must be positive", file=sys.stderr)
        return 2
    if args.builtin:
        scenario = SCENARIOS[args.builtin]
    else:
        try:
            scenario = scenario_from_file(args.model)
        except Exception as exc:
            print(f"error: cannot load {args.model}: {exc}", file=sys.stderr)
            return 2

    def campaign():
        return run_campaign(
            scenario,
            trials=args.trials,
            seed=args.seed,
            recovery=args.recovery,
            workers=max(1, args.workers),
        )

    report = campaign()
    if args.check:
        again = campaign()
        if report.to_json() != again.to_json():
            print("REPRODUCIBILITY FAILURE: two identical campaigns "
                  "produced different reports", file=sys.stderr)
            return 1
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
        if args.check:
            print("\nreproducibility check: OK (two runs, identical JSON)")
    return 0


def cmd_deadlock(args) -> int:
    from .analysis import diagnose
    from .apps import JobRunner, frame_interleaved_jobs, make_reconfigurable_netlist
    from .dse import format_table
    from .kernel import Simulator
    from .tech import VIRTEX2PRO

    rows = []
    for protocol in ("blocking", "split"):
        for dedicated in (False, True):
            netlist, info = make_reconfigurable_netlist(
                ("fir", "fft"), tech=VIRTEX2PRO,
                bus_protocol=protocol, dedicated_config_bus=dedicated,
            )
            sim = Simulator()
            design = netlist.elaborate(sim)
            jobs = frame_interleaved_jobs(("fir", "fft"), 1, seed=5)
            runner = JobRunner(info.accel_bases, info.buffer_words)
            design["cpu"].run_task(runner.task(jobs), name="wl")
            sim.run()
            report = diagnose(sim, buses=[design["system_bus"]])
            rows.append(
                {
                    "protocol": protocol,
                    "dedicated_cfg_bus": dedicated,
                    "deadlocked": report.deadlocked,
                    "jobs": f"{len(runner.results)}/{len(jobs)}",
                }
            )
    print(format_table(rows, title="Section 5.4 limitation 3: deadlock condition"))
    return 0


def _load_netlists_from_file(path: str, index: int) -> List[tuple]:
    """Import ``path`` and collect its netlists.

    The module is loaded under a private name (never ``__main__``), so the
    usual ``if __name__ == "__main__":`` guard in examples keeps their
    simulations from running.  Collected are the result of a module-level
    ``build_netlist()`` (a ``Netlist`` or a ``(Netlist, info)`` tuple, the
    convention all shipped examples follow) plus any module-level
    ``Netlist`` globals.
    """
    import importlib.util

    from .core.netlist import Netlist

    spec = importlib.util.spec_from_file_location(f"_repro_lint_target_{index}", path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot import {path!r}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    found: List[tuple] = []
    build = getattr(module, "build_netlist", None)
    if callable(build):
        result = build()
        if isinstance(result, tuple) and result:
            result = result[0]
        if isinstance(result, Netlist):
            found.append((f"{path}:build_netlist()", result))
    for attr, value in sorted(vars(module).items()):
        if isinstance(value, Netlist):
            found.append((f"{path}:{attr}", value))
    return found


def _builtin_netlists(which: str) -> List[tuple]:
    """The template architectures reachable by ``lint --builtin``."""
    from .apps.soc import (
        make_baseline_netlist,
        make_multi_fabric_netlist,
        make_reconfigurable_netlist,
    )
    from .tech import MORPHOSYS

    if which == "baseline":
        return [("builtin:baseline", make_baseline_netlist()[0])]
    if which == "reconfigurable":
        return [("builtin:reconfigurable", make_reconfigurable_netlist()[0])]
    if which == "deadlock":
        # The experiment-E7 architecture: the DRCF fetches bitstreams over
        # the same blocking bus it serves — the limitation-3 deadlock.
        return [
            (
                "builtin:deadlock",
                make_reconfigurable_netlist(bus_protocol="blocking")[0],
            )
        ]
    if which == "broken":
        # Deliberately broken: two fabrics whose bitstream windows are far
        # too small, so their configuration regions overlap in cfgmem
        # (REP301) — plus a bus nothing is connected to (REP206).
        from .bus import Bus

        netlist, _ = make_multi_fabric_netlist(
            {"fabric_a": (("fir",), MORPHOSYS), "fabric_b": (("fft",), MORPHOSYS)},
            config_region_bytes=64,
        )
        netlist.add("orphan_bus", Bus)
        return [("builtin:broken", netlist)]
    raise ValueError(f"unknown builtin {which!r}")


def _explain_rule(code: str) -> int:
    import inspect

    from .analysis.lint import RULES, display_layer

    entry = RULES.get(code.strip().upper())
    if entry is None:
        print(f"error: unknown rule code {code!r}", file=sys.stderr)
        print(f"known codes: {', '.join(sorted(RULES))}", file=sys.stderr)
        return 2
    print(f"{entry.code} — {entry.summary}")
    print(f"layer: {display_layer(entry.layer)}")
    print(f"severity: {entry.severity}")
    doc = inspect.getdoc(entry.check) if entry.check else None
    if doc:
        print()
        print(doc)
    if entry.example:
        print()
        print("example:")
        for line in entry.example.strip("\n").splitlines():
            print(f"    {line}")
    return 0


def cmd_lint(args) -> int:
    import json

    from .analysis.lint import run_lint

    if args.explain:
        return _explain_rule(args.explain)

    targets: List[tuple] = []
    load_failures = 0
    if args.builtin:
        targets.extend(_builtin_netlists(args.builtin))
    for index, path in enumerate(args.paths):
        try:
            found = _load_netlists_from_file(path, index)
        except Exception as exc:
            print(f"error: cannot load {path}: {exc}", file=sys.stderr)
            load_failures += 1
            continue
        if not found:
            print(
                f"error: {path} defines no build_netlist() and no Netlist globals",
                file=sys.stderr,
            )
            load_failures += 1
            continue
        targets.extend(found)
    if not args.builtin and not args.paths:
        # Self-check mode: lint the shipped clean templates.
        targets.extend(_builtin_netlists("baseline"))
        targets.extend(_builtin_netlists("reconfigurable"))
    if load_failures or not targets:
        if not targets:
            print("error: nothing to lint", file=sys.stderr)
        return 2

    dataflow = args.dataflow or args.confirm or args.cfg or args.interproc
    cfg = args.cfg or args.interproc
    reports = [
        (
            label,
            netlist,
            run_lint(
                netlist,
                elaborate=not args.no_elaborate,
                dataflow=dataflow,
                cfg=cfg,
                interproc=args.interproc,
                select=args.select,
                ignore=args.ignore,
            ),
        )
        for label, netlist in targets
    ]
    confirmations: Dict[str, Dict[tuple, str]] = {}
    if args.confirm:
        from .analysis.dataflow import cross_check

        for label, netlist, report in reports:
            confirmations[label] = cross_check(netlist, report.diagnostics)
    errors = sum(len(report.errors) for _, _, report in reports)
    warnings = sum(len(report.warnings) for _, _, report in reports)
    if args.json:
        payload = []
        for label, _, report in reports:
            statuses = confirmations.get(label, {})
            diagnostics = []
            # run_lint already sorts by (code, location, message), so the
            # emitted order is stable across runs and byte-comparable in CI.
            for diag in report.diagnostics:
                entry = diag.to_dict()
                status = statuses.get((diag.code, diag.location))
                if status is not None:
                    entry["confirmed"] = status == "confirmed"
                diagnostics.append(entry)
            entry = {
                "netlist": label,
                "errors": len(report.errors),
                "warnings": len(report.warnings),
                "summary": {
                    "error": len(report.errors),
                    "warning": len(report.warnings),
                    "info": len(report.infos),
                },
                "diagnostics": diagnostics,
            }
            payload.append(entry)
        print(json.dumps(payload, indent=2))
    else:
        for label, _, report in reports:
            print(f"== {label} ==")
            print(report.render())
            for (code, location), status in sorted(confirmations.get(label, {}).items()):
                print(f"confirm {code} {location}: {status} (dynamic cross-check)")
            print()
        print(
            f"linted {len(reports)} netlist(s): {errors} error(s), "
            f"{warnings} warning(s)"
        )
    if errors or (args.strict and warnings):
        return 1
    return 0


_COMMANDS = {
    "info": cmd_info,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
    "flow": cmd_flow,
    "transform": cmd_transform,
    "deadlock": cmd_deadlock,
    "inject": cmd_inject,
    "lint": cmd_lint,
    "experiments": cmd_experiments,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
