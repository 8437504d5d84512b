"""Measure one workload's set-up time in this (fresh) interpreter.

Set-up covers importing the workload's ``repro`` entry point through the
elaboration and initialization (static analysis, specialization) of the
first design it simulates, in calibrated seconds (calibration.py).  The
probe runs the workload's own entry point and stops it at the first
``Simulator.run`` call, right after that call's ``initialize``, so the
design and its arguments are exactly the workload's.  Prints
``{"setup_s": ..., "raw_setup_s": ...}`` as its last line.

    python3 perfbench/setup_probe.py --workload soc_interleaved --seed 42
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from calibration import Sampler  # noqa: E402

_SAMPLER = Sampler().__enter__()
_START = _SAMPLER.start()

import argparse  # noqa: E402
import json  # noqa: E402


class _SetUpDone(Exception):
    """Raised at the first simulation run to stop the workload there."""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    from repro.kernel import Simulator

    done = {}

    def first_run(sim, *args, **kwargs):
        sim.initialize()
        done["setup_s"], done["raw_setup_s"] = _SAMPLER.scaled(_START)
        raise _SetUpDone

    Simulator.run = first_run
    try:
        workload.run(args.seed)
    except _SetUpDone:
        pass
    finally:
        _SAMPLER.__exit__(None, None, None)
    if not done:
        sys.exit(f"{args.workload}: no simulation ran")
    print(json.dumps(done))


if __name__ == "__main__":
    main()
