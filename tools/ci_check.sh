#!/usr/bin/env bash
# The full CI gate, runnable locally from the repo root:
#
#     bash tools/ci_check.sh
#
# Steps:
#   1. tier-1 test suite, then the golden-function differential tests
#      (packed Viterbi/XTEA/FFT against their loop references) again under
#      the `ci` hypothesis profile, which draws many more examples
#   2. kernel throughput smoke (>30% regression vs BENCH_kernel.json fails)
#      plus the scheduler golden-trace tests, the timed-heap property test
#      (firing order against a reference model), the close property test
#      (a closed simulation, stopped in any kind of wait, dies with its last
#      reference), the burst-train and poll-train differential tests (closed
#      form against kernel round trip), the monitor record property test, the
#      bus property tests (every transfer's monitor record) and the memory
#      property tests (the region checksum against an independent CRC-32, the
#      paged store, the verdict memo), under the `ci` hypothesis profile
#   3. ruff check (skipped with a notice when ruff is not installed)
#   4. static model lint over every example architecture, including the
#      opt-in REP4xx dataflow, REP5xx control-flow and REP6xx interproc
#      layers (must be clean), plus a wall-clock bound on the analyzers
#      (tools/bench_lint.py --check); then every examples/*.py runs in a
#      fresh interpreter from a scratch working directory and must exit 0
#   5. fault-campaign smoke: seeded campaigns must reproduce byte-for-byte,
#      with the default retry preset, with full recovery (scrubbing) and
#      with no recovery (fault hooks armed, fetched bitstreams unverified)
#   6. DSE sweep smoke: parallel + cached sweeps must be byte-identical to
#      serial re-runs (workers 1 and 2), and the warmed cache must hit;
#      plus the ADRIATIC flow CLI, whose output must be byte-identical
#      under PYTHONHASHSEED 0 and 1
set -euo pipefail
cd "$(dirname "$0")/.."

# Absolute, so that code run from a scratch directory still finds src/.
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "== 1/6 tier-1 tests + golden-function differential tests (ci profile) =="
python -m pytest tests -q
python -m pytest tests/apps/test_golden_differential.py -q --hypothesis-profile=ci

echo "== 2/6 kernel throughput + scheduler golden-trace, timed-heap, close, burst-train, poll-train, monitor, bus and memory checks (ci profile) =="
python tools/bench_kernel.py --check
python -m pytest tests/integration/test_golden_traces.py tests/kernel/test_timed_heap.py \
    tests/kernel/test_close_property.py \
    tests/integration/test_burst_train_equivalence.py tests/integration/test_poll_train_equivalence.py \
    tests/bus/test_monitor.py tests/bus/test_bus_properties.py tests/bus/test_memory_properties.py \
    -q --hypothesis-profile=ci

echo "== 3/6 ruff =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests tools examples
else
    echo "ruff not installed; skipping (config lives in pyproject.toml)"
fi

echo "== 4/6 static model lint over examples/ (dataflow + cfg + interproc layers), then every example =="
python -m repro lint --dataflow --cfg --interproc examples/*.py
python tools/bench_lint.py --check
# Examples write into the working directory (dse_sweep.py its .dse-cache/,
# multifabric_modem.py a VCD), so they run from a scratch one.
for example in "$PWD"/examples/*.py; do
    echo "example: ${example##*/}"
    (cd "$WORK" && python "$example" > /dev/null)
done

echo "== 5/6 fault-campaign reproducibility smoke =="
python -m repro inject --builtin modem --trials 8 --seed 7 --check
python -m repro inject --builtin modem --trials 8 --seed 7 --recovery full --check
python -m repro inject --builtin modem --trials 8 --seed 7 --recovery none --check

echo "== 6/6 DSE sweep and flow reproducibility smoke =="
SWEEP_ARGS="--techs asic,morphosys --workloads interleaved --accels fir,xtea --frames 1"
python -m repro sweep $SWEEP_ARGS --workers 1 --check --json > /dev/null
python -m repro sweep $SWEEP_ARGS --workers 2 --check --json > /dev/null
python tools/bench_sweep.py --check
FLOW_ARGS="--tech virtex2pro --frames 1"
PYTHONHASHSEED=0 python -m repro flow $FLOW_ARGS > "$WORK/hashseed0.txt"
PYTHONHASHSEED=1 python -m repro flow $FLOW_ARGS > "$WORK/hashseed1.txt"
cmp "$WORK/hashseed0.txt" "$WORK/hashseed1.txt"

echo "ci_check: all gates passed"
