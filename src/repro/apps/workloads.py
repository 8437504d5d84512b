"""Workload generators.

The paper's introduction motivates dynamic reconfiguration with wireless
equipment that must track "multiple or migrating international standards":
frame-structured baseband processing where different algorithm blocks run
in different runtime periods.  These generators produce :class:`JobSpec`
schedules with controllable *context locality*:

* :func:`frame_interleaved_jobs` — every frame touches every block in
  sequence (worst-case switch rate: one switch per invocation on a
  single-context fabric);
* :func:`batched_jobs` — all invocations of a block run back to back
  (best case: one switch per block);
* :func:`random_mix_jobs` — seeded random block order (intermediate);
* :func:`workload_jobs` — one of the three by the name design points and
  campaign scenarios give it;
* :func:`golden_outputs` — reference results from the executable
  specification, for end-to-end verification.

All randomness is drawn from seeded private generators; identical
arguments give identical schedules.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from .accelerators import (
    dct_blocks,
    fft_fixed,
    fir_filter,
    matmul_int,
    viterbi_decode,
    convolutional_encode,
    xtea_process,
)
from .driver import JobSpec

#: Default per-block job sizing (kept small so simulations stay fast while
#: still moving realistic burst traffic).
DEFAULT_SIZES = {
    "fir": 64,       # samples
    "fft": 32,       # points (64 words)
    "dct": 64,       # one 8x8 block
    "viterbi": 48,   # information bits
    "xtea": 32,      # words (16 blocks)
    "matmul": 6,     # N (72 words)
}

_FIR_TAPS = 8
_XTEA_KEY = [0x0123_4567, 0x89AB_CDEF, 0xFEDC_BA98, 0x7654_3210]


def _make_job(kind: str, rng: random.Random, sizes: Dict[str, int], label: str) -> JobSpec:
    size = sizes[kind]
    if kind == "fir":
        samples = [rng.randint(-20_000, 20_000) for _ in range(size)]
        coefs = [rng.randint(-8_000, 8_000) for _ in range(_FIR_TAPS)]
        return JobSpec("fir", samples, param=_FIR_TAPS, coefs=coefs, label=label)
    if kind == "fft":
        data = [rng.randint(-10_000, 10_000) for _ in range(2 * size)]
        return JobSpec("fft", data, param=size, label=label)
    if kind == "dct":
        pixels = [rng.randint(-128, 127) for _ in range(size)]
        return JobSpec("dct", pixels, param=0, label=label)
    if kind == "viterbi":
        bits = [rng.randint(0, 1) for _ in range(size)]
        symbols = convolutional_encode(bits)
        return JobSpec(
            "viterbi", symbols, param=size, n_outputs=size, label=label
        )
    if kind == "xtea":
        words = [rng.getrandbits(31) for _ in range(size)]
        return JobSpec("xtea", words, param=0, coefs=_XTEA_KEY, label=label)
    if kind == "matmul":
        n = size
        data = [rng.randint(-50, 50) for _ in range(2 * n * n)]
        return JobSpec("matmul", data, param=n, n_outputs=n * n, label=label)
    raise KeyError(f"unknown workload kind {kind!r}")


def frame_interleaved_jobs(
    accels: Sequence[str],
    n_frames: int,
    *,
    seed: int = 42,
    sizes: Optional[Dict[str, int]] = None,
) -> List[JobSpec]:
    """One invocation of every block per frame, frames back to back.

    On a single-context fabric this forces a context switch per
    invocation — the paper's costly case.
    """
    rng = random.Random(seed)
    sizes = {**DEFAULT_SIZES, **(sizes or {})}
    jobs: List[JobSpec] = []
    for frame in range(n_frames):
        for kind in accels:
            jobs.append(_make_job(kind, rng, sizes, f"frame{frame}.{kind}"))
    return jobs


def batched_jobs(
    accels: Sequence[str],
    n_frames: int,
    *,
    seed: int = 42,
    sizes: Optional[Dict[str, int]] = None,
) -> List[JobSpec]:
    """The same work as :func:`frame_interleaved_jobs`, grouped by block.

    One context switch per block regardless of frame count — the paper's
    cheap case ("several roughly same sized hardware accelerators that are
    not used in the same time").
    """
    rng = random.Random(seed)
    sizes = {**DEFAULT_SIZES, **(sizes or {})}
    jobs: List[JobSpec] = []
    for kind in accels:
        for frame in range(n_frames):
            jobs.append(_make_job(kind, rng, sizes, f"batch.{kind}.{frame}"))
    return jobs


def random_mix_jobs(
    accels: Sequence[str],
    n_jobs: int,
    *,
    seed: int = 42,
    sizes: Optional[Dict[str, int]] = None,
) -> List[JobSpec]:
    """A seeded random block order (intermediate context locality)."""
    rng = random.Random(seed)
    sizes = {**DEFAULT_SIZES, **(sizes or {})}
    return [
        _make_job(rng.choice(list(accels)), rng, sizes, f"mix{i}")
        for i in range(n_jobs)
    ]


def workload_jobs(
    workload: str, accels: Sequence[str], n_frames: int, *, seed: int
) -> List[JobSpec]:
    """The schedule named ``workload`` (``interleaved``, ``batched`` or
    ``random``) of ``n_frames`` frames' worth of jobs over ``accels``."""
    if workload == "interleaved":
        return frame_interleaved_jobs(accels, n_frames, seed=seed)
    if workload == "batched":
        return batched_jobs(accels, n_frames, seed=seed)
    if workload == "random":
        return random_mix_jobs(accels, n_frames * len(accels), seed=seed)
    raise KeyError(f"unknown workload {workload!r}")


def golden_outputs(spec: JobSpec) -> List[int]:
    """Reference result of a job from the executable specification."""
    if spec.accel == "fir":
        return fir_filter(spec.inputs, spec.coefs[: spec.param])
    if spec.accel == "fft":
        return fft_fixed(spec.inputs, spec.param)
    if spec.accel == "dct":
        return dct_blocks(spec.inputs)
    if spec.accel == "viterbi":
        return viterbi_decode(spec.inputs, spec.param)
    if spec.accel == "xtea":
        masked = [w & 0xFFFFFFFF for w in spec.inputs]
        out = xtea_process(masked, [k & 0xFFFFFFFF for k in spec.coefs], decrypt=bool(spec.param))
        return [w - (1 << 32) if w & 0x80000000 else w for w in out]
    if spec.accel == "matmul":
        n = spec.param
        return matmul_int(spec.inputs[: n * n], spec.inputs[n * n : 2 * n * n], n)
    raise KeyError(f"no golden model for {spec.accel!r}")


def switch_count_lower_bound(jobs: Sequence[JobSpec]) -> int:
    """Minimum context switches a single-context fabric needs for ``jobs``.

    Equals the number of adjacent job pairs that target different blocks,
    plus one for the initial load — the quantity the scheduler's
    instrumentation is checked against in tests.
    """
    if not jobs:
        return 0
    switches = 1
    for prev, cur in zip(jobs, jobs[1:]):
        if prev.accel != cur.accel:
            switches += 1
    return switches
