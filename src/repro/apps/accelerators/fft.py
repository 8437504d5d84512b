"""Fixed-point radix-2 FFT accelerator.

OFDM demodulation workhorse.  Data is interleaved complex
``[re0, im0, re1, im1, ...]``; PARAM is the transform length N (a power of
two), so JOBSIZE is ``2·N`` words.  The implementation is a bit-exact
integer decimation-in-time radix-2 FFT with Q14 twiddles and a one-bit
right-shift per stage (block floating point style), so the executable
specification and any mapped model agree word for word.

All index bookkeeping lives in a plan built once per N (:func:`_plan`): the
bit-reversed input order and, stage by stage, every butterfly's two indices
with its twiddle.  :func:`fft_fixed` gathers its input through the first
and runs one flat loop over the second, with the butterfly's integer
expressions unchanged.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Sequence, Tuple

from .base import Accelerator

_TWIDDLE_Q = 14


def _twiddles(n: int) -> List[Tuple[int, int]]:
    """Q14 twiddle factors ``W_n^k = exp(-2πik/n)`` for ``k < n/2``."""
    scale = 1 << _TWIDDLE_Q
    out = []
    for k in range(n // 2):
        angle = -2.0 * math.pi * k / n
        out.append((round(math.cos(angle) * scale), round(math.sin(angle) * scale)))
    return out


# A plan holds (n/2)·log2(n) butterflies, so only a few are kept.
@lru_cache(maxsize=8)
def _plan(n: int) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, int, int, int], ...]]:
    """``(order, butterflies)`` of an ``n``-point transform (``n`` a power of two).

    ``order[i]`` is ``i`` with its ``log2(n)`` bits reversed.  ``butterflies``
    lists ``(i, j, w_re, w_im)`` in execution order: stage by stage, then by
    group start, then by twiddle index.
    """
    order = [0]
    while len(order) < n:
        order = [2 * i for i in order] + [2 * i + 1 for i in order]
    tw = _twiddles(n)
    butterflies = []
    half = 1
    while half < n:
        step = n // (2 * half)
        for start in range(0, n, 2 * half):
            for k in range(half):
                butterflies.append((start + k, start + k + half, *tw[k * step]))
        half *= 2
    return tuple(order), tuple(butterflies)


def bit_reverse_permute(values: Sequence, n_bits: int) -> List:
    """Reorder ``2**n_bits`` values by bit-reversed index (radix-2 input ordering)."""
    if n_bits < 0 or len(values) != 1 << n_bits:
        raise ValueError(
            f"bit_reverse_permute needs 2**n_bits values, got {len(values)} for n_bits={n_bits}"
        )
    return [values[i] for i in _plan(1 << n_bits)[0]]


def fft_fixed(interleaved: Sequence[int], n: int) -> List[int]:
    """Bit-exact integer radix-2 DIT FFT.

    ``interleaved`` holds N complex points as 2N signed words; the result
    uses the same layout.  Each stage right-shifts by one to bound growth,
    so the output is scaled by ``1/N`` relative to the exact DFT.
    """
    if n < 2 or n & (n - 1):
        raise ValueError(f"FFT length must be a power of two >= 2, got {n}")
    if len(interleaved) < 2 * n:
        raise ValueError(f"need {2 * n} words for a {n}-point FFT")
    order, butterflies = _plan(n)
    re = [interleaved[2 * i] for i in order]
    im = [interleaved[2 * i + 1] for i in order]
    for i, j, w_re, w_im in butterflies:
        t_re = (re[j] * w_re - im[j] * w_im) >> _TWIDDLE_Q
        t_im = (re[j] * w_im + im[j] * w_re) >> _TWIDDLE_Q
        re[j] = (re[i] - t_re) >> 1
        im[j] = (im[i] - t_im) >> 1
        re[i] = (re[i] + t_re) >> 1
        im[i] = (im[i] + t_im) >> 1
    out = [0] * (2 * n)
    out[0::2] = re
    out[1::2] = im
    return out


class FftAccelerator(Accelerator):
    """An N-point fixed-point FFT (N = PARAM, data interleaved re/im).

    Cycle model: one radix-2 butterfly per cycle over ``(N/2)·log2 N``
    butterflies, plus N cycles of buffer streaming.
    """

    DEFAULT_GATES = 25_000
    ALGORITHM = "fft"

    def compute(self, inputs: List[int], param: int, coefs: List[int]) -> List[int]:
        return fft_fixed(inputs, param)

    def job_cycles(self, jobsize: int, param: int) -> int:
        n = max(2, param)
        log2n = n.bit_length() - 1
        return (n // 2) * log2n + n
