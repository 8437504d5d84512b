"""Loop-form reference implementations of the bit-parallel golden functions.

``repro.apps.accelerators`` computes Viterbi, XTEA and the FFT with packed
big-int arithmetic (one integer operation per trellis column, per cipher
half-round over all blocks, per planned butterfly).  These are the plain
per-state, per-block and per-index loops those routines replaced, kept
verbatim as differential oracles: the packed routines must return exactly
these words for every input (``tests/apps/test_golden_differential.py``).
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.kernel import BitVector

# -- Viterbi (K=7, rate 1/2, G0=171, G1=133 octal) ------------------------------

K = 7
N_STATES = 1 << (K - 1)
G0 = 0o171
G1 = 0o133


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


def _encode_step(state: int, bit: int) -> Tuple[int, int]:
    """One encoder step: (new_state, 2-bit output symbol)."""
    reg = (bit << (K - 1)) | state
    symbol = (_parity(reg & G0) << 1) | _parity(reg & G1)
    return reg >> 1, symbol


# Precomputed trellis: for each (state, input bit): next state and symbol.
_NEXT: List[List[int]] = [[0] * 2 for _ in range(N_STATES)]
_SYM: List[List[int]] = [[0] * 2 for _ in range(N_STATES)]
for _s in range(N_STATES):
    for _b in range(2):
        _ns, _sym = _encode_step(_s, _b)
        _NEXT[_s][_b] = _ns
        _SYM[_s][_b] = _sym


def viterbi_decode(symbols: Sequence[int], n_bits: int) -> List[int]:
    """Hard-decision Viterbi decode of ``symbols`` to ``n_bits`` bits.

    Standard add-compare-select over the 64-state trellis, full traceback.
    Requires ``len(symbols) >= n_bits + K - 1`` (tail included).
    """
    n_sym = n_bits + K - 1
    if len(symbols) < n_sym:
        raise ValueError(f"need {n_sym} symbols to decode {n_bits} bits")
    inf = 1 << 30
    metrics = [inf] * N_STATES
    metrics[0] = 0
    # survivors[t][state] = (prev_state, bit)
    survivors: List[List[Tuple[int, int]]] = []
    for t in range(n_sym):
        rx = symbols[t] & 0x3
        new_metrics = [inf] * N_STATES
        column: List[Tuple[int, int]] = [(0, 0)] * N_STATES
        for state in range(N_STATES):
            metric = metrics[state]
            if metric >= inf:
                continue
            for bit in range(2):
                branch = _SYM[state][bit] ^ rx
                cost = metric + ((branch >> 1) & 1) + (branch & 1)
                nxt = _NEXT[state][bit]
                if cost < new_metrics[nxt]:
                    new_metrics[nxt] = cost
                    column[nxt] = (state, bit)
        metrics = new_metrics
        survivors.append(column)
    # Tail forces the encoder back to state 0.
    state = 0
    bits_rev: List[int] = []
    for t in range(n_sym - 1, -1, -1):
        prev, bit = survivors[t][state]
        bits_rev.append(bit)
        state = prev
    decoded = bits_rev[::-1][:n_bits]
    return decoded


# -- XTEA -------------------------------------------------------------------------

_MASK = 0xFFFFFFFF
_DELTA = 0x9E3779B9
N_ROUNDS = 32


def xtea_encrypt_block(v0: int, v1: int, key: Sequence[int]) -> Tuple[int, int]:
    """Encrypt one 64-bit block (two 32-bit words) with a 4-word key."""
    v0 &= _MASK
    v1 &= _MASK
    total = 0
    for _ in range(N_ROUNDS):
        v0 = (v0 + ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ (total + key[total & 3]))) & _MASK
        total = (total + _DELTA) & _MASK
        v1 = (v1 + ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ (total + key[(total >> 11) & 3]))) & _MASK
    return v0, v1


def xtea_decrypt_block(v0: int, v1: int, key: Sequence[int]) -> Tuple[int, int]:
    """Inverse of :func:`xtea_encrypt_block`."""
    v0 &= _MASK
    v1 &= _MASK
    total = (_DELTA * N_ROUNDS) & _MASK
    for _ in range(N_ROUNDS):
        v1 = (v1 - ((((v0 << 4) ^ (v0 >> 5)) + v0) ^ (total + key[(total >> 11) & 3]))) & _MASK
        total = (total - _DELTA) & _MASK
        v0 = (v0 - ((((v1 << 4) ^ (v1 >> 5)) + v1) ^ (total + key[total & 3]))) & _MASK
    return v0, v1


def xtea_process(words: Sequence[int], key: Sequence[int], decrypt: bool = False) -> List[int]:
    """Encrypt/decrypt an even-length word sequence block by block."""
    if len(words) % 2:
        raise ValueError("XTEA needs an even number of words")
    if len(key) < 4:
        raise ValueError("XTEA needs a 4-word key")
    op = xtea_decrypt_block if decrypt else xtea_encrypt_block
    out: List[int] = []
    for i in range(0, len(words), 2):
        v0, v1 = op(words[i], words[i + 1], key)
        out.append(v0)
        out.append(v1)
    return out


# -- Fixed-point radix-2 FFT ------------------------------------------------------

_TWIDDLE_Q = 14


def _twiddles(n: int) -> List[Tuple[int, int]]:
    """Q14 twiddle factors ``W_n^k = exp(-2πik/n)`` for ``k < n/2``."""
    scale = 1 << _TWIDDLE_Q
    out = []
    for k in range(n // 2):
        angle = -2.0 * math.pi * k / n
        out.append((round(math.cos(angle) * scale), round(math.sin(angle) * scale)))
    return out


def bit_reverse_permute(values: Sequence, n_bits: int) -> List:
    """Reorder ``values`` by bit-reversed index (radix-2 input ordering)."""
    out = list(values)
    for i in range(len(values)):
        j = BitVector(i, n_bits).reversed_bits().unsigned
        if j > i:
            out[i], out[j] = out[j], out[i]
    return out


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
    n_bits = n.bit_length() - 1
    re = [interleaved[2 * i] for i in range(n)]
    im = [interleaved[2 * i + 1] for i in range(n)]
    re = bit_reverse_permute(re, n_bits)
    im = bit_reverse_permute(im, n_bits)
    tw = _twiddles(n)
    half = 1
    while half < n:
        step = n // (2 * half)
        for start in range(0, n, 2 * half):
            for k in range(half):
                w_re, w_im = tw[k * step]
                i, j = start + k, start + k + half
                t_re = (re[j] * w_re - im[j] * w_im) >> _TWIDDLE_Q
                t_im = (re[j] * w_im + im[j] * w_re) >> _TWIDDLE_Q
                re[j] = (re[i] - t_re) >> 1
                im[j] = (im[i] - t_im) >> 1
                re[i] = (re[i] + t_re) >> 1
                im[i] = (im[i] + t_im) >> 1
        half *= 2
    out: List[int] = []
    for i in range(n):
        out.append(re[i])
        out.append(im[i])
    return out
