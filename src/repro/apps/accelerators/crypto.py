"""Block-cipher accelerator (XTEA).

The field-upgradeable crypto block from the paper's motivation: ciphers are
exactly the functionality equipment makers swap via firmware when standards
migrate.  XTEA (64-bit blocks, 128-bit key, 32 rounds) is implemented
bit-exactly on 32-bit words; the key lives in COEF[0..3].  PARAM selects
encrypt (0) or decrypt (1).

:func:`xtea_process` runs every block of a call at once, lane-packed: the
first word of block ``i`` sits in bits ``[64i, 64i+32)`` of one int and the
second word in the same lane of another, with 32 guard bits above each
value.  A half-round is then a few big-int operations on all blocks:

* ``(v << 4) ^ (v >> 5)`` is masked to each lane's 32 value bits before
  the add, so no bit shifts into a neighbouring lane.  The sum, the key
  XOR and the add stay below ``2**34``, inside the lane and its guard.
* The round constants ``(sum + key[...]) & MASK`` are computed once per
  call and replicated into every lane by one multiplication.
* Decryption adds ``2**33`` to every lane before it subtracts the
  (below ``2**33``) round term, so no borrow crosses a lane boundary.

Only the low 32 bits of every word and key word reach the result, as in the
per-block 32-bit reference.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

from .base import Accelerator

_MASK = 0xFFFFFFFF
_DELTA = 0x9E3779B9
N_ROUNDS = 32


def _round_keys(key: Sequence[int]) -> List[Tuple[int, int]]:
    """Per round: the two half-rounds' ``(sum + key[...]) & MASK``."""
    out = []
    total = 0
    for _ in range(N_ROUNDS):
        first = (total + key[total & 3]) & _MASK
        total = (total + _DELTA) & _MASK
        out.append((first, (total + key[(total >> 11) & 3]) & _MASK))
    return out


def xtea_process(words: Sequence[int], key: Sequence[int], decrypt: bool = False) -> List[int]:
    """Encrypt/decrypt an even-length word sequence, all blocks at once."""
    if len(words) % 2:
        raise ValueError("XTEA needs an even number of words")
    if len(key) < 4:
        raise ValueError("XTEA needs a 4-word key")
    n = len(words) // 2
    if not n:
        return []
    fmt = f"<{n}Q"
    v0 = int.from_bytes(struct.pack(fmt, *[w & _MASK for w in words[0::2]]), "little")
    v1 = int.from_bytes(struct.pack(fmt, *[w & _MASK for w in words[1::2]]), "little")
    ones = ((1 << (64 * n)) - 1) // ((1 << 64) - 1)  # bit 64i set for every lane i
    lanes = ones * _MASK
    rounds = [(ones * k0, ones * k1) for k0, k1 in _round_keys(key)]
    if decrypt:
        borrow = ones << 33
        for k0, k1 in reversed(rounds):
            v1 = (v1 + borrow - (((((v0 << 4) ^ (v0 >> 5)) & lanes) + v0) ^ k1)) & lanes
            v0 = (v0 + borrow - (((((v1 << 4) ^ (v1 >> 5)) & lanes) + v1) ^ k0)) & lanes
    else:
        for k0, k1 in rounds:
            v0 = (v0 + (((((v1 << 4) ^ (v1 >> 5)) & lanes) + v1) ^ k0)) & lanes
            v1 = (v1 + (((((v0 << 4) ^ (v0 >> 5)) & lanes) + v0) ^ k1)) & lanes
    out = [0] * (2 * n)
    out[0::2] = struct.unpack(fmt, v0.to_bytes(8 * n, "little"))
    out[1::2] = struct.unpack(fmt, v1.to_bytes(8 * n, "little"))
    return out


def xtea_encrypt_block(v0: int, v1: int, key: Sequence[int]) -> Tuple[int, int]:
    """Encrypt one 64-bit block (two 32-bit words) with a 4-word key."""
    c0, c1 = xtea_process((v0, v1), key)
    return c0, c1


def xtea_decrypt_block(v0: int, v1: int, key: Sequence[int]) -> Tuple[int, int]:
    """Inverse of :func:`xtea_encrypt_block`."""
    p0, p1 = xtea_process((v0, v1), key, decrypt=True)
    return p0, p1


class CryptoAccelerator(Accelerator):
    """XTEA cipher over JOBSIZE words (PARAM: 0 = encrypt, 1 = decrypt).

    Cycle model: one round per cycle, two half-rounds pipelined ⇒ 32
    cycles per 64-bit block plus a 4-cycle key schedule.
    """

    DEFAULT_GATES = 8_000
    ALGORITHM = "xtea"

    def compute(self, inputs: List[int], param: int, coefs: List[int]) -> List[int]:
        key = [c & _MASK for c in coefs[:4]]
        return xtea_process([w & _MASK for w in inputs], key, decrypt=bool(param))

    def job_cycles(self, jobsize: int, param: int) -> int:
        return (jobsize // 2) * N_ROUNDS + 4
