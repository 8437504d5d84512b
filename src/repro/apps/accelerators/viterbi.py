"""Hard-decision Viterbi decoder accelerator (K=7, rate 1/2).

The convolutional decoder of IS-95/802.11a-era wireless standards, using
the standard generator polynomials G0=171₈, G1=133₈ over 64 states.  Input
words each carry one received symbol pair in bits [1:0]; output words carry
one decoded bit each.  PARAM gives the number of information bits
(``jobsize`` symbols are consumed, including the tail).

:func:`viterbi_decode` runs the add-compare-select of a whole trellis
column as a handful of big-int operations.  The packed layout:

* **Fields.**  The 64 path metrics are ``W``-bit fields of one int, with
  ``W = bit_length(inf + 2·n_sym) + 2``.  Unreachable states start at the
  finite ``inf = 2·n_sym + 2``.  A reachable metric after ``t`` steps is at
  most ``2·t``, and a candidate from an unreachable state (which exist only
  in the first six steps) at most ``inf + 12``, so every candidate stays
  below ``2**(W-2)``.  The top bit of each field is free, and the
  comparison below never borrows across fields.
* **Rotation.**  At step ``t`` state ``s`` sits in field ``rotl6^t(s)``
  (rotate left within 6 bits).  The butterfly partners ``2j`` and ``2j+1``
  then differ in field bit ``t mod 6``: one mask and one shift split them,
  and their successors ``j`` and ``j+32`` land back in the same two fields
  (``rotl6(j) = 2j``, ``rotl6(j+32) = 2j+1``).  The branch costs of every
  edge are packed constants, one pair per rotation and received symbol.
* **Compare.**  "``y < x``" in every field at once is
  ``(x + (H - ONES) - y) & H``, where ``H`` holds each field's top bit and
  ``ONES`` each field's lowest bit.  It is strict, so on a tie the even
  (lower-numbered) predecessor survives, exactly as a per-state loop in
  ascending state order with a strict ``<`` keeps its first candidate.
* **Traceback.**  Each step stores that mask as its decision int; the
  traceback starts at state 0 and reads one bit per step.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

from .base import Accelerator

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


def convolutional_encode(bits: Sequence[int]) -> List[int]:
    """Encode ``bits`` (plus an implicit K−1 zero tail) into symbol words."""
    state = 0
    symbols: List[int] = []
    for bit in list(bits) + [0] * (K - 1):
        state, symbol = _encode_step(state, bit & 1)
        symbols.append(symbol)
    return symbols


#: ``_FIELD[t % 6][s]``: the field that holds state ``s`` at step ``t``.
_FIELD = tuple(
    tuple(((s << r) | (s >> (K - 1 - r))) & (N_STATES - 1) for s in range(N_STATES))
    for r in range(K - 1)
)


def _branch_cost(state: int, bit: int, rx: int) -> int:
    """Hamming distance between the edge's output symbol and ``rx``."""
    return bin(_encode_step(state, bit)[1] ^ rx).count("1")


# The width grows with log2(n_sym), so only a handful of tables ever exist.
@lru_cache(maxsize=None)
def _acs_tables(width: int):
    """Packed constants for ``width``-bit metric fields.

    Returns ``(ones, steps)``: ``ones`` has the lowest bit of every field
    set, and ``steps[t % 6]`` is ``(shift, even, costs)``.  ``even`` masks
    the fields of the even states, ``shift`` is the distance to their odd
    partners, and ``costs[rx]`` is the pair ``(cx, cy)`` for received symbol
    ``rx``: the cost of the edge from the even (``cx``) or odd (``cy``)
    predecessor, in the field of each successor.
    """
    ones = sum(1 << (width * p) for p in range(N_STATES))
    steps = []
    for r, field in enumerate(_FIELD):
        even = sum(((1 << width) - 1) << (width * field[s]) for s in range(0, N_STATES, 2))
        costs = []
        for rx in range(4):
            cx = cy = 0
            for s in range(0, N_STATES, 2):
                for bit in range(2):
                    # The successor of s and s+1 on input ``bit`` takes the
                    # field of predecessor s + bit.
                    at = width * field[s + bit]
                    cx |= _branch_cost(s, bit, rx) << at
                    cy |= _branch_cost(s + 1, bit, rx) << at
            costs.append((cx, cy))
        steps.append((width << r, even, tuple(costs)))
    return ones, tuple(steps)


def viterbi_decode(symbols: Sequence[int], n_bits: int) -> List[int]:
    """Hard-decision Viterbi decode of ``symbols`` to ``n_bits`` bits.

    Standard add-compare-select over the 64-state trellis, full traceback,
    in the packed layout of the module docstring.  Ties keep the
    lower-numbered predecessor.  Requires ``n_bits >= 0`` and
    ``len(symbols) >= n_bits + K - 1`` (tail included).
    """
    if n_bits < 0:
        raise ValueError(f"cannot decode a negative number of bits ({n_bits})")
    n_sym = n_bits + K - 1
    if len(symbols) < n_sym:
        raise ValueError(f"need {n_sym} symbols to decode {n_bits} bits")
    inf = 2 * n_sym + 2
    width = (inf + 2 * n_sym).bit_length() + 2
    top = width - 1
    ones, steps = _acs_tables(width)
    high = ones << top
    keep = high - ones
    metrics = inf * (ones - 1)  # state 0 (field 0) at 0, the rest unreachable
    decisions = []
    for t in range(n_sym):
        shift, even, costs = steps[t % 6]
        cx, cy = costs[symbols[t] & 0x3]
        from_even = metrics & even  # metrics of the states 2j
        from_odd = (metrics >> shift) & even  # of their partners 2j+1, moved onto them
        x = (from_even | (from_even << shift)) + cx  # candidates via 2j, per successor
        y = (from_odd | (from_odd << shift)) + cy  # candidates via 2j+1
        odd_won = (x + keep - y) & high  # top bit set where y < x
        decisions.append(odd_won)
        # Take y in the fields where the odd predecessor won (their low W-1 bits).
        metrics = x ^ ((x ^ y) & (odd_won - (odd_won >> top)))
    # Tail forces the encoder back to state 0.
    state = 0
    bits = [0] * n_sym
    for t in range(n_sym - 1, -1, -1):
        odd = (decisions[t] >> (_FIELD[(t + 1) % 6][state] * width + top)) & 1
        bits[t] = state >> (K - 2)  # the input bit that entered ``state``
        state = ((state << 1) & (N_STATES - 1)) | odd
    return bits[:n_bits]


class ViterbiAccelerator(Accelerator):
    """K=7 rate-1/2 hard-decision Viterbi decoder.

    JOBSIZE = number of symbol words; PARAM = number of information bits.
    Cycle model: 8 parallel ACS units over 64 states per symbol (8 cycles
    per symbol) plus a one-cycle-per-bit traceback.
    """

    DEFAULT_GATES = 30_000
    ALGORITHM = "viterbi"
    ACS_UNITS = 8

    def compute(self, inputs: List[int], param: int, coefs: List[int]) -> List[int]:
        return viterbi_decode(inputs, param)

    def job_cycles(self, jobsize: int, param: int) -> int:
        return jobsize * (N_STATES // self.ACS_UNITS) + param
