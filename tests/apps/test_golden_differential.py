"""Bit-parallel golden functions against their loop-form references.

``viterbi_decode``, ``xtea_process`` (and its one-block wrappers) and
``fft_fixed`` compute with packed big-int arithmetic; every word they return
must equal the per-state / per-block / per-index loops kept in
:mod:`tests.apps.reference_kernels`.  Inputs deliberately include what the
simulated accelerators never send: noisy, tie-heavy and arbitrary symbol
words, negative and wider-than-32-bit XTEA words and keys, and extreme or
surplus FFT words.

Tier-1 runs these under the default hypothesis profile; ``tools/ci_check.sh``
reruns the file with ``--hypothesis-profile=ci`` for many more examples.
"""

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import batched_jobs, frame_interleaved_jobs, golden_outputs
from repro.apps.accelerators import (
    bit_reverse_permute,
    convolutional_encode,
    fft_fixed,
    viterbi_decode,
    xtea_decrypt_block,
    xtea_encrypt_block,
    xtea_process,
)

from . import reference_kernels as ref

#: Any integer a caller might pass as a key word: in range, negative or wide.
any_word = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(-(2**40), 2**40),
    st.integers(2**32, 2**80),
)


def int64_words(count):
    """``count`` arbitrary signed 64-bit words, negative and wide included.

    Drawn as raw bytes: generating hundreds of words through ``integers``
    would dominate the test's run time.
    """
    return st.binary(min_size=8 * count, max_size=8 * count).map(
        lambda raw: list(struct.unpack(f"<{count}q", raw))
    )


@st.composite
def viterbi_cases(draw):
    """``(symbols, n_bits)``: clean, noisy or arbitrary symbol words."""
    n_bits = draw(st.integers(0, 250))
    kind = draw(st.sampled_from(("clean", "noisy", "garbage")))
    n_sym = n_bits + ref.K - 1
    if kind == "garbage":
        return draw(int64_words(n_sym + draw(st.integers(0, 3)))), n_bits
    message = draw(st.integers(0, (1 << n_bits) - 1))
    symbols = convolutional_encode([(message >> i) & 1 for i in range(n_bits)])
    if kind == "noisy":
        flips = st.tuples(st.integers(0, n_sym - 1), st.integers(1, 3))
        for pos, flip in draw(st.lists(flips, max_size=40)):
            symbols[pos] ^= flip
    return symbols, n_bits


class TestViterbi:
    @given(viterbi_cases())
    @settings(deadline=None)
    def test_matches_reference(self, case):
        symbols, n_bits = case
        assert viterbi_decode(symbols, n_bits) == ref.viterbi_decode(symbols, n_bits)

    def test_thousand_bit_noisy_frame(self):
        rng = random.Random(1000)
        symbols = convolutional_encode([rng.randint(0, 1) for _ in range(1000)])
        for pos in rng.sample(range(len(symbols)), 120):
            symbols[pos] ^= rng.randint(1, 3)
        assert viterbi_decode(symbols, 1000) == ref.viterbi_decode(symbols, 1000)


class TestXtea:
    @given(
        st.integers(0, 128).flatmap(lambda n: int64_words(2 * n)),
        st.lists(any_word, min_size=4, max_size=6),
        st.booleans(),
    )
    @settings(deadline=None)
    def test_process_matches_reference(self, words, key, decrypt):
        assert xtea_process(words, key, decrypt) == ref.xtea_process(words, key, decrypt)

    @given(any_word, any_word, st.lists(any_word, min_size=4, max_size=6))
    def test_block_functions_match_reference(self, v0, v1, key):
        assert xtea_encrypt_block(v0, v1, key) == ref.xtea_encrypt_block(v0, v1, key)
        assert xtea_decrypt_block(v0, v1, key) == ref.xtea_decrypt_block(v0, v1, key)


POWERS_OF_TWO = [1 << b for b in range(1, 9)]
EXTREMES = (-(2**31), 2**31 - 1, -1, 0)


@st.composite
def fft_cases(draw):
    """``(words, n)``: 32-bit signed words, some at the extremes, maybe surplus."""
    n = draw(st.sampled_from(POWERS_OF_TWO))
    count = 2 * n + draw(st.integers(0, 3))
    raw = draw(st.binary(min_size=4 * count, max_size=4 * count))
    words = list(struct.unpack(f"<{count}i", raw))
    extremes = st.tuples(st.integers(0, count - 1), st.sampled_from(EXTREMES))
    for pos, value in draw(st.lists(extremes, max_size=16)):
        words[pos] = value
    return words, n


class TestFft:
    @given(fft_cases())
    @settings(deadline=None)
    def test_matches_reference(self, case):
        words, n = case
        assert fft_fixed(words, n) == ref.fft_fixed(words, n)

    @pytest.mark.parametrize("n", POWERS_OF_TWO)
    def test_extreme_inputs_with_trailing_words(self, n):
        rng = random.Random(n)
        for words in (
            [-(2**31)] * (2 * n),
            [2**31 - 1] * (2 * n),
            [2**31 - 1 if i & 1 else -(2**31) for i in range(2 * n)],
            [rng.randint(-(2**31), 2**31 - 1) for _ in range(2 * n)],
        ):
            words = words + [7, -7]
            assert fft_fixed(words, n) == ref.fft_fixed(words, n)

    @pytest.mark.parametrize("n_bits", range(1, 9))
    def test_bit_reverse_permute_matches_reference(self, n_bits):
        values = [f"v{i}" for i in range(1 << n_bits)]
        assert bit_reverse_permute(values, n_bits) == ref.bit_reverse_permute(values, n_bits)


def reference_golden(spec):
    """``golden_outputs`` computed with the loop-form references.

    FIR, DCT and matmul have no packed form; their golden functions are
    their own reference.
    """
    if spec.accel == "viterbi":
        return ref.viterbi_decode(spec.inputs, spec.param)
    if spec.accel == "fft":
        return ref.fft_fixed(spec.inputs, spec.param)
    if spec.accel == "xtea":
        masked = [w & 0xFFFFFFFF for w in spec.inputs]
        key = [k & 0xFFFFFFFF for k in spec.coefs]
        out = ref.xtea_process(masked, key, decrypt=bool(spec.param))
        return [w - (1 << 32) if w & 0x80000000 else w for w in out]
    return golden_outputs(spec)


ALL_ACCELS = ("fir", "fft", "dct", "viterbi", "xtea", "matmul")


@pytest.mark.parametrize("make_jobs", [frame_interleaved_jobs, batched_jobs])
@pytest.mark.parametrize("seed", [42, 1009])
def test_golden_outputs_match_reference_on_workload_jobs(make_jobs, seed):
    jobs = make_jobs(ALL_ACCELS, 3, seed=seed)
    assert {job.accel for job in jobs} == set(ALL_ACCELS)
    for job in jobs:
        assert golden_outputs(job) == reference_golden(job), job.label
