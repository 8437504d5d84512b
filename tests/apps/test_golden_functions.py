"""Golden (executable-specification) functions — with property tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.accelerators import (
    bit_reverse_permute,
    convolutional_encode,
    dct_1d,
    dct_block,
    dct_blocks,
    fft_fixed,
    fir_filter,
    matmul_int,
    viterbi_decode,
    xtea_decrypt_block,
    xtea_encrypt_block,
    xtea_process,
)

samples16 = st.integers(-30_000, 30_000)


class TestFir:
    def test_impulse_response_reproduces_coefs(self):
        coefs = [1 << 15, 2 << 15, 3 << 15]  # Q15 values 1, 2, 3
        impulse = [1] + [0] * 5
        assert fir_filter(impulse, coefs) == [1, 2, 3, 0, 0, 0]

    def test_identity_filter(self):
        coefs = [1 << 15]
        data = [5, -3, 7]
        assert fir_filter(data, coefs) == data

    def test_saturation(self):
        coefs = [0x7FFF] * 8
        data = [2**30] * 8
        out = fir_filter(data, coefs)
        assert out[-1] == 2**31 - 1  # saturated, not wrapped

    @given(st.lists(samples16, min_size=1, max_size=32), st.lists(samples16, min_size=1, max_size=8))
    def test_linearity_in_input_scaling(self, data, coefs):
        # FIR is linear before saturation; small values never saturate.
        small = [d // 256 for d in data]
        small_coefs = [c // 256 for c in coefs]
        base = fir_filter(small, small_coefs)
        doubled = fir_filter([2 * d for d in small], small_coefs)
        # >> 15 truncation makes exact doubling hold only approximately.
        for b, d in zip(base, doubled):
            assert abs(d - 2 * b) <= len(coefs) + 1

    @given(st.lists(samples16, min_size=1, max_size=32))
    def test_zero_coefs_zero_output(self, data):
        assert fir_filter(data, [0, 0, 0]) == [0] * len(data)

    def test_matches_numpy_convolve(self):
        rng = np.random.default_rng(7)
        data = rng.integers(-20000, 20000, 48).tolist()
        coefs = rng.integers(-8000, 8000, 6).tolist()
        ours = fir_filter(data, coefs)
        ref = np.convolve(data, coefs)[: len(data)]
        # Our >>15 floors each output; numpy keeps full precision.
        for got, exact in zip(ours, ref):
            assert got == int(exact) >> 15


class TestFft:
    def test_bit_reverse_permute(self):
        assert bit_reverse_permute(list(range(8)), 3) == [0, 4, 2, 6, 1, 5, 3, 7]

    def test_bit_reverse_permute_needs_exactly_2_to_the_n_bits_values(self):
        with pytest.raises(ValueError, match="got 8 for n_bits=2"):
            bit_reverse_permute(list(range(8)), 2)
        with pytest.raises(ValueError, match="got 2 for n_bits=3"):
            bit_reverse_permute([0, 1], 3)
        with pytest.raises(ValueError, match="got 0 for n_bits=-1"):
            bit_reverse_permute([], -1)

    def test_bit_reverse_permute_of_one_value_is_identity(self):
        assert bit_reverse_permute(("x",), 0) == ["x"]

    def test_impulse_gives_flat_spectrum(self):
        n = 8
        data = [0] * (2 * n)
        data[0] = n << 10  # real impulse, scaled to survive the 1/N scaling
        out = fft_fixed(data, n)
        res = [out[2 * i] for i in range(n)]
        ims = [out[2 * i + 1] for i in range(n)]
        assert all(abs(r - res[0]) <= 1 for r in res)
        assert all(abs(i) <= 1 for i in ims)

    def test_dc_input_concentrates_in_bin0(self):
        n = 8
        data = []
        for _ in range(n):
            data += [1 << 12, 0]
        out = fft_fixed(data, n)
        assert out[0] == pytest.approx(1 << 12, abs=8)  # DC bin = mean
        for i in range(1, n):
            assert abs(out[2 * i]) <= 2 and abs(out[2 * i + 1]) <= 2

    def test_matches_numpy_within_quantization(self):
        rng = np.random.default_rng(1)
        n = 32
        re = rng.integers(-4000, 4000, n)
        im = rng.integers(-4000, 4000, n)
        data = []
        for r, i in zip(re, im):
            data += [int(r), int(i)]
        out = fft_fixed(data, n)
        ref = np.fft.fft(re + 1j * im) / n
        got = np.array([out[2 * i] + 1j * out[2 * i + 1] for i in range(n)])
        # Fixed-point error: a few LSBs per stage.
        assert np.max(np.abs(got - ref)) < 16

    def test_invalid_lengths(self):
        with pytest.raises(ValueError):
            fft_fixed([0] * 12, 6)  # not a power of two
        with pytest.raises(ValueError):
            fft_fixed([0] * 4, 8)  # too few words

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=20)
    def test_parseval_shape(self, log_n, data):
        # Energy can only shrink under the per-stage >>1 scaling; output
        # must stay bounded by the input magnitude (no overflow blowup).
        n = 1 << log_n
        words = data.draw(
            st.lists(st.integers(-(1 << 14), 1 << 14), min_size=2 * n, max_size=2 * n)
        )
        out = fft_fixed(words, n)
        peak_in = max(abs(w) for w in words) or 1
        assert max(abs(w) for w in out) <= 4 * peak_in


class TestDct:
    def test_constant_block_concentrates_dc(self):
        block = [100] * 64
        out = dct_block(block)
        assert out[0] == pytest.approx(800, abs=2)  # 8 * 100 from two sqrt(1/8) passes
        assert all(abs(v) <= 1 for v in out[1:])

    def test_dct_1d_validates_length(self):
        with pytest.raises(ValueError):
            dct_1d([1, 2, 3])

    def test_dct_block_validates_length(self):
        with pytest.raises(ValueError):
            dct_block([0] * 63)

    def test_multi_block_independence(self):
        a = [7] * 64
        b = [-3] * 64
        combined = dct_blocks(a + b)
        assert combined[:64] == dct_block(a)
        assert combined[64:] == dct_block(b)

    def test_matches_scipy_dct(self):
        from scipy.fft import dctn

        rng = np.random.default_rng(2)
        block = rng.integers(-128, 128, 64).tolist()
        ours = np.array(dct_block(block), dtype=float).reshape(8, 8)
        ref = dctn(np.array(block, dtype=float).reshape(8, 8), norm="ortho")
        assert np.max(np.abs(ours - ref)) < 2.0


class TestViterbi:
    def test_decode_inverts_encode(self):
        bits = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0]
        symbols = convolutional_encode(bits)
        assert viterbi_decode(symbols, len(bits)) == bits

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=64))
    @settings(max_examples=25)
    def test_roundtrip_property(self, bits):
        symbols = convolutional_encode(bits)
        assert viterbi_decode(symbols, len(bits)) == bits

    def test_corrects_single_symbol_error(self):
        bits = [1, 0, 1, 1, 0, 0, 1, 0] * 4
        symbols = convolutional_encode(bits)
        symbols[5] ^= 0x3  # corrupt both bits of one symbol
        assert viterbi_decode(symbols, len(bits)) == bits

    def test_corrects_scattered_bit_errors(self):
        bits = [0, 1, 1, 0, 1, 0, 0, 1] * 4
        symbols = convolutional_encode(bits)
        for pos in (3, 14, 25):
            symbols[pos] ^= 0x1
        assert viterbi_decode(symbols, len(bits)) == bits

    def test_too_few_symbols(self):
        with pytest.raises(ValueError):
            viterbi_decode([0] * 5, 10)

    def test_negative_bit_count(self):
        with pytest.raises(ValueError, match="negative"):
            viterbi_decode(convolutional_encode([1, 0, 1]), -2)


class TestXtea:
    def test_known_roundtrip(self):
        key = [0x01234567, 0x89ABCDEF, 0xFEDCBA98, 0x76543210]
        v0, v1 = xtea_encrypt_block(0xDEADBEEF, 0xCAFEBABE, key)
        assert (v0, v1) != (0xDEADBEEF, 0xCAFEBABE)
        assert xtea_decrypt_block(v0, v1, key) == (0xDEADBEEF, 0xCAFEBABE)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(0, 2**32 - 1), min_size=4, max_size=4),
    )
    def test_roundtrip_property(self, v0, v1, key):
        c0, c1 = xtea_encrypt_block(v0, v1, key)
        assert xtea_decrypt_block(c0, c1, key) == (v0, v1)

    def test_process_stream(self):
        key = [1, 2, 3, 4]
        words = list(range(10))
        cipher = xtea_process(words, key)
        assert xtea_process(cipher, key, decrypt=True) == words

    def test_wrong_key_fails_to_decrypt(self):
        cipher = xtea_process([5, 6], [1, 2, 3, 4])
        assert xtea_process(cipher, [9, 9, 9, 9], decrypt=True) != [5, 6]

    def test_validation(self):
        with pytest.raises(ValueError):
            xtea_process([1], [1, 2, 3, 4])
        with pytest.raises(ValueError):
            xtea_process([1, 2], [1, 2])


class TestMatmul:
    def test_identity(self):
        n = 4
        eye = [1 if i == j else 0 for i in range(n) for j in range(n)]
        a = list(range(16))
        assert matmul_int(a, eye, n) == a
        assert matmul_int(eye, a, n) == a

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=25)
    def test_matches_numpy(self, n, data):
        values = st.integers(-100, 100)
        a = data.draw(st.lists(values, min_size=n * n, max_size=n * n))
        b = data.draw(st.lists(values, min_size=n * n, max_size=n * n))
        ours = matmul_int(a, b, n)
        ref = (
            np.array(a, dtype=np.int64).reshape(n, n)
            @ np.array(b, dtype=np.int64).reshape(n, n)
        ).flatten()
        assert ours == [int(v) for v in ref]

    def test_wrapping_on_overflow(self):
        big = [2**20] * 4
        out = matmul_int(big, big, 2)
        # 2 * 2^40 wraps into 32-bit signed range.
        assert all(-(2**31) <= v < 2**31 for v in out)

    def test_validation(self):
        with pytest.raises(ValueError):
            matmul_int([1], [1, 2, 3, 4], 2)
