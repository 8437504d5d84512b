"""Differential tests of the paged memory store and the region checksum.

Each optimized path is checked against a plain reference kept here: a
CRC-32 computed without zlib, a dict word store, and a fresh comparison of
the region's content with its registration image.
"""

import struct
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.bus.memory as memory_mod
from repro.bus import Bus, ConfigMemory, Memory, region_checksum
from repro.core import FULL_RECOVERY
from repro.kernel import Simulator, us
from tests.faults.helpers import make_rig

PAGE = 1024


def _crc_of_byte(value: int) -> int:
    """Eight shift-and-XOR steps of the reflected CRC-32 polynomial."""
    for _ in range(8):
        value = (value >> 1) ^ (0xEDB88320 if value & 1 else 0)
    return value


CRC_TABLE = [_crc_of_byte(byte) for byte in range(256)]


def reference_checksum(words) -> int:
    """CRC-32 of each word's low 32 bits, packed as native unsigned 32-bit
    ints, one byte at a time: the definition, without zlib."""
    crc = 0xFFFFFFFF
    for byte in struct.pack("=%dI" % len(words), *(word & 0xFFFFFFFF for word in words)):
        crc = (crc >> 8) ^ CRC_TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


def drain(gen):
    """Run a memory access generator to completion outside a simulation."""
    try:
        while True:
            next(gen)
    except StopIteration as stop:
        return stop.value


def checksum_spy():
    """Count the checksums ConfigMemory computes (it calls the module global)."""
    return mock.patch.object(memory_mod, "region_checksum", wraps=memory_mod.region_checksum)


# -- region_checksum ------------------------------------------------------------
word_values = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(-(2**40), -1),
    st.integers(2**32, 2**40),
)
segments = st.one_of(
    st.integers(1, 200).map(lambda n: [0] * n),
    st.lists(word_values, min_size=1, max_size=70),
)


@st.composite
def word_sequences(draw):
    """Zero runs and dense stretches; lengths often near a multiple of 64."""
    words = [w for segment in draw(st.lists(segments, max_size=6)) for w in segment]
    if draw(st.booleans()):
        length = max(0, 64 * draw(st.integers(0, 6)) + draw(st.integers(-2, 2)))
        words = (words + [0] * length)[:length]
    return words


#: Word indices at 64-word edges and at the edges of 1,024-word store pages.
EDGE_WORDS = [0, 63, 64, 127, 1023, 1024, 1087, 2047, 2048]


def sparse(length, words):
    """``length`` zero words, but for ``words`` (index -> word)."""
    out = [0] * length
    for index, word in words.items():
        out[index] = word
    return out


@st.composite
def long_word_sequences(draw):
    """More than two 1,024-word pages of zeros, most often ending in a
    partial page, with a few words set at 64- and 1,024-word edges or
    anywhere, and sometimes a dense tail behind the zero prefix, the shape
    of a truncated bitstream."""
    length = draw(st.integers(2 * 1024 + 1, 3 * 1024 + 100))
    indices = st.lists(st.sampled_from(EDGE_WORDS) | st.integers(0, length - 1), max_size=4)
    words = sparse(length, {index: draw(word_values) for index in draw(indices)})
    if draw(st.booleans()):
        start = draw(st.integers(0, length))
        rng = draw(st.randoms(use_true_random=False))
        words[start:] = [rng.randrange(-(2**33), 2**33) for _ in range(length - start)]
    return words


class TestRegionChecksum:
    @given(word_sequences() | long_word_sequences())
    @example([])
    @example([0] * 3 * 1024)  # a zero span
    @example([2**32])  # zero low bits, but not a zero word
    @example([-1, 2**32 - 1, 2**32 + 5, 5])
    @example([0] * 63 + [2**32] + [0] * 64)
    @example([-(2**32)] * 128)
    @example(sparse(3 * 1024 + 5, {1024: 1}))  # a zero page, then a word at its edge
    @example(sparse(2 * 1024 + 100, {63: 2**31, 64: 1, 1023: 5, 2047: 9}))
    @example([0] * 2100 + [(i * 2654435761) % 2**32 for i in range(1, 1000)])  # truncated
    @example(sparse(2 * 1024 + 70, {2048: 2**32, 2049: -1, 2050: 3, 2100: -(2**35)}))
    # At least 300 examples, and the ci profile's count when it is larger.
    @settings(max_examples=max(300, settings.default.max_examples), deadline=None)
    def test_matches_the_plain_loop(self, words):
        expected = reference_checksum(words)
        assert region_checksum(words) == expected
        assert region_checksum(tuple(words)) == expected

    @pytest.mark.parametrize("written", [False, True], ids=["unwritten", "written"])
    def test_paired_bit31_flips_are_not_clean(self, written):
        """Two flips of bit 31 in one region (words 3 and 77 of 100)."""
        mem = ConfigMemory("cfg", sim=Simulator(), base=0, size_words=PAGE)
        if written:
            mem.poke(0, list(range(1, 101)))
        mem.register_context_region("r", 0, 4 * 100)
        mem.corrupt_region("r", [3 * 32 + 31, 77 * 32 + 31])
        assert not mem.region_is_clean("r")


# -- the paged store --------------------------------------------------------------
SIZE = 3 * PAGE + 5  # three full pages and a partial fourth
BASE = 0x400
#: Word indices where page arithmetic can go wrong.
EDGES = [0, PAGE - 2, PAGE - 1, PAGE, 2 * PAGE - 1, 2 * PAGE, SIZE - 2, SIZE - 1]
indices = st.one_of(st.integers(0, SIZE - 1), st.sampled_from(EDGES))
payloads = st.one_of(
    st.integers(0, 2**32 - 1),  # scalar write
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=40),
    st.integers(1, 1100).map(lambda n: list(range(1, n + 1))),  # page-spanning
)
operations = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["write", "poke"]), indices, payloads),
        st.tuples(st.sampled_from(["read", "peek"]), indices, st.integers(1, 1100)),
    ),
    max_size=30,
)


class TestPagedStore:
    @given(st.sampled_from([0, 0xDEAD]), operations)
    @settings(max_examples=150, deadline=None)
    def test_matches_a_dict_reference(self, fill, ops):
        mem = Memory("m", sim=Simulator(), base=BASE, size_words=SIZE, fill=fill)
        model = {}
        generation = mem.generation
        for kind, index, arg in ops:
            addr = BASE + 4 * index
            if kind in ("write", "poke"):
                payload = arg if isinstance(arg, int) else arg[: SIZE - index]
                if kind == "write":
                    assert drain(mem.write(addr, payload)) is True
                else:
                    mem.poke(addr, payload)
                words = [payload] if isinstance(payload, int) else payload
                model.update(zip(range(index, index + len(words)), words))
                assert mem.generation > generation
                generation = mem.generation
            else:
                count = min(arg, SIZE - index)
                got = drain(mem.read(addr, count)) if kind == "read" else mem.peek(addr, count)
                assert got == [model.get(i, fill) for i in range(index, index + count)]
                got[0] ^= 1  # a caller's copy: the store must not change
                assert mem.generation == generation
        assert mem.peek(BASE, SIZE) == [model.get(i, fill) for i in range(SIZE)]
        assert set(mem._pages) == {i // PAGE for i in model}


# -- the memoized integrity verdict ----------------------------------------------
def config_memory():
    """Regions "a" (words [960, 1088), pre-written, straddling a page
    boundary) and "b" (words [2048, 2560), never written), behind a bus."""
    sim = Simulator()
    bus = Bus("bus", sim=sim)
    mem = ConfigMemory("cfg", sim=sim, base=0, size_words=4 * PAGE)
    bus.register_slave(mem)
    mem.poke(0x0FF8, [1, 2, 3, 4])
    mem.register_context_region("a", 0x0F00, 0x200)
    mem.register_context_region("b", 0x2000, 0x800)
    return sim, bus, mem


def bus_write(sim, bus, mem):
    def body():
        yield from bus.write(0x0F10, [5, 6], master="cpu")

    sim.spawn("cpu", body)
    sim.run()


def corrupt_then_scrub(sim, bus, mem):
    mem.corrupt_region("a", [40])
    assert not mem.region_is_clean("a")
    assert mem.scrub_region("a")


#: mutation path -> (apply it, region "a"'s verdict afterwards)
MUTATIONS = {
    "bus_write": (bus_write, False),
    "poke": (lambda sim, bus, mem: mem.poke(0x0F10, [5]), False),
    "corrupt_region": (lambda sim, bus, mem: mem.corrupt_region("a", [40]), False),
    "scrub_region": (corrupt_then_scrub, True),
}


class TestVerdictMemo:
    def test_registration_seeds_clean(self):
        _, _, mem = config_memory()
        with checksum_spy() as spy:
            assert mem.region_is_clean("a") and mem.region_is_clean("b")
        assert spy.call_count == 0

    @pytest.mark.parametrize("path", sorted(MUTATIONS))
    def test_every_mutation_path_forces_one_rehash(self, path):
        sim, bus, mem = config_memory()
        mutate, verdict = MUTATIONS[path]
        mutate(sim, bus, mem)
        with checksum_spy() as spy:
            assert mem.region_is_clean("a") is verdict
            assert mem.region_is_clean("a") is verdict
        assert spy.call_count == 1

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["poke", "corrupt", "scrub"]),
                st.sampled_from("ab"),
                st.integers(0, 2**16),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_verdict_tracks_the_content(self, ops):
        _, _, mem = config_memory()
        regions = {name: (mem.region_of(name)[0], mem.region_of(name)[1] // 4) for name in "ab"}
        images = {name: mem.peek(*regions[name]) for name in "ab"}
        for kind, name, arg in ops:
            addr, words = regions[name]
            if kind == "poke":
                mem.poke(addr + 4 * (arg % words), [arg & 1])  # 0 is the fill value
            elif kind == "corrupt":
                mem.corrupt_region(name, [arg % (words * 32)])
            else:
                changed = mem.peek(addr, words) != images[name]
                assert mem.scrub_region(name) is changed
            for other in "ab":
                clean = mem.peek(*regions[other]) == images[other]
                assert mem.region_is_clean(other) is clean

    def test_scrub_periods_over_unchanged_memory_never_rehash(self):
        rig = make_rig(recovery=FULL_RECOVERY)
        with checksum_spy() as spy:
            rig.sim.run(until=us(2000))
        assert rig.drcf.stats.scrubs >= 30
        assert spy.call_count == 0
