"""FaultInjector: each fault kind applied through the core-layer hooks,
plus the zero-overhead guarantee for disarmed designs and the error paths."""

import random
from types import SimpleNamespace

import pytest

from repro.bus import Memory
from repro.core import Drcf
from repro.faults import FaultInjector, FaultSpec
from repro.kernel import SimulationError, us
from tests.faults.helpers import RIG_INFO, access, make_rig, rig_design


def attach(rig, *specs, seed=7):
    injector = FaultInjector(seed=seed)
    for spec in specs:
        injector.arm(spec)
    injector.attach(rig.sim, rig_design(rig), RIG_INFO)
    return injector


class TestDisarmedOverhead:
    def test_hook_attributes_default_to_none(self):
        assert Memory.fault_hook is None
        rig = make_rig()
        assert rig.drcf.fault_hook is None
        assert rig.cfgmem.fault_hook is None

    def test_memory_hook_is_a_class_attribute(self):
        # The disarmed cost on the memory read path is one `is None` test;
        # the attribute lives on the class so instances pay nothing extra.
        assert "fault_hook" in vars(Memory)
        assert vars(Memory)["fault_hook"] is None

    def test_attached_but_empty_injector_changes_nothing(self):
        clean = make_rig()
        access(clean, 0, 1, 0)
        hooked = make_rig()
        injector = attach(hooked)  # no specs armed
        access(hooked, 0, 1, 0)
        assert hooked.sim.now == clean.sim.now
        assert hooked.drcf.stats.fetch_misses == clean.drcf.stats.fetch_misses
        assert hooked.drcf.stats.config_retries == 0
        assert injector.events == []
        assert injector.pending == 0


class TestBitflip:
    def test_timed_upset_corrupts_the_stored_region(self):
        rig = make_rig()
        injector = attach(rig, FaultSpec("bitflip", "s0", at_ns=0.0, n_bits=2))
        access(rig, 0, delay_us=1.0)  # flip lands before the fetch
        assert not rig.cfgmem.region_is_clean("s0")
        assert rig.cfgmem.injected_errors == 2
        # Verification is off, but the model still knows the truth.
        assert rig.drcf.loaded_corrupted("s0") is True
        assert len(injector.events) == 1
        assert injector.pending == 0

    def test_same_seed_flips_same_bits(self):
        corrupted = []
        for _ in range(2):
            rig = make_rig()
            attach(rig, FaultSpec("bitflip", "s0", at_ns=0.0, n_bits=3), seed=11)
            access(rig, 0, delay_us=1.0)
            base, size = rig.cfgmem.region_of("s0")
            corrupted.append(rig.cfgmem.peek(base, max(1, size // 4)))
        assert corrupted[0] == corrupted[1]


class TestTruncate:
    def test_garbles_one_fetch_then_clears(self):
        rig = make_rig()
        injector = attach(rig, FaultSpec("truncate", "s0", at_ns=0.0))
        # s1 evicts s0 (single slot), so the third access refetches s0.
        access(rig, 0, 1, 0)
        assert len(injector.events) == 1
        # The refetch saw clean data: transient by construction.
        assert rig.drcf.loaded_corrupted("s0") is False
        # The stored memory itself was never touched.
        assert rig.cfgmem.region_is_clean("s0")

    def test_copies_the_bitstream_only_when_it_truncates(self):
        rig = make_rig()
        injector = attach(rig, FaultSpec("truncate", "s0", at_ns=0.0, drop_fraction=0.25))
        bitstream = list(range(1, 101))
        assert injector.filter_bitstream("drcf", "s1", bitstream) is bitstream
        garbled = injector.filter_bitstream("drcf", "s0", bitstream)
        assert bitstream == list(range(1, 101))  # the fetched words stay as read
        draws = random.Random(7)
        assert garbled == bitstream[:75] + [draws.getrandbits(32) for _ in range(25)]
        assert [message for _, message in injector.events] == [
            "truncate s0: words [75:100] garbled"
        ]
        # One-shot: the next fetch of s0 passes through as is.
        assert injector.filter_bitstream("drcf", "s0", bitstream) is bitstream

    @pytest.mark.parametrize("seed", [0, 7, 42, 1009])
    @pytest.mark.parametrize("size", [1, 2, 3, 100, 14_907])
    def test_garbage_matches_word_by_word_draws(self, seed, size):
        rig = make_rig()
        injector = attach(rig, FaultSpec("truncate", "s0", at_ns=0.0, drop_fraction=1.0), seed=seed)
        garbled = injector.filter_bitstream("drcf", "s0", [0] * size)
        draws = random.Random(seed)
        assert garbled == [draws.getrandbits(32) for _ in range(size)]
        # The generator is left where the word-by-word draws leave it.
        assert injector.rng.getrandbits(32) == draws.getrandbits(32)

    def test_first_fetch_is_marked_corrupted(self):
        rig = make_rig()
        attach(rig, FaultSpec("truncate", "s0", at_ns=0.0))
        access(rig, 0)
        assert rig.drcf.loaded_corrupted("s0") is True


class TestBusTransient:
    def test_flips_one_bit_of_a_target_burst(self):
        rig = make_rig()
        injector = attach(rig, FaultSpec("bus_transient", "s0", at_ns=0.0))
        access(rig, 0, 1)
        assert rig.drcf.loaded_corrupted("s0") is True
        # Only bursts over the target's region are touched.
        assert rig.drcf.loaded_corrupted("s1") is False
        assert rig.cfgmem.region_is_clean("s0")  # in flight, not in store
        assert len(injector.events) == 1
        assert injector.pending == 0

    def test_a_burst_straddling_the_region_is_touched(self):
        """Region s1 starts at 0x100400, after a gap behind s0: an 8-word
        burst from 0x1003F0 starts in the gap and runs into s1."""
        rig = make_rig()
        assert rig.cfgmem.region_of("s1")[0] == 0x100400
        injector = attach(rig, FaultSpec("bus_transient", "s1", at_ns=0.0))
        assert not injector.passes_reads_unchanged(rig.cfgmem, 0x1003F0, 8)
        data = injector.on_memory_read(rig.cfgmem, 0x1003F0, 8, [0] * 8)
        (word,) = [i for i, value in enumerate(data) if value]
        bit = data[word].bit_length() - 1
        assert data[word] == 1 << bit
        assert [message for _, message in injector.events] == [
            f"bus_transient s1: flipped bit {bit} of burst word {word} at 0x1003f0"
        ]
        assert injector.pending == 0
        assert injector.passes_reads_unchanged(rig.cfgmem, 0x1003F0, 8)

    def test_a_spent_injector_returns_the_burst_itself(self):
        """Once no transient is left, a burst comes back as the very list
        it came in, before any region lookup."""
        rig = make_rig()
        injector = attach(rig, FaultSpec("bus_transient", "s0", at_ns=0.0, n_bursts=2))
        base, _ = rig.cfgmem.region_of("s0")
        for _ in range(2):
            assert not injector.passes_reads_unchanged(rig.cfgmem, base, 4)
            injector.on_memory_read(rig.cfgmem, base, 4, [0] * 4)
        assert injector.passes_reads_unchanged(rig.cfgmem, base, 4)
        assert injector.pending == 0

        def no_lookup(addr, count):
            raise AssertionError("a spent injector looked up a region")

        memory = SimpleNamespace(context_for_burst=no_lookup)
        data = [1, 2, 3, 4]
        assert injector.on_memory_read(memory, base, 4, data) is data
        assert len(injector.events) == 2

    def test_memory_without_regions_passes_through(self):
        injector = FaultInjector(seed=7)
        injector.arm(FaultSpec("bus_transient", "s0", at_ns=0.0))
        data = [1, 2, 3]
        assert injector.on_memory_read(SimpleNamespace(), 0x0, 3, data) == data


class TestStuck:
    def test_stalls_exactly_one_fetch(self):
        clean = make_rig()
        access(clean, 0, 1, 0)
        dirty = make_rig()
        injector = attach(dirty, FaultSpec("stuck", "s0", at_ns=0.0, stall_us=100.0))
        access(dirty, 0, 1, 0)
        # One wedge of 100us, then (one-shot) everything else is identical.
        assert dirty.sim.now - clean.sim.now == us(100)
        assert injector.pending == 0
        # No data harm: a stall delays, it does not corrupt.
        assert dirty.drcf.loaded_corrupted("s0") is False


class TestErrorPaths:
    def test_arm_after_attach_is_rejected(self):
        rig = make_rig()
        injector = attach(rig)
        with pytest.raises(SimulationError, match="before attach"):
            injector.arm(FaultSpec("stuck", "s0", at_ns=0.0))

    def test_double_attach_is_rejected(self):
        rig = make_rig()
        injector = attach(rig)
        with pytest.raises(SimulationError, match="already attached"):
            injector.attach(rig.sim, rig_design(rig), RIG_INFO)

    def test_unknown_target_is_rejected_at_attach(self):
        rig = make_rig()
        injector = FaultInjector(seed=7)
        injector.arm(FaultSpec("bitflip", "ghost", at_ns=0.0))
        with pytest.raises(SimulationError, match="unknown context"):
            injector.attach(rig.sim, rig_design(rig), RIG_INFO)
        # Validation runs before any hook is set: the design stays disarmed.
        assert rig.drcf.fault_hook is None
        assert rig.cfgmem.fault_hook is None


class TestDetach:
    def test_detach_disarms_the_hooks_and_keeps_the_log(self):
        rig = make_rig()
        injector = attach(rig, FaultSpec("bitflip", "s0", at_ns=0.0, n_bits=2))
        access(rig, 0, delay_us=1.0)
        events = list(injector.events)
        injector.detach()
        assert rig.drcf.fault_hook is None
        assert rig.cfgmem.fault_hook is None
        assert injector.events == events and len(events) == 1
        injector.detach()  # a second detach is a no-op

    def test_detach_before_attach_is_a_no_op(self):
        injector = FaultInjector(seed=1)
        injector.detach()
        assert injector.events == []


def test_core_layer_never_imports_the_faults_package():
    # Layering guard: injection is opt-in via hook attributes, so the core
    # layer (and the bus layer it sits on) must not import repro.faults.
    import inspect

    import repro.bus.memory
    import repro.core.drcf
    import repro.core.scheduler

    for module in (repro.core.drcf, repro.core.scheduler, repro.bus.memory):
        source = inspect.getsource(module)
        assert "from ..faults" not in source
        assert "import repro.faults" not in source
    assert Drcf.FETCHES_CONFIG_OVER_BUS is True
