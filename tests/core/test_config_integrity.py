"""Configuration integrity: checksum verification + failure injection."""

import pytest

from repro.bus import region_checksum
from repro.core import RecoveryPolicy
from repro.faults import FaultInjector, FaultSpec
from repro.kernel import ProcessError
from tests.core.helpers import DrcfRig
from tests.faults.helpers import RIG_INFO, rig_design


def make_rig(verify=True, max_retries=2):
    rig = DrcfRig(
        n_contexts=2,
        context_gates=1000,
        recovery=RecoveryPolicy(verify=verify, max_retries=max_retries),
    )
    # DrcfRig builds contexts by hand; stamp the expected checksums the way
    # the transformation's post-elaboration hook does.
    for context in rig.drcf.contexts:
        context.params.checksum = rig.cfgmem.checksum_of(context.name)
    return rig


def access(rig, *indices):
    def body():
        for index in indices:
            yield from rig.master_read(rig.addr(index))

    rig.sim.spawn("p", body)
    rig.sim.run()


def corrupt_reads(rig, n_bursts=1):
    """Flip one bit in each of the next ``n_bursts`` burst reads of s0's
    region (a ``bus_transient`` fault armed from time 0)."""
    injector = FaultInjector(seed=7)
    injector.arm(FaultSpec("bus_transient", "s0", at_ns=0.0, n_bursts=n_bursts))
    injector.attach(rig.sim, rig_design(rig), RIG_INFO)
    return injector


class TestChecksumHelpers:
    def test_region_checksum_deterministic_and_sensitive(self):
        words = [1, 2, 3, 4]
        assert region_checksum(words) == region_checksum(list(words))
        assert region_checksum(words) != region_checksum([1, 2, 3, 5])
        assert region_checksum([]) != region_checksum([0])

    def test_config_memory_records_checksum_at_registration(self):
        rig = make_rig()
        base, size = rig.cfgmem.region_of("s0")
        words = max(1, -(-size // 4))
        expected = region_checksum(rig.cfgmem.peek(base, words))
        assert rig.cfgmem.checksum_of("s0") == expected


class TestVerifiedFetch:
    def test_clean_fetch_passes_without_retries(self):
        rig = make_rig()
        access(rig, 0, 1)
        assert rig.drcf.stats.config_retries == 0
        assert rig.drcf.stats.fetch_misses == 2

    def test_transient_error_causes_one_refetch(self):
        rig = make_rig()
        injector = corrupt_reads(rig)
        access(rig, 0)
        stats = rig.drcf.stats
        assert stats.config_retries == 1
        assert stats.context("s0").fetch_retries == 1
        # The refetch doubled the configuration traffic on the bus.
        words = rig.drcf.contexts[0].params.config_words(4)
        assert rig.bus.monitor.words_by_tag("config") == 2 * words
        assert len(injector.events) == 1

    def test_transient_error_costs_time_but_not_correctness(self):
        clean = make_rig()
        access(clean, 0)
        dirty = make_rig()
        corrupt_reads(dirty)

        result = {}

        def body():
            yield from dirty.master_write(dirty.addr(0, 2), 123)
            data = yield from dirty.master_read(dirty.addr(0, 2))
            result["data"] = data

        dirty.sim.spawn("p", body)
        dirty.sim.run()
        assert result["data"] == [123]
        assert dirty.sim.now > clean.sim.now

    def test_persistent_corruption_raises_after_retries(self):
        rig = make_rig()
        corrupt_reads(rig, n_bursts=50)  # every attempt fails

        def body():
            yield from rig.master_read(rig.addr(0))

        rig.sim.spawn("p", body)
        with pytest.raises(ProcessError, match="failed its checksum"):
            rig.sim.run()

    @pytest.mark.parametrize("max_retries", [1, 3])
    def test_retry_budget_is_exhausted_before_raising(self, max_retries):
        """The fetch retries exactly ``max_retries`` times, counting
        each retry, before giving up on persistent corruption."""
        rig = make_rig(max_retries=max_retries)
        corrupt_reads(rig, n_bursts=100)

        def body():
            yield from rig.master_read(rig.addr(0))

        rig.sim.spawn("p", body)
        with pytest.raises(ProcessError, match="failed its checksum"):
            rig.sim.run()
        stats = rig.drcf.stats
        # First fetch + max_retries refetches, each failing its check.
        assert stats.config_retries == max_retries + 1
        assert stats.context("s0").fetch_retries == max_retries + 1
        words = rig.drcf.contexts[0].params.config_words(4)
        assert rig.bus.monitor.words_by_tag("config") == (max_retries + 1) * words

    def test_retry_budget_survives_matching_transient_corruption(self):
        """Corruption lasting exactly ``max_retries`` fetches recovers."""
        rig = make_rig(max_retries=3)
        # n_bursts counts burst reads; corrupt every burst of exactly the
        # first three full fetch attempts.
        words = rig.drcf.contexts[0].params.config_words(4)
        bursts_per_fetch = -(-words // rig.drcf.config_burst_words)
        corrupt_reads(rig, n_bursts=3 * bursts_per_fetch)
        access(rig, 0)
        assert rig.drcf.stats.config_retries == 3
        assert rig.drcf.stats.context("s0").fetch_retries == 3

    def test_unverified_drcf_ignores_corruption(self):
        rig = make_rig(verify=False)
        corrupt_reads(rig, n_bursts=50)
        access(rig, 0)  # completes: nothing checks the bitstream
        assert rig.drcf.stats.config_retries == 0

    def test_verify_without_checksum_is_noop(self):
        rig = DrcfRig(n_contexts=1, context_gates=500, recovery=RecoveryPolicy(verify=True))
        assert rig.drcf.contexts[0].params.checksum is None
        access(rig, 0)
        assert rig.drcf.stats.config_retries == 0


class TestTransformPropagation:
    def test_transform_stamps_checksums(self):
        from repro.apps import make_reconfigurable_netlist
        from repro.kernel import Simulator
        from repro.tech import MORPHOSYS

        netlist, info = make_reconfigurable_netlist(("fir", "xtea"), tech=MORPHOSYS)
        design = netlist.elaborate(Simulator())
        cfg = design["cfgmem"]
        for context in design["drcf1"].contexts:
            assert context.params.checksum == cfg.checksum_of(context.name)
