"""DRCF recovery policies exercised by injected faults.

The retry-with-backoff case is the headline: a transient truncation is
detected by readback verification, refetched after a backoff, and the
whole intervention shows up in the DRCF stats (retry count, recovery
time) — the instrumented recovery the campaign engine classifies as a
``recovered`` outcome.
"""

import pytest

from repro.core import (
    FULL_RECOVERY,
    NO_RECOVERY,
    RECOVERY_PRESETS,
    RETRY_BACKOFF,
    VERIFY_ONLY,
    RecoveryPolicy,
    recovery_preset,
)
from repro.faults import FaultInjector, FaultSpec
from repro.kernel import ZERO_TIME, ProcessError, us
from tests.faults.helpers import RIG_INFO, access, make_rig, rig_design


def attach(rig, *specs, seed=7):
    injector = FaultInjector(seed=seed)
    for spec in specs:
        injector.arm(spec)
    injector.attach(rig.sim, rig_design(rig), RIG_INFO)
    return injector


class TestPolicy:
    def test_presets_are_registered(self):
        assert set(RECOVERY_PRESETS) == {"none", "verify", "retry", "full"}
        assert recovery_preset("retry") is RETRY_BACKOFF
        assert recovery_preset("none") is NO_RECOVERY
        with pytest.raises(KeyError, match="unknown recovery preset"):
            recovery_preset("heroic")

    def test_preset_shapes(self):
        assert not NO_RECOVERY.verify
        assert VERIFY_ONLY.verify and VERIFY_ONLY.max_retries == 0
        assert RETRY_BACKOFF.max_retries == 3
        assert FULL_RECOVERY.scrub_interval is not None
        assert FULL_RECOVERY.fetch_timeout is not None

    def test_backoff_is_exponential(self):
        policy = RecoveryPolicy(backoff=us(2), backoff_factor=2.0)
        assert policy.backoff_delay(1) == us(2)
        assert policy.backoff_delay(2) == us(4)
        assert policy.backoff_delay(3) == us(8)
        assert RecoveryPolicy().backoff_delay(5) == ZERO_TIME

    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RecoveryPolicy(backoff_factor=0.0)

    def test_with_overrides(self):
        tweaked = RETRY_BACKOFF.with_overrides(max_retries=7)
        assert tweaked.max_retries == 7
        assert tweaked.verify is RETRY_BACKOFF.verify


class TestRetryBackoff:
    def test_transient_truncation_is_recovered_and_instrumented(self):
        clean = make_rig(recovery=RETRY_BACKOFF)
        access(clean, 0)
        rig = make_rig(recovery=RETRY_BACKOFF)
        attach(rig, FaultSpec("truncate", "s0", at_ns=0.0))
        access(rig, 0)
        stats = rig.drcf.stats
        assert stats.config_retries == 1
        assert stats.recovery_actions >= 1
        assert stats.total_recovery_time > ZERO_TIME
        # The refetch came back clean: no silent corruption.
        assert rig.drcf.loaded_corrupted("s0") is False
        # The intervention cost real simulated time (backoff + refetch).
        assert rig.sim.now - clean.sim.now >= us(2)

    def test_bus_transient_is_recovered(self):
        rig = make_rig(recovery=RETRY_BACKOFF)
        attach(rig, FaultSpec("bus_transient", "s0", at_ns=0.0, n_bursts=1))
        access(rig, 0)
        assert rig.drcf.stats.config_retries == 1
        assert rig.drcf.loaded_corrupted("s0") is False

    def test_persistent_bitflip_defeats_retry_and_falls_back(self):
        # A configuration-memory upset corrupts the *store*: every refetch
        # reads the same damaged words, so the retry budget runs out and
        # the DRCF degrades instead of aborting (fallback_to_resident).
        rig = make_rig(recovery=RETRY_BACKOFF)
        attach(rig, FaultSpec("bitflip", "s0", at_ns=0.0, n_bits=1))
        access(rig, 0, delay_us=1.0)
        stats = rig.drcf.stats
        assert stats.config_retries == RETRY_BACKOFF.max_retries + 1
        assert stats.fallbacks == 1
        assert rig.drcf.loaded_corrupted("s0") is True


class TestPairedBit31Upsets:
    def test_verified_fetch_rejects_the_damaged_image(self):
        """Two upsets in bit 31 of the stored image (words 3 and 77): every
        fetch fails its checksum, so the DRCF retries and then raises."""
        rig = make_rig(recovery=RecoveryPolicy(verify=True, max_retries=1))
        rig.cfgmem.corrupt_region("s0", [3 * 32 + 31, 77 * 32 + 31])
        with pytest.raises(ProcessError, match="failed its checksum 2 times"):
            access(rig, 0)
        assert rig.drcf.stats.config_retries == 2


class TestVerifyOnly:
    def test_detection_without_retry_degrades(self):
        rig = make_rig(recovery=VERIFY_ONLY)
        attach(rig, FaultSpec("truncate", "s0", at_ns=0.0))
        access(rig, 0)  # completes: fallback, not SimulationError
        stats = rig.drcf.stats
        assert stats.config_retries == 1
        assert stats.fallbacks == 1
        assert rig.drcf.loaded_corrupted("s0") is True


class TestNoRecovery:
    def test_corruption_goes_unnoticed_by_the_hardware(self):
        rig = make_rig(recovery=NO_RECOVERY)
        attach(rig, FaultSpec("truncate", "s0", at_ns=0.0))
        access(rig, 0)
        stats = rig.drcf.stats
        assert stats.config_retries == 0
        assert stats.recovery_actions == 0
        # ... but the model-level ground truth still knows.
        assert rig.drcf.loaded_corrupted("s0") is True


class TestFullRecovery:
    def test_scrubbing_repairs_a_configuration_upset(self):
        rig = make_rig(recovery=FULL_RECOVERY)
        rig.cfgmem.corrupt_region("s0", [3, 17])
        assert not rig.cfgmem.region_is_clean("s0")
        # Wait three scrub periods, then use the context; the scrubber's
        # daemon keeps the event queue alive, so bound the run.
        access(rig, 0, delay_us=170.0, until=us(1000))
        stats = rig.drcf.stats
        assert stats.scrub_repairs >= 1
        assert rig.cfgmem.region_is_clean("s0")
        # The fetch after the repair loads a clean image first try.
        assert stats.config_retries == 0
        assert rig.drcf.loaded_corrupted("s0") is False

    def test_fetch_timeout_unsticks_a_wedged_port(self):
        rig = make_rig(recovery=FULL_RECOVERY)
        attach(rig, FaultSpec("stuck", "s0", at_ns=0.0, stall_us=400.0))
        result = {}

        def body():
            data = yield from rig.master_read(rig.addr(0))
            result["data"] = data

        rig.sim.spawn("p", body)
        rig.sim.run(until=us(5000))
        stats = rig.drcf.stats
        assert result["data"] == [0]  # the read completed
        assert stats.fetch_timeouts == 1
        assert stats.recovery_actions >= 1
        assert rig.drcf.loaded_corrupted("s0") is False
