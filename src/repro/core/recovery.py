"""DRCF recovery policies (dependability modeling).

The paper models reconfiguration as always succeeding; real run-time
reconfigurable fabrics suffer configuration-memory upsets and interrupted
context loads.  :class:`RecoveryPolicy` bundles the standard mitigations a
DRCF can deploy against them, selectable per :class:`~repro.core.drcf.Drcf`
and instrumented in its stats:

* **readback verify** — checksum the fetched bitstream against the
  context's expected value (fine-grain devices CRC each frame);
* **bounded retry with backoff** — refetch a failed bitstream up to
  ``max_retries`` extra times, waiting ``backoff * backoff_factor**k``
  before attempt ``k`` so a transient can clear;
* **configuration scrubbing** — a background process periodically reads
  one burst of every context region over the bus (the traffic a scrub
  pass costs), checks each region's integrity in zero time and repairs
  corrupted configuration memory from the golden image (Xilinx SEU
  scrubbing);
* **fetch timeout** — abort a wedged configuration transfer after a bound
  instead of hanging the fabric forever (watchdog on the config port);
* **fall back to resident** — when retries are exhausted, accept the
  (corrupted) load in degraded mode instead of raising, so the system
  keeps serving — the failure becomes observable as silent data
  corruption rather than an aborted simulation.

The fault models that exercise these policies live in
:mod:`repro.faults`; this module is policy only, so the core layer does
not depend on the fault-injection layer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..kernel import SimTime, ZERO_TIME, us


@dataclass(frozen=True)
class RecoveryPolicy:
    """What a DRCF does when a configuration load goes wrong."""

    #: Checksum every fetched bitstream against the context's expected value.
    verify: bool = False
    #: Extra fetch attempts after a failed verification (0 = no retry).
    max_retries: int = 2
    #: Wait before the first refetch (lets a transient clear); ``ZERO_TIME``
    #: retries immediately.
    backoff: SimTime = ZERO_TIME
    #: Backoff multiplier per successive attempt (exponential backoff).
    backoff_factor: float = 2.0
    #: Period of the background configuration-scrubbing process
    #: (None = no scrubbing).
    scrub_interval: Optional[SimTime] = None
    #: Abort a configuration transfer that has made no progress after this
    #: long and count it as a failed attempt (None = wait forever).
    fetch_timeout: Optional[SimTime] = None
    #: On exhausted retries, keep running with the corrupted load (degraded
    #: mode) instead of raising ``SimulationError``.
    fallback_to_resident: bool = False

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_factor <= 0:
            raise ValueError("backoff_factor must be positive")

    def backoff_delay(self, attempt: int) -> SimTime:
        """Delay before refetch attempt ``attempt`` (1-based)."""
        if self.backoff is ZERO_TIME or self.backoff.femtoseconds == 0:
            return ZERO_TIME
        scale = self.backoff_factor ** max(0, attempt - 1)
        return SimTime.from_fs(int(self.backoff.femtoseconds * scale))

    def with_overrides(self, **kwargs) -> "RecoveryPolicy":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)


#: No mitigation at all: corrupted loads go unnoticed (baseline).
NO_RECOVERY = RecoveryPolicy(verify=False, max_retries=0)

#: Detection only: verification flags a bad load but nothing refetches;
#: with fallback the system degrades instead of aborting.
VERIFY_ONLY = RecoveryPolicy(verify=True, max_retries=0, fallback_to_resident=True)

#: Verification plus bounded retry with exponential backoff.
RETRY_BACKOFF = RecoveryPolicy(
    verify=True,
    max_retries=3,
    backoff=us(2),
    backoff_factor=2.0,
    fallback_to_resident=True,
)

#: Everything on: retry/backoff, background scrubbing, fetch timeout.
FULL_RECOVERY = RecoveryPolicy(
    verify=True,
    max_retries=3,
    backoff=us(2),
    backoff_factor=2.0,
    scrub_interval=us(50),
    fetch_timeout=us(200),
    fallback_to_resident=True,
)

#: Named presets reachable from the CLI (``--recovery``) and campaigns.
RECOVERY_PRESETS = {
    "none": NO_RECOVERY,
    "verify": VERIFY_ONLY,
    "retry": RETRY_BACKOFF,
    "full": FULL_RECOVERY,
}


def recovery_preset(name: str) -> RecoveryPolicy:
    """Look up a named preset (``none``/``verify``/``retry``/``full``)."""
    try:
        return RECOVERY_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown recovery preset {name!r}; known: {sorted(RECOVERY_PRESETS)}"
        ) from None
