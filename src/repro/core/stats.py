"""DRCF instrumentation.

Step 5 of the paper's scheduler protocol: "The scheduler will keep track of
active time of each context as well as the time that the DRCF is in
reconfiguring itself."  :class:`DrcfStats` accumulates exactly that, plus
the configuration-memory traffic (word counts) that distinguishes this
methodology from the ref-[8] baseline, and an activity timeline for the
reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..kernel import SimTime, TimelineRecorder, ZERO_TIME


@dataclass
class ContextStats:
    """Per-context counters."""

    name: str
    #: Interface-method calls forwarded to this context.
    calls: int = 0
    #: Times this context became the active one.
    activations: int = 0
    #: Times its bitstream was fetched from configuration memory.
    reconfigurations: int = 0
    #: Simulated time spent executing forwarded calls.
    active_time: SimTime = ZERO_TIME
    #: Simulated time spent loading/activating this context.
    reconfig_time: SimTime = ZERO_TIME
    #: Configuration words fetched over the memory bus for this context.
    config_words: int = 0
    #: Bitstream refetches due to checksum failures (integrity modeling).
    fetch_retries: int = 0
    #: Total suspension time interface calls spent waiting for switches.
    call_wait_time: SimTime = ZERO_TIME
    #: Scrub passes that repaired this context's configuration region.
    scrub_repairs: int = 0
    #: Loads accepted in degraded mode after retries were exhausted.
    fallbacks: int = 0
    #: Wedged configuration transfers aborted by the fetch timeout.
    fetch_timeouts: int = 0
    #: Simulated time spent recovering failed loads (backoff, timeouts,
    #: refetch transfers) — the recovery overhead of this context.
    recovery_time: SimTime = ZERO_TIME


class DrcfStats:
    """Aggregated instrumentation of one DRCF component."""

    def __init__(self, context_names: List[str]) -> None:
        self.per_context: Dict[str, ContextStats] = {
            name: ContextStats(name) for name in context_names
        }
        self.timeline = TimelineRecorder()
        self.total_switches = 0
        #: Switches satisfied from a resident slot (no memory fetch).
        self.resident_hits = 0
        #: Switches that required a configuration-memory fetch.
        self.fetch_misses = 0
        #: Switches whose fetch had already completed in the background.
        self.prefetch_hits = 0
        #: Background (prefetch) loads performed.
        self.background_loads = 0
        #: Whole-bitstream refetches caused by checksum failures.
        self.config_retries = 0
        #: Background scrub sweeps performed (recovery policy).
        self.scrubs = 0
        #: Scrub sweeps that found and repaired corrupted configuration memory.
        self.scrub_repairs = 0
        #: Loads accepted in degraded mode after retries were exhausted.
        self.fallbacks = 0
        #: Wedged configuration transfers aborted by the fetch timeout.
        self.fetch_timeouts = 0
        self._start_time: Optional[SimTime] = None
        self._end_time: Optional[SimTime] = None

    # -- recording hooks (called by the scheduler/DRCF) ----------------------
    def context(self, name: str) -> ContextStats:
        return self.per_context[name]

    def note_time(self, now: SimTime) -> None:
        """Track the observation window for utilization figures."""
        if self._start_time is None:
            self._start_time = now
        self._end_time = now

    def record_active_calls(
        self, name: str, start_fs: int, duration_fs: int, period_fs: int, calls: int
    ) -> None:
        """Record ``calls`` interface-method calls forwarded to ``name``,
        each active for ``duration_fs``, call ``i`` starting at ``start_fs
        + i * period_fs``: their count, active time and timeline rows, and
        the observation window."""
        cs = self.per_context[name]
        cs.calls += calls
        cs.active_time = cs.active_time + SimTime.from_fs(calls * duration_fs)
        self.timeline.record_repeated(start_fs, duration_fs, period_fs, calls, "active", name)
        # The first call's end opens the observation window if none is open.
        self.note_time(SimTime.from_fs(start_fs + duration_fs))
        self.note_time(SimTime.from_fs(start_fs + (calls - 1) * period_fs + duration_fs))

    def record_compute(self, name: str, start: SimTime, end: SimTime) -> None:
        """Asynchronous in-fabric computation time (accelerator-driven).

        Counted into the context's active time like forwarded-call time,
        but without incrementing the call counter: the wrapped module
        reports it via the compute sink the DRCF installs.
        """
        cs = self.per_context[name]
        cs.active_time = cs.active_time + (end - start)
        if end > start:
            self.timeline.record(start, end, "active", name)
        self.note_time(end)

    def record_reconfig(
        self, name: str, start: SimTime, end: SimTime, config_words: int, fetched: bool
    ) -> None:
        cs = self.per_context[name]
        cs.activations += 1
        cs.reconfig_time = cs.reconfig_time + (end - start)
        cs.config_words += config_words
        self.total_switches += 1
        if fetched:
            cs.reconfigurations += 1
            self.fetch_misses += 1
        else:
            self.resident_hits += 1
        if end > start:
            self.timeline.record(start, end, "reconfig", name)
        self.note_time(end)

    def record_background_load(
        self, name: str, start: SimTime, end: SimTime, config_words: int
    ) -> None:
        """A prefetch load: traffic and reconfiguration accounting without
        counting as a foreground switch."""
        cs = self.per_context[name]
        cs.reconfigurations += 1
        cs.reconfig_time = cs.reconfig_time + (end - start)
        cs.config_words += config_words
        self.background_loads += 1
        if end > start:
            self.timeline.record(start, end, "prefetch", name)
        self.note_time(end)

    def record_config_retry(self, name: str) -> None:
        """A fetched bitstream failed its checksum and will be refetched."""
        self.per_context[name].fetch_retries += 1
        self.config_retries += 1

    def record_call_wait(self, name: str, duration: SimTime) -> None:
        cs = self.per_context[name]
        cs.call_wait_time = cs.call_wait_time + duration

    def record_prefetch_hit(self) -> None:
        self.prefetch_hits += 1

    # -- recovery instrumentation (see repro.core.recovery) --------------------
    def record_scrub(self) -> None:
        """One background scrub sweep over the context regions."""
        self.scrubs += 1

    def record_scrub_repair(self, name: str) -> None:
        """A scrub sweep repaired ``name``'s configuration region."""
        self.per_context[name].scrub_repairs += 1
        self.scrub_repairs += 1

    def record_fallback(self, name: str) -> None:
        """Retries exhausted: the corrupted load was accepted degraded."""
        self.per_context[name].fallbacks += 1
        self.fallbacks += 1

    def record_fetch_timeout(self, name: str) -> None:
        """A wedged configuration transfer was aborted by the timeout."""
        self.per_context[name].fetch_timeouts += 1
        self.fetch_timeouts += 1

    def record_recovery_time(self, name: str, duration: SimTime) -> None:
        """Simulated time spent recovering a failed load of ``name``."""
        cs = self.per_context[name]
        cs.recovery_time = cs.recovery_time + duration

    @property
    def recovery_actions(self) -> int:
        """Total recovery interventions (retries, repairs, timeouts, fallbacks).

        The campaign engine classifies a fault as *recovered* (rather than
        masked) when the run completed correctly and this is non-zero.
        """
        return (
            self.config_retries
            + self.scrub_repairs
            + self.fallbacks
            + self.fetch_timeouts
        )

    # -- aggregates ------------------------------------------------------------
    @property
    def total_active_time(self) -> SimTime:
        total = ZERO_TIME
        for cs in self.per_context.values():
            total = total + cs.active_time
        return total

    @property
    def total_reconfig_time(self) -> SimTime:
        total = ZERO_TIME
        for cs in self.per_context.values():
            total = total + cs.reconfig_time
        return total

    @property
    def total_config_words(self) -> int:
        return sum(cs.config_words for cs in self.per_context.values())

    @property
    def total_calls(self) -> int:
        return sum(cs.calls for cs in self.per_context.values())

    @property
    def total_recovery_time(self) -> SimTime:
        total = ZERO_TIME
        for cs in self.per_context.values():
            total = total + cs.recovery_time
        return total

    def observation_window(self) -> SimTime:
        if self._start_time is None or self._end_time is None:
            return ZERO_TIME
        return self._end_time - self._start_time

    def reconfig_overhead_fraction(self) -> float:
        """Reconfiguration time as a fraction of (active + reconfig) time."""
        active = self.total_active_time.femtoseconds
        reconf = self.total_reconfig_time.femtoseconds
        if active + reconf == 0:
            return 0.0
        return reconf / (active + reconf)

    def summary(self) -> Dict[str, object]:
        """Dictionary summary used by the experiment reports."""
        return {
            "calls": self.total_calls,
            "switches": self.total_switches,
            "fetch_misses": self.fetch_misses,
            "resident_hits": self.resident_hits,
            "prefetch_hits": self.prefetch_hits,
            "background_loads": self.background_loads,
            "config_retries": self.config_retries,
            "scrubs": self.scrubs,
            "scrub_repairs": self.scrub_repairs,
            "fallbacks": self.fallbacks,
            "fetch_timeouts": self.fetch_timeouts,
            "recovery_time_ns": self.total_recovery_time.to_ns(),
            "active_time_ns": self.total_active_time.to_ns(),
            "reconfig_time_ns": self.total_reconfig_time.to_ns(),
            "config_words": self.total_config_words,
            "reconfig_overhead_fraction": self.reconfig_overhead_fraction(),
            "per_context": {
                name: {
                    "calls": cs.calls,
                    "activations": cs.activations,
                    "reconfigurations": cs.reconfigurations,
                    "active_time_ns": cs.active_time.to_ns(),
                    "reconfig_time_ns": cs.reconfig_time.to_ns(),
                    "config_words": cs.config_words,
                    "call_wait_time_ns": cs.call_wait_time.to_ns(),
                    "scrub_repairs": cs.scrub_repairs,
                    "fallbacks": cs.fallbacks,
                    "fetch_timeouts": cs.fetch_timeouts,
                    "recovery_time_ns": cs.recovery_time.to_ns(),
                }
                for name, cs in self.per_context.items()
            },
        }
