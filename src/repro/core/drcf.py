"""The DRCF component (Dynamically Re-Configurable Fabric).

The paper's generated ``drcf_own`` class implements the analyzed slave
interface, owns the candidate modules, and contains "a context scheduler
and instrumentation process and a multiplexer that routes data transfers to
correct instances".  :class:`Drcf` is that component:

* it implements :class:`~repro.bus.BusSlaveIf` over the union of its
  contexts' address ranges (so it can replace them on the bus);
* incoming ``read``/``write`` calls are decoded to a context (step 1 of the
  Section 5.3 protocol), routed through the scheduler (steps 2–4) and then
  forwarded to the wrapped module's own interface method (the multiplexer);
* a master port issues the configuration-memory reads during context
  switches, making reconfiguration traffic visible on the system bus;
* instrumentation (step 5) accumulates per-context active/reconfigure time
  and configuration traffic in :attr:`stats`.

Interface calls serialize on a fabric lock: the reconfigurable block
executes one context at a time ("a time-slice scheduled application
specific hardware block", Section 5.1), so a call must wait while another
call computes or a foreground switch is in progress.  Background prefetch
loads (multi-context devices) proceed in parallel with execution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Union

from ..bus import BusMasterIf, BusSlaveIf
from ..bus.memory import region_checksum
from ..kernel import Event, Module, Mutex, Port, Signal, SimulationError, ZERO_TIME
from .context import Context
from .policies import (
    AreaSlotManager,
    FixedSlotManager,
    LruPolicy,
    ReplacementPolicy,
    SlotManager,
)
from .recovery import RecoveryPolicy
from .scheduler import ContextScheduler
from .stats import DrcfStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..tech import ReconfigTechnology

#: The bit a corrupted configuration image flips in burst-read data (the
#: silent-data-corruption signature; deterministic so campaigns reproduce).
_SDC_BIT = 0x0002_0000


class Drcf(Module, BusSlaveIf):
    """A dynamically reconfigurable fabric hosting several contexts.

    Parameters
    ----------
    contexts:
        The functionalities folded into this fabric.  Their interface
        address ranges must be disjoint.
    tech:
        Technology preset providing switch/activation timing, slot count
        and background-load capability.
    config_burst_words:
        Burst length of configuration fetches on the memory bus.
    policy:
        Replacement policy for resident contexts (default LRU).
    use_area_slots:
        Model partial reconfiguration: contexts share a gate budget
        (``fabric_capacity_gates``) instead of fixed slots.
    fabric_capacity_gates:
        Gate budget when ``use_area_slots`` is set; defaults to the largest
        context (single-context equivalent) — pass more to host several.
    recovery:
        What the fabric does when a configuration load goes wrong (fetch
        verification, retries, scrubbing); ``None`` is ``RecoveryPolicy()``,
        which verifies nothing.
    """

    #: Context switches issue master reads on the bound bus.  The static
    #: lint pass (REP310) uses this class flag to tell whether placing the
    #: component as master *and* slave of one blocking bus is the paper's
    #: limitation-3 deadlock (True), harmless (False, e.g. the reference-[8]
    #: baseline which models delay without traffic), or merely suspicious
    #: (attribute absent on non-DRCF components).
    FETCHES_CONFIG_OVER_BUS = True

    def __init__(
        self,
        name: str,
        parent: Optional[Module] = None,
        sim=None,
        *,
        contexts: Sequence[Context] = (),
        context_builders: Sequence = (),
        tech: "ReconfigTechnology",
        config_burst_words: int = 64,
        word_bytes: int = 4,
        policy: Optional[ReplacementPolicy] = None,
        use_area_slots: bool = False,
        fabric_capacity_gates: Optional[int] = None,
        config_cache_bytes: Optional[int] = None,
        recovery: Optional[RecoveryPolicy] = None,
    ) -> None:
        super().__init__(name, parent=parent, sim=sim)
        # The master port exists before context builders run so wrapped
        # modules can chain their own master ports through it (the paper's
        # `hwa->mst_port(mst_port)` line in the generated constructor).
        self.mst_port = Port(self, BusMasterIf, name="mst_port")
        contexts = list(contexts)
        for builder in context_builders:
            contexts.append(builder(self))
        if not contexts:
            raise SimulationError(f"DRCF {name} needs at least one context")
        if not tech.is_reconfigurable:
            raise SimulationError(
                f"DRCF {name}: technology {tech.name!r} is not reconfigurable"
            )
        if config_burst_words <= 0:
            raise SimulationError(
                f"DRCF {name}: config_burst_words must be positive, not {config_burst_words}"
            )
        if word_bytes <= 0:
            raise SimulationError(f"DRCF {name}: word_bytes must be positive, not {word_bytes}")
        self._check_disjoint(contexts)
        self.contexts: List[Context] = list(contexts)
        self.tech = tech
        self.config_burst_words = config_burst_words
        self.word_bytes = word_bytes
        # Integrity modeling: checksum every fetched bitstream against the
        # context's expected value (fine-grain devices CRC each frame) and
        # refetch on mismatch, as the recovery policy says.
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
        #: Fault injector hook surface (repro.faults); None = disarmed, and
        #: the fetch path pays one ``is None`` test for it.
        self.fault_hook = None
        #: The configuration memory instance, when known (set by the
        #: transformation's post-elaboration hook); required for scrubbing
        #: repairs and for the fault models that corrupt stored bitstreams.
        self.config_memory = None
        #: Contexts whose *loaded* fabric image is known corrupted (the
        #: model-level ground truth behind silent-data-corruption outcomes).
        self._loaded_corrupted: dict = {}
        self._scrubber_started = False
        self.stats = DrcfStats([c.name for c in contexts])
        # Optional on-chip bitstream cache (Chapter 2's "memories storing
        # configurations" trade-off; see repro.core.cache).
        if config_cache_bytes is not None:
            from .cache import ConfigCache

            self.config_cache: Optional["ConfigCache"] = ConfigCache(
                config_cache_bytes, clock_freq_hz=tech.fabric_clock_hz
            )
        else:
            self.config_cache = None
        slot_manager = self._make_slot_manager(
            tech, contexts, policy or LruPolicy(), use_area_slots, fabric_capacity_gates
        )
        self.scheduler = ContextScheduler(
            self.sim,
            f"{self.full_name}.scheduler",
            contexts,
            tech,
            slot_manager,
            self.stats,
            self._fetch_config,
            word_bytes,
        )
        self._fabric_lock = Mutex(self.sim, f"{self.full_name}.fabric_lock")
        # Waveform-traceable view of the active context: 0 = none, i+1 =
        # contexts[i].  Register with a VcdTracer to see the context
        # schedule in a waveform viewer (width = 8 covers 255 contexts).
        self.active_context_signal: Signal[int] = Signal(
            self.sim, 0, name=f"{self.full_name}.active_context"
        )
        self._context_ids = {c.name: i + 1 for i, c in enumerate(self.contexts)}
        self.scheduler.switch_listeners.append(
            lambda name: self.active_context_signal.write(self._context_ids[name])
        )
        # Wrapped modules that compute asynchronously (own thread between a
        # START write and a STATUS poll) report their in-fabric execution
        # intervals through this sink, so step-5 instrumentation covers them.
        for context in self.contexts:
            if hasattr(context.module, "compute_sink"):
                context.module.compute_sink = self._make_compute_sink(context.name)
        self._maybe_start_scrubber()

    # -- recovery policy -----------------------------------------------------------
    def set_recovery(self, recovery: RecoveryPolicy) -> None:
        """Select a recovery policy (campaigns call this post-elaboration)."""
        self.recovery = recovery
        self._maybe_start_scrubber()

    def _maybe_start_scrubber(self) -> None:
        if self.recovery.scrub_interval is None or self._scrubber_started:
            return
        self._scrubber_started = True
        self.sim.spawn(f"{self.full_name}.scrubber", self._scrub_loop, daemon=True)

    def _scrub_loop(self):
        """Background configuration scrubbing (recovery policy).

        Every ``scrub_interval``, for each context with a registered
        checksum, reads one burst of ``min(region words,
        config_burst_words)`` words from the start of its region over the
        memory bus: real, tagged traffic that stands for the cost of a
        scrub pass, not a read of the whole region.  The integrity verdict
        takes no simulated time: :meth:`ConfigMemory.region_is_clean`
        decides it, and :meth:`ConfigMemory.scrub_region` restores a dirty
        region from its golden image.  Both need :attr:`config_memory`
        (set by the transformation); without it the loop neither detects
        nor repairs, and only makes the traffic.
        """
        while True:
            interval = self.recovery.scrub_interval
            if interval is None:
                return
            yield interval
            self.stats.record_scrub()
            for context in self.contexts:
                expected = context.params.checksum
                if expected is None:
                    continue
                words = context.params.config_words(self.word_bytes)
                start = self.sim.now
                data = yield from self.mst_port.read(
                    context.params.config_addr,
                    min(words, self.config_burst_words),
                    master=self.full_name,
                    tags=["scrub", context.name],
                )
                del data  # sampling read: integrity is checked via the memory
                memory = self.config_memory
                if memory is None or not hasattr(memory, "region_is_clean"):
                    continue
                if not memory.region_is_clean(context.name):
                    if memory.scrub_region(context.name):
                        self.stats.record_scrub_repair(context.name)
                        self.stats.record_recovery_time(
                            context.name, self.sim.now - start
                        )

    def end_of_simulation(self) -> None:
        """Drop the fabric's own cycles: the context scheduler's and the
        contexts' ``compute_sink`` closures."""
        scheduler = getattr(self, "scheduler", None)  # None if __init__ raised first
        if scheduler is not None:
            scheduler.end_of_simulation()
        for context in getattr(self, "contexts", ()):
            if hasattr(context.module, "compute_sink"):
                context.module.compute_sink = None

    def _make_compute_sink(self, context_name: str):
        def sink(start, end):
            self.stats.record_compute(context_name, start, end)

        return sink

    @staticmethod
    def _check_disjoint(contexts: Sequence[Context]) -> None:
        ranges = sorted((c.low_addr, c.high_addr, c.name) for c in contexts)
        for (lo1, hi1, n1), (lo2, hi2, n2) in zip(ranges, ranges[1:]):
            if hi1 >= lo2:
                raise SimulationError(
                    f"contexts {n1!r} and {n2!r} have overlapping address ranges"
                )

    @staticmethod
    def _make_slot_manager(
        tech: "ReconfigTechnology",
        contexts: Sequence[Context],
        policy: ReplacementPolicy,
        use_area_slots: bool,
        capacity: Optional[int],
    ) -> SlotManager:
        if use_area_slots:
            if not tech.partial_reconfig:
                raise SimulationError(
                    f"technology {tech.name!r} does not support partial "
                    "reconfiguration (area slots)"
                )
            budget = capacity if capacity is not None else max(c.gates for c in contexts)
            return AreaSlotManager(budget, policy)
        return FixedSlotManager(tech.context_slots, policy)

    # -- BusSlaveIf: the union range ----------------------------------------------
    def get_low_add(self) -> int:
        return min(c.low_addr for c in self.contexts)

    def get_high_add(self) -> int:
        return max(c.high_addr for c in self.contexts)

    def _decode(self, addr: int) -> Context:
        """Step 1: which context is this interface call targeted to?"""
        for context in self.contexts:
            if context.decodes(addr):
                return context
        raise SimulationError(
            f"{self.full_name}: address {addr:#x} inside the DRCF range but "
            "not decoded by any context (holes between contexts are not served)"
        )

    # -- the routed interface methods ------------------------------------------------
    def read(self, addr: int, count: int = 1):
        """Slave read: decode, switch if needed, forward (generator).

        A read that would go straight through, with no switch and no wait
        for the fabric lock, is also open to the bus's closed forms
        through :meth:`closed_read`, which books the same records.
        """
        result = yield from self._routed_call("read", addr, count, None)
        return result

    def write(self, addr: int, data: Union[int, Sequence[int]]):
        """Slave write: decode, switch if needed, forward (generator)."""
        yield from self._routed_call("write", addr, None, data)
        return True

    def closed_read(self, addr: int, count: int, word_bytes: int):
        """The bus's closed-form read (:attr:`BusSlaveIf.closed_read`),
        forwarded to the active context's module while a call would go
        straight through :meth:`_routed_call`: no switch is needed (the
        active context decodes ``addr`` and its slot is resident and not
        loading), the fabric lock is free, and the read is not a burst
        from a context loaded corrupted, which the SDC flip changes.  Each
        call books what :meth:`_routed_call` records: the LRU touch and
        :meth:`DrcfStats.record_active_calls`.  Nothing switches the context
        before the horizon: a switch needs a call, and a call a process."""
        scheduler = self.scheduler
        context = scheduler.active
        if context is None or self._fabric_lock.locked or not context.decodes(addr):
            return None
        slot = scheduler.slots.slot_of(context)
        if slot is None or slot.loading or (count > 1 and self._loaded_corrupted.get(context.name)):
            return None
        module_read = context.module.closed_read
        answer = module_read(addr, count, word_bytes) if module_read is not None else None
        if answer is None:
            return None
        access, words, module_book = answer

        def book(reads: int, n: int, start_fs: int, period_fs: int) -> None:
            scheduler.slots.touch(slot, reads)
            self.stats.record_active_calls(context.name, start_fs, access(n), period_fs, reads)
            module_book(reads, n, start_fs, period_fs)

        return access, words, book

    def _routed_call(self, kind: str, addr: int, count, data):
        context = self._decode(addr)
        yield from self._fabric_lock.lock(context.name)
        try:
            yield from self.scheduler.ensure_active(context)
            start_fs = self.sim._now_fs
            if kind == "read":
                result = yield from context.module.read(addr, count)
                if (
                    self._loaded_corrupted
                    and count is not None
                    and count > 1
                    and self._loaded_corrupted.get(context.name)
                ):
                    # A context running from a corrupted configuration image
                    # computes wrong results: burst (data) reads come back
                    # with a deterministic bit flipped, while single-word
                    # register reads (status polls) stay intact so the
                    # protocol itself keeps working — silent data corruption.
                    result = list(result)
                    result[0] ^= _SDC_BIT
            else:
                result = yield from context.module.write(addr, data)
            duration_fs = self.sim._now_fs - start_fs
            self.stats.record_active_calls(context.name, start_fs, duration_fs, 0, 1)
            return result
        finally:
            self._fabric_lock.unlock()

    # -- configuration fetch (the modeled memory traffic) --------------------------------
    def _fetch_config(self, config_addr: int, n_words: int, context_name: str):
        """Read a bitstream from configuration memory in bursts (generator).

        Each attempt is one bus request: a burst train of
        ``config_burst_words``-word bursts that the bus re-arbitrates and
        records burst by burst, exactly like separate burst reads, and
        books in closed form while nothing else can run (see
        :meth:`repro.bus.Bus.read`).

        Returns the number of words actually fetched over the bus (0 when
        the on-chip bitstream cache hit; the configuration-port programming
        time still applies, charged by the scheduler).

        This is where the recovery policy acts: verification, bounded retry
        with backoff, the fetch timeout against wedged transfers, and the
        degraded-mode fallback when retries run out.  A fault injector may
        perturb the path through :attr:`fault_hook` (stuck transfers,
        truncated bitstreams); with no hook armed and verification off the
        path is exactly the plain burst loop.
        """
        size_bytes = n_words * self.word_bytes
        if self.config_cache is not None and self.config_cache.lookup(context_name):
            yield self.config_cache.refill_time(size_bytes)
            return 0
        recovery = self.recovery
        hook = self.fault_hook
        # What verification compares a load with, and the model-level
        # ground truth for silent-corruption tracking; only read when a
        # load is verified or can differ from a clean one.
        checksum = (
            self._context_by_name(context_name).params.checksum
            if (hook is not None or recovery.verify)
            else None
        )
        attempts = 0
        total_fetched = 0
        recovery_start = None
        corrupted = False
        while True:
            if hook is not None:
                stuck = hook.fetch_delay(self.full_name, context_name)
                if stuck is not None:
                    timeout = recovery.fetch_timeout
                    if timeout is not None and timeout < stuck:
                        # The configuration-port watchdog aborts the wedged
                        # transfer; the attempt is charged and retried.
                        yield timeout
                        self.stats.record_fetch_timeout(context_name)
                        if recovery_start is None:
                            recovery_start = self.sim.now
                        attempts += 1
                        if attempts > recovery.max_retries:
                            corrupted = True
                            bitstream: List[int] = []
                            if recovery.fallback_to_resident:
                                self.stats.record_fallback(context_name)
                                break
                            raise SimulationError(
                                f"{self.full_name}: configuration transfer for "
                                f"context {context_name!r} timed out {attempts} "
                                "times (stuck configuration port?)"
                            )
                        continue
                    # No timeout armed (or it is longer than the wedge):
                    # the transfer simply stalls for the fault's duration.
                    yield stuck
            bitstream = yield from self.mst_port.read(
                config_addr,
                n_words,
                master=self.full_name,
                tags=["config", context_name],
                burst=self.config_burst_words,
            )
            total_fetched += n_words
            if hook is not None:
                bitstream = hook.filter_bitstream(
                    self.full_name, context_name, bitstream
                )
            if checksum is None:
                break
            # At the width of the words fetched, which the configuration
            # memory took the expected checksum at.
            corrupted = region_checksum(bitstream, self.word_bytes) != checksum
            if not (corrupted and recovery.verify):
                # With verification off a bad load goes unnoticed by the
                # modeled hardware, but the model remembers the truth.
                break
            attempts += 1
            self.stats.record_config_retry(context_name)
            if recovery_start is None:
                recovery_start = self.sim.now
            if attempts > recovery.max_retries:
                if recovery.fallback_to_resident:
                    self.stats.record_fallback(context_name)
                    break
                raise SimulationError(
                    f"{self.full_name}: bitstream of context {context_name!r} "
                    f"failed its checksum {attempts} times (persistent "
                    "configuration-memory corruption?)"
                )
            backoff = recovery.backoff_delay(attempts)
            if backoff > ZERO_TIME:
                yield backoff
        if recovery_start is not None:
            self.stats.record_recovery_time(
                context_name, self.sim.now - recovery_start
            )
        if checksum is not None:
            self._loaded_corrupted[context_name] = corrupted
        if self.config_cache is not None and not corrupted:
            self.config_cache.insert(context_name, size_bytes)
        return total_fetched

    # -- prefetch hooks -----------------------------------------------------------------
    def prefetch(self, context_name: str) -> Optional[Event]:
        """Request a background load of the named context (if supported)."""
        return self.scheduler.request_prefetch(self._context_by_name(context_name))

    def _context_by_name(self, name: str) -> Context:
        for context in self.contexts:
            if context.name == name:
                return context
        raise KeyError(
            f"{self.full_name}: no context named {name!r}; "
            f"contexts: {[c.name for c in self.contexts]}"
        )

    # -- introspection ---------------------------------------------------------------------
    @property
    def active_context_name(self) -> Optional[str]:
        """Name of the active context (None before the first switch)."""
        return self.scheduler.active.name if self.scheduler.active else None

    def resident_context_names(self) -> List[str]:
        return self.scheduler.resident_context_names()

    def loaded_corrupted(self, context_name: str) -> bool:
        """Model-level truth: is the context's loaded image corrupted?

        Only meaningful when verification or a fault hook tracked the load;
        contexts never fetched (or tracked) report False.
        """
        return bool(self._loaded_corrupted.get(context_name, False))

    def largest_context_gates(self) -> int:
        """Resource requirement of the largest context (Section 5.5 issue 2)."""
        return max(c.gates for c in self.contexts)

    def total_config_bytes(self) -> int:
        """Configuration memory footprint of all contexts."""
        return sum(c.params.size_bytes for c in self.contexts)

    def __repr__(self) -> str:
        names = ",".join(c.name for c in self.contexts)
        return f"Drcf({self.full_name!r}, tech={self.tech.name}, contexts=[{names}])"
