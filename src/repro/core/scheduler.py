"""The DRCF context scheduler (paper Section 5.3).

The behaviour of the scheduler, quoted from the paper:

1. When an interface method is called, the context scheduler checks to
   which component the interface method call was targeted.
2. If the interface method call was targeted to the active context, the
   interface method call is forwarded directly.
3. If the interface method call was targeted to a context which is not
   active, the context switch is activated.
4. During context switch, the interface method call is suspended until the
   arbitration and instrumentation process has generated proper data reads
   in to the memory space that holds the required context.
5. The scheduler will keep track of active time of each context as well as
   the time that the DRCF is in reconfiguring itself.

This module implements steps 2–5; step 1 (address decode) lives in the
DRCF component.  The "arbitration and instrumentation process"
(``arb_and_instr`` in the paper's generated code) is a dedicated thread
draining a switch-request queue, so concurrent interface calls serialize
exactly as on real hardware with a single configuration port.

Timing model of a switch that misses (the context is not resident):

* the bitstream is fetched from configuration memory with real burst reads
  on the memory bus (this is the traffic the paper insists on modeling);
* if the device's configuration port is slower than the observed bus
  transfer, the difference is added (port-bound regime);
* the per-context ``extra_delay`` parameter and the resident-switch
  activation time are added on top.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from ..kernel import Event, Fifo, SimTime, SimulationError, ZERO_TIME
from .context import Context
from .policies import SlotManager
from .stats import DrcfStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernel import Simulator
    from ..tech import ReconfigTechnology

#: ``fetch(config_addr, n_words, context_name)`` generator provided by the
#: DRCF; performs the actual configuration-memory reads.
FetchFn = Callable[[int, int, str], object]


class SwitchRequest:
    """One queued context-switch request."""

    __slots__ = ("context", "done", "prefetch", "issued_at")

    def __init__(self, context: Context, done: Event, prefetch: bool, issued_at: SimTime) -> None:
        self.context = context
        self.done = done
        self.prefetch = prefetch
        self.issued_at = issued_at


class ContextScheduler:
    """Serializes context switches and accounts their cost.

    Owned by a :class:`~repro.core.drcf.Drcf`; not usually constructed
    directly by user code.
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        contexts: Sequence[Context],
        tech: "ReconfigTechnology",
        slot_manager: SlotManager,
        stats: DrcfStats,
        fetch: FetchFn,
        word_bytes: int,
    ) -> None:
        if not contexts:
            raise SimulationError("a DRCF needs at least one context")
        self.sim = sim
        self.name = name
        self.contexts = list(contexts)
        self.tech = tech
        self.slots = slot_manager
        self.stats = stats
        self._fetch = fetch
        self.word_bytes = word_bytes
        self.active: Optional[Context] = None
        self._requests: Fifo = Fifo(sim, capacity=None, name=f"{name}.requests")
        #: Fires (delta) after every completed foreground switch; the
        #: prefetcher listens here.
        self.switch_completed = Event(sim, f"{name}.switch_completed")
        #: Names of contexts in foreground-activation order.
        self.switch_history: List[str] = []
        #: Callbacks ``listener(context_name)`` run on each foreground
        #: switch (e.g. the DRCF's traceable active-context signal).
        self.switch_listeners: List[Callable[[str], None]] = []
        sim.spawn(f"{name}.arb_and_instr", self._arb_and_instr, daemon=True)

    def end_of_simulation(self) -> None:
        """Drop the simulator, the fetch callback (the owning DRCF's bound
        ``_fetch_config``) and the switch listeners, which all point back
        into the design (:meth:`Drcf.end_of_simulation`)."""
        self.sim = None
        self._fetch = None
        self.switch_listeners.clear()

    # -- public API (called from DRCF interface methods) ----------------------
    def is_active(self, context: Context) -> bool:
        """Step 2 predicate: is ``context`` the currently active one?"""
        return self.active is context

    def ensure_active(self, context: Context):
        """Make ``context`` active (generator).

        Fast path: already active → returns immediately (step 2).  Slow
        path: a switch request is queued and the caller is suspended until
        the ``arb_and_instr`` process completes it (steps 3–4).

        Interface calls are serialized by the owning DRCF's fabric lock, so
        at most one ``ensure_active`` runs at a time; concurrent engine
        activity can only be a background prefetch, which never changes the
        active context.
        """
        if self.active is context:
            slot = self.slots.slot_of(context)
            if slot is not None and not slot.loading:
                self.slots.touch(slot)
                return
        issued = self.sim.now
        done = Event(self.sim, f"{self.name}.switch_done.{context.name}")
        self._requests.nb_put(SwitchRequest(context, done, False, issued))
        yield done
        self.stats.record_call_wait(context.name, self.sim.now - issued)
        if self.active is not context:  # pragma: no cover - engine invariant
            raise SimulationError(
                f"{self.name}: switch to {context.name} completed but "
                f"active is {self.active.name if self.active else None}"
            )

    def request_prefetch(self, context: Context) -> Optional[Event]:
        """Queue a background load of ``context`` (no activation).

        Returns the completion event, or ``None`` if the request is moot
        (already active/resident) or the device cannot load in background.
        """
        if not self.tech.background_load:
            return None
        if self.active is context or self.slots.slot_of(context) is not None:
            return None
        if not self.slots.has_idle_capacity(context, self.active):
            return None
        done = Event(self.sim, f"{self.name}.prefetch_done.{context.name}")
        self._requests.nb_put(SwitchRequest(context, done, True, self.sim.now))
        return done

    # -- the arbitration and instrumentation process -----------------------------
    def _arb_and_instr(self):
        while True:
            request = yield from self._requests.get()
            try:
                if request.prefetch:
                    yield from self._do_prefetch(request.context)
                else:
                    yield from self._do_switch(request.context)
            finally:
                request.done.notify()

    def _do_switch(self, context: Context):
        if self.active is context:
            slot = self.slots.slot_of(context)
            if slot is not None and not slot.loading:
                return  # coalesced with an earlier identical request
        # A context cannot be reconfigured away while it is computing:
        # wait for the outgoing module to go idle (busy/idle_event protocol,
        # honoured by the accelerator models).
        yield from self._drain_active()
        start = self.sim.now
        slot = self.slots.slot_of(context)
        fetched = False
        words = 0
        prefetch_hit = False
        if slot is None:
            words = yield from self._load(context)
            slot = self.slots.slot_of(context)
            fetched = True
        elif getattr(slot, "prefetched", False):
            prefetch_hit = True
            slot.prefetched = False  # type: ignore[attr-defined]
        # Resident activation cost (multi-context plane select).
        activation = self.tech.activation_time()
        if activation > ZERO_TIME:
            yield activation
        self.active = context
        self.slots.touch(slot)
        self.stats.record_reconfig(context.name, start, self.sim.now, words, fetched)
        if prefetch_hit:
            self.stats.record_prefetch_hit()
        self.switch_history.append(context.name)
        for listener in self.switch_listeners:
            listener(context.name)
        self.switch_completed.notify_delta()

    def _drain_active(self):
        """Wait until the active context's module stops computing."""
        current = self.active
        if current is None:
            return
        module = current.module
        while getattr(module, "busy", False):
            idle_event = getattr(module, "idle_event", None)
            if idle_event is None:  # no handshake: assume safe to switch
                return
            yield idle_event

    def _do_prefetch(self, context: Context):
        if self.active is context or self.slots.slot_of(context) is not None:
            return
        if not self.slots.has_idle_capacity(context, self.active):
            return
        start = self.sim.now
        words = yield from self._load(context)
        slot = self.slots.slot_of(context)
        slot.prefetched = True  # type: ignore[attr-defined]
        # Background loads do not stall the active context and are not
        # foreground switches; the time and traffic are still accounted to
        # the loaded context.
        self.stats.record_background_load(context.name, start, self.sim.now, words)

    def _load(self, context: Context):
        """Fetch a bitstream into a slot (steps 3–4 of the protocol).

        Returns the number of configuration words fetched externally (0 if
        an on-chip bitstream cache served the load).
        """
        words = context.params.config_words(self.word_bytes)
        slot = self.slots.allocate(context, self.active)
        slot.context = context
        slot.loading = True
        fetch_start = self.sim.now
        fetched_words = yield from self._fetch(
            context.params.config_addr, words, context.name
        )
        if fetched_words is None:
            fetched_words = words
        elapsed = self.sim.now - fetch_start
        # Port-bound regime: the configuration port cannot absorb data
        # faster than its own bandwidth, whatever the bus delivered.
        port_time = self.tech.raw_load_time(context.params.size_bytes * 8)
        if port_time > elapsed:
            yield port_time - elapsed
        if context.params.extra_delay > ZERO_TIME:
            yield context.params.extra_delay
        slot.loading = False
        slot.loaded_at = self.slots.tick()
        return fetched_words

    # -- introspection --------------------------------------------------------------
    def resident_context_names(self) -> List[str]:
        """Names of contexts currently resident on the fabric."""
        return [c.name for c in self.slots.resident_contexts()]
