"""Signals and clocks with SystemC evaluate/update semantics.

A :class:`Signal` is a primitive channel: ``write`` stages a new value; the
value becomes visible only in the update phase at the end of the current
delta cycle, and a change fires the signal's ``value_changed`` event as a
delta notification.  This gives race-free communication between processes
running in the same evaluation phase — the property RTL-style models rely
on, and which the bus-cycle-accurate models in this library use for request/
grant lines.

:class:`Clock` is a module generating a periodic boolean signal with
``posedge``/``negedge`` events.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generic, List, Optional, TypeVar

from .event import Event
from .module import Module
from .simtime import SimTime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .simulator import Simulator

T = TypeVar("T")


class Signal(Generic[T]):
    """A single-writer-per-delta signal with deferred update.

    Reads return the value committed at the last update phase; writes take
    effect one delta later.  ``value_changed`` fires only on actual change
    (write of an equal value is absorbed, as in ``sc_signal``).

    Follows the kernel's update-request protocol: ``_update_requested``
    dedups queueing in O(1) (the simulator clears it before calling
    :meth:`_update`), so a thousand writes in one evaluation phase cost one
    queue entry and no membership scans.
    """

    __slots__ = (
        "sim",
        "name",
        "_current",
        "_next",
        "_update_requested",
        "value_changed",
        "posedge",
        "negedge",
        "_trace_callbacks",
        "write_hook",
    )

    def __init__(self, sim: "Simulator", init: T, name: str = "signal") -> None:
        self.sim = sim
        self.name = name
        self._current: T = init
        self._next: T = init
        self._update_requested = False
        #: Fires (delta) whenever the committed value changes.
        self.value_changed = Event(sim, f"{name}.value_changed")
        #: Fires (delta) on a False->True / zero->nonzero transition.
        self.posedge = Event(sim, f"{name}.posedge")
        #: Fires (delta) on a True->False / nonzero->zero transition.
        self.negedge = Event(sim, f"{name}.negedge")
        self._trace_callbacks: List[object] = []
        #: Optional ``hook(signal, staged_value)`` called on every write
        #: (before staging).  Used by the lint dynamic cross-check to
        #: attribute same-delta writers; disarmed cost is one ``is None``
        #: test, same contract as the fault hooks.
        self.write_hook = None

    # -- access ---------------------------------------------------------------
    def read(self) -> T:
        """The committed value."""
        return self._current

    @property
    def value(self) -> T:
        """Alias for :meth:`read` (property form)."""
        return self._current

    def write(self, value: T) -> None:
        """Stage ``value``; committed at the end of the current delta."""
        if self.write_hook is not None:
            self.write_hook(self, value)
        self._next = value
        if not self._update_requested:
            self.sim._enqueue_update(self)

    def _update(self) -> None:
        # _update_requested was cleared by the scheduler's update phase.
        # Identity first: a NaN payload compares unequal to itself, and the
        # equality-only guard would re-fire value_changed on every commit of
        # the same NaN object.
        old = self._current
        new = self._next
        if new is old or new == old:
            return
        self._current = new
        self.value_changed.notify_delta()
        if not old and new:
            self.posedge.notify_delta()
        elif old and not new:
            self.negedge.notify_delta()
        if self._trace_callbacks:
            now = self.sim.now
            for callback in self._trace_callbacks:
                callback(now, new)  # type: ignore[operator]

    def on_update(self, callback) -> None:
        """Register ``callback(time, value)`` run at each committed change."""
        self._trace_callbacks.append(callback)

    def events(self) -> "tuple[Event, Event, Event]":
        """The signal's notification events (value_changed, posedge, negedge).

        Lets analyses map a sensitivity-list event back to the signal it
        belongs to without guessing from event names.
        """
        return (self.value_changed, self.posedge, self.negedge)

    def __repr__(self) -> str:
        return f"Signal({self.name!r}={self._current!r})"


def signals_of(module: Module) -> "dict[str, Signal]":
    """Signals held in attributes of ``module``, keyed by attribute name.

    The signal half of the introspection API (``ports_of`` is the port
    half): modules do not register their signals anywhere, so this scans
    the instance attributes — sufficient for the idiomatic
    ``self.done = Signal(...)`` declaration style, and what the static
    lint pass (REP204) uses to match signals against writer processes.
    """
    found: dict[str, Signal] = {}
    for attr, value in vars(module).items():
        if isinstance(value, Signal):
            found[attr] = value
    return found


class Clock(Module):
    """A periodic boolean clock signal, pausable for clock morphing.

    Parameters
    ----------
    period:
        Full clock period.
    duty:
        High fraction of the period (default 0.5).
    start_low:
        If true the clock starts low and the first posedge occurs after
        the low phase.

    :meth:`pause`/:meth:`resume` freeze and release the waveform: while
    paused no edges occur and the interrupted phase completes after
    resuming.  This is the *clock morphing* mechanism of the paper's
    reference [7] (Vasilko & Cabanis, FCCM 1999): a virtual clock
    distributed to the contexts of reconfigurable hardware is halted while
    their context is being reconfigured, so RTL processes clocked by it
    simply do not advance during reconfiguration.
    """

    def __init__(
        self,
        name: str,
        period: SimTime,
        parent: Optional[Module] = None,
        sim: Optional["Simulator"] = None,
        duty: float = 0.5,
        start_low: bool = False,
    ) -> None:
        super().__init__(name, parent=parent, sim=sim)
        if period.femtoseconds <= 0:
            raise ValueError("clock period must be positive")
        if not 0.0 < duty < 1.0:
            raise ValueError("duty cycle must be in (0, 1)")
        self.period = period
        self.duty = duty
        self._high_time = SimTime.from_fs(int(round(period.femtoseconds * duty)))
        self._low_time = period - self._high_time
        self.signal: Signal[bool] = Signal(self.sim, not start_low, name=f"{self.full_name}.sig")
        self._start_low = start_low
        self._paused = False
        self._pause_event = Event(self.sim, f"{self.full_name}.pause")
        self._resume_event = Event(self.sim, f"{self.full_name}.resume")
        self._paused_fs = 0
        self.add_thread(self._toggle, name="toggle", daemon=True)
        self._cycle_count = 0

    @property
    def posedge(self) -> Event:
        """Event fired at each rising edge."""
        return self.signal.posedge

    @property
    def negedge(self) -> Event:
        """Event fired at each falling edge."""
        return self.signal.negedge

    @property
    def cycles_elapsed(self) -> int:
        """Number of full periods completed."""
        return self._cycle_count

    def read(self) -> bool:
        """Current clock level."""
        return self.signal.read()

    # -- clock morphing (ref [7]) ------------------------------------------
    @property
    def paused(self) -> bool:
        return self._paused

    @property
    def total_paused_time(self) -> SimTime:
        """Accumulated time spent frozen (completed pauses only)."""
        return SimTime.from_fs(self._paused_fs)

    def pause(self) -> None:
        """Freeze the waveform (idempotent)."""
        if self._paused:
            return
        self._paused = True
        self._pause_event.notify()

    def resume(self) -> None:
        """Release a paused waveform (idempotent)."""
        if not self._paused:
            return
        self._paused = False
        self._resume_event.notify()

    def _phase(self, duration: SimTime):
        """One clock phase, stretchable by pause/resume."""
        from .process import TIMEOUT, AnyOf

        remaining_fs = duration.femtoseconds
        while remaining_fs > 0:
            if self._paused:
                pause_start = self.sim._now_fs
                yield self._resume_event
                self._paused_fs += self.sim._now_fs - pause_start
                continue
            started_fs = self.sim._now_fs
            result = yield AnyOf(
                [self._pause_event], timeout=SimTime.from_fs(remaining_fs)
            )
            if result is TIMEOUT:
                return
            remaining_fs -= self.sim._now_fs - started_fs

    def _toggle(self):
        if self._start_low:
            self.signal.write(False)
            yield from self._phase(self._low_time)
        while True:
            self.signal.write(True)
            yield from self._phase(self._high_time)
            self.signal.write(False)
            yield from self._phase(self._low_time)
            self._cycle_count += 1
