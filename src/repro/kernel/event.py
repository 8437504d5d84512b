"""Events and notification semantics.

Implements the SystemC 2.0 notification model:

* ``notify()`` — *immediate*: waiting processes become runnable in the
  current evaluation phase.
* ``notify(ZERO_TIME)`` — *delta*: waiting processes become runnable in the
  next delta cycle (after the update phase).
* ``notify(t)`` with ``t > 0`` — *timed*: waiting processes become runnable
  when simulated time has advanced by ``t``.

An event carries at most one pending notification.  A pending notification
is only replaced by an *earlier* one: immediate overrides delta and timed,
delta overrides timed, and an earlier timed notification overrides a later
one.  ``cancel()`` removes any pending delta/timed notification.

Hot-path design notes (these structures sit under every notification in
the system, so their costs multiply into everything):

* Waiter sets are insertion-ordered dicts, giving O(1) add/remove while
  preserving the deterministic registration-order iteration the scheduler
  guarantees (a list would make ``remove`` O(n) per disarm — quadratic for
  fan-out patterns).
* A cancelled delta notification does not search the simulator's delta
  queue; the queue entry goes *stale* and is skipped when popped.
  ``_delta_entries`` counts this event's entries (live + stale) in the
  queue; because re-notification always appends, only the newest entry can
  be live, so an entry fires iff it is the last one out and a delta is
  still pending — reproducing exactly the ordering of eager removal.
* ``last_trigger_time`` is stored as a plain femtosecond integer and
  wrapped into a :class:`SimTime` only on inspection.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from .errors import SchedulingError
from .simtime import SimTime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .process import Process
    from .simulator import Simulator

#: Sentinel stored in ``Event._pending`` while a delta notification pends.
#: Always compared with ``is``.
_DELTA = "delta"


class Event:
    """A synchronization primitive processes can wait on.

    Two kinds of waiters exist, mirroring SystemC:

    * *static* waiters — processes whose sensitivity list includes this
      event; they are notified on every trigger and never disarm.
    * *dynamic* waiters — suspended processes whose current ``yield``
      references this event; they disarm once resumed.
    """

    __slots__ = (
        "sim",
        "name",
        "_static_waiters",
        "_dynamic_waiters",
        "_pending",
        "_trigger_count",
        "_last_trigger_fs",
        "_delta_entries",
        "__weakref__",
    )

    def __init__(self, sim: "Simulator", name: str = "event") -> None:
        self.sim = sim
        self.name = name
        sim._kernel_objects.add(self)
        # Insertion-ordered sets (dicts with None values): O(1) membership
        # and removal, deterministic iteration in registration order.
        self._static_waiters: Dict["Process", None] = {}
        self._dynamic_waiters: Dict[object, None] = {}
        # Pending notification: None, _DELTA, or a TimedAction.
        self._pending = None  # type: Optional[object]
        self._trigger_count = 0
        self._last_trigger_fs: Optional[int] = None
        # Entries (live + stale) this event has in the simulator's delta
        # queue; see the module docstring.
        self._delta_entries = 0

    # -- introspection -----------------------------------------------------
    @property
    def trigger_count(self) -> int:
        """Number of times this event has fired since construction."""
        return self._trigger_count

    @property
    def last_trigger_time(self) -> Optional[SimTime]:
        """Simulation time of the most recent trigger, or ``None``."""
        if self._last_trigger_fs is None:
            return None
        return SimTime.from_fs(self._last_trigger_fs)

    def has_waiters(self) -> bool:
        """True if any process is statically or dynamically waiting."""
        return bool(self._static_waiters or self._dynamic_waiters)

    # -- waiter management (kernel internal) -------------------------------
    def _add_static(self, process: "Process") -> None:
        self._static_waiters.setdefault(process)

    def _remove_static(self, process: "Process") -> None:
        self._static_waiters.pop(process, None)

    def _add_dynamic(self, handle: object) -> None:
        self._dynamic_waiters[handle] = None

    def _remove_dynamic(self, handle: object) -> None:
        self._dynamic_waiters.pop(handle, None)

    # -- notification --------------------------------------------------------
    def notify(self, delay: Optional[SimTime] = None) -> None:
        """Notify the event.

        ``delay=None`` requests immediate notification, ``ZERO_TIME`` a
        delta notification, any positive :class:`SimTime` a timed one.
        """
        if delay is None:
            if self._pending is not None:
                self._cancel_pending()
            self._trigger()
        elif not isinstance(delay, SimTime):
            raise SchedulingError(
                f"notify() delay must be a SimTime or None, got {type(delay).__name__}"
            )
        elif delay._fs == 0:
            self.notify_delta()
        else:
            self._notify_timed(delay)

    def notify_delta(self) -> None:
        """Schedule a delta notification (unless an equal/earlier one pends)."""
        pending = self._pending
        if pending is _DELTA:
            return
        if pending is not None:
            pending.cancel()  # delta overrides a pending timed notification
        self._pending = _DELTA
        self._delta_entries += 1
        self.sim._delta_events.append(self)

    def _notify_timed(self, delay: SimTime) -> None:
        target_fs = self.sim._now_fs + delay.femtoseconds
        pending = self._pending
        if pending is _DELTA:
            return  # delta is earlier than any timed notification
        if pending is not None:
            # pending is a TimedAction
            if pending.time_fs <= target_fs:  # type: ignore[attr-defined]
                return
            pending.cancel()  # type: ignore[attr-defined]
            self._pending = None
        action = self.sim._schedule_timed_fs(target_fs, self._timed_fire)
        self._pending = action

    def cancel(self) -> None:
        """Cancel any pending delta or timed notification."""
        if self._pending is not None:
            self._cancel_pending()

    def _cancel_pending(self) -> None:
        pending = self._pending
        if pending is None:
            return
        if pending is not _DELTA:
            pending.cancel()  # type: ignore[attr-defined]
        # A pending delta's queue entry goes stale and is skipped when the
        # delta queue drains; no O(n) removal here.
        self._pending = None

    # -- firing (called by the kernel) -----------------------------------------
    def _timed_fire(self) -> None:
        self._pending = None
        self._trigger()

    def _delta_fire(self) -> None:
        # One queue entry consumed.  Only the newest entry can correspond
        # to a live notification (re-notification always appends), so fire
        # iff this is the last entry out and a delta is still pending.
        self._delta_entries -= 1
        if self._delta_entries or self._pending is not _DELTA:
            return
        self._pending = None
        self._trigger()

    def _trigger(self) -> None:
        self._trigger_count += 1
        self._last_trigger_fs = self.sim._now_fs
        # Static waiters first (deterministic registration order), then
        # dynamic.  Copy because handlers mutate the dicts.
        if self._static_waiters:
            for process in list(self._static_waiters):
                process._static_trigger(self)
        if self._dynamic_waiters:
            for handle in list(self._dynamic_waiters):
                handle.on_trigger(self)

    def __repr__(self) -> str:
        return f"Event({self.name!r})"


def events_of(module: object) -> "Dict[str, Event]":
    """Events held in attributes of ``module``, keyed by attribute name.

    The event third of the introspection API (``ports_of``/``signals_of``
    are the other two): modules do not register their events anywhere, so
    this scans the instance attributes — sufficient for the idiomatic
    ``self.done = Event(...)`` declaration style, and what the process
    dataflow analysis (:mod:`repro.analysis.dataflow`) uses to resolve
    waited/notified events to their owning module.
    """
    found: Dict[str, Event] = {}
    for attr, value in vars(module).items():
        if isinstance(value, Event):
            found[attr] = value
    return found
