"""Processes: the SC_THREAD / SC_METHOD analogues.

A *thread process* is a Python generator.  Each ``yield`` suspends the
process on a *wait specification*; the kernel resumes it when the wait is
satisfied.  Supported wait specifications:

``SimTime``
    Timeout: resume after the given duration (``yield ns(10)``).
``Event``
    Resume when the event fires.
``AnyOf([...])``
    Resume on the first of several events / a timeout.  ``yield`` returns
    the triggering event, or :data:`TIMEOUT` on timeout.
``AllOf([...])``
    Resume once every listed event has fired at least once.
``None``
    Wait on the process's static sensitivity list.

Blocking interface methods (TLM-style ``b_transport``) are themselves
generators and are invoked with ``yield from``, composing transparently
with this protocol.

A *method process* is a plain callback invoked from the evaluation phase
whenever one of its sensitivity events fires; it must not block.

Hot-path design notes: a thread suspends and resumes once per simulated
event, so this file is the kernel's inner loop.  Each :class:`ThreadProcess`
owns a single reusable :class:`WaitHandle` (re-armed on every ``yield``
instead of allocated), event registration goes through the events'
insertion-ordered waiter dicts (O(1) disarm), the fire path is inlined,
and :attr:`Process.wait_description` is computed lazily from the stored
wait spec rather than formatted on every suspend.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence, Union

from .errors import ProcessError, SchedulingError
from .event import Event
from .simtime import SimTime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .simulator import Simulator, TimedAction


class _Timeout:
    """Sentinel returned from a wait when an :class:`AnyOf` timeout fired."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "TIMEOUT"


#: Returned by ``yield AnyOf(...)`` when the timeout fired first.
TIMEOUT = _Timeout()


class AnyOf:
    """Wait for the first of several events, optionally bounded by a timeout.

    ``yield AnyOf([e1, e2], timeout=ns(100))`` resumes with the event that
    fired, or :data:`TIMEOUT` if the timeout expired first.
    """

    __slots__ = ("events", "timeout")

    def __init__(self, events: Iterable[Event], timeout: Optional[SimTime] = None) -> None:
        self.events: List[Event] = list(events)
        self.timeout = timeout
        if not self.events and timeout is None:
            raise SchedulingError("AnyOf requires at least one event or a timeout")


class AllOf:
    """Wait until every listed event has fired at least once."""

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event]) -> None:
        self.events: List[Event] = list(events)
        if not self.events:
            raise SchedulingError("AllOf requires at least one event")


WaitSpec = Union[SimTime, Event, AnyOf, AllOf, None]


class ProcessState(enum.Enum):
    """Lifecycle of a process."""

    CREATED = "created"
    READY = "ready"
    RUNNING = "running"
    WAITING = "waiting"
    TERMINATED = "terminated"


class WaitHandle:
    """The kernel-side record of a suspended thread's current wait.

    Arms itself on the referenced events (and a timeout, if any); on the
    first satisfying trigger it disarms everything and schedules the owning
    process runnable with the resume value.  Each thread process owns one
    handle for its whole lifetime, re-armed per wait.
    """

    __slots__ = ("process", "events", "pending_all", "timed_action", "active", "is_all")

    def __init__(self, process: "ThreadProcess") -> None:
        self.process = process
        self.events: List[Event] = []
        self.pending_all: List[Event] = []
        self.timed_action: Optional["TimedAction"] = None
        self.active = True
        self.is_all = False

    # -- arming ------------------------------------------------------------
    def arm_events(self, events: Sequence[Event], *, all_of: bool = False) -> None:
        self.is_all = all_of
        own = self.events
        for event in events:
            event._dynamic_waiters[self] = None
            own.append(event)
        if all_of:
            self.pending_all.extend(events)

    def arm_timeout(self, delay: SimTime) -> None:
        sim = self.process.sim
        self.timed_action = sim._schedule_timed_fs(
            sim._now_fs + delay.femtoseconds, self._on_timeout
        )

    # -- triggering ---------------------------------------------------------
    def on_trigger(self, event: Event) -> None:
        if not self.active:
            return
        if self.is_all:
            if event in self.pending_all:
                # Remove every occurrence: a duplicated event in AllOf is
                # satisfied entirely by one trigger.
                self.pending_all[:] = [e for e in self.pending_all if e is not event]
                self.events[:] = [e for e in self.events if e is not event]
                event._dynamic_waiters.pop(self, None)
            if self.pending_all:
                return
        self._fire(event)

    def _on_timeout(self) -> None:
        self.timed_action = None
        if not self.active:
            return
        self._fire(TIMEOUT)

    def _fire(self, value: object) -> None:
        # disarm() and process._schedule_resume(), inlined: this runs once
        # per thread resume and is the kernel's hottest path.
        self.active = False
        events = self.events
        if events:
            for event in events:
                event._dynamic_waiters.pop(self, None)
            events.clear()
        if self.pending_all:
            self.pending_all.clear()
        action = self.timed_action
        if action is not None:
            action.cancelled = True
            self.timed_action = None
        process = self.process
        if process.state is not _TERMINATED:
            process._resume_value = value
            process._handle = None
            process.state = _READY
            process._wait_spec = None
            process.sim._runnable.append(process)

    def disarm(self) -> None:
        """Detach from all events and cancel the timeout."""
        self.active = False
        for event in self.events:
            event._dynamic_waiters.pop(self, None)
        self.events.clear()
        if self.pending_all:
            self.pending_all.clear()
        if self.timed_action is not None:
            self.timed_action.cancel()
            self.timed_action = None


#: Sentinel for ``Process._wait_spec`` while waiting on static sensitivity.
_STATIC_WAIT = "static"

# Hot-path aliases of the enum members (module globals resolve faster than
# class-attribute lookups in the inner loop).
_CREATED = ProcessState.CREATED
_READY = ProcessState.READY
_RUNNING = ProcessState.RUNNING
_WAITING = ProcessState.WAITING
_TERMINATED = ProcessState.TERMINATED


class Process:
    """Common behaviour of thread and method processes."""

    #: ``"thread"`` or ``"method"`` on the concrete subclasses; analyses
    #: branch on this instead of isinstance checks.
    kind = "process"

    __slots__ = (
        "sim",
        "name",
        "state",
        "static_sensitivity",
        "daemon",
        "terminated_event",
        "_wait_spec",
    )

    def __init__(self, sim: "Simulator", name: str) -> None:
        self.sim = sim
        self.name = name
        self.state = ProcessState.CREATED
        self.static_sensitivity: List[Event] = []
        #: Daemon processes are expected to wait forever (server loops);
        #: the deadlock analyzer ignores them.
        self.daemon = False
        #: Fires when the process terminates (normally or via kill()).
        self.terminated_event = Event(sim, f"{name}.terminated")
        # The current wait spec (None, _STATIC_WAIT, or the yielded spec);
        # wait_description renders it on demand.
        self._wait_spec: object = None

    @property
    def terminated(self) -> bool:
        return self.state is ProcessState.TERMINATED

    @property
    def fn(self) -> Callable:
        """The Python callable this process runs (for introspection/lint)."""
        return self._fn

    @property
    def wait_description(self) -> Optional[str]:
        """Description of the current wait, for deadlock diagnosis."""
        spec = self._wait_spec
        if spec is None:
            return None
        if spec is _STATIC_WAIT:
            return "static sensitivity"
        if isinstance(spec, SimTime):
            return f"timeout {spec}"
        if isinstance(spec, Event):
            return f"event {spec.name}"
        if isinstance(spec, AnyOf):
            names = ", ".join(e.name for e in spec.events)
            return f"any of [{names}]"
        if isinstance(spec, AllOf):
            names = ", ".join(e.name for e in spec.events)
            return f"all of [{names}]"
        return repr(spec)

    def add_sensitivity(self, *events: Event) -> None:
        """Extend the static sensitivity list."""
        for event in events:
            self.static_sensitivity.append(event)
            event._add_static(self)

    def _static_trigger(self, event: Event) -> None:
        raise NotImplementedError

    def _execute(self) -> None:
        raise NotImplementedError

    def kill(self) -> None:
        """Terminate the process without running it further."""
        if self.state is ProcessState.TERMINATED:
            return
        self._terminate()

    def _terminate(self) -> None:
        self.state = ProcessState.TERMINATED
        self._wait_spec = None
        for event in self.static_sensitivity:
            event._remove_static(self)
        self.terminated_event.notify_delta()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, {self.state.value})"


class ThreadProcess(Process):
    """An SC_THREAD-style coroutine process.

    ``fn`` is a zero-argument callable returning a generator (typically a
    bound generator method of a module).  A non-generator callable is also
    accepted and runs once to completion at start.
    """

    kind = "thread"

    __slots__ = ("_fn", "_gen", "_handle", "_resume_value", "_wait_handle")

    @property
    def runs_at_start(self) -> bool:
        """Threads are always runnable in the first evaluation phase."""
        return True

    def __init__(self, sim: "Simulator", name: str, fn: Callable[[], object]) -> None:
        super().__init__(sim, name)
        self._fn = fn
        self._gen = None
        self._handle: Optional[WaitHandle] = None
        self._resume_value: object = None
        # The reusable wait handle (armed/disarmed once per yield).
        self._wait_handle = WaitHandle(self)

    def start(self) -> None:
        """Make the process runnable for the first evaluation phase."""
        if self.state is not ProcessState.CREATED:
            return
        self.state = ProcessState.READY
        self.sim._make_runnable(self)

    def _static_trigger(self, event: Event) -> None:
        # Threads use static sensitivity only while suspended on `yield None`.
        if self.state is _WAITING and self._handle is None:
            self._schedule_resume(event)

    def _schedule_resume(self, value: object) -> None:
        if self.state is _TERMINATED:
            return
        self._resume_value = value
        self._handle = None
        self.state = _READY
        self._wait_spec = None
        self.sim._runnable.append(self)

    def _execute(self) -> None:
        if self.state is _TERMINATED:
            return
        self.state = _RUNNING
        if self._gen is None:
            result = self._fn()
            if not hasattr(result, "send"):
                # Plain callable: ran to completion already.
                self._terminate()
                return
            self._gen = result
            send_value = None
        else:
            send_value = self._resume_value
            self._resume_value = None
        try:
            spec = self._gen.send(send_value)
        except StopIteration:
            self._terminate()
            return
        except Exception as exc:
            self._terminate()
            raise ProcessError(self.name, f"{type(exc).__name__}: {exc}") from exc
        self._suspend_on(spec)

    def _suspend_on(self, spec: WaitSpec) -> None:
        self.state = _WAITING
        if spec is None:
            if not self.static_sensitivity:
                raise ProcessError(
                    self.name, "yield None requires a static sensitivity list"
                )
            self._handle = None
            self._wait_spec = _STATIC_WAIT
            return
        handle = self._wait_handle
        handle.active = True
        handle.is_all = False
        if isinstance(spec, SimTime):
            handle.arm_timeout(spec)
        elif isinstance(spec, Event):
            # Single-event wait: register directly (the common case).
            handle.events.append(spec)
            spec._dynamic_waiters[handle] = None
        elif isinstance(spec, AnyOf):
            handle.arm_events(spec.events)
            if spec.timeout is not None:
                handle.arm_timeout(spec.timeout)
        elif isinstance(spec, AllOf):
            handle.arm_events(spec.events, all_of=True)
        else:
            self._terminate()
            raise ProcessError(
                self.name,
                f"invalid wait specification yielded: {spec!r} "
                "(expected SimTime, Event, AnyOf, AllOf, or None)",
            )
        self._wait_spec = spec
        self._handle = handle

    def _terminate(self) -> None:
        if self._handle is not None:
            self._handle.disarm()
            self._handle = None
        if self._gen is not None:
            self._gen.close()
            self._gen = None
        super()._terminate()


class _MethodTrigger:
    """One-shot dynamic trigger installed by ``MethodProcess.next_trigger``."""

    __slots__ = ("process", "events", "timed_action", "active")

    def __init__(self, process: "MethodProcess") -> None:
        self.process = process
        self.events: List[Event] = []
        self.timed_action: Optional["TimedAction"] = None
        self.active = True

    def arm_event(self, event: Event) -> None:
        event._add_dynamic(self)
        self.events.append(event)

    def arm_timeout(self, delay: SimTime) -> None:
        sim = self.process.sim
        self.timed_action = sim._schedule_timed_fs(
            sim._now_fs + delay.femtoseconds, self._on_timeout
        )

    def on_trigger(self, event: Event) -> None:
        if not self.active:
            return
        self._fire()

    def _on_timeout(self) -> None:
        self.timed_action = None
        if self.active:
            self._fire()

    def _fire(self) -> None:
        self.disarm()
        self.process._dynamic_fire()

    def disarm(self) -> None:
        self.active = False
        for event in self.events:
            event._remove_dynamic(self)
        self.events.clear()
        if self.timed_action is not None:
            self.timed_action.cancel()
            self.timed_action = None


class MethodProcess(Process):
    """An SC_METHOD-style callback process.

    Runs once per trigger of its static sensitivity; must not block.  With
    ``initialize=True`` (the SystemC default) it also runs once at
    simulation start.  :meth:`next_trigger` installs a one-shot dynamic
    trigger that overrides the static sensitivity for the next activation,
    exactly as in SystemC 2.0.
    """

    kind = "method"

    __slots__ = ("_fn", "_initialize", "_queued", "_dynamic", "_pending_trigger")

    @property
    def runs_at_start(self) -> bool:
        """True when the method runs once at start (``initialize=True``)."""
        return self._initialize

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        fn: Callable[[], None],
        *,
        initialize: bool = True,
    ) -> None:
        super().__init__(sim, name)
        self._fn = fn
        self._initialize = initialize
        self._queued = False
        self._dynamic: Optional[_MethodTrigger] = None
        self._pending_trigger: Optional[object] = "unset"

    def start(self) -> None:
        if self.state is not ProcessState.CREATED:
            return
        self.state = ProcessState.WAITING
        if self._initialize:
            self._enqueue()

    def next_trigger(self, spec: "WaitSpec" = None) -> None:
        """Override the sensitivity for the *next* activation (one-shot).

        ``None`` restores the static sensitivity list; an :class:`Event`
        or :class:`SimTime` makes exactly the next activation fire on that
        event/timeout.  Usually called from within the method body.
        """
        self._pending_trigger = spec

    def _static_trigger(self, event: Event) -> None:
        if self._dynamic is not None:
            return  # a dynamic trigger overrides static sensitivity
        self._enqueue()

    def _dynamic_fire(self) -> None:
        self._dynamic = None
        self._enqueue()

    def _enqueue(self) -> None:
        if self.state is _TERMINATED or self._queued:
            return
        self._queued = True
        self.sim._runnable.append(self)

    def _execute(self) -> None:
        self._queued = False
        if self.state is _TERMINATED:
            return
        self.state = _RUNNING
        self._pending_trigger = "unset"
        try:
            self._fn()
        except Exception as exc:
            self._terminate()
            raise ProcessError(self.name, f"{type(exc).__name__}: {exc}") from exc
        if self._pending_trigger != "unset":
            self._install_dynamic(self._pending_trigger)
        if self.state is ProcessState.RUNNING:
            self.state = ProcessState.WAITING

    def _install_dynamic(self, spec: "WaitSpec") -> None:
        if self._dynamic is not None:
            self._dynamic.disarm()
            self._dynamic = None
        if spec is None:
            return  # back to the static sensitivity list
        trigger = _MethodTrigger(self)
        if isinstance(spec, Event):
            trigger.arm_event(spec)
        elif isinstance(spec, SimTime):
            trigger.arm_timeout(spec)
        elif isinstance(spec, AnyOf):
            for event in spec.events:
                trigger.arm_event(event)
            if spec.timeout is not None:
                trigger.arm_timeout(spec.timeout)
        else:
            self._terminate()
            raise ProcessError(
                self.name,
                f"invalid next_trigger specification: {spec!r} "
                "(expected Event, SimTime, AnyOf, or None)",
            )
        self._dynamic = trigger

    def _terminate(self) -> None:
        if self._dynamic is not None:
            self._dynamic.disarm()
            self._dynamic = None
        super()._terminate()
