"""The discrete-event scheduler.

Implements the SystemC 2.0 scheduling algorithm:

1. *Evaluation phase*: run every runnable process.  Immediate notifications
   make further processes runnable within the same phase.
2. *Update phase*: apply pending primitive-channel updates (e.g. committed
   signal writes), which may post delta notifications.
3. *Delta notification phase*: fire pending delta notifications; if any
   process became runnable, start a new delta cycle at the same time.
4. *Timed notification phase*: otherwise advance simulated time to the
   earliest pending timed action and fire everything scheduled there.

The scheduler is fully deterministic: runnable processes execute in FIFO
order of becoming runnable, timed actions in (time, insertion sequence)
order, and update/delta queues in insertion order.

Hot-path design notes: every per-event cost here is O(1).  Update-queue
dedup uses the channels' ``_update_requested`` flag (the update-request
protocol) instead of a membership scan; cancelled delta notifications
leave stale queue entries that the events skip on pop (see
:mod:`repro.kernel.event`); and the current time is kept both as an
integer femtosecond count (for arithmetic) and as a cached
:class:`SimTime` (for observation) so the inner loop never re-wraps it.

``trace_hooks`` fire once per *finished instant* — after the last delta
cycle at a timestamp has settled and before time advances — so delta-only
activity (e.g. everything happening at t=0) is traced too.  Activity a
hook itself injects runs at the same instant but does not re-fire the
hooks: "once per finished instant" is a hard guarantee, and the injected
effects are visible when the hooks fire at the next instant.

A thread that is alone on the timeline may also wait without leaving
its generator: :meth:`Simulator.alone_horizon` says how far it may go,
and :meth:`Simulator.book_alone` advances time in place and books the
round trips it skipped, so nothing observable changes.  The bus uses them
to book whole bursts of an uncontended burst train at once (see
docs/KERNEL.md, "Closed-form burst trains").
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from .errors import DeadlockError, ElaborationError, SchedulingError
from .event import Event
from .process import Process, ProcessState, ThreadProcess
from .simtime import SimTime, ZERO_TIME


class TimedAction:
    """A cancellable callback scheduled at an absolute simulation time."""

    __slots__ = ("time_fs", "seq", "callback", "cancelled")

    def __init__(self, time_fs: int, seq: int, callback: Callable[[], None]) -> None:
        self.time_fs = time_fs
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing (the heap entry is skipped)."""
        self.cancelled = True

    def __lt__(self, other: "TimedAction") -> bool:
        return (self.time_fs, self.seq) < (other.time_fs, other.seq)


class _RunState:
    """What in-place waits must respect in the current run: its end and the
    watchdog's deadline (read by :meth:`Simulator.alone_horizon`), and
    ``delta_cycles`` at the last :meth:`Simulator.book_alone`, where the
    per-instant delta guard restarts.

    One attribute on the simulator, not three: CPython 3.11 stops sharing
    an instance's attribute keys past 29 attributes, and the slower dict
    it falls back to taxes every attribute read of the scheduler loop.
    """

    __slots__ = ("until_fs", "wall_deadline", "advanced_at_delta")

    def __init__(self, until_fs: Optional[int], wall_deadline: Optional[float], delta: int) -> None:
        self.until_fs = until_fs
        self.wall_deadline = wall_deadline
        self.advanced_at_delta = delta


class SimulatorStats:
    """Bookkeeping counters exposed by :attr:`Simulator.stats`."""

    __slots__ = (
        "process_executions",
        "delta_cycles",
        "timed_activations",
        "signal_updates",
        "in_place_advances",
    )

    # Read-only compatibility names, with Simulator.specialize_fallback_reasons:
    # their only reader is perfbench/layers.py, and ROADMAP item 2(d)
    # deletes them with the ``specialize.*`` per-layer metrics.
    specialized_commits = 0
    compiled_thread_waits = 0

    def __init__(self) -> None:
        self.process_executions = 0
        self.delta_cycles = 0
        self.timed_activations = 0
        self.signal_updates = 0
        #: Timed waits that closed-form burst trains booked in place instead
        #: of yielding (:meth:`Simulator.book_alone`); each is also counted
        #: in ``timed_activations`` and ``process_executions``, as the
        #: kernel round trip would have been.
        self.in_place_advances = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dictionary (for reports)."""
        return {
            "process_executions": self.process_executions,
            "delta_cycles": self.delta_cycles,
            "timed_activations": self.timed_activations,
            "signal_updates": self.signal_updates,
            "in_place_advances": self.in_place_advances,
        }


class Simulator:
    """Owns the event queues, the module hierarchy, and the clock of record.

    Typical use::

        sim = Simulator()
        top = MySoc("top", sim=sim)
        sim.run(until=us(100))
    """

    # A compatibility name: see SimulatorStats.
    specialize_fallback_reasons = ("generic scheduler (the only scheduler)",)

    def __init__(self, name: str = "sim") -> None:
        self.name = name
        self._now_fs = 0
        self._now_obj = ZERO_TIME  # cached SimTime mirror of _now_fs
        self._running = False
        self._started = False
        self._stop_requested = False
        self._seq = 0
        self._runnable: deque = deque()
        self._timed_heap: List[TimedAction] = []
        self._delta_events: List[Event] = []
        self._update_queue: List[object] = []
        self._processes: List[Process] = []
        self._top_modules: List[object] = []
        self._end_of_elaboration_hooks: List[Callable[[], None]] = []
        self.stats = SimulatorStats()
        self._run_state = _RunState(None, None, 0)
        #: Called with the current time once per finished instant (after the
        #: last delta cycle at that timestamp, before time advances).
        self.trace_hooks: List[Callable[[SimTime], None]] = []
        #: True when the last run was stopped by the wall-clock watchdog.
        self.watchdog_fired = False
        #: Post-mortem attached by the watchdog (an
        #: :class:`~repro.analysis.deadlock.DeadlockReport` when the
        #: analysis layer is importable, else None).
        self.watchdog_report = None
        #: The process being executed by the evaluation phase right now
        #: (None between processes and outside run()).  Lets channel hooks
        #: — e.g. :attr:`Signal.write_hook` — attribute an action to the
        #: process that performed it.
        self.current_process: Optional[Process] = None

    # -- time --------------------------------------------------------------
    @property
    def now(self) -> SimTime:
        """Current simulated time.

        Lazily cached: the scheduler advances the integer ``_now_fs`` only,
        and the :class:`SimTime` wrapper is built at most once per instant,
        on first observation.
        """
        now = self._now_obj
        if now._fs != self._now_fs:
            now = self._now_obj = SimTime.from_fs(self._now_fs)
        return now

    @property
    def delta_count(self) -> int:
        """Total delta cycles executed so far."""
        return self.stats.delta_cycles

    # -- construction -------------------------------------------------------
    def event(self, name: str = "event") -> Event:
        """Create a kernel event owned by this simulator."""
        return Event(self, name)

    def register_top(self, module: object) -> None:
        """Record a top-level module (called by :class:`Module`)."""
        self._top_modules.append(module)

    def register_process(self, process: Process) -> None:
        self._processes.append(process)
        if self._started:
            process.start()

    def spawn(self, name: str, fn: Callable[[], object], daemon: bool = False) -> ThreadProcess:
        """Create (and, if the simulation has started, start) a thread process."""
        process = ThreadProcess(self, name, fn)
        process.daemon = daemon
        self.register_process(process)
        return process

    def add_end_of_elaboration_hook(self, hook: Callable[[], None]) -> None:
        """Register a callable run once, just before the first evaluation."""
        if self._started:
            raise ElaborationError("simulation already started")
        self._end_of_elaboration_hooks.append(hook)

    # -- kernel-internal scheduling hooks -------------------------------------
    def _make_runnable(self, process: Process) -> None:
        self._runnable.append(process)

    def _schedule_timed_fs(self, time_fs: int, callback: Callable[[], None]) -> TimedAction:
        if time_fs < self._now_fs:
            raise SchedulingError("cannot schedule in the past")
        self._seq += 1
        action = TimedAction(time_fs, self._seq, callback)
        heapq.heappush(self._timed_heap, action)
        return action

    def schedule(self, delay: SimTime, callback: Callable[[], None]) -> TimedAction:
        """Schedule ``callback`` to run ``delay`` from now (kernel context)."""
        return self._schedule_timed_fs(self._now_fs + delay.femtoseconds, callback)

    def _enqueue_update(self, channel: object) -> None:
        """Set a channel's update-request flag and queue it (no dedup check).

        The single writer of the flag protocol: callers —
        :meth:`request_update` and flag-carrying channels such as
        :class:`~repro.kernel.Signal` — test ``_update_requested`` first
        and delegate here, so the set-flag-and-append step exists exactly
        once.
        """
        channel._update_requested = True  # type: ignore[attr-defined]
        self._update_queue.append(channel)

    def request_update(self, channel: object) -> None:
        """Queue a primitive channel for the next update phase (idempotent).

        ``channel`` must expose an ``_update()`` method.  Channels
        implementing the update-request protocol carry an
        ``_update_requested`` flag, making the dedup O(1); the flag is set
        here (or by the channel itself) and cleared by the update phase
        just before ``_update()`` runs.  Flagless objects (e.g. with
        ``__slots__``) fall back to a queue membership scan — by identity,
        not ``__eq__``: two distinct channels that happen to compare equal
        must still both be updated.
        """
        flag = getattr(channel, "_update_requested", None)
        if flag:
            return
        if flag is None:
            try:
                self._enqueue_update(channel)
            except AttributeError:
                if any(queued is channel for queued in self._update_queue):
                    return
                self._update_queue.append(channel)
        else:
            self._enqueue_update(channel)

    # -- running --------------------------------------------------------------
    def initialize(self) -> None:
        """Run end-of-elaboration hooks and make all processes runnable."""
        if self._started:
            return
        self._started = True
        for hook in self._end_of_elaboration_hooks:
            hook()
        for process in self._processes:
            process.start()

    def stop(self) -> None:
        """Request the scheduler to stop after the current process returns."""
        self._stop_requested = True

    def run(
        self,
        until: Optional[SimTime] = None,
        *,
        max_deltas_per_instant: int = 100_000,
        error_on_deadlock: bool = False,
        max_wall_s: Optional[float] = None,
    ) -> SimTime:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once simulated time would exceed this duration (measured
            from time zero, like ``sc_start``).  ``None`` runs to event
            starvation.  A time earlier than :attr:`now` raises
            :class:`SchedulingError`: simulated time never runs backwards.
        max_deltas_per_instant:
            Guard against non-advancing delta loops (combinational cycles).
        error_on_deadlock:
            If true and the run ends by starvation while thread processes
            are still blocked, raise :class:`DeadlockError`.
        max_wall_s:
            Wall-clock watchdog: stop the run (instead of hanging forever)
            once this many real seconds have elapsed, setting
            :attr:`watchdog_fired` and attaching a post-mortem to
            :attr:`watchdog_report`.  Livelocks the simulated-time bound
            cannot catch — unbounded polling loops, runaway traffic
            generators — terminate cleanly this way.  ``None`` (the
            default) disables the check entirely.

        Returns the simulation time at which the run stopped.
        """
        if self._running:
            raise SchedulingError("run() is not reentrant")
        if until is not None and until._fs < self._now_fs:
            raise SchedulingError(
                f"run(until={until}) is earlier than the current time {self.now}"
            )
        self.initialize()
        self._running = True
        self._stop_requested = False
        self.watchdog_fired = False
        wall_deadline = (
            time.monotonic() + max_wall_s if max_wall_s is not None else None
        )
        until_fs = until.femtoseconds if until is not None else None
        stats = self.stats
        self._run_state = run_state = _RunState(until_fs, wall_deadline, stats.delta_cycles)
        deltas_this_instant = 0
        instant_active = False  # anything happened at the current instant?
        # ``timed_activations`` when the trace hooks last fired: every new
        # instant (a timed pop or an in-place advance) counts one, so hooks
        # fire at most once per instant.
        hooks_fired_at = -1
        runnable = self._runnable
        timed_heap = self._timed_heap
        heappush, heappop = heapq.heappush, heapq.heappop
        try:
            while not self._stop_requested:
                # Evaluation phase.
                executed = False
                while runnable:
                    process = runnable.popleft()
                    executed = True
                    stats.process_executions += 1
                    self.current_process = process
                    process._execute()
                    if (
                        wall_deadline is not None
                        and (stats.process_executions & 0xFF) == 0
                        and time.monotonic() >= wall_deadline
                    ):
                        self._trip_watchdog(max_wall_s)
                    if self._stop_requested:
                        break
                if self._stop_requested:
                    break
                if executed:
                    instant_active = True
                # Update phase.
                if self._update_queue:
                    instant_active = True
                    updates, self._update_queue = self._update_queue, []
                    for channel in updates:
                        stats.signal_updates += 1
                        try:
                            channel._update_requested = False  # type: ignore[attr-defined]
                        except AttributeError:
                            pass  # flagless channel (scan-deduped)
                        channel._update()  # type: ignore[attr-defined]
                # Delta notification phase.
                if self._delta_events:
                    instant_active = True
                    events, self._delta_events = self._delta_events, []
                    for event in events:
                        event._delta_fire()
                if runnable:
                    stats.delta_cycles += 1
                    deltas_this_instant += 1
                    if (
                        deltas_this_instant > max_deltas_per_instant
                        # An in-place advance began a new instant since.
                        and stats.delta_cycles - run_state.advanced_at_delta
                        > max_deltas_per_instant
                    ):
                        raise SchedulingError(
                            f"more than {max_deltas_per_instant} delta cycles at "
                            f"time {self.now}; combinational loop?"
                        )
                    continue
                if self._update_queue or self._delta_events:
                    # Updates/deltas may still be pending even without
                    # runnable processes; loop again before advancing time.
                    continue
                # The instant has settled: trace it, then advance time.
                if instant_active:
                    instant_active = False
                    if self.trace_hooks and hooks_fired_at != stats.timed_activations:
                        # Once per finished instant: activity a hook injects
                        # re-settles at this instant but is NOT re-traced
                        # (its effects are visible at the next firing).
                        hooks_fired_at = stats.timed_activations
                        now_obj = self.now
                        for hook in self.trace_hooks:
                            hook(now_obj)
                        if runnable or self._update_queue or self._delta_events:
                            continue  # a hook injected activity at this instant
                # Timed notification phase.
                deltas_this_instant = 0
                if (
                    wall_deadline is not None
                    and (stats.timed_activations & 0xFF) == 0
                    and time.monotonic() >= wall_deadline
                ):
                    self._trip_watchdog(max_wall_s)
                    break
                next_action = self._pop_next_timed()
                if next_action is None:
                    break  # starvation
                if until_fs is not None and next_action.time_fs > until_fs:
                    heappush(timed_heap, next_action)
                    self._now_fs = until_fs
                    break
                self._now_fs = now_fs = next_action.time_fs
                stats.timed_activations += 1
                instant_active = True
                next_action.callback()
                # Fire everything else scheduled at the same instant.
                while timed_heap and timed_heap[0].time_fs == now_fs:
                    action = heappop(timed_heap)
                    if action.cancelled:
                        continue
                    stats.timed_activations += 1
                    action.callback()
        finally:
            self._running = False
            self.current_process = None
        if error_on_deadlock and not self._stop_requested:
            blocked = self.blocked_processes()
            if blocked:
                names = ", ".join(p.name for p in blocked)
                raise DeadlockError(
                    f"simulation starved at {self.now} with blocked processes: {names}"
                )
        return self.now

    # -- in-place advance (burst trains) ------------------------------------------
    def alone_horizon(self) -> Optional[Tuple[Optional[int], Optional[int]]]:
        """How far the running process may wait in place: ``None`` or
        ``(last_wake_fs, max_waits)``.

        ``None`` unless the running process is a thread and nothing else
        could run or observe the kernel before its next wake: nothing is
        runnable, no update or delta notification is pending, no trace hook
        is attached and no stop is requested.  Otherwise
        ``last_wake_fs`` is the latest wake of an in-place wait, strictly
        before the next live timed action and no later than the run's
        ``until``, and ``max_waits`` is how many waits in a row may advance
        in place before the watchdog (``run(max_wall_s=...)``) is due for a
        check (0 when a check is due now).  Either is ``None`` when it is
        unbounded.  Cancelled timed actions at the front of the queue are
        discarded on the way, as the timed phase would discard them.
        """
        process = self.current_process
        if (
            process is None
            or process.kind != "thread"
            or process.state is not ProcessState.RUNNING
            or self._runnable
            or self._update_queue
            or self._delta_events
            or self.trace_hooks
            or self._stop_requested
        ):
            return None
        heap = self._timed_heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
        run_state = self._run_state
        last_wake_fs = run_state.until_fs
        if heap and (last_wake_fs is None or heap[0].time_fs <= last_wake_fs):
            last_wake_fs = heap[0].time_fs - 1
        max_waits = None
        if run_state.wall_deadline is not None:
            # Each wait adds one to both counters, and the round trip checks
            # the wall clock whenever either is a multiple of 256 (after the
            # execution, before the timed pop): such a wait is the kernel's.
            executions = self.stats.process_executions & 0xFF
            activations = self.stats.timed_activations & 0xFF
            max_waits = 0
            if executions and activations:
                max_waits = min(256 - executions, 256 - activations)
        return last_wake_fs, max_waits

    def book_alone(self, n: int, wake_fs: int) -> None:
        """Book ``n`` timed waits of the running thread done in place, the
        last one waking at ``wake_fs``, and move time there.

        The books record what ``n`` kernel round trips would have: ``n``
        sequence numbers, ``n`` timed activations (each also opens a new
        instant for the trace hooks), ``n`` process executions, and a
        restart of the per-instant delta guard.  The caller has checked
        that every wake lies within :meth:`alone_horizon` and that ``n``
        is within its ``max_waits``.
        """
        stats = self.stats
        self._seq += n
        stats.timed_activations += n
        stats.process_executions += n
        stats.in_place_advances += n
        self._now_fs = wake_fs
        self._run_state.advanced_at_delta = stats.delta_cycles

    def _trip_watchdog(self, max_wall_s: float) -> None:
        """Stop the run: the wall-clock budget is exhausted.

        Attaches a post-mortem (:func:`repro.analysis.deadlock.watchdog_report`)
        when the analysis layer is importable; the kernel itself stays
        dependency-free, so the import is lazy and failure-tolerant.
        """
        self.watchdog_fired = True
        self._stop_requested = True
        try:
            from ..analysis.deadlock import watchdog_report
        except ImportError:  # kernel used standalone, no analysis layer
            self.watchdog_report = None
        else:
            self.watchdog_report = watchdog_report(self, max_wall_s)

    def _pop_next_timed(self) -> Optional[TimedAction]:
        timed_heap = self._timed_heap
        while timed_heap:
            action = heapq.heappop(timed_heap)
            if not action.cancelled:
                return action
        return None

    # -- diagnosis ---------------------------------------------------------------
    def blocked_processes(self) -> List[Process]:
        """Thread processes currently suspended on a wait.

        After a run ends by starvation, any entry here whose wait is not a
        timeout indicates a process that can never resume — the raw material
        for deadlock analysis (:mod:`repro.analysis.deadlock`).
        """
        return [
            p
            for p in self._processes
            if isinstance(p, ThreadProcess) and p.state is ProcessState.WAITING
        ]

    def pending_timed_count(self) -> int:
        """Number of not-yet-cancelled timed actions still queued."""
        return sum(1 for a in self._timed_heap if not a.cancelled)

    def __repr__(self) -> str:
        return f"Simulator({self.name!r}, now={self.now})"
