"""Elaboration-time kernel specialization (the static scheduling fast path).

At :meth:`Simulator.initialize`, once elaboration is complete and before
any process has run, the design is handed to the dataflow analysis
(:func:`repro.analysis.dataflow.build_schedule_plan`).  When the analysis
proves a signal has exactly one writer and only method-process readers
that are statically sensitive to it, the signal's class is swapped to a
fast variant whose ``write``:

* commits the value in place (no update-queue round trip, no delta
  notification, no extra delta cycle), and
* marks the dependent method processes directly into rank-indexed
  buckets, which the evaluation phase drains in topological order —
  one glitch-free pass per combinational wave.

Since PR 7 the plan also admits clocked, port-bound designs: the
control-flow layer (:mod:`repro.analysis.cfg`) proves clock-toggle
threads periodic single-instant writers, methods sensitive only to such
signals become rank-0 *sequential* methods, and nets touched exclusively
by sequential methods become *registers* (:class:`_RegisterSignal`) —
they keep the staged update-queue round trip so same-instant readers see
the old value, but skip the notification scan, counting the commit in
``stats.register_commits``.

This is the pymtl3/GT-HDL lesson applied to this kernel: pay for analysis
once at elaboration instead of running dynamic checks on every call.

The contract is **wholesale per design, never per signal** for
constructs that poison the analysis itself: an aliased write, a
free-function process, a dynamic ``spawn``, an armed
``write_hook``/``fault_hook``, ``--confirm`` instrumentation all reject
the whole design, which then runs on the generic scheduler unchanged.
Failed *admission proofs* are gentler: a multi-writer net, an unproven
or CFG-unresolved writer, a degenerate clock or a pulse writer only
leaves that signal on the generic protocol, with the reason recorded in
``plan.exclusions``.  Runtime events the plan could not
foresee — a process spawned mid-run, a hook armed after initialize, a
trace callback attached — revert the live simulation the same way via
:func:`revert`, flushing any pending static marks into the ordinary
runnable queue so the current instant completes with generic semantics.

Observable equivalence: the two paths produce byte-identical traces
(per-instant trace hooks, VCD, golden stats) and equal
``timed_activations``; ``delta_cycles``/``signal_updates``/
``process_executions`` may shrink on the fast path, and every skipped
commit round trip is reported in ``stats.specialized_commits`` (or
``stats.register_commits`` for the scan-skipping register commits)
rather than silently folded in.  ``Simulator(specialize=False)`` forces the
generic path unconditionally.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, List

from .event import Event
from .process import (
    _READY,
    _RUNNING,
    _TERMINATED,
    _WAITING,
    TIMEOUT,
    AnyOf,
    ProcessError,
    ThreadProcess,
)
from .signal import Signal
from .simtime import SimTime
from .simulator import TimedAction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .simulator import Simulator


class _SilentSignal(Signal):
    """Fast variant for a proven single-writer signal nothing observes.

    ``__slots__ = ()`` keeps the memory layout identical to
    :class:`Signal`, so instances are specialized (and reverted) by plain
    class swap.
    """

    __slots__ = ()

    def write(self, value):
        if self.write_hook is not None:
            # Armed after initialize: the contract is wholesale fallback.
            self.sim._despecialize(f"write hook armed on {self.name} after initialize")
            Signal.write(self, value)
            return
        current = self._current
        self._next = value
        if value is current or value == current:
            return  # equal-value write absorbed, as on the generic path
        self._current = value
        self.sim.stats.specialized_commits += 1


class _ChainedSignal(Signal):
    """Fast variant for a single-writer signal driving chained methods.

    A committing write marks the dependent method processes (from the
    ``_dependents`` table installed by :func:`apply_plan`) straight into
    the simulator's rank buckets; the evaluation phase's forward sweep
    then runs the whole combinational wave in this same phase.
    """

    __slots__ = ()

    def write(self, value):
        if self.write_hook is not None:
            self.sim._despecialize(f"write hook armed on {self.name} after initialize")
            Signal.write(self, value)
            return
        current = self._current
        self._next = value
        if value is current or value == current:
            return
        self._current = value
        sim = self.sim
        sim.stats.specialized_commits += 1
        vc_deps, pos_deps, neg_deps = self._dependents
        buckets = sim._pending_buckets
        marked = 0
        for proc in vc_deps:
            if not proc._queued:
                proc._queued = True
                buckets[proc._rank].append(proc)
                marked += 1
        # Same edge semantics (and the same elif) as Signal._update.
        if not current and value:
            for proc in pos_deps:
                if not proc._queued:
                    proc._queued = True
                    buckets[proc._rank].append(proc)
                    marked += 1
        elif current and not value:
            for proc in neg_deps:
                if not proc._queued:
                    proc._queued = True
                    buckets[proc._rank].append(proc)
                    marked += 1
        if marked:
            sim._pending_count += marked


class _RegisterSignal(Signal):
    """Fast variant for a register-style signal between clocked methods.

    Unlike the silent/chained variants the write stays *staged*: readers
    in the same instant must keep seeing the old value (that is what makes
    it a register), so the update-queue round trip is preserved verbatim.
    What the plan proved unnecessary is the notification side — no process
    is sensitive to the signal, nothing waits on or notifies its events,
    nothing traces it — so ``_update`` commits the value and skips the
    event scan entirely.  Skipped scans are counted in
    ``stats.register_commits``.
    """

    __slots__ = ()

    def write(self, value):
        if self.write_hook is not None:
            self.sim._despecialize(f"write hook armed on {self.name} after initialize")
            Signal.write(self, value)
            return
        self._next = value
        if not self._update_requested:
            self.sim._enqueue_update(self)

    def _update(self):
        # Same identity-before-equality absorb as Signal._update.
        old = self._current
        new = self._next
        if new is old or new == old:
            return
        self._current = new
        self.sim.stats.register_commits += 1


class _CompiledThread(ThreadProcess):
    """Fast variant for a thread the rendezvous admission pass proved.

    ``__slots__ = ()`` keeps the layout identical to
    :class:`ThreadProcess`, so admission and revert are plain class swaps.

    The compiled runtime drives the thread's wait-state machine without
    the generic ``WaitHandle`` protocol:

    * a timed wait reuses one pooled :class:`TimedAction` per thread —
      no per-wait allocation, no ``arm_timeout``/``_on_timeout``
      indirection — pushed with exactly the sequence number the generic
      path would have drawn;
    * a single-event wait arms the event's direct-dispatch slot
      (``Event._direct``) when no dynamic waiter precedes it, so the
      notifying site resumes the thread straight from ``_trigger`` with
      no waiter-dict traffic;
    * an ``AnyOf`` composite (with or without timeout) arms the generic
      ``WaitHandle`` exactly as :meth:`ThreadProcess._suspend_on` would —
      byte-identical arming, skipping only the dispatch — so
      ``Clock``-style pause/timeout threads stay admissible instead of
      forcing a per-wait fallback.

    Order preservation is the correctness argument: both fast waits make
    the thread runnable at the same queue positions (same heap ordering,
    same resume point between the static and dynamic scans) the generic
    protocol would have used, so observable traces are byte-identical by
    construction.  Anything the runtime does not recognise — an ``AllOf``
    composite, an event that already has dynamic waiters, a
    static wait — falls back to :meth:`ThreadProcess._suspend_on` for
    that wait only; the admission proof
    (:func:`repro.analysis.cfg.thread_rendezvous_profile`) exists to keep
    such fallbacks rare and the exclusions diagnosable.  Fast waits are
    counted in ``stats.compiled_thread_waits``.
    """

    __slots__ = ()

    compiled = True

    def _execute(self) -> None:
        if self.state is _TERMINATED:
            return
        self.state = _RUNNING
        gen = self._gen
        if gen is None:
            gen = self._fn()
            if not hasattr(gen, "send"):
                # Plain callable: ran to completion already.
                self._terminate()
                return
            self._gen = gen
            send_value = None
        else:
            send_value = self._resume_value
            self._resume_value = None
        try:
            spec = gen.send(send_value)
        except StopIteration:
            self._terminate()
            return
        except Exception as exc:
            self._terminate()
            raise ProcessError(self.name, f"{type(exc).__name__}: {exc}") from exc
        cls = spec.__class__
        if cls is SimTime:
            delay_fs = spec._fs
            if delay_fs >= 0:
                sim = self.sim
                sim.stats.compiled_thread_waits += 1
                self.state = _WAITING
                self._wait_spec = spec
                handle = self._wait_handle
                action = handle.timed_action
                sim._seq += 1
                if action is None:
                    action = TimedAction(
                        sim._now_fs + delay_fs, sim._seq, self._fast_timed_resume
                    )
                    handle.timed_action = action
                else:
                    # Pool invariant: the action left the heap when it fired
                    # (a compiled timed wait only ends that way), so it can
                    # be re-armed in place.
                    action.time_fs = sim._now_fs + delay_fs
                    action.seq = sim._seq
                    action.cancelled = False
                heappush(sim._timed_heap, action)
                self._handle = action
                return
            # Negative delay: the generic path raises the proper error.
        elif cls is Event:
            if spec._direct is None and not spec._dynamic_waiters:
                self.sim.stats.compiled_thread_waits += 1
                self.state = _WAITING
                self._wait_spec = spec
                self._handle = spec
                spec._direct = self
                return
            # A dynamic waiter registered first: the direct slot would
            # jump the queue, so take the generic protocol for this wait.
        elif cls is AnyOf:
            self.sim.stats.compiled_thread_waits += 1
            self.state = _WAITING
            handle = self._wait_handle
            handle.active = True
            handle.is_all = False
            # arm_events registers at the back of each event's dynamic
            # waiters and arm_timeout replaces the pooled fast-timed
            # action (which is always off-heap here: a fast timed wait
            # only ends by firing) — both identical to _suspend_on's
            # arming, so wake-up order is untouched.
            handle.arm_events(spec.events)
            if spec.timeout is not None:
                handle.arm_timeout(spec.timeout)
            self._wait_spec = spec
            self._handle = handle
            return
        self._suspend_on(spec)

    def _fast_timed_resume(self) -> None:
        if self.state is not _WAITING:
            return
        self._handle = None
        self._resume_value = TIMEOUT
        self.state = _READY
        self._wait_spec = None
        self.sim._runnable.append(self)

    def _direct_resume(self, event: Event) -> None:
        if self.state is not _WAITING or self._handle is not event:
            return
        self._handle = None
        self._resume_value = event
        self.state = _READY
        self._wait_spec = None
        self.sim._runnable.append(self)

    def _terminate(self) -> None:
        handle = self._handle
        if handle is not None:
            hcls = handle.__class__
            if hcls is TimedAction:
                handle.cancelled = True
                self._handle = None
            elif hcls is Event:
                if handle._direct is self:
                    handle._direct = None
                self._handle = None
            # else: a generic WaitHandle (per-wait fallback) —
            # ThreadProcess._terminate disarms it as usual.
        ThreadProcess._terminate(self)


def _live_fallback_reasons(sim: "Simulator") -> List[str]:
    """Cheap pre-analysis checks on the live design (hooks, hierarchy).

    These catch the instrumentation cases — fault-injection hooks,
    ``--confirm`` write hooks — without paying for any AST work, and stop
    at the first finding.
    """
    reasons: List[str] = []
    if not sim._top_modules:
        reasons.append("no module hierarchy (spawn-only design)")
        return reasons
    for top in sim._top_modules:
        for module in (top, *top.descendants()):
            if getattr(module, "fault_hook", None) is not None:
                reasons.append(f"fault hook armed on {module.full_name}")
                return reasons
            for value in vars(module).values():
                if getattr(value, "fault_hook", None) is not None:
                    reasons.append(f"fault hook armed inside {module.full_name}")
                    return reasons
                if isinstance(value, Signal) and value.write_hook is not None:
                    reasons.append(f"write hook armed on {value.name}")
                    return reasons
    return reasons


def try_specialize(sim: "Simulator") -> bool:
    """Attempt to specialize ``sim``; returns True when the fast path is on.

    On rejection the reasons are recorded in
    ``sim.specialize_fallback_reasons`` and the simulator is left exactly
    as the generic scheduler expects it.
    """
    reasons = sim.specialize_fallback_reasons
    live = _live_fallback_reasons(sim)
    if live:
        reasons.extend(live)
        return False
    try:
        from ..analysis.dataflow import build_schedule_plan
    except ImportError:  # kernel used standalone, no analysis layer
        reasons.append("analysis layer unavailable")
        return False
    plan = build_schedule_plan(sim)
    sim.schedule_plan = plan
    # Rendezvous admission runs independently of the signal plan: a
    # wholesale signal-side bail (blocking transport is exactly the case)
    # must not reject the threads, and vice versa.
    _admit_threads(sim, plan)
    if plan.specializable:
        apply_plan(sim, plan)
    if plan.compiled_threads:
        apply_compiled_threads(sim, plan)
    if sim._specialized:
        return True
    reasons.extend(plan.fallback_reasons)
    return False


def _admit_threads(sim: "Simulator", plan) -> None:
    """Rendezvous admission pass: prove threads for the compiled runtime.

    Every registered plain :class:`ThreadProcess` is offered to
    :func:`repro.analysis.cfg.thread_rendezvous_profile`; proven threads
    land in ``plan.compiled_threads``, rejected ones get a per-thread
    reason in ``plan.thread_exclusions`` (mirroring the per-signal
    ``exclusions`` — never a wholesale bail).
    """
    try:
        from ..analysis.cfg import thread_rendezvous_profile
    except ImportError:  # kernel used standalone, no analysis layer
        return
    for process in sim._processes:
        if process.kind != "thread" or type(process) is not ThreadProcess:
            continue
        profile = thread_rendezvous_profile(process)
        if profile.admissible:
            plan.compiled_threads.append(process)
        else:
            plan.thread_exclusions.append(f"thread {process.name}: {profile.reason}")


def apply_plan(sim: "Simulator", plan) -> None:
    """Install a :class:`SchedulePlan`: swap signal classes, set ranks."""
    for process, rank in plan.method_ranks:
        process._rank = rank
    sim._pending_buckets = [[] for _ in range(max(plan.rank_count, 1))]
    sim._pending_count = 0
    fast = sim._fast_signals
    for sig in plan.silent_signals:
        sig.__class__ = _SilentSignal
        fast.append(sig)
    for sig, deps in plan.chained_signals:
        sig._dependents = deps
        sig.__class__ = _ChainedSignal
        fast.append(sig)
    for sig in plan.register_signals:
        sig.__class__ = _RegisterSignal
        fast.append(sig)
    sim._specialized = True


def apply_compiled_threads(sim: "Simulator", plan) -> None:
    """Swap the admitted threads to the compiled runtime (class swap)."""
    tracked = sim._compiled_threads
    for thread in plan.compiled_threads:
        thread.__class__ = _CompiledThread
        tracked.append(thread)
    sim._specialized = True


def revert(sim: "Simulator", reason: str) -> None:
    """Return a specialized simulator to the generic scheduler, mid-run safe.

    Fast signal classes are swapped back and any pending static-schedule
    marks are flushed into the runnable queue in rank order (keeping their
    ``_queued`` flag, which ``_execute`` clears as usual), so the current
    instant completes with generic semantics and no activation is lost.
    """
    if not sim._specialized:
        return
    sim._specialized = False
    for sig in sim._fast_signals:
        sig.__class__ = Signal
        sig._dependents = None
    sim._fast_signals = []
    for thread in sim._compiled_threads:
        _revert_thread(thread)
    sim._compiled_threads = []
    for bucket in sim._pending_buckets:
        if bucket:
            for proc in bucket:
                if proc._queued:
                    sim._runnable.append(proc)
            bucket.clear()
    sim._pending_count = 0
    sim._pending_buckets = []
    sim.specialize_fallback_reasons.append(reason)


def _revert_thread(thread) -> None:
    """Return a compiled thread to the generic protocol, mid-wait safe.

    An in-flight fast wait is rewritten into the exact generic wait it
    mirrors, losslessly: the pooled heap entry keeps its ``(time, seq)``
    slot but is re-routed through the ``WaitHandle`` timeout path, and a
    direct event slot is re-registered at the *front* of the event's
    dynamic waiters — preserving the wake-up order the slot represented.
    """
    handle = thread._handle
    thread.__class__ = ThreadProcess
    if handle is None:
        return
    hcls = handle.__class__
    wh = thread._wait_handle
    if hcls is TimedAction:
        handle.callback = wh._on_timeout
        wh.timed_action = handle
        wh.active = True
        wh.is_all = False
        thread._handle = wh
    elif hcls is Event:
        if handle._direct is thread:
            handle._direct = None
        wh.timed_action = None  # drop the (popped) pooled action, if any
        wh.active = True
        wh.is_all = False
        wh.events.append(handle)
        rebuilt = {wh: None}
        rebuilt.update(handle._dynamic_waiters)
        handle._dynamic_waiters = rebuilt
        thread._handle = wh
    # else: a generic WaitHandle from a per-wait fallback — already the
    # generic protocol, nothing to rewrite.
