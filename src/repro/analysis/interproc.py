"""Interprocedural wait-effect analysis.

The control-flow layer (:mod:`repro.analysis.cfg`) analyzes one function at
a time: a thread body's wait-state machine classifies each ``yield`` site,
but a *blocking call* (``yield from self.chan.put(x)``) is a single opaque
``external`` state — what the callee can suspend on, which events it
notifies, which locks it releases, all happen in a foreign frame.

This module bridges that gap with per-callee **wait-effect summaries** —
the transitive closure of wait kinds a method can suspend on, the events
it waits on and notifies (as resolvable ``self.*`` paths), and the
channels/locks it acquires and releases — memoized per ``(code object,
owner class)`` with conservative ``unresolved`` degradation for
recursion, foreign ``yield from`` of non-analyzable generators, and
dynamic dispatch.  Its consumer is the REP6xx ``interproc`` lint layer
(:mod:`repro.analysis.lint`): :func:`lock_order_trace`,
:func:`acquire_sites` and :func:`release_closure` feed the static
wait-for/lock-order analysis that flags the paper's Section 5.4
config-bus deadlock *before* simulation.

Everything follows the conservative contract of the other analysis
layers: never raise; unsupported constructs degrade to ``unresolved``
with a reason, which consumers read as "anything could happen".
"""

from __future__ import annotations

import ast
import types
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .cfg import (
    Path,
    _fn_ast,
    _self_path,
    analyze_function,
    analyze_process,
    reachable_wait_states,
)
from .dataflow import _UNRESOLVED, _resolve_path

#: Method names whose call *notifies* an event on the receiver path.
_NOTIFY_METHODS = frozenset({"notify", "notify_delta"})

#: Method names whose call *releases* a channel/lock on the receiver path.
_RELEASE_METHODS = frozenset({"unlock", "post", "release"})

#: Blocking acquire methods and the releasing counterpart that must exist
#: somewhere in the design for the acquire to ever complete unaided.
ACQUIRE_COUNTERPARTS = {
    ("Mutex", "lock"): "unlock",
    ("Semaphore", "wait"): "post",
}


# --------------------------------------------------------------------------
# Per-function wait-effect summaries
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WaitEffectSummary:
    """Everything one function can do to the wait/notify state of a design.

    Paths are ``self``-rooted *in the callee's frame* — consumers resolve
    them on the live target object.  ``unresolved`` means some construct
    escaped the static analysis (recursion, foreign ``yield from`` of an
    unanalyzable generator, a yield in an expression position, source
    unavailable); every field must then be read as "anything".
    """

    fn_name: str
    #: Wait-state kinds reachable in the body ('timed', 'event',
    #: 'anyof_timeout', 'external', 'static', 'unknown').
    wait_kinds: FrozenSet[str] = frozenset()
    #: Event paths of plain ``yield self.<...>`` waits.
    waits_on: Tuple[Path, ...] = ()
    #: Member event paths of composite (``AnyOf``) waits.
    composite_waits: Tuple[Path, ...] = ()
    #: Paths receiving ``.notify()`` / ``.notify_delta()`` (including
    #: through spliced ``self`` helper calls).
    notifies: Tuple[Path, ...] = ()
    #: Blocking calls into other components: ``(target path, method)``.
    acquires: Tuple[Tuple[Path, str], ...] = ()
    #: ``.unlock()`` / ``.post()`` / ``.release()`` calls: the receiver
    #: paths (including through spliced ``self`` helper calls).
    releases: Tuple[Tuple[Path, str], ...] = ()
    unresolved: bool = False
    reason: str = ""


_SUMMARY_CACHE: Dict[Tuple[object, Optional[type]], WaitEffectSummary] = {}


def _plain_function(owner_type: Optional[type], method: str) -> Optional[types.FunctionType]:
    """``owner_type.method`` as a plain function, or None."""
    fn = getattr(owner_type, method, None)
    fn = getattr(fn, "__func__", fn)
    return fn if isinstance(fn, types.FunctionType) else None


def _scan_calls(
    owner_type: Optional[type],
    func: types.FunctionType,
    notifies: List[Path],
    releases: List[Tuple[Path, str]],
    _stack: Tuple[object, ...],
) -> bool:
    """AST scan for notify/release calls; recurses into ``self.helper()``
    calls on the same object (zero-hop paths), mirroring the CFG builder's
    helper splicing.  Returns False when source is unavailable."""
    fn_node = _fn_ast(func)
    if fn_node is None:
        return False
    for node in ast.walk(fn_node):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        attr = node.func.attr
        path = _self_path(node.func.value)
        if path is None:
            continue
        if path == ():
            # A helper invoked on the same object: splice its effects in.
            helper = _plain_function(owner_type, attr)
            if helper is not None and not any(
                helper.__code__ is c for c in _stack
            ):
                _scan_calls(
                    owner_type, helper, notifies, releases,
                    _stack + (helper.__code__,),
                )
            continue
        if attr in _NOTIFY_METHODS:
            notifies.append(path)
        elif attr in _RELEASE_METHODS:
            releases.append((path, attr))
    return True


def summarize_function(
    owner_type: Optional[type], func: object
) -> WaitEffectSummary:
    """Wait-effect summary of one function, cached per (code, owner class).

    Never raises: analysis failures return a summary with
    ``unresolved=True`` and a human-readable reason.
    """
    func = getattr(func, "__func__", func)
    code = getattr(func, "__code__", None)
    fn_name = getattr(func, "__qualname__", getattr(func, "__name__", repr(func)))
    if code is None or not isinstance(func, types.FunctionType):
        return WaitEffectSummary(
            fn_name, unresolved=True, reason="not a plain function"
        )
    key = (code, owner_type)
    cached = _SUMMARY_CACHE.get(key)
    if cached is not None:
        return cached
    flow = analyze_function(owner_type, func)
    if flow.unresolved or flow.machine is None:
        summary = WaitEffectSummary(
            fn_name, unresolved=True,
            reason=flow.reason or "no wait-state machine",
        )
        _SUMMARY_CACHE[key] = summary
        return summary
    kinds: Set[str] = set()
    waits_on: List[Path] = []
    composite: List[Path] = []
    acquires: List[Tuple[Path, str]] = []
    for state in reachable_wait_states(flow.machine):
        kinds.add(state.kind)
        info = state.info
        if info is None:
            continue
        if state.kind == "event" and info.target is not None:
            waits_on.append(info.target)
        elif state.kind in ("event", "anyof_timeout") and info.members:
            composite.extend(info.members)
        elif state.kind == "external" and info.target is not None:
            acquires.append((info.target, info.method))
    notifies: List[Path] = []
    releases: List[Tuple[Path, str]] = []
    scanned = _scan_calls(owner_type, func, notifies, releases, (code,))
    summary = WaitEffectSummary(
        fn_name,
        wait_kinds=frozenset(kinds),
        waits_on=tuple(waits_on),
        composite_waits=tuple(composite),
        notifies=tuple(notifies),
        acquires=tuple(acquires),
        releases=tuple(releases),
        unresolved=not scanned,
        reason="" if scanned else "source unavailable",
    )
    _SUMMARY_CACHE[key] = summary
    return summary


# --------------------------------------------------------------------------
# Lock-order / acquire-release traces (the lint side)
# --------------------------------------------------------------------------

@dataclass
class LockAcquisition:
    """One blocking ``yield from self.<path>.lock(...)`` site."""

    mutex: object
    path: Path
    lineno: int
    #: Mutexes (live objects) already held when this acquire blocks,
    #: in acquisition order.
    held: Tuple[object, ...] = ()


@dataclass
class BusCallWhileHeld:
    """A blocking bus/memory transport call issued with locks held."""

    target: object
    path: Path
    method: str
    lineno: int
    held: Tuple[object, ...] = ()


@dataclass
class LockTrace:
    """Lock discipline of one thread body, in source order.

    A linear (source-order) approximation of the body's lock state: good
    enough for ordering lint because the REP6xx rules only *warn*, and
    conservative in the right direction — an unrecognised construct that
    could change the held-set (aliasing, helpers we cannot see into)
    degrades the whole trace to ``unresolved``, which silences the rules.
    """

    name: str
    acquisitions: List[LockAcquisition] = field(default_factory=list)
    bus_calls_while_held: List[BusCallWhileHeld] = field(default_factory=list)
    unresolved: Optional[str] = None


def _is_mutex(obj: object) -> bool:
    from ..kernel.channels import Mutex

    return isinstance(obj, Mutex)


def _is_bus_transport(obj: object, method: str) -> bool:
    try:
        from ..bus.bus import Bus
        from ..bus.memory import Memory
    except ImportError:  # pragma: no cover - kernel without the bus layer
        return False
    return isinstance(obj, (Bus, Memory)) and method in ("read", "write")


def lock_order_trace(process: object) -> LockTrace:
    """The mutex acquire/release/bus-call sequence of one thread process.

    Walks the thread body's statements in source order, tracking the set
    of live :class:`~repro.kernel.channels.Mutex` objects held across
    each ``yield from self.<p>.lock(...)`` / ``self.<p>.unlock()`` pair
    and recording blocking bus transport issued while holding.  Branches
    are walked in order (both arms see the held-set at the branch), which
    over-approximates — acceptable for warning-severity ordering lint.
    """
    name = getattr(process, "name", repr(process))
    fn = getattr(process, "fn", None)
    owner = getattr(fn, "__self__", None)
    trace = LockTrace(name)
    if fn is None or owner is None:
        trace.unresolved = "free-function process (no self to root paths at)"
        return trace
    func = getattr(fn, "__func__", fn)
    if not isinstance(func, types.FunctionType):
        trace.unresolved = "not a plain function"
        return trace
    fn_node = _fn_ast(func)
    if fn_node is None:
        trace.unresolved = "source unavailable"
        return trace
    held: List[object] = []
    for node in ast.walk(fn_node):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        attr = node.func.attr
        path = _self_path(node.func.value)
        if not path:
            if attr in ("lock", "unlock"):
                # A lock call on a receiver that is not a self path could
                # alias any mutex: the whole held-set is suspect.
                trace.unresolved = (
                    f"{attr} call on a non-self receiver (line {node.lineno})"
                )
                return trace
            continue
        resolved = _resolve_path(owner, path)
        if attr == "lock":
            if not _is_mutex(resolved):
                trace.unresolved = (
                    f"self.{'.'.join(path)}.lock target is not a resolvable mutex"
                )
                return trace
            trace.acquisitions.append(
                LockAcquisition(resolved, path, node.lineno, held=tuple(held))
            )
            if resolved not in held:
                held.append(resolved)
        elif attr == "unlock":
            if not _is_mutex(resolved):
                trace.unresolved = (
                    f"self.{'.'.join(path)}.unlock target is not a resolvable mutex"
                )
                return trace
            if resolved in held:
                held.remove(resolved)
        elif _is_bus_transport(resolved, attr):
            if held:
                trace.bus_calls_while_held.append(
                    BusCallWhileHeld(resolved, path, attr, node.lineno, tuple(held))
                )
    return trace


@dataclass
class AcquireSite:
    """One blocking acquire a thread can park on, resolved live."""

    process_name: str
    target: object
    path: Path
    method: str
    lineno: int


def acquire_sites(process: object) -> Tuple[List[AcquireSite], Optional[str]]:
    """Blocking acquires (``Mutex.lock`` / ``Semaphore.wait``) reachable in
    a thread body, resolved on the live owner.

    Returns ``(sites, unresolved_reason)``; an unresolved body returns an
    empty list with the reason, so consumers can stay silent rather than
    reason from partial facts.
    """
    pcf = analyze_process(process)
    if pcf.unresolved:
        return [], pcf.reason
    if pcf.flow.machine is None or pcf.owner is None:
        return [], "no wait-state machine"
    sites: List[AcquireSite] = []
    for state in reachable_wait_states(pcf.flow.machine):
        if state.kind != "external":
            continue
        info = state.info
        if info is None or info.target is None:
            continue
        resolved = _resolve_path(pcf.owner, info.target)
        if resolved is None or resolved is _UNRESOLVED:
            return [], (
                f"blocking call target self.{'.'.join(info.target)} does not resolve"
            )
        if (type(resolved).__name__, info.method) in ACQUIRE_COUNTERPARTS:
            sites.append(
                AcquireSite(pcf.name, resolved, info.target, info.method, state.lineno)
            )
    return sites, None


def release_closure(
    owner: object,
    func: object,
    _seen: Optional[Set[Tuple[int, object]]] = None,
) -> Tuple[Set[int], bool]:
    """Ids of live objects this function releases, transitively.

    Follows ``self`` helper calls *and* calls on resolvable foreign paths
    (``self.fifo.put(...)`` scans ``Fifo.put`` on the live fifo), so a
    release buried in a callee still counts.  Returns ``(ids, complete)``;
    ``complete=False`` means some body escaped the scan and the closure
    may be missing releases — consumers must stay silent.
    """
    if _seen is None:
        _seen = set()
    func = getattr(func, "__func__", func)
    if not isinstance(func, types.FunctionType):
        return set(), False
    key = (id(owner), func.__code__)
    if key in _seen:
        return set(), True
    _seen.add(key)
    fn_node = _fn_ast(func)
    if fn_node is None:
        return set(), False
    released: Set[int] = set()
    complete = True
    for node in ast.walk(fn_node):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        attr = node.func.attr
        path = _self_path(node.func.value)
        if path is None:
            continue
        if attr in _RELEASE_METHODS and path:
            resolved = _resolve_path(owner, path)
            if resolved is None or resolved is _UNRESOLVED:
                complete = False
                continue
            released.add(id(resolved))
            continue
        # Recurse into callees we can see: same-object helpers and
        # resolvable foreign methods.
        callee_owner = owner if path == () else _resolve_path(owner, path)
        if callee_owner is None or callee_owner is _UNRESOLVED:
            continue
        callee = _plain_function(type(callee_owner), attr)
        if callee is None:
            continue
        sub, sub_complete = release_closure(callee_owner, callee, _seen)
        released |= sub
        complete = complete and sub_complete
    return released, complete
