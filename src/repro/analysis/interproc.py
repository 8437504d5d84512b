"""Interprocedural blocking-call analysis.

The control-flow layer (:mod:`repro.analysis.cfg`) analyzes one function at
a time: a *blocking call* (``yield from self.chan.put(x)``) is a single
opaque ``external`` wait node — what the callee can suspend on and which
locks it releases all happen in a foreign frame.

This module follows those calls on the live design.  Its consumer is the
REP6xx ``interproc`` lint layer (:mod:`repro.analysis.lint`), which flags
the paper's Section 5.4 config-bus deadlock *before* simulation:

* :func:`acquire_sites` — the blocking ``Mutex.lock`` / ``Semaphore.wait``
  calls a thread can reach (its reachable external waits, resolved on the
  live owner);
* :func:`lock_order_trace` — the thread body's mutex acquire/release and
  bus-call sequence in source order;
* :func:`release_closure` — the channels/locks a function releases,
  following ``self`` helpers and calls on resolvable foreign objects.

Everything follows the conservative contract of the other analysis
layers: never raise; unsupported constructs degrade to ``unresolved``
with a reason, which consumers read as "anything could happen".
"""

from __future__ import annotations

import ast
import types
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from .cfg import Path, _fn_ast, analyze_process, reachable_waits
from .dataflow import _UNRESOLVED, _resolve_path, _self_path

#: Method names whose call *releases* a channel/lock on the receiver path.
_RELEASE_METHODS = frozenset({"unlock", "post", "release"})

#: Blocking acquire methods and the releasing counterpart that must exist
#: somewhere in the design for the acquire to ever complete unaided.
ACQUIRE_COUNTERPARTS = {
    ("Mutex", "lock"): "unlock",
    ("Semaphore", "wait"): "post",
}


def _plain_function(owner_type: Optional[type], method: str) -> Optional[types.FunctionType]:
    """``owner_type.method`` as a plain function, or None."""
    fn = getattr(owner_type, method, None)
    fn = getattr(fn, "__func__", fn)
    return fn if isinstance(fn, types.FunctionType) else None


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
    sites: List[AcquireSite] = []
    for node in reachable_waits(pcf.flow):
        info = node.wait
        if info.kind != "external":
            continue
        resolved = _resolve_path(pcf.owner, info.target)
        if resolved is None or resolved is _UNRESOLVED:
            return [], (
                f"blocking call target self.{'.'.join(info.target)} does not resolve"
            )
        if (type(resolved).__name__, info.method) in ACQUIRE_COUNTERPARTS:
            sites.append(
                AcquireSite(pcf.name, resolved, info.target, info.method, node.lineno)
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
