"""AST-level dataflow analysis of process bodies over an elaborated design.

The netlist linter (:mod:`repro.analysis.lint`) checks the *declared*
architecture; this module looks *inside* the registered processes.  Each
process function (``Process.fn``) is parsed with :mod:`ast` and reduced to
an effect summary — which signals it reads and writes, which events it
waits on and notifies — and the summaries are assembled into a design-wide
dataflow view that the REP4xx lint rules query:

* same-delta multi-driver races (REP401),
* method processes reading outside their sensitivity list (REP402),
* combinational loops through method processes (REP403),
* blocking waits inside method processes (REP404),
* waits on events nothing ever notifies (REP405) — the Section 5.4
  deadlock class, proven at the process level before any simulation runs.

The analysis is two-phase so it stays near-linear in design size:

1. *Syntactic phase* — one AST walk per function body, producing
   :class:`_FnFacts` (attribute paths rooted at ``self``, not objects).
   Cached per code object, so a class instantiated a hundred times is
   parsed once.  The parser (:func:`_parse_function`), the path helper
   (:func:`_self_path`) and the visitor (:class:`_FactsVisitor`) are the
   one AST front-end of the analysis package: the control-flow layer
   (:mod:`repro.analysis.cfg`) runs the same visitor per statement.
2. *Resolution phase* — per process, the attribute paths are resolved
   against the **live** elaborated design with ``getattr`` chains.  A path
   landing on a :class:`~repro.kernel.Port` is followed through
   ``binding_chain()`` to the bound signal, so cross-module drivers are
   attributed to the signal itself, not the port object.

Everything is a conservative approximation: unresolvable constructs set
the ``unresolved_notify`` / ``opaque_calls`` flags, and unresolvable wait
targets are left out, which makes the rules *weaker* (fewer findings),
never wrong.  :func:`cross_check` closes the loop the other way — a short
bounded simulation tags each REP401/REP405 finding
``confirmed``/``unconfirmed`` against actual kernel behaviour.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import types
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..kernel import (
    Event,
    Module,
    Port,
    Signal,
    SimTime,
    Simulator,
    events_of,
    processes_of,
    signals_of,
    us,
)

#: Sentinel: an attribute path that does not resolve on the live design.
_UNRESOLVED = object()

#: Call names recognised as pure-timeout wait expressions (``yield ns(10)``).
_TIME_FUNCS = frozenset({"fs", "ps", "ns", "us", "ms", "sec", "from_fs", "cycles_to_time", "SimTime"})

#: Process-control calls.  They touch no signal, so they do not make a body
#: opaque.
_DYNAMIC_CALL_NAMES = frozenset(
    {"spawn", "next_trigger", "add_thread", "add_method", "kill", "on_update"}
)

#: Name calls (builtins and kernel constructors) known to be free of side
#: effects on the design.  Anything else makes the body *opaque*: it may
#: read or write signals through aliases the path analysis cannot see.
_PURE_NAME_CALLS = frozenset(
    {
        "len", "int", "float", "bool", "str", "abs", "min", "max", "sum",
        "round", "range", "enumerate", "zip", "sorted", "reversed", "tuple",
        "list", "dict", "set", "frozenset", "divmod", "pow", "ord", "chr",
        "isinstance", "issubclass", "all", "any", "repr", "hash", "id",
        "getattr", "hasattr", "iter", "next", "format", "AnyOf", "AllOf",
    }
    | _TIME_FUNCS
)

#: Attribute calls that only *read* their receiver (safe on any object).
_PURE_ATTR_CALLS = frozenset(
    {
        "read", "get", "items", "keys", "values", "count", "index", "copy",
        "bit_length", "to_ns", "to_ps", "to_us", "femtoseconds", "startswith",
        "endswith", "join", "split", "format", "lower", "upper", "events",
    }
    | _TIME_FUNCS
)


# --------------------------------------------------------------------------
# Syntactic phase: per-function effect facts
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _FnFacts:
    """Syntactic effects of one function body (attribute paths, no objects)."""

    writes: Tuple[Tuple[str, ...], ...]
    reads: Tuple[Tuple[str, ...], ...]
    notifies: Tuple[Tuple[str, ...], ...]
    waits: Tuple[Tuple[str, ...], ...]
    self_calls: Tuple[str, ...]
    unresolved_notify: bool
    yields_in_body: bool
    #: Body calls something whose effects the path analysis cannot see
    #: (unknown free function, unknown method, write/read via an alias).
    opaque_calls: bool = False


def _self_path(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``self.a.b`` -> ``("a", "b")``; ``self`` -> ``()``; else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self":
        return tuple(reversed(parts))
    return None


def _call_name(call: ast.Call) -> Optional[str]:
    """The called name of ``f(...)`` or ``x.f(...)``, else None."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class _FactsVisitor(ast.NodeVisitor):
    """Collects :class:`_FnFacts` from one function body.

    Nested function definitions and lambdas are *not* entered: their bodies
    run in another context (callbacks, listeners), so attributing their
    effects to this process would over-claim — and a ``yield`` inside one
    must not count as the process itself blocking.  The control-flow layer
    (:mod:`repro.analysis.cfg`) runs the same visitor per statement.
    """

    def __init__(self) -> None:
        self.writes: List[Tuple[str, ...]] = []
        self.reads: List[Tuple[str, ...]] = []
        self.notifies: List[Tuple[str, ...]] = []
        self.waits: List[Tuple[str, ...]] = []
        self.self_calls: List[str] = []
        self.unresolved_notify = False
        self.yields_in_body = False
        self.opaque_calls = False

    # -- scope fences -------------------------------------------------------
    def _skip_scope(self, node: ast.AST) -> None:
        pass

    visit_FunctionDef = _skip_scope
    visit_AsyncFunctionDef = _skip_scope
    visit_Lambda = _skip_scope

    # -- effects ------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            attr = func.attr
            path = _self_path(func.value)
            if attr == "write":
                if path == ():
                    self.self_calls.append(attr)
                elif path:
                    self.writes.append(path)
                else:
                    # A write through a local alias could target any signal.
                    self.opaque_calls = True
            elif attr == "read":
                if path == ():
                    self.self_calls.append(attr)
                elif path:
                    self.reads.append(path)
                else:
                    self.opaque_calls = True
            elif attr in ("notify", "notify_delta"):
                if path == ():
                    self.self_calls.append(attr)
                elif path:
                    self.notifies.append(path)
                else:
                    self.unresolved_notify = True
            elif path == ():
                self.self_calls.append(attr)
            elif attr not in _PURE_ATTR_CALLS and attr not in _DYNAMIC_CALL_NAMES:
                # Unknown method call: could mutate state or touch signals
                # the path analysis cannot attribute.
                self.opaque_calls = True
        elif isinstance(func, ast.Name):
            if func.id not in _PURE_NAME_CALLS and func.id not in _DYNAMIC_CALL_NAMES:
                self.opaque_calls = True
        else:
            self.opaque_calls = True
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "value":
            path = _self_path(node.value)
            if path:
                self.reads.append(path)
            elif path is None:
                # ``.value`` on a non-self expression: if that expression
                # aliases a signal, this is a read the path analysis cannot
                # attribute (usually it is something harmless — an enum, an
                # AST node — but the analysis must assume the worst).
                self.opaque_calls = True
        self.generic_visit(node)

    def visit_Yield(self, node: ast.Yield) -> None:
        """Record the events a ``yield`` waits on: a ``self.<...>`` path or
        the ``self.<...>`` members of an ``AnyOf``/``AllOf`` list literal."""
        self.yields_in_body = True
        value = node.value
        path = _self_path(value)
        if path:
            self.waits.append(path)
        elif (
            isinstance(value, ast.Call)
            and _call_name(value) in ("AnyOf", "AllOf")
            and value.args
            and isinstance(value.args[0], (ast.List, ast.Tuple))
        ):
            for elt in value.args[0].elts:
                elt_path = _self_path(elt)
                if elt_path:
                    self.waits.append(elt_path)
        self.generic_visit(node)

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        self.yields_in_body = True
        self.generic_visit(node)


def _parse_function(func: object) -> Optional[ast.AST]:
    """The first (async) function definition in ``func``'s source, or None.

    The one parser both analysis layers use.  Nothing here keeps the tree:
    the dataflow layer retains only the facts it extracts.
    """
    try:
        tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    except (OSError, TypeError, SyntaxError, IndentationError, ValueError):
        return None
    return next(
        (n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))),
        None,
    )


#: Facts per code object (None = unparseable).  Class methods are parsed
#: once however many instances the design contains.
_FACTS_CACHE: Dict[object, Optional[_FnFacts]] = {}

#: The call names :class:`_FactsVisitor` records notifies from.
_NOTIFY_NAMES = frozenset({"notify", "notify_delta"})

#: Per code object: whether it, or any code nested in it, names a notify.
_NAMES_NOTIFY_CACHE: Dict[types.CodeType, bool] = {}


def _names_notify(code: types.CodeType) -> bool:
    """Whether ``code`` or code nested in it names ``notify``/``notify_delta``.

    The facts visitor records a notify, resolved or not, only from a
    ``<x>.notify(...)``/``<x>.notify_delta(...)`` call, whose attribute
    name the compiler puts in ``co_names``.  Nested code objects count
    too: comprehensions are nested functions before Python 3.12, and
    the visitor walks them as part of the body.  A body naming neither
    has facts without notifies, so :meth:`DesignDataflow.notify_scan`
    need not parse it.  Memoized per code object.
    """
    found = _NAMES_NOTIFY_CACHE.get(code)
    if found is None:
        found = not _NOTIFY_NAMES.isdisjoint(code.co_names) or any(
            isinstance(const, types.CodeType) and _names_notify(const)
            for const in code.co_consts
        )
        _NAMES_NOTIFY_CACHE[code] = found
    return found


def _fn_facts(func: object) -> Optional[_FnFacts]:
    """The (cached) syntactic facts of ``func``, or None if unparseable."""
    func = getattr(func, "__func__", func)
    code = getattr(func, "__code__", None)
    if code is None:
        return None
    if code in _FACTS_CACHE:
        return _FACTS_CACHE[code]
    facts: Optional[_FnFacts] = None
    fn_node = _parse_function(func)
    if fn_node is not None:
        visitor = _FactsVisitor()
        for stmt in fn_node.body:
            visitor.visit(stmt)
        facts = _FnFacts(
            writes=tuple(visitor.writes),
            reads=tuple(visitor.reads),
            notifies=tuple(visitor.notifies),
            waits=tuple(visitor.waits),
            self_calls=tuple(dict.fromkeys(visitor.self_calls)),
            unresolved_notify=visitor.unresolved_notify,
            yields_in_body=visitor.yields_in_body,
            opaque_calls=visitor.opaque_calls,
        )
    _FACTS_CACHE[code] = facts
    return facts


# --------------------------------------------------------------------------
# Resolution phase: paths -> live design objects
# --------------------------------------------------------------------------

def _resolve_path(owner: object, path: Tuple[str, ...]) -> object:
    """Follow ``owner.<a>.<b>...``; any failure yields :data:`_UNRESOLVED`."""
    obj = owner
    for attr in path:
        try:
            obj = getattr(obj, attr)
        except Exception:
            return _UNRESOLVED
    return obj


def _as_signal(obj: object) -> Optional[Signal]:
    """``obj`` as a Signal, following a port's binding chain if needed."""
    if isinstance(obj, Signal):
        return obj
    if isinstance(obj, Port):
        try:
            _, impl = obj.binding_chain()
        except Exception:
            return None
        if isinstance(impl, Signal):
            return impl
    return None


def _as_event(obj: object) -> Optional[Event]:
    if isinstance(obj, Event):
        return obj
    if isinstance(obj, Port):
        try:
            _, impl = obj.binding_chain()
        except Exception:
            return None
        if isinstance(impl, Event):
            return impl
    return None


def _add_unique(items: List[object], obj: object) -> None:
    if not any(existing is obj for existing in items):
        items.append(obj)


@dataclass
class ProcessSummary:
    """Resolved dataflow effects of one registered process.

    ``owner`` is the object the body's ``self`` refers to (usually the
    declaring module); effects of same-class helper methods invoked as
    ``self.helper(...)`` / ``yield from self.helper(...)`` are folded in
    transitively.  The ``unresolved_notify`` and ``opaque_calls`` flags
    record that some construct escaped the analysis, which consuming rules
    must treat as "anything could happen" (i.e. stay silent).
    """

    process: object
    owner: Optional[object]
    name: str
    kind: str
    runs_at_start: bool
    signal_reads: List[Signal] = field(default_factory=list)
    signal_writes: List[Signal] = field(default_factory=list)
    waited_events: List[Event] = field(default_factory=list)
    notified_events: List[Event] = field(default_factory=list)
    unresolved_notify: bool = False
    yields_in_body: bool = False
    opaque_calls: bool = False

    def activation_events(self) -> List[Event]:
        """Events that can make this process runnable (sensitivity + waits)."""
        events: List[Event] = list(getattr(self.process, "static_sensitivity", ()))
        for event in self.waited_events:
            _add_unique(events, event)
        return events


def _accumulate(
    owner: object, func: object, summary: ProcessSummary, seen: Set[object], top: bool
) -> None:
    plain = getattr(func, "__func__", func)
    code = getattr(plain, "__code__", None)
    if code is None or code in seen:
        return
    seen.add(code)
    facts = _fn_facts(plain)
    if facts is None:
        summary.unresolved_notify = True
        summary.opaque_calls = True
        return
    if top:
        summary.yields_in_body = facts.yields_in_body
    summary.unresolved_notify = summary.unresolved_notify or facts.unresolved_notify
    summary.opaque_calls = summary.opaque_calls or facts.opaque_calls
    for path in facts.writes:
        sig = _as_signal(_resolve_path(owner, path))
        if sig is not None:
            _add_unique(summary.signal_writes, sig)
    for path in facts.reads:
        sig = _as_signal(_resolve_path(owner, path))
        if sig is not None:
            _add_unique(summary.signal_reads, sig)
    for path in facts.notifies:
        obj = _resolve_path(owner, path)
        event = _as_event(obj)
        if event is not None:
            _add_unique(summary.notified_events, event)
        elif obj is _UNRESOLVED:
            summary.unresolved_notify = True
    for path in facts.waits:
        event = _as_event(_resolve_path(owner, path))
        if event is not None:
            _add_unique(summary.waited_events, event)
    for name in facts.self_calls:
        target = getattr(type(owner), name, None)
        target = getattr(target, "__func__", target)
        if isinstance(target, types.FunctionType):
            _accumulate(owner, target, summary, seen, top=False)


def summarize_process(process: object) -> ProcessSummary:
    """Build the effect summary of one process from its ``fn``."""
    fn = getattr(process, "fn", None)
    owner = getattr(fn, "__self__", None)
    summary = ProcessSummary(
        process=process,
        owner=owner,
        name=getattr(process, "name", repr(process)),
        kind=getattr(process, "kind", "process"),
        runs_at_start=bool(getattr(process, "runs_at_start", True)),
    )
    if fn is None or owner is None:
        # A free function / closure process: self-rooted resolution is
        # impossible, so report "anything could happen".
        summary.unresolved_notify = True
        summary.opaque_calls = True
        return summary
    _accumulate(owner, fn, summary, set(), top=True)
    return summary


# --------------------------------------------------------------------------
# Design-wide view
# --------------------------------------------------------------------------

@dataclass
class SignalUse:
    """All statically known writers and readers of one signal."""

    label: str
    signal: Signal
    writers: List[ProcessSummary] = field(default_factory=list)
    readers: List[ProcessSummary] = field(default_factory=list)


class DesignDataflow:
    """Module-level dataflow graph over an elaborated design.

    Built from the top module: one :class:`ProcessSummary` per registered
    process of every module in the hierarchy, plus label/identity indexes
    for signals and events.  The REP4xx rules and :func:`cross_check`
    query this object; construction is the expensive step (one AST parse
    per distinct function body, then per-process resolution), so the lint
    engine caches it per run on the :class:`~repro.analysis.lint.LintContext`.
    """

    def __init__(self, top: Module) -> None:
        self.top = top
        self.modules: List[Module] = [top, *top.descendants()]
        self.summaries: List[ProcessSummary] = []
        self._signal_labels: Dict[int, str] = {}
        self._signal_event_ids: Set[int] = set()
        self._event_labels: Dict[int, str] = {}
        self._terminated_ids: Set[int] = set()
        self._notify_scan: Optional[Tuple[Set[int], bool]] = None
        for module in self.modules:
            base = module.full_name
            for attr, sig in signals_of(module).items():
                self._signal_labels.setdefault(id(sig), f"{base}.{attr}")
                for event in sig.events():
                    self._signal_event_ids.add(id(event))
            for attr, event in events_of(module).items():
                self._event_labels.setdefault(id(event), f"{base}.{attr}")
        for module in self.modules:
            for process in processes_of(module):
                summary = summarize_process(process)
                self.summaries.append(summary)
                terminated = getattr(process, "terminated_event", None)
                if terminated is not None:
                    self._terminated_ids.add(id(terminated))
                for sig in (*summary.signal_writes, *summary.signal_reads):
                    # Signals reached through ports/references still get a
                    # label (their own name) even if no module owns them.
                    self._signal_labels.setdefault(id(sig), sig.name)
                    for event in sig.events():
                        self._signal_event_ids.add(id(event))

    # -- labels -------------------------------------------------------------
    def signal_label(self, signal: Signal) -> str:
        return self._signal_labels.get(id(signal), signal.name)

    def event_label(self, event: Event) -> str:
        return self._event_labels.get(id(event), event.name)

    def is_signal_event(self, event_id: int) -> bool:
        """True for a signal's value_changed/posedge/negedge event."""
        return event_id in self._signal_event_ids

    def is_terminated_event(self, event_id: int) -> bool:
        """True for a process's terminated_event (notified by the kernel)."""
        return event_id in self._terminated_ids

    # -- queries ------------------------------------------------------------
    def signal_uses(self) -> List[SignalUse]:
        """Per-signal writer/reader sets, sorted by label."""
        uses: Dict[int, SignalUse] = {}
        for summary in self.summaries:
            for sig in summary.signal_writes:
                use = uses.setdefault(id(sig), SignalUse(self.signal_label(sig), sig))
                use.writers.append(summary)
            for sig in summary.signal_reads:
                use = uses.setdefault(id(sig), SignalUse(self.signal_label(sig), sig))
                use.readers.append(summary)
        return sorted(uses.values(), key=lambda use: use.label)

    def corunnable(self, a: ProcessSummary, b: ProcessSummary) -> Optional[str]:
        """Why ``a`` and ``b`` can both be runnable in one delta, or None.

        Two grounds are provable statically: both run in the first
        evaluation phase, or some event appears in both activation sets
        (static sensitivity plus resolvable waited events).
        """
        if a.runs_at_start and b.runs_at_start:
            return "both are runnable in the first delta cycle"
        b_events = b.activation_events()
        shared = sorted(
            self.event_label(event)
            for event in a.activation_events()
            if any(event is other for other in b_events)
        )
        if shared:
            return f"both are activated by event {shared[0]}"
        return None

    def method_cycles(self) -> List[List[ProcessSummary]]:
        """Cycles among method processes via write -> sensitivity edges.

        Edge ``u -> v`` when ``u`` writes a signal one of whose events is
        in ``v``'s static sensitivity: committing u's write re-triggers v
        in the next delta.  Returns the strongly connected components that
        contain a cycle (including self-loops), deterministically ordered.
        """
        methods = [s for s in self.summaries if s.kind == "method"]
        n = len(methods)
        sens_ids: List[Set[int]] = [
            {id(e) for e in getattr(s.process, "static_sensitivity", ())} for s in methods
        ]
        adjacency: List[Set[int]] = [set() for _ in range(n)]
        for ui, u in enumerate(methods):
            written: Set[int] = set()
            for sig in u.signal_writes:
                written.update(id(e) for e in sig.events())
            if not written:
                continue
            for vi in range(n):
                if written & sens_ids[vi]:
                    adjacency[ui].add(vi)
        # Transitive closure; method-process counts are small and
        # tools/bench_lint.py guards against pathological growth.
        reach = [set(edges) for edges in adjacency]
        changed = True
        while changed:
            changed = False
            for i in range(n):
                extra: Set[int] = set()
                for j in reach[i]:
                    extra |= reach[j]
                if not extra <= reach[i]:
                    reach[i] |= extra
                    changed = True
        cycles: List[List[ProcessSummary]] = []
        assigned: Set[int] = set()
        for i in range(n):
            if i in assigned or i not in reach[i]:
                continue
            component = sorted({i} | {j for j in reach[i] if i in reach[j]})
            assigned.update(component)
            cycles.append([methods[j] for j in component])
        return cycles

    def notify_scan(self) -> Tuple[Set[int], bool]:
        """``(notified_event_ids, has_unresolved_notify)`` for the design.

        Scans every class method of every module (and of every process
        owner) — not just process bodies — because events are legitimately
        notified from interface methods called by *other* modules' processes
        (e.g. a slave's ``write`` kicking its worker thread).  Only methods
        whose code names ``notify`` or ``notify_delta`` are parsed (no other
        body can record a notify, see :func:`_names_notify`), and each class
        is walked once per scan, however many owners share it; the paths of
        its notifying methods are then resolved per owner.  Cached.
        """
        if self._notify_scan is not None:
            return self._notify_scan
        notified: Set[int] = set()
        unresolved = False
        owners: List[object] = list(self.modules)
        for summary in self.summaries:
            notified.update(id(e) for e in summary.notified_events)
            unresolved = unresolved or summary.unresolved_notify
            if summary.owner is not None and all(summary.owner is not o for o in owners):
                owners.append(summary.owner)
        notifiers: Dict[type, List[types.FunctionType]] = {}
        for owner in owners:
            scanned: Set[int] = set()
            for klass in type(owner).__mro__:
                if klass is object:
                    continue
                funcs = notifiers.get(klass)
                if funcs is None:
                    funcs = notifiers[klass] = _notifying_functions(klass)
                for func in funcs:
                    if id(func.__code__) in scanned:
                        continue
                    scanned.add(id(func.__code__))
                    facts = _fn_facts(func)
                    if facts is None:
                        continue
                    if facts.unresolved_notify:
                        unresolved = True
                    for path in facts.notifies:
                        obj = _resolve_path(owner, path)
                        event = _as_event(obj)
                        if event is not None:
                            notified.add(id(event))
                        elif obj is _UNRESOLVED:
                            unresolved = True
        self._notify_scan = (notified, unresolved)
        return self._notify_scan


def _notifying_functions(klass: type) -> List[types.FunctionType]:
    """The functions defined on ``klass`` itself (plain, static or class
    methods) whose code names a notify call."""
    funcs: List[types.FunctionType] = []
    for member in vars(klass).values():
        func = member
        if isinstance(member, (staticmethod, classmethod)):
            func = member.__func__
        if isinstance(func, types.FunctionType) and _names_notify(func.__code__):
            funcs.append(func)
    return funcs


# --------------------------------------------------------------------------
# Dynamic cross-check
# --------------------------------------------------------------------------

def cross_check(
    netlist: object,
    diagnostics: Sequence[object],
    *,
    until: Optional[SimTime] = None,
    max_deltas_per_instant: int = 10_000,
    max_wall_s: float = 5.0,
) -> Dict[Tuple[str, str], str]:
    """Confirm REP401/REP405 findings against a short bounded simulation.

    Elaborates ``netlist`` fresh, instruments the raced signals with
    :attr:`Signal.write_hook` (attributing each write to
    ``Simulator.current_process``), runs for ``until`` (default 10 us)
    under a wall-clock watchdog, and returns ``{(code, location):
    "confirmed" | "unconfirmed"}`` for every REP401/REP405 diagnostic:

    * REP401 is *confirmed* when two distinct processes wrote the signal in
      the same instant (same timestamp and delta count).
    * REP405 is *confirmed* when the waited event never fired
      (``trigger_count == 0`` after the run).

    "unconfirmed" means the bounded run produced no witness — the static
    finding may still be reachable on a longer run or other stimulus.
    """
    targets = [d for d in diagnostics if d.code in ("REP401", "REP405")]
    if not targets:
        return {}
    sim = Simulator(name="lint_confirm")
    try:
        design = netlist.elaborate(sim)
    except Exception:
        return {(d.code, d.location): "unconfirmed" for d in targets}
    top = design.top
    modules = {m.full_name: m for m in [top, *top.descendants()]}

    def _located(location: str) -> object:
        module_name, _, attr = location.rpartition(".")
        module = modules.get(module_name)
        if module is None:
            return None
        return vars(module).get(attr)

    race_signals: Dict[str, Signal] = {}
    dead_events: Dict[str, Event] = {}
    for diag in targets:
        obj = _located(diag.location)
        if diag.code == "REP401" and isinstance(obj, Signal):
            race_signals[diag.location] = obj
        elif diag.code == "REP405" and isinstance(obj, Event):
            dead_events[diag.location] = obj

    raced: Set[str] = set()
    if race_signals:
        location_by_id = {id(sig): loc for loc, sig in race_signals.items()}
        writers: Dict[int, Tuple[Tuple[int, int], Set[str]]] = {}

        def _hook(signal: Signal, value: object) -> None:
            instant = (sim._now_fs, sim.delta_count)
            process = sim.current_process
            who = process.name if process is not None else "<elaboration>"
            record = writers.get(id(signal))
            if record is None or record[0] != instant:
                writers[id(signal)] = (instant, {who})
            else:
                record[1].add(who)
                if len(record[1]) >= 2:
                    raced.add(location_by_id[id(signal)])

        for sig in race_signals.values():
            sig.write_hook = _hook

    try:
        sim.run(
            until=until if until is not None else us(10),
            max_deltas_per_instant=max_deltas_per_instant,
            max_wall_s=max_wall_s,
        )
    except Exception:
        pass  # a crashing design still leaves the collected evidence usable

    statuses: Dict[Tuple[str, str], str] = {}
    for diag in targets:
        if diag.code == "REP401":
            witnessed = diag.location in raced
        else:
            event = dead_events.get(diag.location)
            witnessed = event is not None and event.trigger_count == 0
        statuses[(diag.code, diag.location)] = "confirmed" if witnessed else "unconfirmed"
    return statuses
