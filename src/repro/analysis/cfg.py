"""Control-flow-sensitive process analysis: CFGs and wait-state machines.

:mod:`repro.analysis.dataflow` reduces each process body to *flat* effect
facts — which signals it touches, which events it waits on — with no notion
of *where* in the body those effects sit.  That is enough for single-writer
reasoning but blind to control structure: it cannot tell a thread that
writes a signal once per clock phase from one that pulses it twice in the
same delta, and it cannot see that code after an exit-free ``while True``
loop is dead.

This module adds the control-flow layer:

* :func:`build_cfg` — a statement-level control-flow graph per function
  body (branches, loops with ``break``/``continue``/``else``, ``try`` /
  ``except`` / ``finally``, early ``return``), with per-node read/write
  effects expressed as ``self``-rooted attribute paths.
* :func:`extract_machine` — for generator (thread) bodies, a **wait-state
  machine**: every ``yield`` (event wait, timed wait, ``AnyOf`` /
  ``AllOf``) is a state, and edges carry the read/write effects
  accumulated between waits.  ``yield from self.helper(...)`` is spliced
  in recursively; delegating to a foreign generator marks the machine
  *unresolved* rather than guessing.
* A per-instant **write-count analysis** over the machine: how many times
  each signal path can be written within one simulated instant.  Timed
  waits with a provably positive constant duration start a new instant;
  event waits conservatively do not (a notify can wake the thread in the
  same delta).  The one path-sensitive refinement: after ``result = yield
  AnyOf([...], timeout=...)``, the ``result is TIMEOUT`` branch proves the
  timer fired, i.e. simulated time advanced.  A spliced helper contributes
  its counts to its caller's edges.
* Rule-support queries for the REP5xx lint layer (waitless loops,
  unreachable statements, write coverage, one-sided wait branches), and
  :func:`reachable_wait_states`, which the interprocedural layer
  (:mod:`repro.analysis.interproc`) builds its wait-effect summaries from.

Everything here follows the conservative contract of the dataflow layer:
analysis never raises — unsupported constructs set ``unresolved`` with a
reason, which consumers must read as "anything could happen" (lint rules
stay silent).
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import types
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..kernel import Signal
from .dataflow import _TIME_FUNCS, _as_signal, _resolve_path

#: A ``self``-rooted attribute path, as in :mod:`repro.analysis.dataflow`.
Path = Tuple[str, ...]

#: Write counts saturate here: "2" already means "more than once per
#: instant", which is all any consumer distinguishes.
MANY = 2


# --------------------------------------------------------------------------
# Node model
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WaitInfo:
    """Classification of one ``yield`` site.

    ``advances`` is True only when *every* resumption of this wait is
    provably in a later simulated instant than its suspension — a pure
    timed wait with a positive constant duration.  Event waits are False:
    an immediate or delta notify can wake the thread within the same
    instant.  ``anyof_timeout`` waits are False at the wait itself; the
    ``result is TIMEOUT`` branch refinement (recorded on the guarding
    branch node) supplies the advance on the timeout path.
    """

    kind: str  # 'timed' | 'event' | 'static' | 'anyof_timeout' | 'external' | 'unknown'
    advances: bool
    #: For ``event`` waits on a plain ``self.<...>`` path and for
    #: ``external`` waits (``yield from self.<chain>.<method>(...)``): the
    #: ``self``-rooted path of the waited object / call target, resolvable
    #: on the live owner.  None for composite or unresolvable targets.
    target: Optional[Path] = None
    #: For ``external`` waits: the method name invoked on ``target``.
    method: str = ""
    #: For composite (``AnyOf``) waits: the member event paths, when every
    #: member is a plain ``self.<...>`` path.  ``()`` is a resolved empty
    #: member list (a pure-timeout ``AnyOf``); None means at least one
    #: member escaped the static analysis.
    members: Optional[Tuple[Path, ...]] = None
    #: For composite waits: True when the ``AnyOf`` carries a timeout
    #: (positional or keyword) that is not literally ``None``.
    has_timeout: bool = False


@dataclass
class CfgNode:
    """One statement-level node of a :class:`Cfg`."""

    index: int
    kind: str  # 'entry' | 'exit' | 'stmt' | 'wait' | 'branch' | 'arm' | 'return'
    lineno: int = 0
    source: str = ""
    succs: List[int] = field(default_factory=list)
    #: Conservative exception edges (any statement inside a ``try`` may
    #: transfer to its handlers).  Used for reachability and write counts,
    #: ignored by the livelock path search (waits do not raise in practice).
    exc_succs: List[int] = field(default_factory=list)
    reads: Tuple[Path, ...] = ()
    writes: Tuple[Path, ...] = ()
    wait: Optional[WaitInfo] = None
    is_if: bool = False
    is_loop: bool = False
    #: Constant loop/branch test: True (``while True``), False, or None.
    const_test: Optional[bool] = None
    true_succ: int = -1
    false_succ: int = -1
    #: For ``if`` branches: the synthetic node where the arms rejoin
    #: (arms that return/break/continue bypass it).
    join_succ: int = -1
    #: Timeout-guard refinement: traversing to ``true_succ`` /
    #: ``false_succ`` provably starts a new simulated instant.
    resets_true: bool = False
    resets_false: bool = False


@dataclass
class Cfg:
    """A statement-level control-flow graph of one function body."""

    fn_name: str
    nodes: List[CfgNode]
    entry: int
    exit: int

    def reachable(self, *, exceptions: bool = True) -> Set[int]:
        """Node indices reachable from the entry."""
        seen = {self.entry}
        stack = [self.entry]
        while stack:
            node = self.nodes[stack.pop()]
            succs = node.succs + (node.exc_succs if exceptions else [])
            for nxt in succs:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen


@dataclass(frozen=True)
class WaitState:
    """One state of a wait-state machine (START, a wait site, or END)."""

    index: int
    kind: str  # 'start' | 'end' | a WaitInfo kind
    lineno: int
    label: str
    advances: bool
    #: The full classification of the underlying wait site (None for the
    #: synthetic START/END states).  Carries the resolvable target path
    #: for event/external waits, which the interprocedural layer
    #: (:mod:`repro.analysis.interproc`) resolves on the live owner.
    info: Optional[WaitInfo] = None


@dataclass
class MachineEdge:
    """Effects accumulated along paths between two wait states."""

    src: int
    dst: int
    reads: FrozenSet[Path] = frozenset()
    writes: FrozenSet[Path] = frozenset()


@dataclass
class WaitStateMachine:
    """Wait-state machine of one thread body (states + effect edges)."""

    fn_name: str
    states: List[WaitState]
    edges: List[MachineEdge]

    def state_count(self) -> int:
        return len(self.states)

    def edge(self, src: int, dst: int) -> Optional[MachineEdge]:
        for e in self.edges:
            if e.src == src and e.dst == dst:
                return e
        return None


@dataclass
class FunctionControlFlow:
    """Everything the control-flow analysis proved about one function.

    ``unresolved`` means some construct escaped the analysis (foreign
    ``yield from``, recursion through helpers, a yield in an expression
    position, unparseable source); consumers must then assume anything.
    The CFG is still returned when it could be built — reachability-style
    queries degrade gracefully — but ``write_counts`` must not be trusted.
    """

    fn_name: str
    cfg: Optional[Cfg]
    machine: Optional[WaitStateMachine]
    #: Max writes per path per *instant* (threads) / per call (methods).
    write_counts: Dict[Path, int] = field(default_factory=dict)
    #: Paths written on some path before the first wait (the entry segment).
    entry_writes: FrozenSet[Path] = frozenset()
    read_paths: FrozenSet[Path] = frozenset()
    unresolved: bool = False
    reason: str = ""
    #: True when the body contains external (blocking-call) wait states.
    #: Their callees run in foreign frames, so ``write_counts`` /
    #: ``entry_writes`` cover only this body's own effects — single-writer
    #: proofs must not trust them.
    external_waits: bool = False


# --------------------------------------------------------------------------
# Expression effect scanning
# --------------------------------------------------------------------------

def _self_path(node: ast.AST) -> Optional[Path]:
    """``self.a.b`` -> ``("a", "b")``; ``self`` -> ``()``; else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self":
        return tuple(reversed(parts))
    return None


class _ExprScanner(ast.NodeVisitor):
    """Occurrence-level read/write collection within one expression tree.

    Unlike the dataflow facts visitor this keeps *multiplicity*: a
    statement writing the same signal twice contributes two occurrences,
    which is exactly what the per-instant write-count analysis needs.
    Nested function definitions and lambdas are not entered.
    """

    def __init__(self) -> None:
        self.reads: List[Path] = []
        self.writes: List[Path] = []
        self.self_calls: List[str] = []
        self.yields: List[ast.AST] = []

    def _skip_scope(self, node: ast.AST) -> None:
        pass

    visit_FunctionDef = _skip_scope
    visit_AsyncFunctionDef = _skip_scope
    visit_Lambda = _skip_scope

    def visit_Yield(self, node: ast.Yield) -> None:
        self.yields.append(node)
        self.generic_visit(node)

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        self.yields.append(node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            path = _self_path(func.value)
            if func.attr == "write" and path:
                self.writes.append(path)
            elif func.attr == "read" and path:
                self.reads.append(path)
            elif path == ():
                self.self_calls.append(func.attr)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == "value":
            path = _self_path(node.value)
            if path:
                self.reads.append(path)
        self.generic_visit(node)


def _scan(*exprs: Optional[ast.AST]) -> _ExprScanner:
    scanner = _ExprScanner()
    for expr in exprs:
        if expr is not None:
            scanner.visit(expr)
    return scanner


def _const_truth(test: ast.AST) -> Optional[bool]:
    """The constant truth value of a test expression, or None."""
    if isinstance(test, ast.Constant):
        try:
            return bool(test.value)
        except Exception:  # pragma: no cover - exotic constants
            return None
    return None


def _is_timeout_ref(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "TIMEOUT") or (
        isinstance(node, ast.Attribute) and node.attr == "TIMEOUT"
    )


def _timeout_guard(test: ast.AST, var: str) -> Optional[bool]:
    """Parse ``var is [not] TIMEOUT``; True = the *true* branch timed out."""
    if not (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.left, ast.Name)
        and test.left.id == var
        and _is_timeout_ref(test.comparators[0])
    ):
        return None
    if isinstance(test.ops[0], (ast.Is, ast.Eq)):
        return True
    if isinstance(test.ops[0], (ast.IsNot, ast.NotEq)):
        return False
    return None


def _positive_constant_duration(call: ast.Call) -> bool:
    """True for ``ns(10)``-style calls with a positive numeric literal."""
    if len(call.args) != 1 or call.keywords:
        return False
    arg = call.args[0]
    return (
        isinstance(arg, ast.Constant)
        and isinstance(arg.value, (int, float))
        and not isinstance(arg.value, bool)
        and arg.value > 0
    )


def _anyof_members(call: ast.Call) -> Optional[Tuple[Path, ...]]:
    """Member event paths of an ``AnyOf([...])`` literal, or None.

    Resolvable only when the first argument is a list/tuple literal whose
    every element is a plain ``self.<...>`` path.  An empty literal is the
    (resolved) pure-timeout form and returns ``()``.
    """
    if not call.args or not isinstance(call.args[0], (ast.List, ast.Tuple)):
        return None
    members: List[Path] = []
    for elt in call.args[0].elts:
        path = _self_path(elt)
        if not path:
            return None
        members.append(path)
    return tuple(members)


def _classify_wait(value: Optional[ast.AST]) -> WaitInfo:
    """Classify the expression yielded at a wait site."""
    if value is None or (isinstance(value, ast.Constant) and value.value is None):
        return WaitInfo("static", False)
    path = _self_path(value)
    if path:
        return WaitInfo("event", False, target=path)
    if isinstance(value, ast.Call):
        func = value.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in _TIME_FUNCS:
            return WaitInfo("timed", _positive_constant_duration(value))
        if name == "AnyOf":
            timeout = next(
                (kw.value for kw in value.keywords if kw.arg == "timeout"), None
            )
            if timeout is None and len(value.args) >= 2:
                timeout = value.args[1]
            has_timeout = timeout is not None and not (
                isinstance(timeout, ast.Constant) and timeout.value is None
            )
            members = _anyof_members(value)
            if has_timeout:
                return WaitInfo(
                    "anyof_timeout", False, members=members, has_timeout=True
                )
            return WaitInfo("event", False, members=members)
        if name == "AllOf":
            return WaitInfo("event", False)
    return WaitInfo("unknown", False)


def _must_enter_loop(iter_expr: ast.AST) -> bool:
    """True when a ``for`` provably executes its body at least once."""
    if isinstance(iter_expr, (ast.List, ast.Tuple)):
        return bool(iter_expr.elts)
    if (
        isinstance(iter_expr, ast.Call)
        and isinstance(iter_expr.func, ast.Name)
        and iter_expr.func.id == "range"
        and not iter_expr.keywords
    ):
        args = iter_expr.args
        if all(isinstance(a, ast.Constant) and isinstance(a.value, int) for a in args):
            values = [a.value for a in args]
            if len(values) == 1:
                return values[0] > 0
            if len(values) >= 2:
                step = values[2] if len(values) == 3 else 1
                if step > 0:
                    return values[1] > values[0]
                if step < 0:
                    return values[1] < values[0]
    return False


class _Unresolvable(Exception):
    """Internal: abandon machine-level guarantees with a reason."""


# --------------------------------------------------------------------------
# CFG construction
# --------------------------------------------------------------------------

class _CfgBuilder:
    """Builds a :class:`Cfg` from a function AST, splicing self-helpers.

    The builder threads a *frontier* (the set of nodes whose control falls
    through to the next statement) through a recursive statement walk.
    ``break`` / ``continue`` / ``return`` are routed through every
    enclosing ``finally`` block (the block's statements are re-emitted per
    escape path, matching Python's execution), and every statement inside
    a ``try`` gets conservative exception edges to the handler heads.
    """

    def __init__(self, owner_type: Optional[type], fn_name: str, stack: Tuple[object, ...]):
        self.owner_type = owner_type
        self.fn_name = fn_name
        self.stack = stack  # code objects being spliced (recursion guard)
        self.nodes: List[CfgNode] = []
        self.unresolved_reason: Optional[str] = None
        #: External (blocking-call) wait sites emitted; the resulting flow
        #: is flagged so write-count consumers treat callee effects as
        #: opaque.
        self.external_count = 0
        self._loops: List[Tuple[int, List[int], int]] = []  # (head, breaks, fin_depth)
        self._returns: List[Tuple[List[int], int]] = []  # (collector, fin_depth)
        self._finallies: List[List[ast.stmt]] = []
        self._handlers: List[List[int]] = []
        self._var_stores: List[Dict[str, int]] = []
        #: Inlined per-call effects of plainly-called self helpers, keyed by
        #: name, resolved lazily through :func:`analyze_function`.
        self._helper_cache: Dict[str, Optional[FunctionControlFlow]] = {}

    # -- plumbing ------------------------------------------------------------
    def _mark_unresolved(self, reason: str) -> None:
        if self.unresolved_reason is None:
            self.unresolved_reason = reason

    def _new(
        self,
        kind: str,
        *,
        lineno: int = 0,
        source: str = "",
        reads: Tuple[Path, ...] = (),
        writes: Tuple[Path, ...] = (),
        wait: Optional[WaitInfo] = None,
    ) -> int:
        index = len(self.nodes)
        node = CfgNode(
            index, kind, lineno=lineno, source=source, reads=reads, writes=writes, wait=wait
        )
        if kind in ("stmt", "wait", "branch", "return"):
            node.exc_succs = [h for heads in self._handlers for h in heads]
        self.nodes.append(node)
        return index

    def _connect(self, frontier: List[int], target: int) -> None:
        for idx in frontier:
            self.nodes[idx].succs.append(target)

    @staticmethod
    def _src(stmt: ast.AST) -> str:
        unparse = getattr(ast, "unparse", None)
        if unparse is None:  # pragma: no cover - py<3.9
            return type(stmt).__name__
        try:
            text = unparse(stmt).strip().splitlines()[0]
        except Exception:  # pragma: no cover - defensive
            return type(stmt).__name__
        return text if len(text) <= 80 else text[:77] + "..."

    # -- effect resolution ---------------------------------------------------
    def _helper_flow(self, name: str) -> Optional[FunctionControlFlow]:
        """Per-call effects of ``self.<name>()`` when it is a same-class helper."""
        if name in self._helper_cache:
            return self._helper_cache[name]
        flow: Optional[FunctionControlFlow] = None
        if self.owner_type is not None:
            target = getattr(self.owner_type, name, None)
            target = getattr(target, "__func__", target)
            if isinstance(target, types.FunctionType):
                flow = analyze_function(self.owner_type, target, _stack=self.stack)
        self._helper_cache[name] = flow
        return flow

    def _effects(self, scanner: _ExprScanner) -> Tuple[Tuple[Path, ...], Tuple[Path, ...]]:
        """Statement effects: direct occurrences plus plain self-call bodies."""
        reads = list(scanner.reads)
        writes = list(scanner.writes)
        for name in scanner.self_calls:
            flow = self._helper_flow(name)
            if flow is None:
                continue  # not a same-class function; facts-level opaqueness applies
            if flow.unresolved:
                raise _Unresolvable(f"helper self.{name}(): {flow.reason}")
            reads.extend(flow.read_paths)
            for path, count in flow.write_counts.items():
                writes.extend([path] * min(count, MANY))
        return tuple(reads), tuple(writes)

    def _stmt_node(self, stmt: ast.stmt, *exprs: Optional[ast.AST]) -> int:
        scanner = _scan(*exprs)
        if scanner.yields:
            raise _Unresolvable(
                f"yield in an unsupported expression position (line {stmt.lineno})"
            )
        reads, writes = self._effects(scanner)
        return self._new(
            "stmt", lineno=stmt.lineno, source=self._src(stmt), reads=reads, writes=writes
        )

    # -- jumps through finally blocks ---------------------------------------
    def _through_finallies(self, frontier: List[int], depth: int) -> List[int]:
        """Route a jump through every pending ``finally`` down to ``depth``."""
        saved = self._finallies
        for i in range(len(saved) - 1, depth - 1, -1):
            self._finallies = saved[:i]
            frontier = self._emit_block(saved[i], frontier)
        self._finallies = saved
        return frontier

    # -- statement emission --------------------------------------------------
    def _emit_block(self, stmts: List[ast.stmt], frontier: List[int]) -> List[int]:
        pending_guard: Optional[str] = None  # result var of a timeout-composite wait
        for stmt in stmts:
            guard = pending_guard
            pending_guard = None
            if isinstance(stmt, (ast.If,)) and guard is not None:
                frontier = self._emit_if(stmt, frontier, guard_var=guard)
            elif isinstance(stmt, ast.If):
                frontier = self._emit_if(stmt, frontier)
            elif isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, (ast.Yield, ast.YieldFrom)
            ):
                frontier = self._emit_wait(stmt, stmt.value, None, frontier)
            elif (
                isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, (ast.Yield, ast.YieldFrom))
            ):
                target = None
                if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
                    target = stmt.targets[0].id
                frontier = self._emit_wait(stmt, stmt.value, target, frontier)
                # Timeout-guard refinement: the wait's own classification
                # (first-class, not read back off the emitted CFG) says
                # whether `target is TIMEOUT` on the next statement proves
                # the timer fired.  Single-store targets only: a re-assigned
                # variable could carry a stale verdict into the guard.
                if (
                    target is not None
                    and isinstance(stmt.value, ast.Yield)
                    and _classify_wait(stmt.value.value).kind == "anyof_timeout"
                    and self._var_stores[-1].get(target, 0) == 1
                ):
                    pending_guard = target
            elif isinstance(stmt, ast.While):
                frontier = self._emit_while(stmt, frontier)
            elif isinstance(stmt, ast.For):
                frontier = self._emit_for(stmt, frontier)
            elif isinstance(stmt, ast.Try):
                frontier = self._emit_try(stmt, frontier)
            elif isinstance(stmt, ast.With):
                node = self._stmt_node(stmt, *[item.context_expr for item in stmt.items])
                self._connect(frontier, node)
                frontier = self._emit_block(stmt.body, [node])
            elif isinstance(stmt, ast.Return):
                node = self._stmt_node(stmt, stmt.value)
                self.nodes[node].kind = "return"
                self._connect(frontier, node)
                collector, depth = self._returns[-1]
                collector.extend(self._through_finallies([node], depth))
                frontier = []
            elif isinstance(stmt, ast.Break):
                node = self._new("stmt", lineno=stmt.lineno, source="break")
                self._connect(frontier, node)
                if not self._loops:
                    raise _Unresolvable("break outside loop")
                head, breaks, depth = self._loops[-1]
                breaks.extend(self._through_finallies([node], depth))
                frontier = []
            elif isinstance(stmt, ast.Continue):
                node = self._new("stmt", lineno=stmt.lineno, source="continue")
                self._connect(frontier, node)
                if not self._loops:
                    raise _Unresolvable("continue outside loop")
                head, breaks, depth = self._loops[-1]
                for idx in self._through_finallies([node], depth):
                    self.nodes[idx].succs.append(head)
                frontier = []
            elif isinstance(stmt, ast.Raise):
                node = self._stmt_node(stmt, stmt.exc, stmt.cause)
                self._connect(frontier, node)
                frontier = []  # normal flow ends; exc edges were attached
            elif isinstance(stmt, (ast.AsyncFor, ast.AsyncWith, ast.AsyncFunctionDef)):
                raise _Unresolvable(f"async construct (line {stmt.lineno})")
            elif isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                node = self._new("stmt", lineno=stmt.lineno, source=self._src(stmt))
                self._connect(frontier, node)
                frontier = [node]
            elif isinstance(stmt, (ast.Import, ast.ImportFrom, ast.Pass, ast.Global, ast.Nonlocal)):
                node = self._new("stmt", lineno=stmt.lineno, source=self._src(stmt))
                self._connect(frontier, node)
                frontier = [node]
            else:
                # Plain statement (assignments, expression calls, assert...):
                # one node carrying the whole statement's effects.
                if any(
                    isinstance(n, ast.Match) for n in ast.walk(stmt)
                ):  # pragma: no cover - match rarely appears in process bodies
                    self._mark_unresolved(f"match statement (line {stmt.lineno})")
                node = self._stmt_node(stmt, stmt)
                self._connect(frontier, node)
                frontier = [node]
        return frontier

    def _emit_if(
        self, stmt: ast.If, frontier: List[int], guard_var: Optional[str] = None
    ) -> List[int]:
        scanner = _scan(stmt.test)
        if scanner.yields:
            raise _Unresolvable(f"yield inside a branch condition (line {stmt.lineno})")
        reads, writes = self._effects(scanner)
        branch = self._new(
            "branch", lineno=stmt.lineno, source=self._src(stmt.test), reads=reads, writes=writes
        )
        node = self.nodes[branch]
        node.is_if = True
        node.const_test = _const_truth(stmt.test)
        if guard_var is not None:
            timed_out = _timeout_guard(stmt.test, guard_var)
            if timed_out is True:
                node.resets_true = True
            elif timed_out is False:
                node.resets_false = True
        self._connect(frontier, branch)
        t_arm = self._new("arm")
        f_arm = self._new("arm")
        node.true_succ, node.false_succ = t_arm, f_arm
        out: List[int] = []
        if node.const_test is not False:
            node.succs.append(t_arm)
            out += self._emit_block(stmt.body, [t_arm])
        else:
            out += self._emit_block(stmt.body, [])
        if node.const_test is not True:
            node.succs.append(f_arm)
            out += self._emit_block(stmt.orelse, [f_arm])
        else:
            out += self._emit_block(stmt.orelse, [])
        # Explicit join node: the structural rejoin point of the arms.
        # Postdominators cannot find it inside an exit-free infinite loop
        # (nothing reaches the CFG exit there), the builder always can.
        join = self._new("arm")
        self._connect(out, join)
        node.join_succ = join
        return [join]

    def _emit_while(self, stmt: ast.While, frontier: List[int]) -> List[int]:
        scanner = _scan(stmt.test)
        if scanner.yields:
            raise _Unresolvable(f"yield inside a loop condition (line {stmt.lineno})")
        reads, writes = self._effects(scanner)
        head = self._new(
            "branch", lineno=stmt.lineno, source=self._src(stmt.test), reads=reads, writes=writes
        )
        node = self.nodes[head]
        node.is_loop = True
        node.const_test = _const_truth(stmt.test)
        self._connect(frontier, head)
        t_arm = self._new("arm")
        f_arm = self._new("arm")
        node.true_succ, node.false_succ = t_arm, f_arm
        breaks: List[int] = []
        self._loops.append((head, breaks, len(self._finallies)))
        if node.const_test is not False:
            node.succs.append(t_arm)
            body_out = self._emit_block(stmt.body, [t_arm])
        else:
            body_out = self._emit_block(stmt.body, [])
        self._connect(body_out, head)  # back edge
        self._loops.pop()
        out: List[int] = []
        if node.const_test is not True:
            node.succs.append(f_arm)
            out += self._emit_block(stmt.orelse, [f_arm])
        else:
            out += self._emit_block(stmt.orelse, [])
        return out + breaks

    def _emit_for(self, stmt: ast.For, frontier: List[int]) -> List[int]:
        scanner = _scan(stmt.iter)
        if scanner.yields:
            raise _Unresolvable(f"yield inside a loop iterable (line {stmt.lineno})")
        reads, writes = self._effects(scanner)
        must_enter = _must_enter_loop(stmt.iter)
        head = self._new(
            "branch",
            lineno=stmt.lineno,
            source=self._src(stmt.iter),
            reads=() if must_enter else reads,
            writes=() if must_enter else writes,
        )
        node = self.nodes[head]
        node.is_loop = True
        t_arm = self._new("arm")
        f_arm = self._new("arm")
        node.true_succ, node.false_succ = t_arm, f_arm
        node.succs.extend([t_arm, f_arm])
        if must_enter:
            # The iterable provably yields at least once: route the first
            # entry straight into the body so a skip-the-body path does not
            # exist (it would fake a waitless cycle around an outer loop).
            entry = self._new(
                "branch", lineno=stmt.lineno, source=self._src(stmt.iter),
                reads=reads, writes=writes,
            )
            self.nodes[entry].true_succ = t_arm
            self.nodes[entry].succs.append(t_arm)
            self._connect(frontier, entry)
        else:
            self._connect(frontier, head)
        breaks: List[int] = []
        self._loops.append((head, breaks, len(self._finallies)))
        body_out = self._emit_block(stmt.body, [t_arm])
        self._connect(body_out, head)  # back edge (next iteration test)
        self._loops.pop()
        out = self._emit_block(stmt.orelse, [f_arm])
        return out + breaks

    def _emit_try(self, stmt: ast.Try, frontier: List[int]) -> List[int]:
        handler_heads = [self._new("arm") for _ in stmt.handlers]
        if stmt.finalbody:
            self._finallies.append(stmt.finalbody)
        self._handlers.append(handler_heads)
        body_out = self._emit_block(stmt.body, frontier)
        self._handlers.pop()
        if stmt.orelse:
            body_out = self._emit_block(stmt.orelse, body_out)
        handler_out: List[int] = []
        for head, handler in zip(handler_heads, stmt.handlers):
            handler_out += self._emit_block(handler.body, [head])
        if stmt.finalbody:
            self._finallies.pop()
        out = body_out + handler_out
        if stmt.finalbody:
            out = self._emit_block(stmt.finalbody, out)
        return out

    def _emit_wait(
        self,
        stmt: ast.stmt,
        value: ast.AST,
        target: Optional[str],
        frontier: List[int],
    ) -> List[int]:
        if isinstance(value, ast.YieldFrom):
            call = value.value
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute):
                root = _self_path(call.func.value)
                if root == ():
                    return self._splice(stmt, call, frontier)
                if root:
                    return self._emit_external(stmt, call, root, frontier)
            raise _Unresolvable(
                f"yield from a foreign generator (line {stmt.lineno})"
            )
        assert isinstance(value, ast.Yield)
        scanner = _scan(value.value)
        if scanner.yields:
            raise _Unresolvable(f"nested yield (line {stmt.lineno})")
        reads, writes = self._effects(scanner)
        info = _classify_wait(value.value)
        node = self._new(
            "wait",
            lineno=stmt.lineno,
            source=self._src(stmt),
            reads=reads,
            writes=writes,
            wait=info,
        )
        self._connect(frontier, node)
        return [node]

    def _emit_external(
        self, stmt: ast.stmt, call: ast.Call, root: Path, frontier: List[int]
    ) -> List[int]:
        """``yield from self.<chain>.<method>(...)`` — a blocking call into
        another component (bus transport, channel, arbiter).

        The callee is not spliced — its frame belongs to the target object,
        not this module — so the whole call becomes one *external* wait
        state carrying the target path and method name.  Its internal
        effects are invisible here, which is why :func:`analyze_function`
        flags the flow (``external_waits``) and write-count consumers must
        not trust the counts for such flows.
        """
        scanner = _scan(*call.args, *[kw.value for kw in call.keywords])
        if scanner.yields:
            raise _Unresolvable(f"yield inside call arguments (line {stmt.lineno})")
        reads, writes = self._effects(scanner)
        self.external_count += 1
        info = WaitInfo("external", False, target=root, method=call.func.attr)
        node = self._new(
            "wait",
            lineno=stmt.lineno,
            source=self._src(stmt),
            reads=tuple(reads) + (root,),
            writes=writes,
            wait=info,
        )
        self._connect(frontier, node)
        return [node]

    def _splice(self, stmt: ast.stmt, call: ast.Call, frontier: List[int]) -> List[int]:
        """Inline ``yield from self.helper(...)`` into the current graph."""
        scanner = _scan(*call.args, *[kw.value for kw in call.keywords])
        if scanner.yields:
            raise _Unresolvable(f"yield inside call arguments (line {stmt.lineno})")
        arg_reads, arg_writes = self._effects(scanner)
        if arg_reads or arg_writes:
            node = self._new(
                "stmt", lineno=stmt.lineno, source=self._src(stmt),
                reads=arg_reads, writes=arg_writes,
            )
            self._connect(frontier, node)
            frontier = [node]
        name = call.func.attr
        target = getattr(self.owner_type, name, None) if self.owner_type else None
        target = getattr(target, "__func__", target)
        if not isinstance(target, types.FunctionType):
            raise _Unresolvable(f"yield from self.{name}(...): not a plain method")
        code = target.__code__
        if any(code is c for c in self.stack):
            raise _Unresolvable(f"recursive helper self.{name}(...)")
        fn_node = _fn_ast(target)
        if fn_node is None:
            raise _Unresolvable(f"source of self.{name}(...) unavailable")
        # Helper locals live in their own frame; save the surrounding
        # control context so its loops/handlers cannot capture the splice.
        saved = (self._loops, self._finallies, self._handlers, self.stack)
        self._loops, self._finallies, self._handlers = [], [], []
        self.stack = self.stack + (code,)
        collector: List[int] = []
        self._returns.append((collector, 0))
        self._var_stores.append(_store_counts(fn_node))
        out = self._emit_block(fn_node.body, frontier)
        self._var_stores.pop()
        self._returns.pop()
        self._loops, self._finallies, self._handlers, self.stack = saved
        return out + collector

    # -- entry point ---------------------------------------------------------
    def build(self, fn_node: ast.FunctionDef) -> Cfg:
        entry = self._new("entry")
        collector: List[int] = []
        self._returns.append((collector, 0))
        self._var_stores.append(_store_counts(fn_node))
        frontier = self._emit_block(fn_node.body, [entry])
        exit_idx = self._new("exit")
        self._connect(frontier + collector, exit_idx)
        return Cfg(self.fn_name, self.nodes, entry, exit_idx)


def _store_counts(fn_node: ast.AST) -> Dict[str, int]:
    """How many times each local name is assigned in the function body."""
    counts: Dict[str, int] = {}
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            counts[node.id] = counts.get(node.id, 0) + 1
    return counts


_AST_CACHE: Dict[object, Optional[ast.FunctionDef]] = {}


def _fn_ast(func: types.FunctionType) -> Optional[ast.FunctionDef]:
    """The (cached) parsed definition of ``func``, or None."""
    code = func.__code__
    if code in _AST_CACHE:
        return _AST_CACHE[code]
    node: Optional[ast.FunctionDef] = None
    try:
        tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    except (OSError, TypeError, SyntaxError, IndentationError, ValueError):
        tree = None
    if tree is not None:
        node = next(
            (n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))),
            None,
        )
        if isinstance(node, ast.AsyncFunctionDef):
            node = None
    _AST_CACHE[code] = node
    return node


# --------------------------------------------------------------------------
# Machine extraction + write-count analysis
# --------------------------------------------------------------------------

def extract_machine(cfg: Cfg) -> Tuple[WaitStateMachine, Dict[Path, int], FrozenSet[Path]]:
    """Wait-state machine, per-instant write counts, and entry-segment writes.

    One forward dataflow over the CFG tracks, per node:

    * which wait state each incoming path last passed (START before the
      first wait) together with the read/write effects accumulated since —
      finalized into machine edges at the next wait (or END);
    * the per-path write *counts* within the current simulated instant,
      joined by max, reset when crossing a wait that provably advances
      time (or the ``TIMEOUT`` branch of a guarded ``AnyOf`` wait).
    """
    wait_nodes = [n.index for n in cfg.nodes if n.kind == "wait"]
    state_of: Dict[int, int] = {}
    states: List[WaitState] = [WaitState(0, "start", 0, "START", False)]
    for node_idx in wait_nodes:
        node = cfg.nodes[node_idx]
        state = WaitState(
            len(states), node.wait.kind, node.lineno, node.source, node.wait.advances,
            node.wait,
        )
        state_of[node_idx] = state.index
        states.append(state)
    end_state = WaitState(len(states), "end", 0, "END", False)
    states.append(end_state)

    Seg = Dict[int, Tuple[FrozenSet[Path], FrozenSet[Path]]]
    seg_in: Dict[int, Seg] = {cfg.entry: {0: (frozenset(), frozenset())}}
    cnt_in: Dict[int, Dict[Path, int]] = {cfg.entry: {}}
    edges: Dict[Tuple[int, int], Tuple[Set[Path], Set[Path]]] = {}
    global_counts: Dict[Path, int] = {}

    def merge(dst: int, seg: Seg, cnt: Dict[Path, int]) -> bool:
        changed = False
        d_seg = seg_in.setdefault(dst, {})
        for origin, (reads, writes) in seg.items():
            old = d_seg.get(origin)
            if old is None:
                d_seg[origin] = (reads, writes)
                changed = True
            else:
                merged = (old[0] | reads, old[1] | writes)
                if merged != old:
                    d_seg[origin] = merged
                    changed = True
        d_cnt = cnt_in.setdefault(dst, {})
        for path, count in cnt.items():
            if count > d_cnt.get(path, 0):
                d_cnt[path] = count
                changed = True
        return changed

    worklist = [cfg.entry]
    iterations = 0
    limit = 40 * (len(cfg.nodes) + 1) * (len(states) + 1)
    while worklist:
        iterations += 1
        if iterations > limit:  # pragma: no cover - defensive fixpoint guard
            raise _Unresolvable("write-count analysis did not converge")
        node = cfg.nodes[worklist.pop()]
        seg = seg_in.get(node.index, {})
        cnt = dict(cnt_in.get(node.index, {}))
        # Apply this node's own effects.
        out_seg: Seg = {}
        for origin, (reads, writes) in seg.items():
            out_seg[origin] = (reads | frozenset(node.reads), writes | frozenset(node.writes))
        for path in node.writes:
            cnt[path] = min(cnt.get(path, 0) + 1, MANY)
        for path, count in cnt.items():
            if count > global_counts.get(path, 0):
                global_counts[path] = count
        out_cnt = cnt
        if node.kind == "wait":
            state = state_of[node.index]
            for origin, (reads, writes) in out_seg.items():
                acc = edges.setdefault((origin, state), (set(), set()))
                acc[0].update(reads)
                acc[1].update(writes)
            out_seg = {state: (frozenset(), frozenset())}
            if node.wait.advances:
                out_cnt = {}
        elif node.kind == "exit":
            for origin, (reads, writes) in out_seg.items():
                acc = edges.setdefault((origin, end_state.index), (set(), set()))
                acc[0].update(reads)
                acc[1].update(writes)
            continue
        for succ in node.succs:
            succ_cnt = out_cnt
            if node.resets_true and succ == node.true_succ:
                succ_cnt = {}
            elif node.resets_false and succ == node.false_succ:
                succ_cnt = {}
            if merge(succ, out_seg, succ_cnt):
                worklist.append(succ)
        for succ in node.exc_succs:
            if merge(succ, out_seg, out_cnt):
                worklist.append(succ)

    machine_edges = [
        MachineEdge(src, dst, frozenset(reads), frozenset(writes))
        for (src, dst), (reads, writes) in sorted(edges.items())
    ]
    entry_writes: Set[Path] = set()
    for edge in machine_edges:
        if edge.src == 0:
            entry_writes.update(edge.writes)
    machine = WaitStateMachine(cfg.fn_name, states, machine_edges)
    return machine, global_counts, frozenset(entry_writes)


# --------------------------------------------------------------------------
# Cached per-function analysis
# --------------------------------------------------------------------------

_FLOW_CACHE: Dict[Tuple[object, Optional[type]], FunctionControlFlow] = {}


def analyze_function(
    owner_type: Optional[type],
    func: object,
    _stack: Tuple[object, ...] = (),
) -> FunctionControlFlow:
    """Control-flow analysis of one function, cached per (code, owner class).

    Never raises: any unsupported construct (or internal failure) returns a
    flow with ``unresolved=True`` and a human-readable reason.
    """
    func = getattr(func, "__func__", func)
    code = getattr(func, "__code__", None)
    if code is None:
        return FunctionControlFlow(
            getattr(func, "__name__", repr(func)), None, None,
            unresolved=True, reason="not a plain function",
        )
    key = (code, owner_type)
    cached = _FLOW_CACHE.get(key)
    if cached is not None:
        return cached
    fn_name = getattr(func, "__qualname__", getattr(func, "__name__", "?"))
    if any(code is c for c in _stack):
        # Context-dependent verdict: do not cache it.
        return FunctionControlFlow(
            fn_name, None, None, unresolved=True, reason="recursive helper"
        )
    fn_node = _fn_ast(func)
    if fn_node is None:
        flow = FunctionControlFlow(
            fn_name, None, None, unresolved=True, reason="source unavailable"
        )
        _FLOW_CACHE[key] = flow
        return flow
    builder = _CfgBuilder(owner_type, fn_name, _stack + (code,))
    try:
        cfg = builder.build(fn_node)
        machine, counts, entry_writes = extract_machine(cfg)
    except _Unresolvable as exc:
        flow = FunctionControlFlow(
            fn_name, None, None, unresolved=True, reason=str(exc)
        )
        _FLOW_CACHE[key] = flow
        return flow
    except RecursionError:  # pragma: no cover - deep nesting guard
        flow = FunctionControlFlow(
            fn_name, None, None, unresolved=True, reason="nesting too deep"
        )
        _FLOW_CACHE[key] = flow
        return flow
    except Exception as exc:  # never crash the caller on an analysis bug
        flow = FunctionControlFlow(
            fn_name, None, None, unresolved=True,
            reason=f"internal error: {type(exc).__name__}: {exc}",
        )
        _FLOW_CACHE[key] = flow
        return flow
    read_paths = frozenset(p for node in cfg.nodes for p in node.reads)
    flow = FunctionControlFlow(
        fn_name,
        cfg,
        machine,
        write_counts=counts,
        entry_writes=entry_writes,
        read_paths=read_paths,
        unresolved=builder.unresolved_reason is not None,
        reason=builder.unresolved_reason or "",
        external_waits=builder.external_count > 0,
    )
    _FLOW_CACHE[key] = flow
    return flow


@dataclass
class ProcessControlFlow:
    """A registered process together with its function's control flow."""

    process: object
    owner: Optional[object]
    name: str
    kind: str
    flow: FunctionControlFlow

    @property
    def unresolved(self) -> bool:
        return self.flow.unresolved

    @property
    def reason(self) -> str:
        return self.flow.reason

    def resolve_signal(self, path: Path) -> Optional[Signal]:
        """The live signal a ``self``-rooted path lands on, following port
        binding chains; None when the path resolves to anything else."""
        if self.owner is None:
            return None
        return _as_signal(_resolve_path(self.owner, path))


def analyze_process(process: object) -> ProcessControlFlow:
    """Control-flow analysis of one registered process (never raises)."""
    fn = getattr(process, "fn", None)
    owner = getattr(fn, "__self__", None)
    name = getattr(process, "name", repr(process))
    kind = getattr(process, "kind", "process")
    if fn is None or owner is None:
        flow = FunctionControlFlow(
            name, None, None, unresolved=True,
            reason="free-function process (no self to root paths at)",
        )
        return ProcessControlFlow(process, None, name, kind, flow)
    return ProcessControlFlow(process, owner, name, kind, analyze_function(type(owner), fn))


def reachable_wait_states(machine: WaitStateMachine) -> List[WaitState]:
    """Wait states some run can actually suspend in (dead waits dropped)."""
    succs: Dict[int, List[int]] = {}
    for edge in machine.edges:
        succs.setdefault(edge.src, []).append(edge.dst)
    seen = {0}
    stack = [0]
    while stack:
        for dst in succs.get(stack.pop(), ()):
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return [
        s for s in machine.states if s.kind not in ("start", "end") and s.index in seen
    ]


# --------------------------------------------------------------------------
# Rule-support queries (consumed by the REP5xx lint layer)
# --------------------------------------------------------------------------

def _dominators(cfg: Cfg) -> Dict[int, Set[int]]:
    """Dominator sets over normal edges, for reachable nodes only."""
    reachable = cfg.reachable(exceptions=False)
    preds: Dict[int, List[int]] = {i: [] for i in reachable}
    for node in cfg.nodes:
        if node.index not in reachable:
            continue
        for succ in node.succs:
            if succ in reachable:
                preds[succ].append(node.index)
    dom: Dict[int, Set[int]] = {i: set(reachable) for i in reachable}
    dom[cfg.entry] = {cfg.entry}
    changed = True
    while changed:
        changed = False
        for i in reachable:
            if i == cfg.entry or not preds[i]:
                continue
            new = set.intersection(*[dom[p] for p in preds[i]]) | {i}
            if new != dom[i]:
                dom[i] = new
                changed = True
    return dom


def waitless_loops(flow: FunctionControlFlow) -> List[Tuple[int, str]]:
    """Constant-true loops with a wait-free back-edge path (livelock risk).

    Only ``while True``-style loops are reported: a bounded or conditional
    loop that spins without waiting eventually exits, which is ordinary
    computation.  A *back edge* is an edge whose source the loop head
    dominates — a ``break`` that re-enters through an enclosing loop is
    not one.  The wait-free path search stays inside the natural loop of
    those back edges, and exception edges are ignored (waits do not raise
    in this kernel, so an escape through a handler is not a real cycle).
    """
    if flow.cfg is None:
        return []
    cfg = flow.cfg
    nodes = cfg.nodes
    dom = _dominators(cfg)
    preds: Dict[int, List[int]] = {n.index: [] for n in nodes}
    for node in nodes:
        for succ in node.succs:
            preds[succ].append(node.index)
    found: List[Tuple[int, str]] = []
    for head in nodes:
        if not (head.is_loop and head.const_test is True):
            continue
        back = [u for u in preds[head.index] if head.index in dom.get(u, set())]
        if not back:
            continue
        # Natural loop: head plus everything reaching a back-edge source
        # without passing through the head.
        loop_nodes: Set[int] = {head.index, *back}
        stack = list(back)
        while stack:
            idx = stack.pop()
            if idx == head.index:
                continue
            for pred in preds[idx]:
                if pred not in loop_nodes:
                    loop_nodes.add(pred)
                    stack.append(pred)
        # Wait-free path head -> some back-edge source within the loop.
        targets = set(back)
        stack = [head.index]
        seen: Set[int] = {head.index}
        hit = False
        while stack and not hit:
            idx = stack.pop()
            node = nodes[idx]
            if node.kind == "wait" and idx != head.index:
                continue
            if idx in targets and idx != head.index:
                hit = True
                break
            for succ in node.succs:
                if succ in loop_nodes and succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        if hit:
            found.append((head.lineno, head.source))
    return found


def unreachable_statements(flow: FunctionControlFlow) -> List[Tuple[int, str]]:
    """Real statements no path from the entry reaches (dead code)."""
    if flow.cfg is None:
        return []
    reachable = flow.cfg.reachable(exceptions=True)
    found: List[Tuple[int, str]] = []
    seen_lines: Set[int] = set()
    for node in flow.cfg.nodes:
        if node.index in reachable or node.lineno <= 0:
            continue
        if node.kind not in ("stmt", "wait", "branch", "return"):
            continue
        if node.lineno in seen_lines:
            continue
        seen_lines.add(node.lineno)
        found.append((node.lineno, node.source))
    return sorted(found)


def write_coverage(flow: FunctionControlFlow) -> Tuple[Set[Path], Set[Path]]:
    """``(may_write, must_write)`` over entry-to-exit paths (normal edges).

    ``must_write`` is the intersection over all normal-control paths; a
    path in ``may - must`` is only written conditionally — in a clocked
    method that is the latch-inference pattern (REP503).
    """
    if flow.cfg is None:
        return set(), set()
    nodes = flow.cfg.nodes
    may: Set[Path] = set()
    for node in nodes:
        may.update(node.writes)
    # Forward must-analysis: intersection at joins, union along a path.
    must_in: Dict[int, Optional[Set[Path]]] = {n.index: None for n in nodes}
    must_in[flow.cfg.entry] = set()
    worklist = [flow.cfg.entry]
    while worklist:
        node = nodes[worklist.pop()]
        inbound = must_in[node.index]
        if inbound is None:
            continue
        outbound = inbound | set(node.writes)
        for succ in node.succs:
            old = must_in[succ]
            new = set(outbound) if old is None else (old & outbound)
            if old is None or new != old:
                must_in[succ] = new
                worklist.append(succ)
    exit_must = must_in[flow.cfg.exit]
    return may, (exit_must if exit_must is not None else set())


def one_sided_wait_branches(flow: FunctionControlFlow) -> List[Tuple[int, str]]:
    """``if`` statements where one arm must wait before the join and the
    sibling arm can reach the same join without waiting — a
    variable-latency hazard in a protocol thread (REP504).

    The join is the branch's structural rejoin node recorded at build
    time, so the check works inside exit-free infinite loops.  Arms that
    never reach the join (early ``return``, ``continue``, ``break``) are
    guards, not latency branches, and are not compared.  The path search
    never re-crosses the branch node itself, so going around an enclosing
    loop does not count as rejoining.

    Only branches whose condition reads design state (``self``-rooted
    attribute paths) are flagged: a guard on a plain local, like the
    accelerator idiom ``if duration > ZERO_TIME: yield duration``, makes
    latency depend on a parameter the modeler computed on purpose, not on
    live signal data racing the thread.
    """
    if flow.cfg is None:
        return []
    nodes = flow.cfg.nodes
    found: List[Tuple[int, str]] = []
    for branch in nodes:
        if not branch.is_if or branch.join_succ < 0:
            continue
        if len(branch.succs) != 2:
            continue  # constant condition: only one arm is live
        if not branch.reads:
            continue  # condition on locals only: parameterized, not data
        join = branch.join_succ

        def arm_paths(arm: int) -> Tuple[bool, bool]:
            """(reaches join at all, reaches join without passing a wait)."""
            reaches = waitless = False
            stack: List[Tuple[int, bool]] = [(arm, False)]
            seen: Set[Tuple[int, bool]] = {(arm, False)}
            while stack:
                idx, waited = stack.pop()
                if idx == join:
                    reaches = True
                    if not waited:
                        waitless = True
                    continue
                if idx == branch.index:
                    continue  # looped all the way around; not this rejoin
                node = nodes[idx]
                next_waited = waited or node.kind == "wait"
                for succ in node.succs:
                    key = (succ, next_waited)
                    if key not in seen:
                        seen.add(key)
                        stack.append(key)
            return reaches, waitless

        t_reaches, t_waitless = arm_paths(branch.true_succ)
        f_reaches, f_waitless = arm_paths(branch.false_succ)
        t_must_wait = t_reaches and not t_waitless
        f_must_wait = f_reaches and not f_waitless
        if (t_must_wait and f_waitless) or (f_must_wait and t_waitless):
            found.append((branch.lineno, branch.source))
    return found
