"""Control-flow-sensitive process analysis: statement-level CFGs.

:mod:`repro.analysis.dataflow` reduces each process body to *flat* effect
facts — which signals it touches, which events it waits on — with no notion
of *where* in the body those effects sit.  That is enough for single-writer
reasoning but blind to control structure: it cannot tell a write before
the first wait from one after it, and it cannot see that code after an
exit-free ``while True`` loop is dead.

This module adds the control-flow layer:

* :func:`analyze_function` / :func:`analyze_process` — a statement-level
  control-flow graph per function body (branches, loops with
  ``break``/``continue``/``else``, ``try`` / ``except`` / ``finally``,
  early ``return``), with per-node read/write effects expressed as
  ``self``-rooted attribute paths.  Every ``yield`` is a *wait* node;
  ``yield from self.helper(...)`` is spliced in recursively, a blocking
  call into another component (``yield from self.<path>.<method>(...)``)
  is one *external* wait node, and delegating to any other generator
  marks the flow *unresolved* rather than guessing.
* The *entry writes* of a body: the paths written before its first wait
  (REP506).
* Rule-support queries for the REP5xx lint layer (waitless loops,
  unreachable statements, write coverage, one-sided wait branches), and
  :func:`reachable_waits`, from which the interprocedural layer
  (:mod:`repro.analysis.interproc`) reads a thread's blocking calls.

Statement effects come from the dataflow layer's AST visitor, so both
layers see the same paths.  Everything here follows the conservative
contract of the dataflow layer: analysis never raises — unsupported
constructs set ``unresolved`` with a reason, which consumers must read as
"anything could happen" (lint rules stay silent).
"""

from __future__ import annotations

import ast
import types
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..kernel import Signal
from .dataflow import (
    _TIME_FUNCS,
    _as_signal,
    _call_name,
    _FactsVisitor,
    _parse_function,
    _resolve_path,
    _self_path,
)

#: A ``self``-rooted attribute path, as in :mod:`repro.analysis.dataflow`.
Path = Tuple[str, ...]


# --------------------------------------------------------------------------
# Node model
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WaitInfo:
    """Classification of one ``yield`` site."""

    kind: str  # 'timed' | 'event' | 'static' | 'external' | 'unknown'
    #: For ``external`` waits (``yield from self.<chain>.<method>(...)``):
    #: the ``self``-rooted path of the call target, resolvable on the live
    #: owner, and the method name invoked on it.
    target: Optional[Path] = None
    method: str = ""


@dataclass
class CfgNode:
    """One statement-level node of a :class:`Cfg`."""

    index: int
    kind: str  # 'entry' | 'exit' | 'stmt' | 'wait' | 'branch' | 'arm' | 'return'
    lineno: int = 0
    source: str = ""
    succs: List[int] = field(default_factory=list)
    #: Conservative exception edges (any statement inside a ``try`` may
    #: transfer to its handlers).  Used for reachability and entry writes,
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


@dataclass
class FunctionControlFlow:
    """Everything the control-flow analysis proved about one function.

    ``unresolved`` means some construct escaped the analysis (foreign
    ``yield from``, recursion through helpers, a yield in an expression
    position, unparseable source); consumers must then assume anything.
    The CFG is still returned when it could be built — reachability-style
    queries degrade gracefully.  External waits run their callee in a
    foreign frame, so the effect sets cover only this body's own effects.
    """

    fn_name: str
    cfg: Optional[Cfg]
    #: Paths written by some node reachable from the entry; a caller that
    #: invokes this function as a plain ``self`` helper inherits them.
    write_paths: FrozenSet[Path] = frozenset()
    #: Paths written on some path before the first wait (the entry segment).
    entry_writes: FrozenSet[Path] = frozenset()
    read_paths: FrozenSet[Path] = frozenset()
    unresolved: bool = False
    reason: str = ""


# --------------------------------------------------------------------------
# Expression classification
# --------------------------------------------------------------------------

def _scan(*exprs: Optional[ast.AST]) -> _FactsVisitor:
    """The dataflow facts of some expressions (nested scopes not entered)."""
    visitor = _FactsVisitor()
    for expr in exprs:
        if expr is not None:
            visitor.visit(expr)
    return visitor


def _const_truth(test: ast.AST) -> Optional[bool]:
    """The constant truth value of a test expression, or None."""
    if isinstance(test, ast.Constant):
        try:
            return bool(test.value)
        except Exception:  # pragma: no cover - exotic constants
            return None
    return None


def _classify_wait(value: Optional[ast.AST]) -> WaitInfo:
    """Classify the expression yielded at a wait site."""
    if value is None or (isinstance(value, ast.Constant) and value.value is None):
        return WaitInfo("static")
    if _self_path(value):
        return WaitInfo("event")
    if isinstance(value, ast.Call):
        name = _call_name(value)
        if name in _TIME_FUNCS:
            return WaitInfo("timed")
        if name in ("AnyOf", "AllOf"):
            return WaitInfo("event")
    return WaitInfo("unknown")


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
    """Internal: abandon the analysis of a body with a reason."""


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
        self._loops: List[Tuple[int, List[int], int]] = []  # (head, breaks, fin_depth)
        self._returns: List[Tuple[List[int], int]] = []  # (collector, fin_depth)
        self._finallies: List[List[ast.stmt]] = []
        self._handlers: List[List[int]] = []
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

    def _effects(self, scanner: _FactsVisitor) -> Tuple[Tuple[Path, ...], Tuple[Path, ...]]:
        """Statement effects: direct accesses plus plain self-call bodies."""
        reads = list(scanner.reads)
        writes = list(scanner.writes)
        for name in scanner.self_calls:
            flow = self._helper_flow(name)
            if flow is None:
                continue  # not a same-class function; facts-level opaqueness applies
            if flow.unresolved:
                raise _Unresolvable(f"helper self.{name}(): {flow.reason}")
            reads.extend(flow.read_paths)
            writes.extend(flow.write_paths)
        return tuple(reads), tuple(writes)

    def _stmt_node(self, stmt: ast.stmt, *exprs: Optional[ast.AST]) -> int:
        scanner = _scan(*exprs)
        if scanner.yields_in_body:
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
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                frontier = self._emit_if(stmt, frontier)
            elif isinstance(stmt, (ast.Expr, ast.Assign)) and isinstance(
                stmt.value, (ast.Yield, ast.YieldFrom)
            ):
                frontier = self._emit_wait(stmt, stmt.value, frontier)
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

    def _emit_if(self, stmt: ast.If, frontier: List[int]) -> List[int]:
        scanner = _scan(stmt.test)
        if scanner.yields_in_body:
            raise _Unresolvable(f"yield inside a branch condition (line {stmt.lineno})")
        reads, writes = self._effects(scanner)
        branch = self._new(
            "branch", lineno=stmt.lineno, source=self._src(stmt.test), reads=reads, writes=writes
        )
        node = self.nodes[branch]
        node.is_if = True
        node.const_test = _const_truth(stmt.test)
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
        if scanner.yields_in_body:
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
        if scanner.yields_in_body:
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
        self, stmt: ast.stmt, value: ast.AST, frontier: List[int]
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
        if scanner.yields_in_body:
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
        node carrying the target path and method name.  Its internal
        effects are invisible here.
        """
        scanner = _scan(*call.args, *[kw.value for kw in call.keywords])
        if scanner.yields_in_body:
            raise _Unresolvable(f"yield inside call arguments (line {stmt.lineno})")
        reads, writes = self._effects(scanner)
        info = WaitInfo("external", target=root, method=call.func.attr)
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
        if scanner.yields_in_body:
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
        out = self._emit_block(fn_node.body, frontier)
        self._returns.pop()
        self._loops, self._finallies, self._handlers, self.stack = saved
        return out + collector

    # -- entry point ---------------------------------------------------------
    def build(self, fn_node: ast.FunctionDef) -> Cfg:
        entry = self._new("entry")
        collector: List[int] = []
        self._returns.append((collector, 0))
        frontier = self._emit_block(fn_node.body, [entry])
        exit_idx = self._new("exit")
        self._connect(frontier + collector, exit_idx)
        return Cfg(self.fn_name, self.nodes, entry, exit_idx)


_AST_CACHE: Dict[object, Optional[ast.FunctionDef]] = {}


def _fn_ast(func: types.FunctionType) -> Optional[ast.FunctionDef]:
    """The (cached) parsed definition of ``func``, or None."""
    code = func.__code__
    if code in _AST_CACHE:
        return _AST_CACHE[code]
    node = _parse_function(func)
    if isinstance(node, ast.AsyncFunctionDef):
        node = None
    _AST_CACHE[code] = node
    return node


def _entry_writes(cfg: Cfg) -> FrozenSet[Path]:
    """Paths written on the entry segment: before the first wait.

    A node counts when a wait-free path over normal and exception edges
    leads to it from the entry and on from it to a wait or the exit.  A
    wait ends the segment, and its own writes count; a write followed
    only by an unhandled ``raise`` does not.
    """
    nodes = cfg.nodes
    # Keys: the nodes reached from the entry without passing a wait.
    preds: Dict[int, List[int]] = {cfg.entry: []}
    stack = [cfg.entry]
    while stack:
        node = nodes[stack.pop()]
        if node.kind == "wait":
            continue
        for succ in node.succs + node.exc_succs:
            if succ not in preds:
                preds[succ] = []
                stack.append(succ)
            preds[succ].append(node.index)
    live = {idx for idx in preds if nodes[idx].kind in ("wait", "exit")}
    stack = list(live)
    while stack:
        for pred in preds[stack.pop()]:
            if pred not in live:
                live.add(pred)
                stack.append(pred)
    return frozenset(path for idx in live for path in nodes[idx].writes)


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
            getattr(func, "__name__", repr(func)), None,
            unresolved=True, reason="not a plain function",
        )
    key = (code, owner_type)
    cached = _FLOW_CACHE.get(key)
    if cached is not None:
        return cached
    fn_name = getattr(func, "__qualname__", getattr(func, "__name__", "?"))
    if any(code is c for c in _stack):
        # Context-dependent verdict: do not cache it.
        return FunctionControlFlow(fn_name, None, unresolved=True, reason="recursive helper")
    fn_node = _fn_ast(func)
    builder = _CfgBuilder(owner_type, fn_name, _stack + (code,))
    try:
        if fn_node is None:
            raise _Unresolvable("source unavailable")
        cfg = builder.build(fn_node)
        reachable = cfg.reachable()
        flow = FunctionControlFlow(
            fn_name,
            cfg,
            write_paths=frozenset(p for i in reachable for p in cfg.nodes[i].writes),
            entry_writes=_entry_writes(cfg),
            read_paths=frozenset(p for node in cfg.nodes for p in node.reads),
            unresolved=builder.unresolved_reason is not None,
            reason=builder.unresolved_reason or "",
        )
    except _Unresolvable as exc:
        flow = FunctionControlFlow(fn_name, None, unresolved=True, reason=str(exc))
    except RecursionError:  # pragma: no cover - deep nesting guard
        flow = FunctionControlFlow(fn_name, None, unresolved=True, reason="nesting too deep")
    except Exception as exc:  # never crash the caller on an analysis bug
        flow = FunctionControlFlow(
            fn_name, None, unresolved=True,
            reason=f"internal error: {type(exc).__name__}: {exc}",
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
            name, None, unresolved=True,
            reason="free-function process (no self to root paths at)",
        )
        return ProcessControlFlow(process, None, name, kind, flow)
    return ProcessControlFlow(process, owner, name, kind, analyze_function(type(owner), fn))


def reachable_waits(flow: FunctionControlFlow) -> List[CfgNode]:
    """Wait nodes some run can actually suspend in (dead waits dropped)."""
    if flow.cfg is None:
        return []
    reachable = flow.cfg.reachable()
    return [node for node in flow.cfg.nodes if node.kind == "wait" and node.index in reachable]


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
