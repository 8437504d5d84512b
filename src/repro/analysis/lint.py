"""Static model verification: a rule-based linter for netlists and designs.

The paper's methodology rewrites architectures mechanically (the DRCF
transformation) and then finds out at *runtime* whether the result is
sound — the Section 5.4 limitations surface as elaboration errors or, worst
of all, as a simulation that silently deadlocks (limitation 3, experiment
E7).  This module is the static companion: it checks

* a declarative :class:`~repro.core.netlist.Netlist` before elaboration
  (dangling bindings, overlapping address ranges, the limitation-3
  blocking-bus precondition),
* an elaborated module hierarchy (unbound ports, broken port chains,
  interface mismatches, multi-writer signals), and
* the DRCF configuration itself (context regions that overlap or fall
  outside the configuration memory),

without ever running the simulator.  Every finding is a structured
:class:`Diagnostic` with a stable ``REPnnn`` code, a severity, a location
and a fix hint, so reports are machine-consumable (``--json`` in the CLI)
and individual rules can be suppressed.  ``docs/LINT.md`` documents every
code with a minimal triggering example.

Rules register themselves in :data:`RULES` through the :func:`rule`
decorator; adding a check is writing one generator function::

    @rule("REP9xx", layer="netlist", summary="...")
    def _check_something(ctx):
        for spec in ctx.netlist.specs:
            if bad(spec):
                yield f"{ctx.netlist.name}.{spec.name}", "what is wrong", "how to fix it"

Entry point: :func:`run_lint` (also ``python -m repro lint``).
"""

from __future__ import annotations

import inspect
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..bus import Bus, BusMasterIf, BusSlaveIf
from ..core.drcf import Drcf
from ..core.netlist import ComponentSpec, ElaboratedDesign, Netlist
from ..kernel import Module, Simulator, ports_of, processes_of, signals_of
from .cfg import (
    ProcessControlFlow,
    analyze_process,
    one_sided_wait_branches,
    unreachable_statements,
    waitless_loops,
    write_coverage,
)
from .dataflow import DesignDataflow
from .interproc import ACQUIRE_COUNTERPARTS, LockTrace, acquire_sites, lock_order_trace, release_closure

#: The code of the limitation-3 (blocking-bus deadlock) precondition rule.
#: The runtime deadlock diagnosis (:mod:`repro.analysis.deadlock`) cross-
#: references it so post-mortem reports point back at the static check
#: that would have caught the architecture before any simulation ran.
DEADLOCK_RULE_CODE = "REP310"

#: The code of the interprocedural wait-for-cycle rule (REP601): the
#: *live-design* sharpening of :data:`DEADLOCK_RULE_CODE`, proven on the
#: elaborated hierarchy (binding chains, live bus protocol, registered
#: slaves) rather than on netlist specs.  The runtime post-mortem
#: cross-references both.
STATIC_DEADLOCK_RULE_CODE = "REP601"

#: Diagnostic severities, most severe first.
SEVERITIES = ("error", "warning", "info")

#: Rule layers, in the order the engine runs them.  ``meta`` rules are
#: emitted by the engine itself (elaboration/rule failures), not checked.
#: The ``dataflow`` layer (REP4xx, process-body analysis), the ``cfg``
#: layer (REP5xx, control-flow analysis) and the ``interproc`` layer
#: (REP6xx, interprocedural blocking-call analysis) are opt-in:
#: :func:`run_lint` only runs them with ``dataflow=True`` / ``cfg=True`` /
#: ``interproc=True``.
LAYERS = (
    "netlist", "transform", "design", "drcf", "dataflow", "cfg", "interproc", "meta"
)

#: How registry layers appear on diagnostics (the ``layer`` field in
#: ``--json`` output): the pre-elaboration/design/DRCF/meta layers are all
#: part of the always-on core; the opt-in analysis layers keep their name
#: so CI diffs can attribute regressions to the layer that found them.
_DISPLAY_LAYERS = {"dataflow": "dataflow", "cfg": "cfg", "interproc": "interproc"}


def display_layer(layer: str) -> str:
    """The diagnostic-facing layer name (``core``/``dataflow``/``cfg``/
    ``interproc``)."""
    return _DISPLAY_LAYERS.get(layer, "core")


# --------------------------------------------------------------------------
# Diagnostics and reports
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Diagnostic:
    """One finding: a stable code, a severity, a location and a fix hint.

    ``layer`` names the analysis layer that produced the finding
    (``core``, ``dataflow`` or ``cfg``) so machine consumers can attribute
    regressions when the opt-in layers are toggled.
    """

    code: str
    severity: str  # one of SEVERITIES
    message: str
    location: str = ""
    hint: str = ""
    layer: str = "core"

    def render(self) -> str:
        """One line (two with a hint): ``REP102 error top.fir: message``."""
        where = f" {self.location}" if self.location else ""
        line = f"{self.code} {self.severity}{where}: {self.message}"
        if self.hint:
            line += f"\n    hint: {self.hint}"
        return line

    def to_dict(self) -> Dict[str, str]:
        return asdict(self)


@dataclass
class LintReport:
    """All diagnostics of one :func:`run_lint` call."""

    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def infos(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "info"]

    @property
    def has_errors(self) -> bool:
        return any(d.severity == "error" for d in self.diagnostics)

    def codes(self) -> List[str]:
        """Distinct diagnostic codes present, sorted."""
        return sorted({d.code for d in self.diagnostics})

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def render(self) -> str:
        """Human-readable report with a trailing summary line."""
        lines = [d.render() for d in self.diagnostics]
        if not self.diagnostics:
            lines.append("clean: no diagnostics")
        else:
            lines.append(
                f"{len(self.errors)} error(s), {len(self.warnings)} "
                f"warning(s), {len(self.infos)} info(s)"
            )
        return "\n".join(lines)

    def to_dicts(self) -> List[Dict[str, str]]:
        """JSON-ready list of diagnostic dicts."""
        return [d.to_dict() for d in self.diagnostics]


# --------------------------------------------------------------------------
# Rule registry
# --------------------------------------------------------------------------

#: What a check may yield: a full Diagnostic (to override severity), or a
#: ``(location, message)`` / ``(location, message, hint)`` tuple.
CheckResult = Union[Diagnostic, Tuple[str, str], Tuple[str, str, str]]


@dataclass(frozen=True)
class Rule:
    """A registered check: stable code, layer, default severity, summary.

    ``example`` is an optional minimal triggering snippet shown by
    ``python -m repro lint --explain REPnnn``.
    """

    code: str
    layer: str
    severity: str
    summary: str
    check: Optional[Callable[["LintContext"], Iterable[CheckResult]]]
    example: str = ""


#: All registered rules by code.  Mutated only through register_rule().
RULES: Dict[str, Rule] = {}


def register_rule(entry: Rule) -> Rule:
    """Add a rule to the registry; codes must be unique."""
    if entry.code in RULES:
        raise ValueError(f"duplicate lint rule code {entry.code!r}")
    if entry.severity not in SEVERITIES:
        raise ValueError(f"rule {entry.code}: unknown severity {entry.severity!r}")
    if entry.layer not in LAYERS:
        raise ValueError(f"rule {entry.code}: unknown layer {entry.layer!r}")
    RULES[entry.code] = entry
    return entry


def rule(
    code: str, *, layer: str, severity: str = "error", summary: str = "", example: str = ""
):
    """Decorator registering a check function under ``code``."""

    def decorate(fn: Callable) -> Callable:
        register_rule(
            Rule(code, layer, severity, summary or (fn.__doc__ or "").strip(), fn, example)
        )
        return fn

    return decorate


# REP001 is emitted by the engine itself when analysis cannot proceed
# (netlist fails to elaborate, or a rule crashes); it has no check function.
register_rule(
    Rule(
        "REP001",
        layer="meta",
        severity="error",
        summary="analysis could not complete (elaboration or rule failure)",
        check=None,
    )
)


@dataclass
class LintContext:
    """Everything a check may look at.  Fields are None when not supplied."""

    netlist: Optional[Netlist] = None
    top: Optional[Module] = None
    #: The given design, when it is an :class:`ElaboratedDesign`: REP104
    #: reads the address ranges of the instances built from the netlist's
    #: own specs instead of building scratch ones.
    design: Optional[ElaboratedDesign] = None
    candidates: Optional[List[str]] = None
    config_memory: Optional[str] = None
    _dataflow: Optional[DesignDataflow] = field(default=None, repr=False)
    _cfg: Optional[List[ProcessControlFlow]] = field(default=None, repr=False)
    _lock_traces: Optional[List[LockTrace]] = field(default=None, repr=False)

    def dataflow_analysis(self) -> DesignDataflow:
        """The process-body dataflow analysis of the elaborated design.

        Built on first use and cached for the rest of the run: REP204 and
        every REP4xx rule share one AST pass over the design.
        """
        if self._dataflow is None:
            if self.top is None:
                raise ValueError("no elaborated design to analyze")
            self._dataflow = DesignDataflow(self.top)
        return self._dataflow

    def cfg_analysis(self) -> List[ProcessControlFlow]:
        """Control-flow analysis of every registered process, name-sorted.

        Built on first use and cached; every REP5xx rule shares one CFG
        pass per process body (unresolved bodies carry a reason, never
        raise).
        """
        if self._cfg is None:
            if self.top is None:
                raise ValueError("no elaborated design to analyze")
            flows = [
                analyze_process(p)
                for module in (self.top, *self.top.descendants())
                for p in processes_of(module)
            ]
            flows.sort(key=lambda pcf: pcf.name)
            self._cfg = flows
        return self._cfg

    def lock_traces(self) -> List[LockTrace]:
        """Lock-order traces of every thread process, name-sorted.

        Built on first use and cached; REP602 and REP603 share one
        source-order walk per thread body (unresolved traces carry a
        reason, never raise).
        """
        if self._lock_traces is None:
            if self.top is None:
                raise ValueError("no elaborated design to analyze")
            traces = [
                lock_order_trace(p)
                for module in (self.top, *self.top.descendants())
                for p in processes_of(module)
                if getattr(p, "kind", None) == "thread"
            ]
            traces.sort(key=lambda trace: trace.name)
            self._lock_traces = traces
        return self._lock_traces


# --------------------------------------------------------------------------
# Engine
# --------------------------------------------------------------------------

def _normalize_codes(codes: Union[str, Iterable[str], None]) -> Optional[List[str]]:
    """Accept ``"REP1,REP305"`` or an iterable; return upper-cased prefixes."""
    if codes is None:
        return None
    if isinstance(codes, str):
        codes = codes.split(",")
    cleaned = [c.strip().upper() for c in codes if c and c.strip()]
    return cleaned or None


def _enabled(code: str, select: Optional[List[str]], ignore: Optional[List[str]]) -> bool:
    """Prefix-based selection: ``REP3`` matches ``REP301``; ignore wins."""
    if ignore and any(code.startswith(prefix) for prefix in ignore):
        return False
    if select:
        return any(code.startswith(prefix) for prefix in select)
    return True


def _as_diagnostic(entry: Rule, item: CheckResult) -> Diagnostic:
    layer = display_layer(entry.layer)
    if isinstance(item, Diagnostic):
        return item if item.layer == layer else replace(item, layer=layer)
    location, message = item[0], item[1]
    hint = item[2] if len(item) > 2 else ""
    return Diagnostic(entry.code, entry.severity, message, location, hint, layer)


def _run_layer(
    layer: str,
    ctx: LintContext,
    select: Optional[List[str]],
    ignore: Optional[List[str]],
    out: List[Diagnostic],
) -> None:
    for entry in sorted(RULES.values(), key=lambda item: item.code):
        if entry.layer != layer or entry.check is None:
            continue
        if not _enabled(entry.code, select, ignore):
            continue
        try:
            for item in entry.check(ctx) or ():
                diag = _as_diagnostic(entry, item)
                if _enabled(diag.code, select, ignore):
                    out.append(diag)
        except Exception as exc:  # a crashing rule must not kill the report
            if _enabled("REP001", select, ignore):
                out.append(
                    Diagnostic(
                        "REP001",
                        "error",
                        f"rule {entry.code} failed: {exc}",
                        location=layer,
                    )
                )


def run_lint(
    netlist: Optional[Netlist] = None,
    *,
    design: Union[ElaboratedDesign, Module, None] = None,
    candidates: Optional[Sequence[str]] = None,
    config_memory: Optional[str] = None,
    elaborate: bool = True,
    dataflow: bool = False,
    cfg: bool = False,
    interproc: bool = False,
    select: Union[str, Iterable[str], None] = None,
    ignore: Union[str, Iterable[str], None] = None,
) -> LintReport:
    """Run every applicable rule and return a :class:`LintReport`.

    Parameters
    ----------
    netlist:
        Declarative architecture to check (netlist-layer rules).  Unless
        ``design`` is given, it is also elaborated under a scratch
        simulator — never run — so the design/DRCF layers see the live
        hierarchy.  Elaboration failure is reported as ``REP001``.
    design:
        An already-elaborated :class:`ElaboratedDesign` (or top
        :class:`Module`) to check instead of scratch-elaborating.  When
        it is the ``netlist``'s own elaboration, REP104 reads each slave's
        address range from the instance built from that spec rather than
        from a scratch instance, so linting the design a caller is about
        to simulate builds nothing.
    candidates, config_memory:
        Planned arguments of a future
        :func:`~repro.core.transform.transform_to_drcf` call; supplying
        them enables the transform-precondition rules (REP304-REP306).
    elaborate:
        Set False to run only the pre-elaboration layers.
    dataflow:
        Set True to also run the process-body dataflow rules (REP4xx);
        they parse every process function, so they are opt-in.
    cfg:
        Set True to also run the control-flow rules (REP5xx); they build a
        statement-level CFG per process body (on top of the dataflow
        analysis, which is built as needed), so they are opt-in.
    interproc:
        Set True to also run the interprocedural rules (REP6xx): the
        static wait-for/lock-order analysis over the blocking calls each
        thread can reach and its source-order lock traces
        (:mod:`repro.analysis.interproc`).  They walk thread bodies *and*
        the methods those bodies block on, so they are opt-in.
    select, ignore:
        Code prefixes (comma-separated string or iterable) enabling or
        suppressing rules; ``ignore`` wins over ``select``.
    """
    select_list = _normalize_codes(select)
    ignore_list = _normalize_codes(ignore)
    diagnostics: List[Diagnostic] = []
    elaborated = design if isinstance(design, ElaboratedDesign) else None
    ctx = LintContext(
        netlist=netlist,
        top=elaborated.top if elaborated is not None else design,
        design=elaborated,
        candidates=list(candidates) if candidates else None,
        config_memory=config_memory,
    )
    if ctx.netlist is not None:
        _run_layer("netlist", ctx, select_list, ignore_list, diagnostics)
        if ctx.candidates:
            _run_layer("transform", ctx, select_list, ignore_list, diagnostics)
        if ctx.top is None and elaborate:
            try:
                ctx.top = ctx.netlist.elaborate(Simulator(name="lint")).top
            except Exception as exc:
                if _enabled("REP001", select_list, ignore_list):
                    diagnostics.append(
                        Diagnostic(
                            "REP001",
                            "error",
                            f"netlist does not elaborate: {exc}",
                            location=ctx.netlist.name,
                            hint="fix the static diagnostics and re-run",
                        )
                    )
    if ctx.top is not None:
        _run_layer("design", ctx, select_list, ignore_list, diagnostics)
        _run_layer("drcf", ctx, select_list, ignore_list, diagnostics)
        if dataflow:
            try:
                ctx.dataflow_analysis()
            except Exception as exc:
                if _enabled("REP001", select_list, ignore_list):
                    diagnostics.append(
                        Diagnostic(
                            "REP001",
                            "error",
                            f"dataflow analysis failed: {exc}",
                            location="dataflow",
                        )
                    )
            else:
                _run_layer("dataflow", ctx, select_list, ignore_list, diagnostics)
        if cfg:
            try:
                # REP503/505/506 correlate control flow with the dataflow
                # summaries, so both analyses must be buildable.
                ctx.dataflow_analysis()
                ctx.cfg_analysis()
            except Exception as exc:
                if _enabled("REP001", select_list, ignore_list):
                    diagnostics.append(
                        Diagnostic(
                            "REP001",
                            "error",
                            f"control-flow analysis failed: {exc}",
                            location="cfg",
                        )
                    )
            else:
                _run_layer("cfg", ctx, select_list, ignore_list, diagnostics)
        if interproc:
            # Each REP6xx rule builds what it needs lazily (lock traces,
            # reachable blocking calls) and degrades to silence on unresolved
            # bodies; a genuinely crashing rule is caught per-rule by
            # _run_layer and reported as REP001.
            _run_layer("interproc", ctx, select_list, ignore_list, diagnostics)
    diagnostics.sort(key=lambda d: (d.code, d.location, d.message))
    return LintReport(diagnostics)


def all_rule_codes() -> List[str]:
    """Every registered diagnostic code, sorted (docs and tests use this)."""
    return sorted(RULES)


# --------------------------------------------------------------------------
# Netlist-layer rules (pre-elaboration)
# --------------------------------------------------------------------------

def _spec_loc(ctx: LintContext, spec: ComponentSpec) -> str:
    return f"{ctx.netlist.name}.{spec.name}"


@rule("REP101", layer="netlist", summary="ill-formed component spec")
def _check_spec_wellformed(ctx: LintContext) -> Iterator[CheckResult]:
    """Instance names must be non-empty and dot-free; factories callable."""
    for spec in ctx.netlist.specs:
        if not spec.name or "." in spec.name:
            yield (
                _spec_loc(ctx, spec),
                f"invalid instance name {spec.name!r} (must be non-empty, no dots)",
                "rename the component; the kernel rejects it at elaboration",
            )
        if not callable(spec.factory):
            yield (
                _spec_loc(ctx, spec),
                f"factory {spec.factory!r} is not callable",
                "pass a Module subclass or a factory function",
            )


@rule("REP102", layer="netlist", summary="binding references unknown component")
def _check_dangling_refs(ctx: LintContext) -> Iterator[CheckResult]:
    """master_of/slave_of must name a component in the netlist."""
    names = set(ctx.netlist.component_names)
    for spec in ctx.netlist.specs:
        for what, target in (("master_of", spec.master_of), ("slave_of", spec.slave_of)):
            if target is not None and target not in names:
                yield (
                    _spec_loc(ctx, spec),
                    f"{what} references unknown component {target!r}",
                    f"add a bus named {target!r} or fix the reference",
                )


@rule("REP103", layer="netlist", summary="binding target is not a bus")
def _check_ref_is_bus(ctx: LintContext) -> Iterator[CheckResult]:
    """The target of master_of/slave_of must provide the bus interface."""
    specs = {spec.name: spec for spec in ctx.netlist.specs}
    for spec in ctx.netlist.specs:
        for what, target in (("master_of", spec.master_of), ("slave_of", spec.slave_of)):
            target_spec = specs.get(target)
            if target_spec is None or not inspect.isclass(target_spec.factory):
                continue
            factory = target_spec.factory
            if what == "slave_of" and not hasattr(factory, "register_slave"):
                yield (
                    _spec_loc(ctx, spec),
                    f"slave_of target {target!r} ({factory.__name__}) has no "
                    "register_slave; it cannot accept slaves",
                    "point slave_of at a Bus component",
                )
            elif what == "master_of" and not issubclass(factory, BusMasterIf):
                yield (
                    _spec_loc(ctx, spec),
                    f"master_of target {target!r} ({factory.__name__}) does not "
                    "implement BusMasterIf; mst_port cannot bind to it",
                    "point master_of at a Bus component",
                )


def _slave_ranges(
    netlist: Netlist, design: Optional[ElaboratedDesign]
) -> Dict[str, Tuple[int, int]]:
    """Address range of each slave spec.

    A spec that ``design`` was elaborated from is read off its instance.
    Any other spec is instantiated under its own throwaway simulator (the
    same move as :func:`~repro.core.transform.analyze_module_spec`);
    specs that fail to build standalone are skipped — elaboration-order
    problems are REP001's job, not this helper's.
    """
    ranges: Dict[str, Tuple[int, int]] = {}
    for spec in netlist.specs:
        if spec.slave_of is None or not callable(spec.factory):
            continue
        try:
            instance = design.instance_of(spec) if design is not None else None
            if instance is None:
                scratch = Simulator(name=f"lint_scratch_{spec.name}")
                instance = spec.factory(spec.name, sim=scratch, **spec.kwargs)
            ranges[spec.name] = (int(instance.get_low_add()), int(instance.get_high_add()))
        except Exception:
            continue
    return ranges


@rule("REP104", layer="netlist", summary="slave address ranges invalid or overlapping")
def _check_static_ranges(ctx: LintContext) -> Iterator[CheckResult]:
    """Slaves of one bus must advertise valid, disjoint address ranges."""
    ranges = _slave_ranges(ctx.netlist, ctx.design)
    by_bus: Dict[str, List[Tuple[int, int, str]]] = {}
    for spec in ctx.netlist.specs:
        if spec.name not in ranges:
            continue
        low, high = ranges[spec.name]
        if low < 0 or high < low:
            yield (
                _spec_loc(ctx, spec),
                f"invalid address range [{low:#x}, {high:#x}]",
                "check base/size parameters",
            )
            continue
        by_bus.setdefault(spec.slave_of, []).append((low, high, spec.name))
    for bus_name, entries in by_bus.items():
        entries.sort()
        for (low1, high1, name1), (low2, high2, name2) in zip(entries, entries[1:]):
            if high1 >= low2:
                yield (
                    f"{ctx.netlist.name}.{name2}",
                    f"address range [{low2:#x}, {high2:#x}] overlaps "
                    f"[{low1:#x}, {high1:#x}] of {name1!r} on bus {bus_name!r}",
                    "give each slave a disjoint base/size window",
                )


@rule("REP105", layer="netlist", summary="slave component does not implement BusSlaveIf")
def _check_slave_interface(ctx: LintContext) -> Iterator[CheckResult]:
    """A component with slave_of must implement the slave interface."""
    for spec in ctx.netlist.specs:
        if spec.slave_of is None or not inspect.isclass(spec.factory):
            continue
        if not issubclass(spec.factory, BusSlaveIf):
            yield (
                _spec_loc(ctx, spec),
                f"{spec.factory.__name__} is a slave of {spec.slave_of!r} but "
                "does not implement BusSlaveIf",
                "derive the class from BusSlaveIf (get_low_add/get_high_add/read/write)",
            )


@rule(
    DEADLOCK_RULE_CODE,
    layer="netlist",
    summary="master and slave of the same blocking bus (deadlock precondition)",
)
def _check_blocking_self_dependency(ctx: LintContext) -> Iterator[CheckResult]:
    """The paper's limitation 3: a component that serves slave calls on a
    blocking bus while needing that same bus as a master deadlocks the
    system (experiment E7).  Components that declare
    ``FETCHES_CONFIG_OVER_BUS = False`` (e.g. the reference-[8] baseline)
    are exempt; unknown components get a hedged warning."""
    specs = {spec.name: spec for spec in ctx.netlist.specs}
    for spec in ctx.netlist.specs:
        if spec.master_of is None or spec.master_of != spec.slave_of:
            continue
        bus_spec = specs.get(spec.master_of)
        if bus_spec is None:  # dangling reference: REP102's finding
            continue
        if bus_spec.kwargs.get("protocol", "blocking") != "blocking":
            continue
        fetches = (
            getattr(spec.factory, "FETCHES_CONFIG_OVER_BUS", None)
            if inspect.isclass(spec.factory)
            else None
        )
        hint = (
            'use protocol="split" on the bus, or move configuration traffic '
            "to a dedicated bus (dedicated_config_bus)"
        )
        location = _spec_loc(ctx, spec)
        if fetches:
            yield Diagnostic(
                DEADLOCK_RULE_CODE,
                "error",
                f"{spec.name!r} is both a master and a slave of blocking bus "
                f"{spec.master_of!r} and fetches configuration data over it: "
                "the first slave call that triggers a context switch "
                "deadlocks (paper Section 5.4, limitation 3)",
                location,
                hint,
            )
        elif fetches is None:
            yield Diagnostic(
                DEADLOCK_RULE_CODE,
                "warning",
                f"{spec.name!r} is both a master and a slave of blocking bus "
                f"{spec.master_of!r}; if it issues master transfers while "
                "serving a slave call the system deadlocks",
                location,
                hint,
            )
        # fetches is explicitly falsy (e.g. Ref8Drcf): no bus traffic, exempt.


# --------------------------------------------------------------------------
# Transform-layer rules (planned transform_to_drcf arguments)
# --------------------------------------------------------------------------

@rule("REP304", layer="transform", summary="transformation preconditions violated")
def _check_transform_preconditions(ctx: LintContext) -> Iterator[CheckResult]:
    """Candidates must exist, be unique, and share one bus (limitation 1)."""
    netlist = ctx.netlist
    names = set(netlist.component_names)
    seen: Dict[str, int] = {}
    for candidate in ctx.candidates:
        seen[candidate] = seen.get(candidate, 0) + 1
    for candidate, count in seen.items():
        if count > 1:
            yield (
                f"{netlist.name}.{candidate}",
                f"candidate {candidate!r} listed {count} times",
                "each candidate may appear once",
            )
        if candidate not in names:
            yield (
                f"{netlist.name}.{candidate}",
                f"unknown candidate {candidate!r}",
                f"components: {sorted(names)}",
            )
    if ctx.config_memory is not None and ctx.config_memory not in names:
        yield (
            f"{netlist.name}.{ctx.config_memory}",
            f"unknown configuration memory {ctx.config_memory!r}",
            "name an existing memory component",
        )
    buses: Dict[str, List[str]] = {}
    for candidate in ctx.candidates:
        if candidate not in names:
            continue
        spec = netlist.component(candidate)
        if spec.slave_of is None:
            yield (
                _spec_loc(ctx, spec),
                f"candidate {candidate!r} is not a slave of any bus",
                "the DRCF replaces candidates on their shared bus",
            )
        else:
            buses.setdefault(spec.slave_of, []).append(candidate)
    if len(buses) > 1:
        detail = ", ".join(f"{bus}: {sorted(members)}" for bus, members in sorted(buses.items()))
        yield (
            netlist.name,
            "candidates must all be slaves of the same bus (paper Section "
            f"5.4, limitation 1); got {detail}",
            "transform each bus's candidates into its own DRCF",
        )


@rule("REP305", layer="transform", summary="candidate lacks address-range methods")
def _check_candidate_ranges(ctx: LintContext) -> Iterator[CheckResult]:
    """Limitation 2: candidates need get_low_add/get_high_add for routing."""
    names = set(ctx.netlist.component_names)
    for candidate in ctx.candidates:
        if candidate not in names:
            continue
        factory = ctx.netlist.component(candidate).factory
        if not inspect.isclass(factory):
            continue
        if not (hasattr(factory, "get_low_add") and hasattr(factory, "get_high_add")):
            yield (
                f"{ctx.netlist.name}.{candidate}",
                f"{factory.__name__} lacks get_low_add/get_high_add; the "
                "transformation needs them to build the routing multiplexer "
                "(paper Section 5.4, limitation 2)",
                "add both methods returning the decoded address range",
            )


@rule("REP306", layer="transform", summary="candidate does not implement BusSlaveIf")
def _check_candidate_slave_if(ctx: LintContext) -> Iterator[CheckResult]:
    """The DRCF can only take the bus place of BusSlaveIf implementations."""
    names = set(ctx.netlist.component_names)
    for candidate in ctx.candidates:
        if candidate not in names:
            continue
        factory = ctx.netlist.component(candidate).factory
        if inspect.isclass(factory) and not issubclass(factory, BusSlaveIf):
            yield (
                f"{ctx.netlist.name}.{candidate}",
                f"candidate {candidate!r} ({factory.__name__}) does not "
                "implement BusSlaveIf; the DRCF cannot take its place on the bus",
                "fold only bus slaves into the fabric",
            )


# --------------------------------------------------------------------------
# Design-layer rules (elaborated hierarchy)
# --------------------------------------------------------------------------

def _modules_of(top: Module) -> Iterator[Module]:
    yield top
    yield from top.descendants()


@rule("REP201", layer="design", summary="required port left unbound")
def _check_unbound_ports(ctx: LintContext) -> Iterator[CheckResult]:
    """Every non-optional port must resolve to an implementation."""
    for module in _modules_of(ctx.top):
        for port in ports_of(module):
            if port.optional:
                continue
            chain, impl = port.binding_chain()
            if impl is not None or chain[-1]._bound is not None:
                continue  # bound, or a cycle (REP202's finding)
            if len(chain) == 1:
                message = "port is unbound"
            else:
                message = f"port chains to unbound port {chain[-1].full_name}"
            yield (
                port.full_name,
                message,
                "bind it during elaboration, or declare it with optional=True",
            )


@rule("REP202", layer="design", summary="port binding chain forms a cycle")
def _check_port_cycles(ctx: LintContext) -> Iterator[CheckResult]:
    """Port-to-port bindings must terminate at an implementation."""
    for module in _modules_of(ctx.top):
        for port in ports_of(module):
            chain, impl = port.binding_chain()
            if impl is None and chain[-1]._bound is not None:
                path = " -> ".join(p.full_name for p in chain)
                yield (
                    port.full_name,
                    f"port binding chain forms a cycle: {path} -> "
                    f"{chain[-1]._bound.full_name}",
                    "one port in the cycle must bind to a channel or module",
                )


@rule("REP203", layer="design", summary="port bound to wrong interface")
def _check_port_interfaces(ctx: LintContext) -> Iterator[CheckResult]:
    """The resolved implementation must satisfy the port's interface."""
    for module in _modules_of(ctx.top):
        for port in ports_of(module):
            if port.iface is None:
                continue
            _, impl = port.binding_chain()
            if impl is not None and not isinstance(impl, port.iface):
                yield (
                    port.full_name,
                    f"bound to {type(impl).__name__}, which does not implement "
                    f"{port.iface.__name__}",
                    "bind an implementation of the declared interface",
                )


@rule("REP204", layer="design", severity="warning", summary="signal written by several processes")
def _check_multi_writer_signals(ctx: LintContext) -> Iterator[CheckResult]:
    """``sc_signal`` semantics assume one writer; two racing writers make
    the committed value depend on evaluation order within a delta.

    Uses the design-wide dataflow analysis, which resolves writes through
    port binding chains — a process driving another module's signal via a
    bound port counts against that signal, so cross-module double-drivers
    are reported too.  (REP401, in the opt-in dataflow layer, sharpens
    this heuristic by proving the writers can race in one delta.)
    """
    analysis = ctx.dataflow_analysis()
    for use in analysis.signal_uses():
        names = sorted({writer.name for writer in use.writers})
        if len(names) >= 2:
            yield (
                use.label,
                f"signal is written by {len(names)} processes: {', '.join(names)}",
                "give each signal a single writer (or merge the processes)",
            )


@rule("REP205", layer="design", summary="elaborated bus has invalid or overlapping slaves")
def _check_elaborated_ranges(ctx: LintContext) -> Iterator[CheckResult]:
    """Re-checks slave ranges on the live bus (catches post-elaboration
    mutation that bypassed register_slave's own guard)."""
    for module in _modules_of(ctx.top):
        if not isinstance(module, Bus):
            continue
        entries: List[Tuple[int, int, str]] = []
        for slave in module.slaves:
            name = getattr(slave, "full_name", type(slave).__name__)
            try:
                low, high = int(slave.get_low_add()), int(slave.get_high_add())
            except Exception:
                yield (module.full_name, f"slave {name} cannot report its address range")
                continue
            if low < 0 or high < low:
                yield (
                    module.full_name,
                    f"slave {name} advertises invalid range [{low:#x}, {high:#x}]",
                )
            else:
                entries.append((low, high, name))
        entries.sort()
        for (low1, high1, name1), (low2, high2, name2) in zip(entries, entries[1:]):
            if high1 >= low2:
                yield (
                    module.full_name,
                    f"slaves {name1} [{low1:#x}, {high1:#x}] and {name2} "
                    f"[{low2:#x}, {high2:#x}] overlap",
                    "give each slave a disjoint window",
                )


@rule("REP206", layer="design", severity="info", summary="bus has no slaves")
def _check_empty_bus(ctx: LintContext) -> Iterator[CheckResult]:
    """A bus without slaves fails every transfer at runtime."""
    for module in _modules_of(ctx.top):
        if isinstance(module, Bus) and not module.slaves:
            yield (
                module.full_name,
                "bus has no slaves; every transfer will fail to decode",
                "register at least one slave, or drop the bus",
            )


# --------------------------------------------------------------------------
# DRCF-layer rules (elaborated fabrics)
# --------------------------------------------------------------------------

def _drcfs_of(top: Module) -> Iterator[Drcf]:
    for module in _modules_of(top):
        if isinstance(module, Drcf):
            yield module


def _store_of(drcf: Drcf) -> Optional[object]:
    """Where this fabric's configuration fetches go (bus or direct memory)."""
    _, impl = drcf.mst_port.binding_chain()
    return impl


def _slave_serving(store: object, addr: int) -> Optional[object]:
    """The slave (or the store itself) decoding ``addr``, if determinable."""
    if isinstance(store, Bus):
        for slave in store.slaves:
            if int(slave.get_low_add()) <= addr <= int(slave.get_high_add()):
                return slave
        return None
    if hasattr(store, "get_low_add"):
        if int(store.get_low_add()) <= addr <= int(store.get_high_add()):
            return store
        return None
    return None


def _store_name(store: object) -> str:
    return getattr(store, "full_name", type(store).__name__)


@rule("REP301", layer="drcf", summary="context configuration regions overlap")
def _check_region_overlap(ctx: LintContext) -> Iterator[CheckResult]:
    """Bitstream regions sharing one backing memory must be disjoint —
    also across fabrics, which no single transformation can see."""
    regions: List[Tuple[int, str, int, int, str]] = []
    for drcf in _drcfs_of(ctx.top):
        store = _store_of(drcf)
        if store is None:
            continue  # unbound master port: REP201's finding
        for context in drcf.contexts:
            params = context.params
            if params.size_bytes <= 0 or params.config_addr < 0:
                continue  # REP303's finding
            low = params.config_addr
            high = low + params.size_bytes - 1
            backing = _slave_serving(store, low) or store
            regions.append(
                (id(backing), _store_name(backing), low, high, f"{drcf.full_name}:{context.name}")
            )
    regions.sort(key=lambda r: (r[0], r[2], r[3]))
    for (key1, store1, low1, high1, label1), (key2, _, low2, high2, label2) in zip(
        regions, regions[1:]
    ):
        if key1 == key2 and high1 >= low2:
            yield (
                label2,
                f"configuration region [{low2:#x}, {high2:#x}] overlaps "
                f"[{low1:#x}, {high1:#x}] of {label1} in {store1}",
                "allocate disjoint bitstream windows (raise config_region_bytes "
                "or pass distinct config_base values)",
            )


@rule("REP302", layer="drcf", summary="context region not backed by a memory slave")
def _check_region_backing(ctx: LintContext) -> Iterator[CheckResult]:
    """Every bitstream region must fit inside a slave reachable from the
    fabric's master port, or the first context switch fails to decode."""
    for drcf in _drcfs_of(ctx.top):
        store = _store_of(drcf)
        if store is None:
            continue
        if not isinstance(store, Bus) and not hasattr(store, "get_low_add"):
            continue  # not range-introspectable; nothing to check statically
        for context in drcf.contexts:
            params = context.params
            if params.size_bytes <= 0 or params.config_addr < 0:
                continue
            low = params.config_addr
            high = low + params.size_bytes - 1
            location = f"{drcf.full_name}:{context.name}"
            backing = _slave_serving(store, low)
            if backing is None:
                yield (
                    location,
                    f"no slave on {_store_name(store)} serves the configuration "
                    f"region [{low:#x}, {high:#x}]",
                    "place the region inside the configuration memory's range",
                )
            elif high > int(backing.get_high_add()):
                yield (
                    location,
                    f"configuration region [{low:#x}, {high:#x}] extends past "
                    f"the end of {_store_name(backing)} "
                    f"({int(backing.get_high_add()):#x})",
                    "grow the memory or move the region",
                )


@rule("REP303", layer="drcf", summary="invalid context parameters")
def _check_context_params(ctx: LintContext) -> Iterator[CheckResult]:
    """Context sizes must be positive and addresses non-negative."""
    for drcf in _drcfs_of(ctx.top):
        for context in drcf.contexts:
            params = context.params
            location = f"{drcf.full_name}:{context.name}"
            if params.size_bytes <= 0:
                yield (
                    location,
                    f"context size {params.size_bytes} bytes is not positive",
                    "a context's bitstream must occupy at least one byte",
                )
            if params.config_addr < 0:
                yield (
                    location,
                    f"configuration address {params.config_addr} is negative",
                    "allocate the bitstream at a non-negative address",
                )


# --------------------------------------------------------------------------
# Dataflow-layer rules (process-body analysis; opt-in via run_lint(dataflow=True))
# --------------------------------------------------------------------------

@rule("REP401", layer="dataflow", summary="same-delta multi-driver race")
def _check_same_delta_race(ctx: LintContext) -> Iterator[CheckResult]:
    """Sharpens REP204: two writers of one signal that can be *runnable in
    the same delta cycle* (both run at start, or share an activation event)
    make the committed value depend on evaluation order — a genuine race,
    not just a style warning."""
    analysis = ctx.dataflow_analysis()
    for use in analysis.signal_uses():
        if len(use.writers) < 2:
            continue
        reported = set()
        for i, a in enumerate(use.writers):
            for b in use.writers[i + 1:]:
                if a.process is b.process:
                    continue
                reason = analysis.corunnable(a, b)
                if reason is None:
                    continue
                pair = tuple(sorted((a.name, b.name)))
                if pair in reported:
                    continue
                reported.add(pair)
                yield (
                    use.label,
                    f"processes {pair[0]!r} and {pair[1]!r} can both write "
                    f"this signal in the same delta cycle ({reason}); the "
                    "committed value depends on evaluation order",
                    "give the signal a single driver, or make the writers "
                    "mutually exclusive (disjoint activation events)",
                )


@rule(
    "REP402",
    layer="dataflow",
    severity="warning",
    summary="method process reads a signal missing from its sensitivity list",
)
def _check_method_sensitivity(ctx: LintContext) -> Iterator[CheckResult]:
    """An SC_METHOD that reads a signal it is not sensitive to does not
    re-evaluate when that input changes, so its output goes stale.  Signals
    the method itself writes are exempt (reading your own output is state
    feedback, and being sensitive to it would be REP403's loop)."""
    analysis = ctx.dataflow_analysis()
    for summary in analysis.summaries:
        if summary.kind != "method":
            continue
        sensitivity_ids = {id(e) for e in getattr(summary.process, "static_sensitivity", ())}
        written_ids = {id(sig) for sig in summary.signal_writes}
        for sig in summary.signal_reads:
            if id(sig) in written_ids:
                continue
            if any(id(event) in sensitivity_ids for event in sig.events()):
                continue
            yield (
                summary.name,
                f"method process reads signal {analysis.signal_label(sig)} "
                "but is not sensitive to it; the method will not re-run when "
                "the signal changes",
                "add the signal's value_changed (or edge) event to the "
                "method's sensitivity list",
            )


@rule(
    "REP403",
    layer="dataflow",
    severity="warning",
    summary="combinational loop through method processes",
)
def _check_combinational_loop(ctx: LintContext) -> Iterator[CheckResult]:
    """Method processes whose write -> sensitivity edges form a cycle keep
    re-triggering each other within one instant; at best the value churns
    through deltas, at worst the run dies on the per-instant delta guard."""
    analysis = ctx.dataflow_analysis()
    for cycle in analysis.method_cycles():
        names = sorted(summary.name for summary in cycle)
        yield (
            names[0],
            "method processes form a combinational loop (each writes a "
            f"signal another is sensitive to): {', '.join(names)}",
            "break the cycle with a clocked thread process, or drop the "
            "feedback signal from a sensitivity list",
        )


@rule("REP404", layer="dataflow", summary="yield inside a method process")
def _check_method_yield(ctx: LintContext) -> Iterator[CheckResult]:
    """SC_METHODs must not block.  In this kernel a ``yield`` makes the
    registered callback a generator function: calling it returns a
    generator the scheduler never iterates, so the body *silently never
    executes* — worse than a crash."""
    analysis = ctx.dataflow_analysis()
    for summary in analysis.summaries:
        if summary.kind == "method" and summary.yields_in_body:
            yield (
                summary.name,
                "method process body contains yield / yield from; calling it "
                "returns a generator the kernel never iterates, so the body "
                "silently does nothing",
                "register the function with add_thread, or stay non-blocking "
                "and use next_trigger() for dynamic sensitivity",
            )


@rule("REP405", layer="dataflow", summary="wait on an event nothing ever notifies")
def _check_dead_wait(ctx: LintContext) -> Iterator[CheckResult]:
    """A process waiting on an event that no process or interface method in
    the design ever notifies can never resume — REP310's deadlock class
    (paper Section 5.4), proven at the process level.  Signal-derived and
    kernel-notified (terminated) events are exempt, and the rule stays
    silent if any notify call escaped the static analysis (it could target
    any event)."""
    analysis = ctx.dataflow_analysis()
    notified_ids, unresolved = analysis.notify_scan()
    if unresolved:
        return
    for summary in analysis.summaries:
        for event in summary.waited_events:
            event_id = id(event)
            if (
                event_id in notified_ids
                or analysis.is_signal_event(event_id)
                or analysis.is_terminated_event(event_id)
            ):
                continue
            yield (
                analysis.event_label(event),
                f"process {summary.name!r} waits on event "
                f"{analysis.event_label(event)}, which nothing in the design "
                "ever notifies; the wait can never complete",
                "notify the event from some process or interface method, or "
                "remove the dead wait",
            )


@rule(
    "REP406",
    layer="dataflow",
    severity="warning",
    summary="DRCF unreachable from any bus master",
)
def _check_drcf_reachable(ctx: LintContext) -> Iterator[CheckResult]:
    """A fabric whose slave interface no master port can reach is dead
    logic: its contexts' interface methods are statically unreachable, so
    no context switch (the whole point of the transformation) ever runs."""
    top = ctx.top
    drcfs = list(_drcfs_of(top))
    if not drcfs:
        return
    masters_of: Dict[int, List[object]] = {}
    for module in _modules_of(top):
        for port in ports_of(module):
            _, impl = port.binding_chain()
            if isinstance(impl, Bus):
                masters_of.setdefault(id(impl), []).append(port)
    buses = [m for m in _modules_of(top) if isinstance(m, Bus)]
    for drcf in drcfs:
        context_names = ", ".join(c.name for c in drcf.contexts) or "none"
        hosting = [bus for bus in buses if any(s is drcf for s in bus.slaves)]
        if not hosting:
            yield (
                drcf.full_name,
                "fabric is not registered as a slave of any bus; its context "
                f"interface methods (contexts: {context_names}) are "
                "unreachable from any master",
                "register the fabric on a bus (slave_of in the netlist)",
            )
            continue
        reachable = any(
            port is not drcf.mst_port and port.owner is not drcf
            for bus in hosting
            for port in masters_of.get(id(bus), ())
        )
        if not reachable:
            bus_names = " / ".join(bus.full_name for bus in hosting)
            yield (
                drcf.full_name,
                f"no master port other than the fabric's own config port "
                f"reaches bus {bus_names}; context interface methods "
                f"(contexts: {context_names}) are statically unreachable",
                "attach a master (e.g. a CPU) to the fabric's bus",
            )


# --------------------------------------------------------------------------
# CFG-layer rules (control-flow analysis; opt-in via run_lint(cfg=True))
# --------------------------------------------------------------------------

def _edge_signal_map(ctx: LintContext) -> Dict[int, object]:
    """``id(edge event) -> signal`` for every signal in the design,
    including signals only reachable through port bindings (the dataflow
    summaries already resolved those)."""
    analysis = ctx.dataflow_analysis()
    edge_of: Dict[int, object] = {}

    def add(sig) -> None:
        edge_of[id(sig.posedge)] = sig
        edge_of[id(sig.negedge)] = sig

    for module in analysis.modules:
        for sig in signals_of(module).values():
            add(sig)
    for summary in analysis.summaries:
        for sig in (*summary.signal_writes, *summary.signal_reads):
            add(sig)
    return edge_of


def _clock_domains(ctx: LintContext):
    """``(clock_ids, domains)``: thread-toggled signals that clock at least
    one method, and per-method-process the set of clock-signal ids whose
    edges appear in its static sensitivity."""
    analysis = ctx.dataflow_analysis()
    edge_of = _edge_signal_map(ctx)
    method_summaries = [s for s in analysis.summaries if s.kind == "method"]
    sens_ids = [
        {id(e) for e in getattr(s.process, "static_sensitivity", ())}
        for s in method_summaries
    ]
    clock_ids: set = set()
    for use in analysis.signal_uses():
        if not any(w.kind == "thread" for w in use.writers):
            continue
        pos, neg = id(use.signal.posedge), id(use.signal.negedge)
        if any(pos in sens or neg in sens for sens in sens_ids):
            clock_ids.add(id(use.signal))
    domains: Dict[int, frozenset] = {}
    for summary, sens in zip(method_summaries, sens_ids):
        domains[id(summary.process)] = frozenset(
            id(edge_of[event_id])
            for event_id in sens
            if event_id in edge_of and id(edge_of[event_id]) in clock_ids
        )
    return clock_ids, domains


@rule(
    "REP501",
    layer="cfg",
    severity="warning",
    summary="zero-delay livelock: infinite loop with a wait-free back edge",
    example=(
        "def poll(self):\n"
        "    while True:\n"
        "        if self.ready.read():\n"
        "            yield self.done.posedge\n"
        "        # not-ready falls straight back to the loop head"
    ),
)
def _check_zero_delay_livelock(ctx: LintContext) -> Iterator[CheckResult]:
    """A ``while True`` thread loop with a back edge reachable without
    passing any wait can spin forever *within one delta cycle*: simulated
    time never advances and the run only ends on the watchdog.  Back edges
    re-entered through an enclosing loop do not count, and unresolved
    bodies stay silent."""
    for pcf in ctx.cfg_analysis():
        if pcf.kind != "thread" or pcf.unresolved:
            continue
        for lineno, source in waitless_loops(pcf.flow):
            yield (
                pcf.name,
                f"infinite loop (line {lineno}, test `{source}`) has a back "
                "edge reachable without any wait; on that path the thread "
                "spins without ever advancing simulated time",
                "make every iteration wait (timed or event) on all paths "
                "through the loop body",
            )


@rule(
    "REP502",
    layer="cfg",
    severity="warning",
    summary="unreachable statements in a process body",
    example=(
        "def run(self):\n"
        "    while True:\n"
        "        yield ns(10)\n"
        "    self.done.write(True)  # never reached"
    ),
)
def _check_unreachable_code(ctx: LintContext) -> Iterator[CheckResult]:
    """Statements no control path from the process entry reaches — usually
    code after an exit-free infinite loop or after every branch returned —
    never execute.  Exception edges count as paths, so code reachable only
    through a handler is not flagged."""
    for pcf in ctx.cfg_analysis():
        if pcf.unresolved:
            continue
        for lineno, source in unreachable_statements(pcf.flow):
            yield (
                pcf.name,
                f"statement at line {lineno} (`{source}`) is unreachable "
                "from the process entry and never executes",
                "delete the dead code, or restructure the loop it sits "
                "behind so it can exit",
            )


@rule(
    "REP503",
    layer="cfg",
    severity="warning",
    summary="conditional signal write in an edge-clocked method (latch-style)",
    example=(
        "def stage(self):  # sensitive to clk.posedge only\n"
        "    if self.enable.read():\n"
        "        self.q.write(self.d.read())\n"
        "    # no else: q silently holds its old value"
    ),
)
def _check_latch_style(ctx: LintContext) -> Iterator[CheckResult]:
    """An edge-clocked method that writes a signal on some control paths
    but not all of them silently holds the old value on the skipped paths —
    inferred-latch behaviour that RTL reviews flag because the hold is an
    accident of control flow, not a declared register.  Bodies with opaque
    calls or unresolved control flow stay silent."""
    analysis = ctx.dataflow_analysis()
    edge_of = _edge_signal_map(ctx)
    flows = {pcf.name: pcf for pcf in ctx.cfg_analysis()}
    for summary in analysis.summaries:
        if summary.kind != "method" or summary.opaque_calls:
            continue
        sens = list(getattr(summary.process, "static_sensitivity", ()))
        if not sens or not all(id(event) in edge_of for event in sens):
            continue
        pcf = flows.get(summary.name)
        if pcf is None or pcf.unresolved:
            continue
        may, must = write_coverage(pcf.flow)
        if may == must:
            continue
        must_sigs = {id(sig) for path in must for sig in [pcf.resolve_signal(path)] if sig}
        reported: set = set()
        for path in sorted(may - must):
            sig = pcf.resolve_signal(path)
            if sig is None or id(sig) in must_sigs or id(sig) in reported:
                continue
            reported.add(id(sig))
            yield (
                summary.name,
                f"edge-clocked method writes signal "
                f"{analysis.signal_label(sig)} on only some control paths; "
                "on the others it silently holds its old value (inferred "
                "latch)",
                "write the signal on every path (e.g. a default assignment "
                "before the branch)",
            )


@rule(
    "REP504",
    layer="cfg",
    severity="warning",
    summary="wait on only one branch arm (variable-latency protocol hazard)",
    example=(
        "def handshake(self):\n"
        "    while True:\n"
        "        if not self.ack.read():\n"
        "            yield self.ack.posedge  # waits only when slow\n"
        "        self.data.write(self.next_beat())\n"
        "        yield ns(10)"
    ),
)
def _check_one_sided_wait(ctx: LintContext) -> Iterator[CheckResult]:
    """A branch whose arms rejoin but where one arm must wait and the other
    can fall through without waiting gives the thread data-dependent
    latency: downstream timing silently shifts by a delta (or more)
    depending on which arm ran.  In handshake protocols this is the
    classic source of one-cycle-off bugs.  Arms that leave the region
    (early return, break) are guards, not latency branches, and are not
    compared."""
    for pcf in ctx.cfg_analysis():
        if pcf.kind != "thread" or pcf.unresolved:
            continue
        for lineno, source in one_sided_wait_branches(pcf.flow):
            yield (
                pcf.name,
                f"branch at line {lineno} (`if {source}`) waits on one arm "
                "but can rejoin waitlessly through the other; completion "
                "timing depends on data",
                "wait on both arms (or neither), or split the fast path "
                "into its own state",
            )


@rule(
    "REP505",
    layer="cfg",
    severity="warning",
    summary="clock-domain crossing without a synchronizer stage",
    example=(
        "# producer method clocked by clk_a writes self.flag;\n"
        "# consumer method clocked by clk_b reads self.flag directly\n"
        "# (no intermediate method that only moves flag between domains)"
    ),
)
def _check_clock_domain_crossing(ctx: LintContext) -> Iterator[CheckResult]:
    """A signal written only by methods of one clock domain and read by a
    method of a disjoint domain crosses clock domains; in the modeled
    hardware that read samples an asynchronous input (metastability,
    missed pulses).  A reader that acts as a synchronizer flop — it reads
    nothing but the crossing signal and writes exactly one signal — is
    exempt, as are signals whose writers span domains (already covered by
    the race rules)."""
    analysis = ctx.dataflow_analysis()
    clock_ids, domains = _clock_domains(ctx)
    if not clock_ids:
        return
    for use in analysis.signal_uses():
        if id(use.signal) in clock_ids or not use.writers:
            continue
        if any(w.kind != "method" for w in use.writers):
            continue
        writer_domains: set = set()
        for writer in use.writers:
            writer_domains |= domains.get(id(writer.process), frozenset())
        if len(writer_domains) != 1:
            continue
        for reader in use.readers:
            if reader.kind != "method":
                continue
            reader_domain = domains.get(id(reader.process), frozenset())
            if not reader_domain or writer_domains & reader_domain:
                continue
            if (
                len({id(s) for s in reader.signal_reads}) == 1
                and len({id(s) for s in reader.signal_writes}) == 1
            ):
                continue  # synchronizer flop: single-input, single-output
            yield (
                use.label,
                f"signal crosses clock domains: written under one clock, "
                f"read by {reader.name!r} under a disjoint clock without a "
                "synchronizer stage",
                "pass the signal through a synchronizer method in the "
                "reader's domain (reads only this signal, writes one "
                "registered copy)",
            )


@rule(
    "REP506",
    layer="cfg",
    severity="warning",
    summary="two threads write the same signal before their first wait",
    example=(
        "def init_a(self):\n"
        "    self.mode.write(1)   # runs at t=0\n"
        "    yield ns(10)\n"
        "def init_b(self):\n"
        "    self.mode.write(2)   # also runs at t=0: order decides\n"
        "    yield ns(10)"
    ),
)
def _check_entry_write_race(ctx: LintContext) -> Iterator[CheckResult]:
    """Sharpens REP401 with position: two start-running threads whose
    *entry segments* (code before the first wait) write the same signal
    definitely collide in the very first instant — not merely "may race",
    the conflicting writes are unconditionally reachable before any wait
    could separate them.  The committed value is whichever thread the
    scheduler happened to run last."""
    analysis = ctx.dataflow_analysis()
    writers: List[Tuple[ProcessControlFlow, Dict[int, object]]] = []
    for pcf in ctx.cfg_analysis():
        if pcf.kind != "thread" or pcf.unresolved:
            continue
        if not getattr(pcf.process, "runs_at_start", True):
            continue
        sigs: Dict[int, object] = {}
        for path in sorted(pcf.flow.entry_writes):
            sig = pcf.resolve_signal(path)
            if sig is not None:
                sigs[id(sig)] = sig
        if sigs:
            writers.append((pcf, sigs))
    for i, (a, a_sigs) in enumerate(writers):
        for b, b_sigs in writers[i + 1:]:
            shared = set(a_sigs) & set(b_sigs)
            for sig_id in sorted(shared, key=lambda s: analysis.signal_label(a_sigs[s])):
                sig = a_sigs[sig_id]
                pair = tuple(sorted((a.name, b.name)))
                yield (
                    analysis.signal_label(sig),
                    f"threads {pair[0]!r} and {pair[1]!r} both write this "
                    "signal before their first wait; the writes land in the "
                    "same first instant and the committed value depends on "
                    "evaluation order",
                    "stagger the writers with a wait, or give the signal a "
                    "single driver",
                )


# --------------------------------------------------------------------------
# Interproc-layer rules (blocking-call analysis; opt-in via run_lint(interproc=True))
# --------------------------------------------------------------------------

def _wait_for_graph(top: Module):
    """The static wait-for graph of the elaborated design.

    Nodes are live components (keyed by id); an edge ``a -> b`` means "a
    blocked call in *a* cannot complete until *b* returns":

    * ``bus -> slave`` for every slave of a *blocking* bus (the transfer
      holds the bus until the slave's interface generator finishes);
    * ``drcf -> bus`` when a fabric fetches configuration bitstreams over
      a bus reachable from its master port (the context switch blocks
      mid-slave-call until the fetch completes);
    * ``bridge -> downstream bus`` for a :class:`~repro.bus.BusBridge`
      (forwarding blocks the upstream slave call on downstream
      arbitration).

    Returns ``(edges, objects)``: successor ids per node id, and the live
    object behind each id.
    """
    from ..bus.bridge import BusBridge

    edges: Dict[int, List[int]] = {}
    objects: Dict[int, object] = {}

    def add(src: object, dst: object) -> None:
        objects[id(src)] = src
        objects[id(dst)] = dst
        edges.setdefault(id(src), []).append(id(dst))

    for module in _modules_of(top):
        if isinstance(module, Bus) and module.protocol == "blocking":
            for slave in module.slaves:
                add(module, slave)
        if isinstance(module, BusBridge):
            _, downstream = module.dn_port.binding_chain()
            if downstream is not None:
                add(module, downstream)
    for drcf in _drcfs_of(top):
        if not getattr(type(drcf), "FETCHES_CONFIG_OVER_BUS", True):
            continue
        store = _store_of(drcf)
        if isinstance(store, Bus):
            add(drcf, store)
    return edges, objects


def _find_cycle(edges: Dict[int, List[int]], start: int) -> Optional[List[int]]:
    """A path ``start -> ... -> start`` through ``edges``, or None."""
    stack: List[Tuple[int, List[int]]] = [(start, [start])]
    seen: set = set()
    while stack:
        node, path = stack.pop()
        for succ in edges.get(node, ()):
            if succ == start:
                return path + [start]
            if succ not in seen:
                seen.add(succ)
                stack.append((succ, path + [succ]))
    return None


@rule(
    STATIC_DEADLOCK_RULE_CODE,
    layer="interproc",
    summary="wait-for cycle: configuration fetched over the blocking bus being served",
    example=(
        "netlist = make_reconfigurable_netlist(\n"
        '    ("fir", "xtea"), bus_protocol="blocking"\n'
        ")[0]\n"
        "# drcf1 serves slave calls on `bus` AND fetches its bitstreams\n"
        "# over `bus`: the first call that triggers a context switch\n"
        "# deadlocks (bus -> drcf1 -> bus in the wait-for graph)"
    ),
)
def _check_static_wait_for_cycle(ctx: LintContext) -> Iterator[CheckResult]:
    """The paper's Section 5.4 limitation-3 deadlock, proven on the *live*
    elaborated design: a cycle in the static wait-for graph (blocking bus
    -> slave it holds for -> bus it must master) means the first context
    switch triggered from a slave call can never complete.  This sharpens
    the netlist-level REP310 precondition — binding chains, the live bus
    protocol and the registered slave set are checked, not spec kwargs —
    and is the static twin of the runtime post-mortem
    (:func:`repro.analysis.deadlock.diagnose`), which cross-references
    this code in its reports."""
    edges, objects = _wait_for_graph(ctx.top)
    for drcf in _drcfs_of(ctx.top):
        cycle = _find_cycle(edges, id(drcf))
        if cycle is None:
            continue
        chain = " -> ".join(
            getattr(objects[node], "full_name", type(objects[node]).__name__)
            for node in cycle
        )
        yield (
            drcf.full_name,
            f"static wait-for cycle: {chain}; a slave call that triggers a "
            "context switch blocks the bus its own configuration fetch "
            "needs, so the system deadlocks (paper Section 5.4, "
            "limitation 3; runtime twin: REP310 / "
            "analysis.deadlock.diagnose)",
            'use protocol="split" on the bus, or fetch bitstreams over a '
            "dedicated configuration bus (dedicated_config_bus)",
        )


@rule(
    "REP602",
    layer="interproc",
    severity="warning",
    summary="lock-order inversion between threads",
    example=(
        "def worker_a(self):\n"
        "    yield from self.m1.lock('a')\n"
        "    yield from self.m2.lock('a')  # holds m1, takes m2\n"
        "    ...\n"
        "def worker_b(self):\n"
        "    yield from self.m2.lock('b')\n"
        "    yield from self.m1.lock('b')  # holds m2, takes m1: inversion"
    ),
)
def _check_lock_order_inversion(ctx: LintContext) -> Iterator[CheckResult]:
    """Two threads that acquire the same two mutexes in opposite orders can
    interleave into a hold-and-wait cycle (A holds m1 wanting m2, B holds
    m2 wanting m1) that no notify ever breaks.  The lock traces are
    source-order approximations, so this is a warning; traces with
    unresolvable lock targets stay silent."""
    holders: Dict[Tuple[int, int], Tuple[str, int, object, object]] = {}
    for trace in ctx.lock_traces():
        if trace.unresolved is not None:
            continue
        for acq in trace.acquisitions:
            for held in acq.held:
                if held is acq.mutex:
                    continue
                holders.setdefault(
                    (id(held), id(acq.mutex)),
                    (trace.name, acq.lineno, held, acq.mutex),
                )
    for (held_id, taken_id), (name, lineno, held, taken) in sorted(
        holders.items(), key=lambda kv: kv[1][0]
    ):
        if held_id >= taken_id:
            continue  # report each inverted pair once
        reverse = holders.get((taken_id, held_id))
        if reverse is None:
            continue
        other_name, other_lineno, _, _ = reverse
        yield (
            name,
            f"acquires mutex {getattr(taken, 'name', '?')!r} while holding "
            f"{getattr(held, 'name', '?')!r} (line {lineno}), but thread "
            f"{other_name!r} acquires them in the opposite order (line "
            f"{other_lineno}); the interleaving can hold-and-wait deadlock",
            "acquire shared mutexes in one global order everywhere",
        )


@rule(
    "REP603",
    layer="interproc",
    severity="warning",
    summary="blocking bus transport issued while holding a mutex on the config path",
    example=(
        "def task(self):\n"
        "    yield from self.m.lock('task')\n"
        "    # blocking transport on the bus DRCF bitstream fetches use:\n"
        "    yield from self.bus.write(addr, data)\n"
        "    self.m.unlock()"
    ),
)
def _check_blocking_call_while_locked(ctx: LintContext) -> Iterator[CheckResult]:
    """A blocking bus call made with a mutex held extends the lock's hold
    time by arbitration plus the slave's entire latency — and when the bus
    carries a DRCF's configuration traffic, a context switch triggered by
    the very call serializes the whole reconfiguration behind the lock.
    Every other acquirer then transitively waits on bus traffic it cannot
    see, the hold-and-wait half of the Section 5.4 deadlock."""
    config_path_ids: set = set()
    for drcf in _drcfs_of(ctx.top):
        if not getattr(type(drcf), "FETCHES_CONFIG_OVER_BUS", True):
            continue
        store = _store_of(drcf)
        if store is None:
            continue
        config_path_ids.add(id(store))
        if isinstance(store, Bus):
            config_path_ids.update(id(s) for s in store.slaves)
    if not config_path_ids:
        return
    for trace in ctx.lock_traces():
        if trace.unresolved is not None:
            continue
        for call in trace.bus_calls_while_held:
            if id(call.target) not in config_path_ids:
                continue
            held = ", ".join(
                repr(getattr(m, "name", "?")) for m in call.held
            )
            target_name = getattr(
                call.target, "full_name", type(call.target).__name__
            )
            yield (
                trace.name,
                f"blocking {type(call.target).__name__.lower()} call "
                f"self.{'.'.join(call.path)}.{call.method} (line "
                f"{call.lineno}) is issued while holding mutex(es) {held}, "
                f"and {target_name} carries DRCF configuration traffic: a "
                "context switch triggered by this call serializes the "
                "reconfiguration behind the lock",
                "release the mutex before blocking transport, or move "
                "configuration traffic off this bus",
            )


@rule(
    "REP604",
    layer="interproc",
    severity="warning",
    summary="blocking acquire whose releasing counterpart never appears",
    example=(
        "def worker(self):\n"
        "    yield from self.sem.wait()   # no process ever calls\n"
        "    ...                          # self.sem.post(): the wait\n"
        "                                 # can never complete"
    ),
)
def _check_release_free_acquire(ctx: LintContext) -> Iterator[CheckResult]:
    """A thread parking in ``Mutex.lock`` / ``Semaphore.wait`` can only
    resume when some reachable code calls the releasing counterpart
    (``unlock`` / ``post``) on the *same live object*.  The release
    closure follows ``self`` helpers and resolvable foreign calls
    transitively (a post buried inside a channel method still counts);
    if any thread body or closure is unresolved the rule stays silent —
    a release could hide anywhere it cannot see."""
    processes = [
        p for module in _modules_of(ctx.top) for p in processes_of(module)
    ]
    sites = []
    for process in processes:
        if getattr(process, "kind", None) != "thread":
            continue
        found, unresolved = acquire_sites(process)
        if unresolved is not None:
            return  # a blocking call escaped the analysis: stay silent
        sites.extend(found)
    if not sites:
        return
    released: set = set()
    for process in processes:
        fn = getattr(process, "fn", None)
        owner = getattr(fn, "__self__", None)
        if fn is None or owner is None:
            return
        ids, complete = release_closure(owner, fn)
        if not complete:
            return
        released |= ids
    for site in sites:
        if id(site.target) in released:
            continue
        counterpart = ACQUIRE_COUNTERPARTS[(type(site.target).__name__, site.method)]
        yield (
            site.process_name,
            f"blocks in self.{'.'.join(site.path)}.{site.method}() (line "
            f"{site.lineno}), but no process in the design ever calls "
            f".{counterpart}() on that {type(site.target).__name__.lower()}; "
            "the acquire can never complete",
            f"call .{counterpart}() from the releasing side, or drop the "
            "acquire",
        )
