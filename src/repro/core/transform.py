"""The automatic DRCF model transformation (paper Section 5.2, Figure 4).

The methodology's four phases, quoted from the paper:

1. **Analysis of module** — "the ports and interfaces of the module are
   analyzed ... so that the DRCF component can implement the same
   interfaces and ports."
2. **Analysis of module instance** — "the declaration of each instance is
   located and then the constructors are located and copied to a temporary
   database", together with the port and interface bindings.
3. **Creation of DRCF component** — "the DRCF component is created from a
   template.  The ports and interfaces analyzed in the first phase are
   added to the DRCF template and then the component ... is instantiated
   according to the declaration and constructor located in second phase."
   The template contains the context scheduler, the instrumentation
   process and the routing multiplexer (all provided by
   :class:`~repro.core.drcf.Drcf`).
4. **Modification of instance** — the hierarchical module is "updated to
   use the DRCF module instead of the hardware accelerator": declaration,
   constructor and binding lines are rewritten.

Here the *source* being transformed is a :class:`~repro.core.netlist.Netlist`;
phases 1–2 produce :class:`ModuleAnalysis`/:class:`InstanceAnalysis`
records, phase 3 builds a DRCF component spec whose constructor
re-instantiates the candidates inside the fabric, and phase 4 returns a
rewritten netlist.  The paper's limitation 1 — all transformed models must
be instantiated at the same level of hierarchy, in the same component — is
enforced by requiring all candidates to be slaves of the same bus.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..kernel import (
    ElaborationError,
    SimTime,
    Simulator,
    implemented_interfaces,
    ports_of,
)
from .context import Context, ContextParameters, context_parameters_for
from .drcf import Drcf
from .netlist import ComponentSpec, ElaboratedDesign, Netlist
from .policies import ReplacementPolicy


@dataclass
class ModuleAnalysis:
    """Phase 1 result: the candidate's interfaces, ports and address range."""

    class_name: str
    interfaces: List[str]
    ports: List[Tuple[str, Optional[str]]]
    low_addr: int
    high_addr: int
    gates: int

    @property
    def implements_slave_if(self) -> bool:
        return "BusSlaveIf" in self.interfaces


@dataclass
class InstanceAnalysis:
    """Phase 2 result: declaration, constructor and bindings of an instance."""

    name: str
    factory_name: str
    kwargs: Dict[str, object]
    master_of: Optional[str]
    slave_of: Optional[str]


@dataclass
class ContextAllocation:
    """Configuration-memory placement decided for one context."""

    name: str
    config_addr: int
    size_bytes: int
    gates: int
    extra_delay: SimTime


@dataclass
class TransformReport:
    """Everything the transformation decided (input to codegen and tests)."""

    drcf_name: str
    bus_name: str
    config_bus_name: str
    config_memory_name: str
    module_analyses: Dict[str, ModuleAnalysis] = field(default_factory=dict)
    instance_analyses: Dict[str, InstanceAnalysis] = field(default_factory=dict)
    allocations: List[ContextAllocation] = field(default_factory=list)
    tech_name: str = ""


@dataclass
class TransformResult:
    """The rewritten netlist plus the transformation report."""

    netlist: Netlist
    report: TransformReport


# --------------------------------------------------------------------------
# Phase 1: analysis of module
# --------------------------------------------------------------------------

def analyze_module_spec(spec: ComponentSpec) -> ModuleAnalysis:
    """Analyze a candidate's module class by scratch elaboration.

    Instantiates the component under a throwaway simulator and inspects
    the implemented interfaces, the declared ports and the advertised
    address range — the Python analogue of parsing the SystemC class.
    """
    scratch = Simulator(name="analysis")
    instance = spec.factory(spec.name, sim=scratch, **spec.kwargs)
    interfaces = [cls.__name__ for cls in implemented_interfaces(instance)]
    ports = [
        (port.name, port.iface.__name__ if port.iface else None)
        for port in ports_of(instance)
    ]
    if not hasattr(instance, "get_low_add") or not hasattr(instance, "get_high_add"):
        raise ElaborationError(
            f"candidate {spec.name!r} lacks get_low_add/get_high_add; the "
            "methodology requires them to build the routing multiplexer "
            "(paper Section 5.4, limitation 2)"
        )
    gates = int(spec.kwargs.get("gates", getattr(instance, "gates", 10_000)))
    return ModuleAnalysis(
        class_name=spec.factory_name,
        interfaces=interfaces,
        ports=ports,
        low_addr=instance.get_low_add(),
        high_addr=instance.get_high_add(),
        gates=gates,
    )


# --------------------------------------------------------------------------
# Phase 2: analysis of module instance
# --------------------------------------------------------------------------

def analyze_instance(netlist: Netlist, name: str) -> InstanceAnalysis:
    """Record declaration, constructor arguments and bindings of ``name``."""
    spec = netlist.component(name)
    return InstanceAnalysis(
        name=spec.name,
        factory_name=spec.factory_name,
        kwargs=dict(spec.kwargs),
        master_of=spec.master_of,
        slave_of=spec.slave_of,
    )


# --------------------------------------------------------------------------
# Phases 3 + 4: creation of the DRCF component, modification of instances
# --------------------------------------------------------------------------

def transform_to_drcf(
    netlist: Netlist,
    candidates: Sequence[str],
    *,
    tech,
    config_memory: str,
    drcf_name: str = "drcf1",
    config_base: Optional[int] = None,
    config_bus: Optional[str] = None,
    drcf_cls: type = Drcf,
    policy: Optional[ReplacementPolicy] = None,
    use_area_slots: bool = False,
    fabric_capacity_gates: Optional[int] = None,
    config_burst_words: int = 64,
    extra_delays: Optional[Dict[str, SimTime]] = None,
) -> TransformResult:
    """Fold ``candidates`` into a DRCF and rewrite the netlist.

    Parameters mirror the designer's choices in the paper's flow: which
    functional blocks become contexts, the target technology preset, where
    the configuration bitstreams live (``config_memory`` component plus an
    optional ``config_base`` offset), and whether configuration fetches
    share the component interface bus or use a dedicated ``config_bus``
    (the memory-organization study of Section 5.3).
    """
    if not candidates:
        raise ElaborationError("transform_to_drcf: no candidates given")
    if len(set(candidates)) != len(candidates):
        raise ElaborationError("transform_to_drcf: duplicate candidate names")

    # Paper limitation 1: all candidates must live in the same component,
    # i.e. hang off the same bus.
    buses = {netlist.component(name).slave_of for name in candidates}
    if len(buses) != 1 or None in buses:
        raise ElaborationError(
            "all candidates must be slaves of the same bus (paper Section "
            f"5.4 limitation 1); got buses {sorted(str(b) for b in buses)}"
        )
    bus_name = buses.pop()
    mem_spec = netlist.component(config_memory)

    report = TransformReport(
        drcf_name=drcf_name,
        bus_name=bus_name,
        config_bus_name=config_bus or bus_name,
        config_memory_name=config_memory,
        tech_name=tech.name,
    )

    # Phases 1-2 per candidate.
    for name in candidates:
        spec = netlist.component(name)
        analysis = analyze_module_spec(spec)
        if not analysis.implements_slave_if:
            raise ElaborationError(
                f"candidate {name!r} does not implement BusSlaveIf; the DRCF "
                "cannot take its place on the bus"
            )
        report.module_analyses[name] = analysis
        report.instance_analyses[name] = analyze_instance(netlist, name)

    # Configuration-memory placement.
    word_bytes = int(mem_spec.kwargs.get("word_bytes", 4))
    next_addr = config_base if config_base is not None else int(mem_spec.kwargs.get("base", 0))
    mem_low = int(mem_spec.kwargs.get("base", 0))
    mem_high = mem_low + int(mem_spec.kwargs.get("size_words", 0)) * word_bytes - 1
    params_by_name: Dict[str, ContextParameters] = {}
    for name in candidates:
        gates = report.module_analyses[name].gates
        extra = (extra_delays or {}).get(name)
        params = context_parameters_for(tech, gates, next_addr, extra)
        if mem_high >= mem_low and params.config_addr + params.size_bytes - 1 > mem_high:
            raise ElaborationError(
                f"context {name!r} ({params.size_bytes} bytes at "
                f"{params.config_addr:#x}) does not fit in configuration "
                f"memory {config_memory!r} ending at {mem_high:#x}"
            )
        params_by_name[name] = params
        report.allocations.append(
            ContextAllocation(
                name=name,
                config_addr=params.config_addr,
                size_bytes=params.size_bytes,
                gates=gates,
                extra_delay=params.extra_delay,
            )
        )
        # Word-align the next region.
        next_addr = params.config_addr + _round_up(params.size_bytes, word_bytes)

    # Phase 3: context builders re-instantiate candidates inside the DRCF,
    # reproducing the analyzed declarations/constructors/bindings.
    builders = [
        _make_context_builder(netlist.component(name), params_by_name[name],
                              report.module_analyses[name].gates, tech)
        for name in candidates
    ]

    bus_spec = netlist.component(bus_name)
    bus_word_bytes = int(bus_spec.kwargs.get("data_width_bits", 32)) // 8

    def register_regions(drcf_instance, design: ElaboratedDesign) -> None:
        memory = design[config_memory]
        # The DRCF keeps a handle to its configuration memory so the
        # scrubbing recovery policy can repair corrupted regions and fault
        # models can target the stored bitstreams (repro.faults).
        drcf_instance.config_memory = memory
        if hasattr(memory, "register_context_region"):
            for alloc in report.allocations:
                memory.register_context_region(
                    alloc.name, alloc.config_addr, alloc.size_bytes
                )
            # Integrity modeling: contexts learn their expected bitstream
            # checksum so a verify-enabled DRCF can check fetched data.
            for context in drcf_instance.contexts:
                context.params.checksum = memory.checksum_of(context.name)

    drcf_kwargs: Dict[str, object] = dict(
        context_builders=builders,
        tech=tech,
        config_burst_words=config_burst_words,
        word_bytes=bus_word_bytes,
    )
    if policy is not None:
        drcf_kwargs["policy"] = policy
    if use_area_slots:
        drcf_kwargs["use_area_slots"] = True
        if fabric_capacity_gates is not None:
            drcf_kwargs["fabric_capacity_gates"] = fabric_capacity_gates

    drcf_spec = ComponentSpec(
        name=drcf_name,
        factory=drcf_cls,
        kwargs=drcf_kwargs,
        master_of=config_bus or bus_name,
        slave_of=bus_name,
        post_elaborate=register_regions,
    )

    # Phase 4: rewrite — remove candidates, insert the DRCF where the first
    # candidate stood.
    out = netlist.clone()
    order = out.component_names
    first_index = min(order.index(name) for name in candidates)
    anchor = order[first_index - 1] if first_index > 0 else None
    for name in candidates:
        out.remove(name)
    out.insert_after(anchor, drcf_spec)
    return TransformResult(netlist=out, report=report)


def _round_up(value: int, multiple: int) -> int:
    return ((value + multiple - 1) // multiple) * multiple


@functools.lru_cache(maxsize=256)
def _takes_tech(factory: Callable) -> bool:
    """Whether ``factory`` accepts a ``tech`` argument (once per factory)."""
    try:
        return "tech" in inspect.signature(factory).parameters
    except (TypeError, ValueError):  # builtins / odd callables
        return False


def _make_context_builder(
    spec: ComponentSpec, params: ContextParameters, gates: int, tech
) -> Callable:
    """Builder executed inside the DRCF constructor (phase 3 instantiation)."""
    kwargs = dict(spec.kwargs)
    had_master = spec.master_of is not None
    # Section 5.5 issue 1: a block mapped onto the fabric runs at fabric
    # speed, not at its dedicated-logic speed — retarget the timing model
    # if the candidate's constructor accepts a technology.
    try:
        takes_tech = _takes_tech(spec.factory)
    except TypeError:  # an unhashable callable: test it uncached
        takes_tech = _takes_tech.__wrapped__(spec.factory)
    if takes_tech:
        kwargs["tech"] = tech

    def builder(drcf) -> Context:
        module = spec.factory(spec.name, parent=drcf, **kwargs)
        if had_master:
            # The wrapped module's master traffic rides the DRCF's port,
            # like `hwa->mst_port(mst_port)` in the paper's listing.
            module.mst_port.bind(drcf.mst_port)
        return Context(name=spec.name, module=module, params=params, gates=gates)

    builder.__name__ = f"build_context_{spec.name}"
    return builder
