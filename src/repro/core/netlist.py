"""Declarative architecture descriptions (netlists).

The paper's transformation tool operates on SystemC *source*: it locates
declarations, constructors and port bindings in the hierarchical module and
rewrites them.  The Python analogue of that source level is a declarative
:class:`Netlist`: an ordered set of :class:`ComponentSpec` entries
(declaration + constructor arguments + bindings) that can be

* *elaborated* into a live module hierarchy under a simulator (repeatedly,
  with different parameters — the DSE loop), and
* *rewritten* by the DRCF transformation (:mod:`repro.core.transform`),
  which removes candidate components and inserts the generated DRCF, and
* *printed back* as executable construction source
  (:mod:`repro.core.codegen`), mirroring the paper's before/after listings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..kernel import ElaborationError, Module, Simulator


@dataclass
class ComponentSpec:
    """Declaration + constructor + bindings of one component instance.

    Attributes
    ----------
    name:
        Instance name (the paper's *declaration*).
    factory:
        A ``Module`` subclass or any callable
        ``factory(name, parent=..., **kwargs)`` (the *constructor*).
    kwargs:
        Constructor keyword arguments.
    master_of:
        Name of the bus this component's ``mst_port`` binds to (a *port
        binding* in the paper's listing).
    slave_of:
        Name of the bus this component registers on as a slave (the
        *interface binding*).
    post_elaborate:
        Optional hook ``hook(instance, design)`` run after all bindings.
    """

    name: str
    factory: Callable
    kwargs: Dict[str, object] = field(default_factory=dict)
    master_of: Optional[str] = None
    slave_of: Optional[str] = None
    post_elaborate: Optional[Callable] = None

    @property
    def factory_name(self) -> str:
        return getattr(self.factory, "__name__", str(self.factory))


class ElaboratedDesign:
    """The result of elaborating a netlist: live instances by name.

    It remembers the :class:`ComponentSpec` object each instance was built
    from (``specs``, by instance name), so a checker can tell an instance
    of *this* spec from one of an edited or cloned netlist
    (:meth:`instance_of`).
    """

    def __init__(
        self,
        top: Module,
        instances: Dict[str, Module],
        specs: Optional[Dict[str, ComponentSpec]] = None,
    ) -> None:
        self.top = top
        self._instances = instances
        self._specs = specs or {}

    def __getitem__(self, name: str) -> Module:
        try:
            return self._instances[name]
        except KeyError:
            raise KeyError(
                f"no instance {name!r}; instances: {sorted(self._instances)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._instances

    @property
    def instance_names(self) -> List[str]:
        return list(self._instances)

    @property
    def sim(self) -> Simulator:
        return self.top.sim

    def instance_of(self, spec: ComponentSpec) -> Optional[Module]:
        """The instance elaborated from ``spec`` itself, or None."""
        if self._specs.get(spec.name) is spec:
            return self._instances[spec.name]
        return None


class Netlist:
    """An ordered, rewritable architecture description."""

    def __init__(self, name: str = "top") -> None:
        self.name = name
        self._specs: Dict[str, ComponentSpec] = {}

    # -- building ------------------------------------------------------------
    def add(
        self,
        name: str,
        factory: Callable,
        *,
        master_of: Optional[str] = None,
        slave_of: Optional[str] = None,
        post_elaborate: Optional[Callable] = None,
        **kwargs,
    ) -> ComponentSpec:
        """Append a component spec; returns it for further tweaking."""
        if name in self._specs:
            raise ElaborationError(f"netlist {self.name}: duplicate component {name!r}")
        spec = ComponentSpec(
            name=name,
            factory=factory,
            kwargs=kwargs,
            master_of=master_of,
            slave_of=slave_of,
            post_elaborate=post_elaborate,
        )
        self._specs[name] = spec
        return spec

    def remove(self, name: str) -> ComponentSpec:
        """Remove and return a component spec (transformation primitive)."""
        try:
            return self._specs.pop(name)
        except KeyError:
            raise ElaborationError(
                f"netlist {self.name}: no component {name!r} to remove"
            ) from None

    def insert_after(self, anchor: Optional[str], spec: ComponentSpec) -> None:
        """Insert ``spec`` after ``anchor`` (or first when anchor is None)."""
        if spec.name in self._specs:
            raise ElaborationError(f"netlist {self.name}: duplicate component {spec.name!r}")
        items = list(self._specs.items())
        self._specs.clear()
        if anchor is None:
            self._specs[spec.name] = spec
            self._specs.update(items)
            return
        placed = False
        for key, value in items:
            self._specs[key] = value
            if key == anchor:
                self._specs[spec.name] = spec
                placed = True
        if not placed:
            raise ElaborationError(f"netlist {self.name}: no anchor {anchor!r}")

    # -- queries -----------------------------------------------------------------
    def component(self, name: str) -> ComponentSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise ElaborationError(
                f"netlist {self.name}: no component {name!r}; "
                f"components: {self.component_names}"
            ) from None

    @property
    def component_names(self) -> List[str]:
        return list(self._specs)

    @property
    def specs(self) -> List[ComponentSpec]:
        return list(self._specs.values())

    def slaves_of(self, bus_name: str) -> List[str]:
        return [s.name for s in self._specs.values() if s.slave_of == bus_name]

    def masters_of(self, bus_name: str) -> List[str]:
        return [s.name for s in self._specs.values() if s.master_of == bus_name]

    def clone(self, name: Optional[str] = None) -> "Netlist":
        """A structurally independent copy (kwargs shallow-copied per spec)."""
        out = Netlist(name or self.name)
        for spec in self._specs.values():
            out._specs[spec.name] = ComponentSpec(
                name=spec.name,
                factory=spec.factory,
                kwargs=dict(spec.kwargs),
                master_of=spec.master_of,
                slave_of=spec.slave_of,
                post_elaborate=spec.post_elaborate,
            )
        return out

    # -- elaboration ---------------------------------------------------------------
    def elaborate(self, sim: Simulator) -> ElaboratedDesign:
        """Build the live hierarchy: instantiate, bind, run post hooks."""
        top = Module(self.name, sim=sim)
        instances: Dict[str, Module] = {}
        for spec in self._specs.values():
            instances[spec.name] = spec.factory(spec.name, parent=top, **spec.kwargs)
        design = ElaboratedDesign(top, instances, dict(self._specs))
        for spec in self._specs.values():
            instance = instances[spec.name]
            if spec.master_of is not None:
                bus = self._require(instances, spec.master_of, spec.name, "master_of")
                instance.mst_port.bind(bus)
            if spec.slave_of is not None:
                bus = self._require(instances, spec.slave_of, spec.name, "slave_of")
                bus.register_slave(instance)
        for spec in self._specs.values():
            if spec.post_elaborate is not None:
                spec.post_elaborate(instances[spec.name], design)
        return design

    @staticmethod
    def _require(instances: Dict[str, Module], name: str, who: str, what: str) -> Module:
        try:
            return instances[name]
        except KeyError:
            raise ElaborationError(
                f"component {who!r}: {what} references unknown component {name!r}"
            ) from None
