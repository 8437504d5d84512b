"""Hierarchical modules (the ``sc_module`` analogue).

A module owns child modules, processes, signals and ports, and has a
hierarchical name (``top.bus.arbiter``).  Subclasses build their contents in
``__init__`` after calling ``super().__init__``::

    class HwAcc(Module):
        def __init__(self, name, parent=None, sim=None):
            super().__init__(name, parent=parent, sim=sim)
            self.clk = Port(self, name="clk")
            self.mst_port = Port(self, BusMasterIf, name="mst_port")
            self.add_thread(self.main)

        def main(self):
            yield from self.mst_port.read(0x1000)

Exactly one of ``parent`` / ``sim`` must locate the simulator: a root module
receives ``sim=``, children receive ``parent=``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional

from .errors import ElaborationError
from .event import Event
from .process import MethodProcess, ThreadProcess

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .simulator import Simulator


class Module:
    """A node in the design hierarchy."""

    def __init__(
        self,
        name: str,
        parent: Optional["Module"] = None,
        sim: Optional["Simulator"] = None,
    ) -> None:
        if not name or "." in name:
            raise ElaborationError(f"invalid module name {name!r}")
        if parent is None and sim is None:
            raise ElaborationError(
                f"module {name!r} needs a parent module or an explicit sim="
            )
        self.basename = name
        self.parent = parent
        self._children: Dict[str, Module] = {}
        self._processes: List[object] = []
        if parent is not None:
            self.sim: "Simulator" = parent.sim
            parent._add_child(self)
            self.full_name = f"{parent.full_name}.{name}"
        else:
            assert sim is not None
            self.sim = sim
            self.full_name = name
            sim.register_top(self)

    # -- hierarchy -----------------------------------------------------------
    def _add_child(self, child: "Module") -> None:
        if child.basename in self._children:
            raise ElaborationError(
                f"{self.full_name} already has a child named {child.basename!r}"
            )
        self._children[child.basename] = child

    @property
    def children(self) -> List["Module"]:
        """Direct child modules, in instantiation order."""
        return list(self._children.values())

    def child(self, name: str) -> "Module":
        """Look up a direct child by base name."""
        try:
            return self._children[name]
        except KeyError:
            raise ElaborationError(
                f"{self.full_name} has no child {name!r}; "
                f"children: {sorted(self._children)}"
            ) from None

    def descendants(self) -> Iterable["Module"]:
        """Depth-first iteration over all modules below this one."""
        for child in self._children.values():
            yield child
            yield from child.descendants()

    # -- processes -------------------------------------------------------------
    def add_thread(
        self,
        fn: Callable[[], object],
        name: Optional[str] = None,
        daemon: bool = False,
    ) -> ThreadProcess:
        """Declare an SC_THREAD-style process running ``fn``.

        ``daemon`` marks server loops expected to wait forever, which the
        deadlock analyzer then ignores.
        """
        pname = f"{self.full_name}.{name or fn.__name__}"
        process = ThreadProcess(self.sim, pname, fn)
        process.daemon = daemon
        self._processes.append(process)
        self.sim.register_process(process)
        return process

    def add_method(
        self,
        fn: Callable[[], None],
        sensitivity: Iterable[Event] = (),
        name: Optional[str] = None,
        initialize: bool = True,
    ) -> MethodProcess:
        """Declare an SC_METHOD-style process with a static sensitivity list."""
        pname = f"{self.full_name}.{name or fn.__name__}"
        process = MethodProcess(self.sim, pname, fn, initialize=initialize)
        process.add_sensitivity(*sensitivity)
        self._processes.append(process)
        self.sim.register_process(process)
        return process

    @property
    def processes(self) -> List[object]:
        """Processes declared by this module, in declaration order."""
        return list(self._processes)

    def event(self, name: str = "event") -> Event:
        """Create an event named under this module."""
        return Event(self.sim, f"{self.full_name}.{name}")

    # -- end of life -----------------------------------------------------------
    def end_of_simulation(self) -> None:
        """Called once by :meth:`Simulator.close`, after every process is
        killed and before the design is cut from the simulator.

        The SystemC ``end_of_simulation()`` callback: a component drops
        the reference cycles it made itself (callbacks and closures that
        point back into the design), so reference counting can free it.
        The default does nothing.
        """

    def _detach(self) -> None:
        """Cut this module from its simulator, its parent and its
        processes, and unbind its ports (:meth:`Simulator.close`).  The
        children stay, so the tree can still be read from the top."""
        self.sim = None
        self.parent = None
        self._processes.clear()
        for port in getattr(self, "_ports", ()):
            port.unbind()
            port.owner = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.full_name!r})"


def processes_of(module: Module) -> List[object]:
    """All processes declared by ``module`` (the process half of the
    introspection API, alongside ``ports_of`` and ``signals_of``)."""
    return list(module._processes)
