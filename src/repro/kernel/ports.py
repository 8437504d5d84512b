"""Ports, exports and interfaces (the ``sc_port`` / ``sc_interface`` analogue).

An *interface* is an abstract base class of methods; a *channel* or module
implements it.  A *port* is a typed hole in a module that is bound to an
interface implementation during elaboration; the owning module calls the
interface's methods through the port.  This is precisely the mechanism the
paper's DRCF transformation manipulates: it reads a candidate module's ports
and implemented interfaces, and re-creates them on the generated DRCF
component.

Method calls delegate through the port::

    self.mst_port = Port(self, BusMasterIf, name="mst_port")
    ...
    data = yield from self.mst_port.read(addr)
"""

from __future__ import annotations

from abc import ABC
from typing import TYPE_CHECKING, List, Optional, Tuple, Type

from .errors import BindingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .module import Module


class Interface(ABC):
    """Marker base class for all interfaces (``sc_interface``)."""


def implemented_interfaces(obj: object) -> List[Type[Interface]]:
    """All :class:`Interface` subclasses implemented by ``obj``'s class.

    Returns the most-derived interface classes only (direct ABC bases are
    filtered if a subclass of theirs is also present), in MRO order.  Used
    by the DRCF transformation's module-analysis phase.
    """
    from .module import Module  # local import to avoid a cycle at import time

    found: List[Type[Interface]] = []
    for klass in type(obj).__mro__:
        if (
            issubclass(klass, Interface)
            and klass is not Interface
            and not issubclass(klass, Module)  # implementations are not interfaces
            and klass not in found
        ):
            found.append(klass)
    # Drop base interfaces that are superclasses of another found interface.
    leaves = [
        k for k in found if not any(other is not k and issubclass(other, k) for other in found)
    ]
    return leaves


class Port:
    """A typed, bindable reference to an interface implementation.

    Parameters
    ----------
    owner:
        The module the port belongs to.
    iface:
        Optional interface class the bound object must implement.
    name:
        Port name (used in diagnostics and by the transformation tool).
    optional:
        Declare the port as allowed to stay unbound (an ``sc_port`` with a
        zero minimum binding count).  The static lint pass (REP201) skips
        optional ports; resolving one while unbound still raises.
    """

    #: Bumped by every :meth:`bind` and :meth:`unbind` of any port.  A
    #: resolution cached at an older count may be stale, since a port
    #: further up a chain may have been rebound since.  Shared by every
    #: design in the process: a bump costs each other port one more walk.
    _bindings = 0

    def __init__(
        self,
        owner: "Module",
        iface: Optional[Type[Interface]] = None,
        name: str = "port",
        optional: bool = False,
    ) -> None:
        self.owner = owner
        self.iface = iface
        self.name = name
        self.optional = optional
        self._bound: Optional[object] = None
        # The last successful resolve() and the binding count it saw.
        self._resolved: Optional[object] = None
        self._resolved_at = -1
        if not hasattr(owner, "_ports"):
            owner._ports = []  # type: ignore[attr-defined]
        owner._ports.append(self)  # type: ignore[attr-defined]

    @property
    def full_name(self) -> str:
        return f"{self.owner.full_name}.{self.name}"

    @property
    def is_bound(self) -> bool:
        return self._bound is not None

    def bind(self, impl: object) -> None:
        """Bind the port to ``impl`` (a channel, module or another port)."""
        if self._bound is not None:
            raise BindingError(f"port {self.full_name} is already bound")
        if isinstance(impl, Port):
            # Hierarchical binding: delegate to the other port's binding,
            # resolved lazily at first access.
            pass
        elif self.iface is not None and not isinstance(impl, self.iface):
            raise BindingError(
                f"port {self.full_name} requires {self.iface.__name__}, "
                f"got {type(impl).__name__}"
            )
        self._bound = impl
        Port._bindings += 1

    def unbind(self) -> None:
        """Remove the current binding (used by model transformations)."""
        self._bound = None
        self._resolved = None
        Port._bindings += 1

    def resolve(self) -> object:
        """The final interface implementation, following port-to-port chains.

        Resolved once per binding: the result is cached until the next
        :meth:`bind` or :meth:`unbind` of any port.  Failures are not
        cached, so they raise again with the same message.
        """
        if self._resolved_at == Port._bindings:
            return self._resolved
        impl = self._bound
        if impl is None:
            raise BindingError(f"port {self.full_name} is not bound")
        while isinstance(impl, Port):
            if impl._bound is None:
                raise BindingError(
                    f"port {self.full_name} chains to unbound port {impl.full_name}"
                )
            impl = impl._bound
        if self.iface is not None and not isinstance(impl, self.iface):
            raise BindingError(
                f"port {self.full_name} resolved to {type(impl).__name__}, "
                f"which does not implement {self.iface.__name__}"
            )
        self._resolved = impl
        self._resolved_at = Port._bindings
        return impl

    def binding_chain(self) -> "Tuple[List[Port], Optional[object]]":
        """The port-to-port chain from this port to its implementation.

        Returns ``(ports, impl)`` where ``ports`` starts with this port and
        lists every port traversed, and ``impl`` is the terminal interface
        implementation — or ``None`` when the chain ends at an unbound port
        or revisits a port (a binding cycle).  Unlike :meth:`resolve` this
        never raises and never loops, which is what the static lint pass
        (REP201/REP202) needs to describe broken bindings.
        """
        chain: List[Port] = [self]
        seen = {id(self)}
        impl = self._bound
        while isinstance(impl, Port):
            if id(impl) in seen:
                return chain, None
            chain.append(impl)
            seen.add(id(impl))
            impl = impl._bound
        return chain, impl

    def __call__(self) -> object:
        """SystemC-style access: ``port()`` returns the bound interface."""
        return self.resolve()

    def __getattr__(self, attr: str):
        # Delegate interface-method access: ``port.read(...)``.
        if attr.startswith("_"):
            raise AttributeError(attr)
        return getattr(self.resolve(), attr)

    def __repr__(self) -> str:
        target = "unbound" if self._bound is None else type(self._bound).__name__
        iface = self.iface.__name__ if self.iface else "any"
        return f"Port({self.full_name!r}, iface={iface}, bound={target})"


def ports_of(module: "Module") -> List[Port]:
    """All ports declared by ``module``, in declaration order.

    This is the port half of the paper's module-analysis phase.
    """
    return list(getattr(module, "_ports", []))
