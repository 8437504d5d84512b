"""Ports and interfaces: binding rules, delegation, analysis helpers."""

import abc

import pytest

from repro.kernel import (
    BindingError,
    Interface,
    Module,
    Port,
    implemented_interfaces,
    ports_of,
)


class GreeterIf(Interface):
    @abc.abstractmethod
    def greet(self) -> str: ...


class LoudGreeterIf(GreeterIf):
    @abc.abstractmethod
    def shout(self) -> str: ...


class Greeter(Module, GreeterIf):
    def greet(self) -> str:
        return f"hello from {self.basename}"


class LoudGreeter(Module, LoudGreeterIf):
    def greet(self) -> str:
        return "hello"

    def shout(self) -> str:
        return "HELLO"


class Client(Module):
    def __init__(self, name, parent=None, sim=None):
        super().__init__(name, parent=parent, sim=sim)
        self.port = Port(self, GreeterIf, name="port")


class TestBinding:
    def test_bind_and_delegate(self, sim):
        client = Client("client", sim=sim)
        greeter = Greeter("greeter", sim=sim)
        client.port.bind(greeter)
        assert client.port.greet() == "hello from greeter"
        assert client.port() is greeter

    def test_type_checked_binding(self, sim):
        client = Client("client", sim=sim)
        not_a_greeter = Module("plain", sim=sim)
        with pytest.raises(BindingError, match="requires GreeterIf"):
            client.port.bind(not_a_greeter)

    def test_double_bind_rejected(self, sim):
        client = Client("client", sim=sim)
        greeter = Greeter("g", sim=sim)
        client.port.bind(greeter)
        with pytest.raises(BindingError, match="already bound"):
            client.port.bind(greeter)

    def test_unbound_access_rejected(self, sim):
        client = Client("client", sim=sim)
        assert not client.port.is_bound
        with pytest.raises(BindingError, match="not bound"):
            client.port.greet()

    def test_unbind_allows_rebinding(self, sim):
        client = Client("client", sim=sim)
        g1 = Greeter("g1", sim=sim)
        g2 = Greeter("g2", sim=sim)
        client.port.bind(g1)
        client.port.unbind()
        client.port.bind(g2)
        assert client.port.greet() == "hello from g2"

    def test_port_to_port_chaining(self, sim):
        outer = Client("outer", sim=sim)
        inner = Client("inner", sim=sim)
        greeter = Greeter("g", sim=sim)
        inner.port.bind(outer.port)  # inner delegates through outer
        outer.port.bind(greeter)
        assert inner.port.greet() == "hello from g"

    def test_chain_to_unbound_rejected(self, sim):
        outer = Client("outer", sim=sim)
        inner = Client("inner", sim=sim)
        inner.port.bind(outer.port)
        with pytest.raises(BindingError, match="unbound port"):
            inner.port.greet()

    def test_subclass_interface_accepted(self, sim):
        client = Client("client", sim=sim)
        loud = LoudGreeter("loud", sim=sim)
        client.port.bind(loud)  # LoudGreeterIf extends GreeterIf
        assert client.port.greet() == "hello"


class TestResolutionCache:
    """A port resolves once per binding; any bind or unbind re-resolves."""

    def test_rebinding_a_parent_port_takes_effect_at_the_next_call(self, sim):
        outer = Client("outer", sim=sim)
        inner = Client("inner", sim=sim)
        g1, g2 = Greeter("g1", sim=sim), Greeter("g2", sim=sim)
        inner.port.bind(outer.port)
        outer.port.bind(g1)
        assert inner.port.greet() == "hello from g1"
        assert inner.port.resolve() is g1  # cached
        outer.port.unbind()
        outer.port.bind(g2)  # rebinds the chain's parent, not inner itself
        assert inner.port.greet() == "hello from g2"
        assert inner.port() is g2

    def test_unbind_still_raises(self, sim):
        outer = Client("outer", sim=sim)
        inner = Client("inner", sim=sim)
        greeter = Greeter("g", sim=sim)
        inner.port.bind(outer.port)
        outer.port.bind(greeter)
        assert inner.port.greet() == "hello from g"
        outer.port.unbind()
        with pytest.raises(BindingError, match="inner.port chains to unbound port outer.port"):
            inner.port.greet()
        inner.port.unbind()
        with pytest.raises(BindingError, match="port inner.port is not bound"):
            inner.port.resolve()

    def test_failures_are_not_cached(self, sim):
        client = Client("client", sim=sim)
        for _ in range(2):  # the same message every time
            with pytest.raises(BindingError, match="port client.port is not bound"):
                client.port.resolve()
        client.port.bind(Greeter("g", sim=sim))
        assert client.port.greet() == "hello from g"


class TestAnalysisHelpers:
    def test_ports_of_lists_declared_ports(self, sim):
        client = Client("client", sim=sim)
        extra = Port(client, name="extra")
        found = ports_of(client)
        assert [p.name for p in found] == ["port", "extra"]
        assert found[0].iface is GreeterIf
        assert found[1].iface is None

    def test_ports_of_plain_module_is_empty(self, sim):
        assert ports_of(Module("m", sim=sim)) == []

    def test_implemented_interfaces_returns_leaves(self, sim):
        loud = LoudGreeter("loud", sim=sim)
        interfaces = implemented_interfaces(loud)
        assert interfaces == [LoudGreeterIf]  # GreeterIf subsumed

    def test_implemented_interfaces_excludes_module_classes(self, sim):
        greeter = Greeter("g", sim=sim)
        interfaces = implemented_interfaces(greeter)
        assert interfaces == [GreeterIf]

    def test_non_interface_object(self, sim):
        assert implemented_interfaces(Module("m", sim=sim)) == []
