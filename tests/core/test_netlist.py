"""Netlist descriptions: build, rewrite primitives, elaboration."""

import pytest

from repro.bus import Bus, Memory
from repro.core import ComponentSpec, Netlist
from repro.cpu import Processor
from repro.kernel import ElaborationError, Simulator


def simple_netlist():
    netlist = Netlist("top")
    netlist.add("bus", Bus, clock_freq_hz=100e6)
    netlist.add("cpu", Processor, master_of="bus")
    netlist.add("mem", Memory, slave_of="bus", base=0, size_words=64)
    return netlist


class TestBuilding:
    def test_duplicate_component_rejected(self):
        netlist = simple_netlist()
        with pytest.raises(ElaborationError, match="duplicate"):
            netlist.add("cpu", Processor)

    def test_component_lookup(self):
        netlist = simple_netlist()
        assert netlist.component("cpu").factory is Processor
        with pytest.raises(ElaborationError, match="no component"):
            netlist.component("gpu")

    def test_slaves_and_masters_of(self):
        netlist = simple_netlist()
        assert netlist.slaves_of("bus") == ["mem"]
        assert netlist.masters_of("bus") == ["cpu"]

    def test_remove_returns_spec(self):
        netlist = simple_netlist()
        spec = netlist.remove("mem")
        assert spec.name == "mem"
        assert "mem" not in netlist.component_names
        with pytest.raises(ElaborationError):
            netlist.remove("mem")

    def test_insert_after_anchor(self):
        netlist = simple_netlist()
        spec = ComponentSpec("io", Memory, kwargs=dict(base=0x8000, size_words=4))
        netlist.insert_after("bus", spec)
        assert netlist.component_names == ["bus", "io", "cpu", "mem"]

    def test_insert_at_front(self):
        netlist = simple_netlist()
        spec = ComponentSpec("first", Memory, kwargs=dict(base=0x8000, size_words=4))
        netlist.insert_after(None, spec)
        assert netlist.component_names[0] == "first"

    def test_insert_with_bad_anchor(self):
        netlist = simple_netlist()
        spec = ComponentSpec("x", Memory, kwargs=dict(base=0x8000, size_words=4))
        with pytest.raises(ElaborationError, match="anchor"):
            netlist.insert_after("ghost", spec)

    def test_clone_is_independent(self):
        netlist = simple_netlist()
        clone = netlist.clone("copy")
        clone.remove("mem")
        clone.component("cpu").kwargs["clock_freq_hz"] = 1.0
        assert "mem" in netlist.component_names
        assert "clock_freq_hz" not in netlist.component("cpu").kwargs


class TestElaboration:
    def test_instances_built_and_bound(self):
        netlist = simple_netlist()
        sim = Simulator()
        design = netlist.elaborate(sim)
        assert design["cpu"].mst_port.resolve() is design["bus"]
        assert design["bus"].slaves == [design["mem"]]
        assert design.top.full_name == "top"
        assert design["mem"].full_name == "top.mem"

    def test_missing_bus_reference(self):
        netlist = Netlist("top")
        netlist.add("cpu", Processor, master_of="ghost_bus")
        with pytest.raises(ElaborationError, match="unknown component"):
            netlist.elaborate(Simulator())

    def test_post_elaborate_hook_runs(self):
        netlist = simple_netlist()
        seen = []
        netlist.component("mem").post_elaborate = lambda inst, design: seen.append(
            (inst.full_name, "cpu" in design)
        )
        netlist.elaborate(Simulator())
        assert seen == [("top.mem", True)]

    def test_repeated_elaboration_gives_fresh_instances(self):
        netlist = simple_netlist()
        d1 = netlist.elaborate(Simulator())
        d2 = netlist.elaborate(Simulator())
        assert d1["cpu"] is not d2["cpu"]

    def test_design_lookup_errors(self):
        design = simple_netlist().elaborate(Simulator())
        assert "cpu" in design
        assert "gpu" not in design
        with pytest.raises(KeyError, match="no instance"):
            design["gpu"]
        assert sorted(design.instance_names) == ["bus", "cpu", "mem"]
