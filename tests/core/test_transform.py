"""The four-phase DRCF transformation (Section 5.2 / Figure 4)."""

from dataclasses import dataclass

import pytest

from repro.apps import make_baseline_netlist
from repro.apps.accelerators import FirAccelerator
from repro.core import (
    Drcf,
    Ref8Drcf,
    analyze_instance,
    analyze_module_spec,
    transform_to_drcf,
)
from repro.kernel import ElaborationError, Module as ModuleBase, Simulator, us
from repro.tech import ASIC, MORPHOSYS, VIRTEX2PRO


@pytest.fixture
def baseline():
    return make_baseline_netlist(("fir", "fft", "xtea"))


@dataclass
class _FirFactory:
    """A callable factory object; defining equality makes it unhashable."""

    def __call__(self, name, *, tech=ASIC, **kwargs):
        return FirAccelerator(name, tech=tech, **kwargs)


class TestPhase1ModuleAnalysis:
    def test_interfaces_and_ports_analyzed(self, baseline):
        netlist, _ = baseline
        analysis = analyze_module_spec(netlist.component("fir"))
        assert analysis.class_name == "FirAccelerator"
        assert analysis.interfaces == ["BusSlaveIf"]
        assert analysis.implements_slave_if

    def test_address_range_analyzed(self, baseline):
        netlist, info = baseline
        analysis = analyze_module_spec(netlist.component("fft"))
        assert analysis.low_addr == info.accel_bases["fft"]
        assert analysis.high_addr > analysis.low_addr

    def test_gates_from_kwargs_or_instance(self, baseline):
        netlist, _ = baseline
        assert analyze_module_spec(netlist.component("fir")).gates == 12_000
        netlist.component("fir").kwargs["gates"] = 777
        assert analyze_module_spec(netlist.component("fir")).gates == 777


class TestPhase2InstanceAnalysis:
    def test_declaration_constructor_bindings_recorded(self, baseline):
        netlist, info = baseline
        inst = analyze_instance(netlist, "fir")
        assert inst.name == "fir"
        assert inst.factory_name == "FirAccelerator"
        assert inst.kwargs["base"] == info.accel_bases["fir"]
        assert inst.slave_of == "system_bus"
        assert inst.master_of is None


class TestPhase3And4:
    def test_netlist_rewritten(self, baseline):
        netlist, info = baseline
        result = transform_to_drcf(
            netlist, ["fir", "fft"], tech=VIRTEX2PRO,
            config_memory="cfgmem", config_base=info.cfg_base,
        )
        names = result.netlist.component_names
        assert "drcf1" in names
        assert "fir" not in names and "fft" not in names
        assert "xtea" in names  # untouched candidate stays
        # DRCF takes the bus position of the first candidate.
        assert names.index("drcf1") == netlist.component_names.index("fir")
        drcf_spec = result.netlist.component("drcf1")
        assert drcf_spec.slave_of == "system_bus"
        assert drcf_spec.master_of == "system_bus"

    def test_original_netlist_untouched(self, baseline):
        netlist, info = baseline
        before = list(netlist.component_names)
        transform_to_drcf(
            netlist, ["fir"], tech=VIRTEX2PRO,
            config_memory="cfgmem", config_base=info.cfg_base,
        )
        assert netlist.component_names == before

    def test_config_memory_placement_sequential_disjoint(self, baseline):
        netlist, info = baseline
        result = transform_to_drcf(
            netlist, ["fir", "fft", "xtea"], tech=VIRTEX2PRO,
            config_memory="cfgmem", config_base=info.cfg_base,
        )
        allocations = result.report.allocations
        assert len(allocations) == 3
        regions = sorted((a.config_addr, a.config_addr + a.size_bytes) for a in allocations)
        for (lo1, hi1), (lo2, hi2) in zip(regions, regions[1:]):
            assert hi1 <= lo2  # disjoint
        # Sizes follow the technology density.
        by_name = {a.name: a for a in allocations}
        assert by_name["fir"].size_bytes == VIRTEX2PRO.context_size_bytes(12_000)

    def test_context_too_big_for_config_memory(self, baseline):
        netlist, info = baseline
        netlist.component("cfgmem").kwargs["size_words"] = 16
        with pytest.raises(ElaborationError, match="does not fit"):
            transform_to_drcf(
                netlist, ["fir"], tech=VIRTEX2PRO,
                config_memory="cfgmem", config_base=info.cfg_base,
            )

    def test_extra_delays_override(self, baseline):
        netlist, info = baseline
        result = transform_to_drcf(
            netlist, ["fir"], tech=VIRTEX2PRO,
            config_memory="cfgmem", config_base=info.cfg_base,
            extra_delays={"fir": us(123)},
        )
        assert result.report.allocations[0].extra_delay == us(123)

    def test_elaborated_drcf_wraps_candidates(self, baseline):
        netlist, info = baseline
        result = transform_to_drcf(
            netlist, ["fir", "fft"], tech=MORPHOSYS,
            config_memory="cfgmem", config_base=info.cfg_base,
        )
        design = result.netlist.elaborate(Simulator())
        drcf = design["drcf1"]
        assert isinstance(drcf, Drcf)
        assert {c.name for c in drcf.contexts} == {"fir", "fft"}
        # Candidates are children of the DRCF (paper's generated structure).
        assert {c.basename for c in drcf.children} == {"fir", "fft"}
        # Their timing was retargeted to the fabric technology.
        assert drcf.child("fir").tech is MORPHOSYS
        # Regions were registered on the config memory at elaboration.
        assert design["cfgmem"].region_of("fir")[1] == MORPHOSYS.context_size_bytes(12_000)

    def test_unhashable_factory_is_retargeted(self, baseline):
        netlist, info = baseline
        netlist.component("fir").factory = _FirFactory()
        result = transform_to_drcf(
            netlist, ["fir"], tech=MORPHOSYS,
            config_memory="cfgmem", config_base=info.cfg_base,
        )
        design = result.netlist.elaborate(Simulator())
        assert design["drcf1"].child("fir").tech is MORPHOSYS

    def test_custom_drcf_class(self, baseline):
        netlist, info = baseline
        result = transform_to_drcf(
            netlist, ["fir"], tech=VIRTEX2PRO,
            config_memory="cfgmem", config_base=info.cfg_base,
            drcf_cls=Ref8Drcf,
        )
        design = result.netlist.elaborate(Simulator())
        assert isinstance(design["drcf1"], Ref8Drcf)


class TestValidation:
    def test_no_candidates(self, baseline):
        netlist, _ = baseline
        with pytest.raises(ElaborationError, match="no candidates"):
            transform_to_drcf(netlist, [], tech=VIRTEX2PRO, config_memory="cfgmem")

    def test_duplicate_candidates(self, baseline):
        netlist, _ = baseline
        with pytest.raises(ElaborationError, match="duplicate"):
            transform_to_drcf(
                netlist, ["fir", "fir"], tech=VIRTEX2PRO, config_memory="cfgmem"
            )

    def test_limitation1_same_bus_required(self, baseline):
        netlist, info = baseline
        # Move fft to a second bus: candidates now live at different levels.
        from repro.bus import Bus

        netlist.add("bus2", Bus, clock_freq_hz=100e6)
        netlist.component("fft").slave_of = "bus2"
        with pytest.raises(ElaborationError, match="same bus"):
            transform_to_drcf(
                netlist, ["fir", "fft"], tech=VIRTEX2PRO,
                config_memory="cfgmem", config_base=info.cfg_base,
            )

    def test_limitation2_address_methods_required(self, baseline):
        netlist, info = baseline
        from repro.cpu import Processor

        netlist.component("fir").factory = Processor  # no get_low_add
        netlist.component("fir").kwargs = {}
        netlist.component("fir").slave_of = "system_bus"
        with pytest.raises(ElaborationError, match="get_low_add"):
            transform_to_drcf(
                netlist, ["fir"], tech=VIRTEX2PRO,
                config_memory="cfgmem", config_base=info.cfg_base,
            )

    def test_candidate_without_slave_binding(self, baseline):
        netlist, info = baseline
        netlist.component("fir").slave_of = None
        with pytest.raises(ElaborationError, match="same bus"):
            transform_to_drcf(
                netlist, ["fir"], tech=VIRTEX2PRO,
                config_memory="cfgmem", config_base=info.cfg_base,
            )


class _RangedNonSlave(ModuleBase):
    """Advertises an address range but does not implement BusSlaveIf."""

    def __init__(self, name, parent=None, sim=None, base=0x1000, **_kwargs):
        super().__init__(name, parent=parent, sim=sim)
        self.base = base

    def get_low_add(self):
        return self.base

    def get_high_add(self):
        return self.base + 0xFF


class TestErrorPaths:
    """The failure modes a designer actually hits when driving the tool."""

    def test_unknown_candidate_name(self, baseline):
        netlist, info = baseline
        with pytest.raises(ElaborationError, match="no component 'nonesuch'"):
            transform_to_drcf(
                netlist, ["nonesuch"], tech=VIRTEX2PRO,
                config_memory="cfgmem", config_base=info.cfg_base,
            )

    def test_unknown_config_memory(self, baseline):
        netlist, info = baseline
        with pytest.raises(ElaborationError, match="no component 'nomem'"):
            transform_to_drcf(
                netlist, ["fir"], tech=VIRTEX2PRO,
                config_memory="nomem", config_base=info.cfg_base,
            )

    def test_drcf_name_collides_with_existing_instance(self, baseline):
        netlist, info = baseline
        with pytest.raises(ElaborationError, match="duplicate component 'cpu'"):
            transform_to_drcf(
                netlist, ["fir"], tech=VIRTEX2PRO,
                config_memory="cfgmem", config_base=info.cfg_base,
                drcf_name="cpu",
            )

    def test_candidate_not_a_bus_slave_interface(self, baseline):
        netlist, info = baseline
        spec = netlist.component("fir")
        spec.factory = _RangedNonSlave
        spec.kwargs = {"base": info.accel_bases["fir"]}
        with pytest.raises(ElaborationError, match="does not implement BusSlaveIf"):
            transform_to_drcf(
                netlist, ["fir"], tech=VIRTEX2PRO,
                config_memory="cfgmem", config_base=info.cfg_base,
            )

    def test_first_component_candidate_uses_none_anchor(self):
        # When the first declared component is a candidate there is no
        # anchor to insert after; the DRCF must take the head position.
        from repro.apps.accelerators import FirAccelerator
        from repro.bus import Bus, ConfigMemory
        from repro.core import Netlist

        netlist = Netlist("head")
        netlist.add("fir", FirAccelerator, slave_of="system_bus", base=0x1000_0000)
        netlist.add("system_bus", Bus, protocol="split")
        netlist.add(
            "cfgmem", ConfigMemory, slave_of="system_bus",
            base=0x2000_0000, size_words=4 * 1024 * 1024,
        )
        result = transform_to_drcf(
            netlist, ["fir"], tech=VIRTEX2PRO,
            config_memory="cfgmem", config_base=0x2000_0000,
        )
        assert result.netlist.component_names[0] == "drcf1"

    def test_insert_after_missing_anchor_rejected(self, baseline):
        from repro.core.netlist import ComponentSpec

        netlist, _ = baseline
        clone = netlist.clone()
        spec = ComponentSpec(name="late", factory=lambda name, parent=None: None)
        with pytest.raises(ElaborationError, match="no anchor 'ghost'"):
            clone.insert_after("ghost", spec)
