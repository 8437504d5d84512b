"""SoC templates: Figure 1(a) and 1(b) netlists and the area model."""

import pytest

from repro.apps import (
    accelerator_gate_counts,
    architecture_area_um2,
    make_baseline_netlist,
    make_reconfigurable_netlist,
)
from repro.core import Drcf
from repro.kernel import Simulator
from repro.tech import ASIC, MORPHOSYS, VIRTEX2PRO


class TestBaselineTemplate:
    def test_structure(self):
        netlist, info = make_baseline_netlist(("fir", "dct"))
        names = netlist.component_names
        assert names[:3] == ["system_bus", "cpu", "mem"]
        assert "fir" in names and "dct" in names and "cfgmem" in names
        assert netlist.slaves_of("system_bus") == ["mem", "fir", "dct", "cfgmem"]
        assert netlist.masters_of("system_bus") == ["cpu"]

    def test_address_map_disjoint(self):
        netlist, info = make_baseline_netlist(("fir", "fft", "viterbi", "xtea", "dct", "matmul"))
        design = netlist.elaborate(Simulator())  # overlap would raise
        bases = sorted(info.accel_bases.values())
        assert len(set(bases)) == len(bases)

    def test_unknown_accelerator(self):
        with pytest.raises(KeyError, match="unknown accelerators"):
            make_baseline_netlist(("fir", "gpu"))

    def test_optional_components(self):
        netlist, _ = make_baseline_netlist(
            ("fir",), include_dma=True, include_config_memory=False
        )
        assert "dma" in netlist.component_names
        assert "cfgmem" not in netlist.component_names

    def test_accel_tech_override(self):
        netlist, _ = make_baseline_netlist(("fir",), accel_tech=VIRTEX2PRO)
        design = netlist.elaborate(Simulator())
        assert design["fir"].tech is VIRTEX2PRO


class TestReconfigurableTemplate:
    def test_drcf_replaces_candidates(self):
        netlist, info = make_reconfigurable_netlist(("fir", "fft"), tech=MORPHOSYS)
        assert "drcf1" in netlist.component_names
        assert "fir" not in netlist.component_names
        assert info.drcf_name == "drcf1"
        assert info.transform_report is not None
        design = netlist.elaborate(Simulator())
        assert isinstance(design["drcf1"], Drcf)

    def test_static_accels_stay_dedicated(self):
        netlist, info = make_reconfigurable_netlist(
            ("fir", "fft"), static_accels=("dct",), tech=MORPHOSYS
        )
        assert "dct" in netlist.component_names
        design = netlist.elaborate(Simulator())
        assert {c.name for c in design["drcf1"].contexts} == {"fir", "fft"}

    def test_dedicated_config_bus_topology(self):
        netlist, info = make_reconfigurable_netlist(
            ("fir",), tech=VIRTEX2PRO, dedicated_config_bus=True
        )
        assert netlist.component("cfgmem").slave_of == "config_bus"
        assert netlist.component("drcf1").master_of == "config_bus"
        design = netlist.elaborate(Simulator())
        assert design["config_bus"].slaves == [design["cfgmem"]]

    def test_address_map_preserved(self):
        base_netlist, base_info = make_baseline_netlist(("fir", "fft"))
        reconf_netlist, reconf_info = make_reconfigurable_netlist(("fir", "fft"), tech=MORPHOSYS)
        assert base_info.accel_bases == reconf_info.accel_bases
        design = reconf_netlist.elaborate(Simulator())
        drcf = design["drcf1"]
        assert drcf.get_low_add() == base_info.accel_bases["fir"]


class TestAreaModel:
    def test_gate_counts_from_classes(self):
        gates = accelerator_gate_counts(("fir", "viterbi"))
        assert gates == {"fir": 12_000, "viterbi": 30_000}

    def test_dedicated_area_is_sum(self):
        area = architecture_area_um2(("fir", "xtea"), asic_tech=ASIC)
        assert area == pytest.approx((12_000 + 8_000) * ASIC.area_per_gate_um2)

    def test_folded_area_is_largest_context_on_fabric(self):
        area = architecture_area_um2(
            ("fir", "fft", "xtea"),
            asic_tech=ASIC,
            fabric_tech=MORPHOSYS,
            folded=("fir", "fft", "xtea"),
        )
        assert area == pytest.approx(25_000 * MORPHOSYS.area_per_gate_um2)

    def test_mixed_architecture(self):
        area = architecture_area_um2(
            ("fir", "viterbi"),
            asic_tech=ASIC,
            fabric_tech=MORPHOSYS,
            folded=("fir",),
        )
        expected = 30_000 * ASIC.area_per_gate_um2 + 12_000 * MORPHOSYS.area_per_gate_um2
        assert area == pytest.approx(expected)

    def test_folded_requires_fabric_tech(self):
        with pytest.raises(ValueError, match="fabric_tech"):
            architecture_area_um2(("fir",), asic_tech=ASIC, folded=("fir",))
