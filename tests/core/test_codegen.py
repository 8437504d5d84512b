"""Codegen: executable build source and the drcf_own-style listing."""

import pytest

from repro.apps import make_baseline_netlist
from repro.core import (
    CodegenError,
    default_env,
    exec_build_source,
    generate_build_source,
    generate_drcf_listing,
    generate_transformation_diff,
    transform_to_drcf,
)
from repro.core.policies import LruPolicy
from repro.kernel import Simulator
from repro.tech import VIRTEX2PRO


@pytest.fixture
def baseline():
    return make_baseline_netlist(("fir", "fft"))


class TestBuildSource:
    def test_source_contains_declarations_and_bindings(self, baseline):
        netlist, _ = baseline
        source = generate_build_source(netlist)
        assert "def build_top(sim):" in source
        assert "fir = FirAccelerator('fir', parent=top" in source
        assert "cpu.mst_port.bind(system_bus)" in source
        assert "system_bus.register_slave(fir)" in source

    def test_source_is_executable_and_equivalent(self, baseline):
        netlist, _ = baseline
        source = generate_build_source(netlist)
        sim = Simulator()
        top = exec_build_source(source, sim, default_env(netlist))
        # Same children, same structure as direct elaboration.
        direct = netlist.elaborate(Simulator())
        assert [c.basename for c in top.children] == [
            c.basename for c in direct.top.children
        ]
        # Bus bindings reproduced.
        bus = top.child("system_bus")
        assert {s.basename for s in bus.slaves} == {"mem", "fir", "fft", "cfgmem"}

    def test_executed_system_simulates(self, baseline):
        netlist, info = baseline
        source = generate_build_source(netlist)
        sim = Simulator()
        top = exec_build_source(source, sim, default_env(netlist))
        bus = top.child("system_bus")
        result = {}

        def body():
            yield from bus.write(info.accel_bases["fir"] + 8, 16, master="cpu")
            data = yield from bus.read(info.accel_bases["fir"] + 8, 1, master="cpu")
            result["jobsize"] = data[0]

        sim.spawn("p", body)
        sim.run()
        assert result["jobsize"] == 16

    def test_transformed_netlist_not_serializable(self, baseline):
        netlist, info = baseline
        result = transform_to_drcf(
            netlist, ["fir"], tech=VIRTEX2PRO,
            config_memory="cfgmem", config_base=info.cfg_base,
        )
        with pytest.raises(CodegenError, match="cannot render"):
            generate_build_source(result.netlist)

    def test_value_formatting(self):
        from repro.core.codegen import _format_value
        from repro.kernel import us

        assert _format_value(True) == "True"
        assert _format_value(5) == "5"
        assert _format_value(0x10000) == "0x10000"
        assert _format_value(2.5) == "2.5"
        assert _format_value("split") == "'split'"
        assert _format_value(None) == "None"
        assert _format_value(us(1)) == "SimTime.from_fs(1000000000)"
        assert _format_value(VIRTEX2PRO) == "preset('virtex2pro')"
        assert _format_value(LruPolicy()) == "make_policy('lru')"


class TestDrcfListing:
    def test_listing_matches_paper_structure(self, baseline):
        netlist, info = baseline
        result = transform_to_drcf(
            netlist, ["fir", "fft"], tech=VIRTEX2PRO,
            config_memory="cfgmem", config_base=info.cfg_base,
        )
        listing = generate_drcf_listing(result.report)
        # Implements the analyzed slave interface (paper's `public bus_slv_if`).
        assert "class drcf_drcf1(Module, BusSlaveIf):" in listing
        # Template parts: scheduler thread and routed interface methods.
        assert "self.add_thread(self.arb_and_instr)" in listing
        assert "def arb_and_instr(self):" in listing
        assert "def get_low_add(self):" in listing
        assert "def read(self, addr, count=1):" in listing
        # Inserted parts: analyzed ports, phase-2 constructors and bindings.
        assert "# inserted" in listing
        assert "self.fir = FirAccelerator('fir', parent=self" in listing
        # Context table rendered with placements.
        assert "context table" in listing
        assert hex(info.cfg_base) in listing

    def test_union_address_range_in_listing(self, baseline):
        netlist, info = baseline
        result = transform_to_drcf(
            netlist, ["fir", "fft"], tech=VIRTEX2PRO,
            config_memory="cfgmem", config_base=info.cfg_base,
        )
        listing = generate_drcf_listing(result.report)
        assert f"return {info.accel_bases['fir']:#x}" in listing

    def test_listing_is_valid_python(self, baseline):
        netlist, info = baseline
        result = transform_to_drcf(
            netlist, ["fir"], tech=VIRTEX2PRO,
            config_memory="cfgmem", config_base=info.cfg_base,
        )
        compile(generate_drcf_listing(result.report), "<listing>", "exec")


class TestDiff:
    def test_diff_shows_rewrite(self, baseline):
        netlist, info = baseline
        result = transform_to_drcf(
            netlist, ["fir", "fft"], tech=VIRTEX2PRO,
            config_memory="cfgmem", config_base=info.cfg_base,
        )
        diff = generate_transformation_diff(netlist, result.netlist)
        assert "- fir" in diff
        assert "- fft" in diff
        assert "+ drcf1 = Drcf(...)" in diff
