"""Technology presets: anchored to the paper's Chapter 3 device data."""

import pytest

from repro.kernel import ms
from repro.tech import (
    ASIC,
    MORPHOSYS,
    PRESETS,
    SLOW_FPGA,
    VARICORE,
    VIRTEX2PRO,
    preset,
    reconfigurable_presets,
)


class TestRegistry:
    def test_all_presets_by_name(self):
        for name, tech in PRESETS.items():
            assert preset(name) is tech

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="unknown technology preset"):
            preset("stratix")

    def test_reconfigurable_presets_exclude_asic(self):
        names = {t.name for t in reconfigurable_presets()}
        assert "asic" not in names
        assert {"virtex2pro", "varicore", "morphosys"} <= names


class TestVirtex2Pro:
    def test_class_properties(self):
        assert VIRTEX2PRO.granularity == "fine"  # 1-bit granularity per paper
        assert VIRTEX2PRO.context_slots == 1
        assert not VIRTEX2PRO.background_load
        assert VIRTEX2PRO.partial_reconfig  # Virtex family supports it

    def test_selectmap_bandwidth(self):
        # Byte-wide port at 66 MHz -> 66 MB/s.
        assert VIRTEX2PRO.config_bandwidth_bits_per_s == pytest.approx(8 * 66e6)

    def test_full_context_reconfig_is_milliseconds(self):
        # A 100k-gate block: ~5.3 Mbit of bitstream at 66 MB/s -> ~10 ms.
        t = VIRTEX2PRO.reconfig_time(VIRTEX2PRO.context_size_bits(100_000))
        assert ms(1) < t < ms(100)


class TestVaricore:
    def test_printed_power_coefficient(self):
        # The paper prints 0.075 uW/gate/MHz.
        assert VARICORE.active_power_w_per_gate_mhz == pytest.approx(7.5e-8)

    def test_clock_up_to_250mhz(self):
        assert VARICORE.fabric_clock_hz == pytest.approx(250e6)

    def test_medium_grain_partitionable(self):
        assert VARICORE.granularity == "medium"
        assert VARICORE.partial_reconfig


class TestMorphosys:
    def test_multi_context_with_background_load(self):
        # "While the RC array is executing one of the 16 contexts, the
        # other 16 contexts can be reloaded" -> 2 banks, background load.
        assert MORPHOSYS.context_slots == 2
        assert MORPHOSYS.background_load

    def test_coarse_grain_small_contexts(self):
        assert MORPHOSYS.granularity == "coarse"
        assert MORPHOSYS.bits_per_gate < VIRTEX2PRO.bits_per_gate / 10

    def test_switch_orders_of_magnitude_faster_than_fine_grain(self):
        gates = 20_000
        t_morpho = MORPHOSYS.reconfig_time(MORPHOSYS.context_size_bits(gates))
        t_virtex = VIRTEX2PRO.reconfig_time(VIRTEX2PRO.context_size_bits(gates))
        assert t_virtex / t_morpho > 100


class TestOrderings:
    def test_asic_fastest_and_densest(self):
        for tech in reconfigurable_presets():
            assert tech.speed_factor <= ASIC.speed_factor
            assert tech.area_per_gate_um2 > ASIC.area_per_gate_um2

    def test_fine_grain_costs_most_area_per_gate(self):
        assert VIRTEX2PRO.area_per_gate_um2 > VARICORE.area_per_gate_um2
        assert VARICORE.area_per_gate_um2 > MORPHOSYS.area_per_gate_um2

    def test_slow_fpga_slower_than_virtex(self):
        bits = 1_000_000
        assert SLOW_FPGA.reconfig_time(bits) > VIRTEX2PRO.reconfig_time(bits)
