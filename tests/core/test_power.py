"""Power/energy extension (paper future work, experiment A4)."""

import pytest

from repro.core import EnergyBreakdown, PowerModel
from repro.kernel import us
from tests.core.helpers import DrcfRig, small_tech


class TestEnergyBreakdown:
    def test_total_and_addition(self):
        a = EnergyBreakdown(active_j=1.0, reconfig_j=2.0, idle_j=3.0)
        b = EnergyBreakdown(active_j=0.5)
        total = a + b
        assert total.active_j == 1.5
        assert total.total_j == pytest.approx(6.5)


class TestPowerModelPieces:
    def test_active_energy(self):
        tech = small_tech(active_power_w_per_gate_mhz=1e-7, fabric_clock_hz=100e6)
        model = PowerModel(tech)
        # 1000 gates at 1e-7*100 = 1e-5 W/gate... -> 0.01 W for 10 us = 1e-7 J
        assert model.active_energy(1000, us(10)) == pytest.approx(
            tech.active_power_w(1000) * 10e-6
        )

    def test_reconfig_energy(self):
        tech = small_tech(config_power_w=0.05)
        assert PowerModel(tech).reconfig_energy(us(100)) == pytest.approx(0.05 * 100e-6)

    def test_idle_energy(self):
        tech = small_tech(idle_power_w_per_gate=1e-9)
        assert PowerModel(tech).idle_energy(1000, us(1000)) == pytest.approx(
            1e-6 * 1e-3
        )


class TestDrcfReport:
    def _run_rig(self):
        rig = DrcfRig(n_contexts=2, context_gates=1000)

        def body():
            yield from rig.master_read(rig.addr(0))
            yield from rig.master_read(rig.addr(1))
            yield from rig.master_read(rig.addr(1))

        rig.sim.spawn("p", body)
        rig.sim.run()
        return rig

    def test_report_has_context_and_fabric_rows(self):
        rig = self._run_rig()
        model = PowerModel(rig.tech)
        report = model.drcf_report(rig.drcf)
        assert set(report) == {"s0", "s1", "__fabric__"}
        assert report["s0"].reconfig_j > 0
        assert report["s1"].active_j > 0
        assert report["__fabric__"].idle_j > 0

    def test_total_sums_rows(self):
        rig = self._run_rig()
        model = PowerModel(rig.tech)
        report = model.drcf_report(rig.drcf)
        total = model.drcf_total(rig.drcf)
        assert total.total_j == pytest.approx(
            sum(part.total_j for part in report.values())
        )

    def test_explicit_window(self):
        rig = self._run_rig()
        model = PowerModel(rig.tech)
        small = model.drcf_total(rig.drcf, us(1))
        large = model.drcf_total(rig.drcf, us(1000))
        assert large.idle_j > small.idle_j
        assert large.active_j == pytest.approx(small.active_j)

    def test_static_alternative_leaks_on_all_blocks(self):
        rig = self._run_rig()
        model = PowerModel(rig.tech)
        window = rig.sim.now
        active_times = {
            name: rig.drcf.stats.context(name).active_time
            for name in ("s0", "s1")
        }
        static = model.static_accelerators_total(
            rig.drcf.contexts, active_times, window
        )
        dynamic = model.drcf_total(rig.drcf, window)
        # The static architecture has no reconfiguration energy...
        assert static.reconfig_j == 0.0
        assert dynamic.reconfig_j > 0.0
        # ...but leaks on the sum of gates rather than the largest context.
        assert static.idle_j > dynamic.idle_j
