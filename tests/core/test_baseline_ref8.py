"""The ref-[8] baseline: switch delay without memory traffic."""

from repro.core import Ref8Drcf
from tests.core.helpers import DrcfRig, small_tech


def run_accesses(rig, accesses):
    def body():
        for index in accesses:
            yield from rig.master_read(rig.addr(index))

    rig.sim.spawn("p", body)
    rig.sim.run()


class TestNoTraffic:
    def test_switches_generate_no_bus_traffic(self):
        rig = DrcfRig(n_contexts=2, drcf_cls=Ref8Drcf, context_gates=2000)
        run_accesses(rig, [0, 1, 0])
        assert rig.bus.monitor.words_by_tag("config") == 0
        # Switching still happened and was accounted.
        assert rig.drcf.stats.fetch_misses == 3
        assert rig.drcf.stats.total_config_words > 0  # modeled, not transferred

    def test_switch_delay_still_modeled(self):
        # Port-bound time applies even without traffic.
        tech = small_tech(config_port_width_bits=8, config_port_freq_hz=10e6)
        rig = DrcfRig(n_contexts=2, drcf_cls=Ref8Drcf, tech=tech, context_gates=2000)
        run_accesses(rig, [0, 1])
        port_time = tech.raw_load_time(tech.context_size_bytes(2000) * 8)
        assert rig.drcf.stats.total_reconfig_time >= 2 * port_time


class TestUnderestimation:
    def test_ref8_faster_than_full_model_under_contention(self):
        """The divergence the paper criticizes: without modeled config
        traffic the baseline never waits for the bus and never slows other
        masters, so it underestimates execution time."""
        from repro.core import Drcf

        results = {}
        for label, cls in (("full", Drcf), ("ref8", Ref8Drcf)):
            rig = DrcfRig(n_contexts=2, drcf_cls=cls, context_gates=4000)
            run_accesses(rig, [0, 1, 0, 1])
            results[label] = rig.sim.now
        assert results["ref8"] < results["full"]

    def test_functional_results_identical(self):
        from repro.core import Drcf
        from tests.conftest import drive

        outputs = {}
        for label, cls in (("full", Drcf), ("ref8", Ref8Drcf)):
            rig = DrcfRig(n_contexts=2, drcf_cls=cls)

            def body(rig=rig):
                yield from rig.master_write(rig.addr(0, 3), 99)
                data = yield from rig.master_read(rig.addr(0, 3))
                return data

            box = drive(rig.sim, body)
            rig.sim.run()
            outputs[label] = box.value
        assert outputs["full"] == outputs["ref8"] == [99]
