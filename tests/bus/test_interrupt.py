"""Interrupt controller + interrupt-driven accelerator completion."""

import pytest

from repro.apps import JobSpec, golden_outputs, make_baseline_netlist
from repro.apps.driver import run_accelerator_job
from repro.bus import (
    Bus,
    InterruptController,
    REG_ACK,
    REG_MASK,
    REG_PENDING,
)
from repro.kernel import SimulationError, Simulator, ns


def make_ctrl(sim, n_lines=8):
    bus = Bus("bus", sim=sim, clock_freq_hz=100e6)
    ctrl = InterruptController("irq", sim=sim, base=0x9000, n_lines=n_lines)
    bus.register_slave(ctrl)
    return bus, ctrl


class TestController:
    def test_source_registration(self, sim):
        _, ctrl = make_ctrl(sim)
        assert ctrl.register_source("a") == 0
        assert ctrl.register_source("b") == 1
        assert ctrl.register_source("a") == 0  # idempotent
        assert ctrl.register_source("c", line=5) == 5

    def test_out_of_lines(self, sim):
        _, ctrl = make_ctrl(sim, n_lines=1)
        ctrl.register_source("a")
        with pytest.raises(SimulationError, match="out of interrupt lines"):
            ctrl.register_source("b")

    def test_unknown_source(self, sim):
        _, ctrl = make_ctrl(sim)
        with pytest.raises(SimulationError, match="unknown interrupt source"):
            ctrl.raise_irq("ghost")

    def test_raise_sets_pending_and_fires_event(self, sim):
        _, ctrl = make_ctrl(sim)
        ctrl.register_source("acc")
        fired = []

        def waiter():
            yield ctrl.line_event("acc")
            fired.append(sim.now.to_ns())

        sim.spawn("w", waiter)

        def raiser():
            yield ns(25)
            ctrl.raise_irq("acc")

        sim.spawn("r", raiser)
        sim.run()
        assert fired == [25.0]
        assert ctrl.is_pending("acc")
        ctrl.acknowledge("acc")
        assert not ctrl.is_pending("acc")

    def test_masked_line_does_not_fire(self, sim):
        bus, ctrl = make_ctrl(sim)
        ctrl.register_source("acc", line=0)
        fired = []

        def body():
            yield from bus.write(0x9000 + REG_MASK, 0x0, master="cpu")  # mask all
            ctrl.raise_irq("acc")
            pending = yield from bus.read(0x9000 + REG_PENDING, 1, master="cpu")
            fired.append(pending[0])

        sim.spawn("p", body)
        sim.run()
        # Raised but masked: visible-pending reads 0, no event delivered.
        assert fired == [0]
        assert ctrl.is_pending("acc")  # raw pending retained

    def test_ack_over_the_bus(self, sim):
        bus, ctrl = make_ctrl(sim)
        ctrl.register_source("acc", line=3)
        result = []

        def body():
            ctrl.raise_irq("acc")
            yield from bus.write(0x9000 + REG_ACK, 1 << 3, master="cpu")
            pending = yield from bus.read(0x9000 + REG_PENDING, 1, master="cpu")
            result.append(pending[0])

        sim.spawn("p", body)
        sim.run()
        assert result == [0]

    def test_register_file_bounds(self, sim):
        bus, ctrl = make_ctrl(sim)
        # The bus itself rejects addresses past the decoded range...
        def over_range():
            yield from bus.read(0x9000 + 0x0C, 1, master="cpu")

        sim.spawn("p", over_range)
        with pytest.raises(Exception, match="no slave decodes"):
            sim.run()
        # ...and a burst read spilling past ACK is rejected by the slave.
        sim2 = Simulator()
        _, ctrl2 = make_ctrl(sim2)

        def spill():
            yield from ctrl2.read(0x9000 + REG_ACK, 2)

        sim2.spawn("p", spill)
        with pytest.raises(Exception, match="read from"):
            sim2.run()

    def test_line_count_validation(self, sim):
        with pytest.raises(SimulationError):
            InterruptController("i", sim=sim, base=0, n_lines=0)


class TestInterruptDrivenDriver:
    def _system(self):
        netlist, info = make_baseline_netlist(("fir",))
        netlist.add("irq", InterruptController, slave_of="system_bus", base=0x3000_0000)
        sim = Simulator()
        design = netlist.elaborate(sim)
        design["fir"].connect_irq(design["irq"])
        return sim, design, info

    def test_irq_job_matches_polling_job(self):
        spec = JobSpec("fir", [10, 20, 30], param=1, coefs=[1 << 15])
        results = {}
        for mode in ("poll", "irq"):
            sim, design, info = self._system()
            out = {}

            def task(cpu, mode=mode, design=design):
                irq = (design["irq"], design["fir"].irq_source) if mode == "irq" else None
                out["data"] = yield from run_accelerator_job(
                    cpu,
                    info.accel_bases["fir"],
                    spec.inputs,
                    param=spec.param,
                    coefs=spec.coefs,
                    buffer_words=info.buffer_words,
                    irq=irq,
                )

            design["cpu"].run_task(task)
            sim.run()
            results[mode] = out["data"]
        assert results["poll"] == results["irq"] == golden_outputs(spec)

    def test_irq_mode_removes_poll_traffic(self):
        # A slow job: polling mode issues many STATUS reads, IRQ mode none.
        inputs = list(range(256))
        reads = {}
        for mode in ("poll", "irq"):
            sim, design, info = self._system()

            def task(cpu, mode=mode, design=design):
                irq = (design["irq"], design["fir"].irq_source) if mode == "irq" else None
                yield from run_accelerator_job(
                    cpu,
                    info.accel_bases["fir"],
                    inputs,
                    param=8,
                    coefs=[1000] * 8,
                    buffer_words=info.buffer_words,
                    irq=irq,
                )

            design["cpu"].run_task(task)
            sim.run()
            reads[mode] = design["cpu"].bus_reads
        # IRQ mode: only the output readback; polling adds STATUS reads.
        assert reads["irq"] < reads["poll"]

    def test_irq_no_race_when_completion_precedes_wait(self):
        # A zero-delay-ish job may raise the IRQ before the CPU reaches the
        # wait; the pending check must catch it.
        sim, design, info = self._system()
        done = {}

        def task(cpu):
            data = yield from run_accelerator_job(
                cpu,
                info.accel_bases["fir"],
                [1],
                param=1,
                coefs=[1 << 15],
                buffer_words=info.buffer_words,
                irq=(design["irq"], design["fir"].irq_source),
            )
            done["data"] = data

        design["cpu"].run_task(task)
        sim.run()
        assert done["data"] == [1]
