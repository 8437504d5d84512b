"""Processor model: compute timing, bus services, polling, task execution."""

import pytest

from repro.bus import Bus, Memory
from repro.cpu import Processor
from repro.kernel import ns, us


def make_system(sim, cpu_clock=200e6):
    bus = Bus("bus", sim=sim, clock_freq_hz=100e6)
    mem = Memory("mem", sim=sim, base=0, size_words=256, clock_freq_hz=100e6)
    bus.register_slave(mem)
    cpu = Processor("cpu", sim=sim, clock_freq_hz=cpu_clock)
    cpu.mst_port.bind(bus)
    return bus, mem, cpu


class TestComputeTiming:
    def test_compute_advances_by_cycles(self, sim):
        _, _, cpu = make_system(sim)

        def task(c):
            yield from c.compute(200)  # 200 cycles @ 200 MHz = 1 us

        cpu.run_task(task)
        sim.run()
        assert sim.now == us(1)
        assert cpu.compute_cycles == 200

    def test_zero_cycles_is_free(self, sim):
        _, _, cpu = make_system(sim)

        def task(c):
            yield from c.compute(0)

        cpu.run_task(task)
        sim.run()
        assert sim.now.to_ns() == 0.0

    def test_negative_cycles_rejected(self, sim):
        _, _, cpu = make_system(sim)

        def task(c):
            yield from c.compute(-1)

        cpu.run_task(task)
        with pytest.raises(Exception, match="non-negative"):
            sim.run()


class TestBusServices:
    def test_read_write_roundtrip(self, sim):
        _, mem, cpu = make_system(sim)
        out = []

        def task(c):
            yield from c.write(0x10, [1, 2, 3])
            data = yield from c.read(0x10, 3)
            out.append(data)
            word = yield from c.read_word(0x14)
            out.append(word)

        cpu.run_task(task)
        sim.run()
        assert out == [[1, 2, 3], 2]
        assert cpu.bus_reads == 4
        assert cpu.bus_writes == 3

    def test_poll_until_match(self, sim):
        _, mem, cpu = make_system(sim)
        result = []

        def setter():
            yield us(1)
            mem.poke(0x20, [0x1])

        def task(c):
            word = yield from c.poll(0x20, mask=0x1, expect=0x1, interval_cycles=8)
            result.append((word, sim.now.to_us()))

        sim.spawn("setter", setter)
        cpu.run_task(task)
        sim.run()
        assert result[0][0] == 1
        assert result[0][1] >= 1.0

    def test_poll_gives_up(self, sim):
        _, _, cpu = make_system(sim)

        def task(c):
            yield from c.poll(0x20, mask=0x1, expect=0x1, max_polls=3)

        cpu.run_task(task)
        with pytest.raises(Exception, match="poll"):
            sim.run()


class TestTaskExecution:
    def test_run_sequence_ordering(self, sim):
        _, _, cpu = make_system(sim)
        order = []

        def make(label, cycles):
            def task(c):
                yield from c.compute(cycles)
                order.append(label)

            task.__name__ = label
            return task

        cpu.run_sequence([make("a", 10), make("b", 10)])
        sim.run()
        assert order == ["a", "b"]
        assert cpu.tasks_completed == 2

    def test_completion_times_recorded(self, sim):
        _, _, cpu = make_system(sim)

        def my_task(c):
            yield from c.compute(200)

        cpu.run_task(my_task)
        sim.run()
        assert cpu.task_completion_time("my_task") == us(1)
        assert "my_task" in cpu.completion_times

    def test_wait_event_service(self, sim):
        _, _, cpu = make_system(sim)
        ev = sim.event("irq")
        woke = []

        def task(c):
            yield from c.wait_event(ev)
            woke.append(sim.now.to_ns())

        cpu.run_task(task)
        ev.notify(ns(15))
        sim.run()
        assert woke == [15.0]

    def test_delay_service(self, sim):
        _, _, cpu = make_system(sim)

        def task(c):
            yield from c.delay(ns(7))

        cpu.run_task(task)
        sim.run()
        assert sim.now == ns(7)
