"""The shared bus: decode, timing, protocols, contention, monitor hookup."""

import re

import pytest

from repro.bus import Bus, Memory
from repro.bus.interfaces import BusSlaveIf
from repro.kernel import ZERO_TIME, Module, ProcessError, SimulationError, Simulator, ns, us
from tests.conftest import drive


def make_system(sim, *, protocol="blocking", mem_latency=2, arbitration="fifo"):
    bus = Bus(
        "bus",
        sim=sim,
        clock_freq_hz=100e6,
        protocol=protocol,
        arbitration=arbitration,
    )
    mem = Memory(
        "mem",
        sim=sim,
        base=0x1000,
        size_words=256,
        latency_cycles=mem_latency,
        clock_freq_hz=100e6,
    )
    bus.register_slave(mem)
    return bus, mem


class TestDecode:
    def test_decode_hits_registered_slave(self, sim):
        bus, mem = make_system(sim)
        assert bus.decode(0x1000) is mem
        assert bus.decode(0x1000 + 255 * 4) is mem

    def test_decode_miss_raises(self, sim):
        bus, _ = make_system(sim)
        with pytest.raises(SimulationError, match="no slave decodes"):
            bus.decode(0x9000)

    def test_overlapping_slaves_rejected(self, sim):
        bus, _ = make_system(sim)
        overlap = Memory("m2", sim=sim, base=0x1100, size_words=16)
        with pytest.raises(SimulationError, match="overlaps"):
            bus.register_slave(overlap)

    def test_non_slave_rejected(self, sim):
        bus, _ = make_system(sim)
        with pytest.raises(SimulationError, match="BusSlaveIf"):
            bus.register_slave(object())  # type: ignore[arg-type]

    def test_unregister_slave(self, sim):
        bus, mem = make_system(sim)
        bus.unregister_slave(mem)
        assert bus.slaves == []

    def test_decode_table_over_unsorted_slaves(self, sim):
        """Slaves registered out of address order, with gaps between them:
        both ends of each range decode to it, every gap and both outer
        sides fail, and the table follows unregister and register."""
        bus = Bus("bus", sim=sim)
        bases = (0x3000, 0x1000, 0x2000)
        mems = [Memory(f"m{i}", sim=sim, base=base, size_words=16) for i, base in enumerate(bases)]
        for mem in mems:
            bus.register_slave(mem)
        for mem in mems:
            assert bus.decode(mem.get_low_add()) is mem
            assert bus.decode(mem.get_high_add()) is mem
        for addr in (0x0, 0xFFF, 0x1040, 0x1FFF, 0x2040, 0x3040):
            with pytest.raises(SimulationError, match=f"no slave decodes address {addr:#x}"):
                bus.decode(addr)
        bus.unregister_slave(mems[2])
        with pytest.raises(SimulationError, match="no slave decodes"):
            bus.decode(0x2000)
        assert bus.decode(0x3000) is mems[0]
        gap = Memory("gap", sim=sim, base=0x1040, size_words=16)
        bus.register_slave(gap)
        assert bus.decode(0x1040) is gap
        assert bus.decode(0x103C) is mems[1]

    def test_decode_reads_a_moved_range_again(self, sim):
        """A slave's range may change after registration (a DRCF's follows
        its contexts' modules): an address the table misses is looked up
        in the current ranges before the decode fails."""
        bus, mem = make_system(sim)
        other = Memory("m2", sim=sim, base=0x4000, size_words=16)
        bus.register_slave(other)
        other.base = 0x8000
        assert bus.decode(0x8000) is other
        assert bus.decode(0x1000) is mem
        with pytest.raises(SimulationError, match="no slave decodes address 0x4000"):
            bus.decode(0x4000)


class TestTiming:
    def test_blocking_read_latency(self, sim):
        bus, _ = make_system(sim, mem_latency=2)

        def body():
            data = yield from bus.read(0x1000, 4, master="cpu")
            return (data, sim.now.to_ns())

        box = drive(sim, body)
        sim.run()
        data, t = box.value
        # addr phase (1) + memory (2 + 3) + data beats (4) = 10 cycles @ 10ns
        assert t == 100.0
        assert data == [0, 0, 0, 0]

    def test_write_then_read_roundtrip(self, sim):
        bus, mem = make_system(sim)

        def body():
            yield from bus.write(0x1010, [7, 8, 9], master="cpu")
            data = yield from bus.read(0x1010, 3, master="cpu")
            return data

        box = drive(sim, body)
        sim.run()
        assert box.value == [7, 8, 9]
        assert mem.peek(0x1010, 3) == [7, 8, 9]

    def test_single_word_write_scalar(self, sim):
        bus, mem = make_system(sim)

        def body():
            ok = yield from bus.write(0x1000, 42, master="cpu")
            return ok

        box = drive(sim, body)
        sim.run()
        assert box.value is True
        assert mem.peek(0x1000) == [42]

    def test_transfer_time_helper(self, sim):
        bus, _ = make_system(sim)
        assert bus.transfer_time(4) == ns(50)  # (1 + 4) cycles @ 10 ns

    def test_words_for_bytes(self, sim):
        bus, _ = make_system(sim)
        assert bus.words_for_bytes(1) == 1
        assert bus.words_for_bytes(4) == 1
        assert bus.words_for_bytes(5) == 2

    def test_zero_burst_rejected(self, sim):
        bus, _ = make_system(sim)

        def body():
            yield from bus.read(0x1000, 0, master="cpu")

        sim.spawn("p", body)
        with pytest.raises(Exception, match="positive"):
            sim.run()

    def test_empty_write_rejected_before_arbitration(self, sim):
        bus, _ = make_system(sim)
        with pytest.raises(SimulationError, match="at least one word"):
            bus.write(0x1000, [], master="cpu")

        def body():
            yield from bus.write(0x1000, (), master="cpu")

        sim.spawn("p", body)
        with pytest.raises(Exception, match="at least one word"):
            sim.run()
        # Rejected at call time: no grant, no address phase, no transaction.
        assert sim.now == ZERO_TIME
        assert bus.arbiter.owner is None
        assert bus.monitor.transactions == []


class TestContention:
    def test_second_master_waits(self, sim):
        bus, _ = make_system(sim)
        times = {}

        def master(label, start_delay):
            def body():
                yield ns(start_delay)
                yield from bus.read(0x1000, 8, master=label)
                times[label] = sim.now.to_ns()

            return body

        sim.spawn("m1", master("m1", 0))
        sim.spawn("m2", master("m2", 1))
        sim.run()
        # m1: 1 addr + 2+7 mem + 8 data = 18 cycles -> 180ns; m2 starts after.
        assert times["m1"] == 180.0
        assert times["m2"] == 360.0
        assert bus.monitor.mean_arbitration_wait("m2") > ns(0)

    def test_priority_master_jumps_queue(self, sim):
        bus, _ = make_system(sim, arbitration="priority")
        bus.set_master_priority("urgent", 0)
        bus.set_master_priority("bulk", 9)
        order = []

        def master(label, start_delay):
            def body():
                yield ns(start_delay)
                yield from bus.read(0x1000, 4, master=label)
                order.append(label)

            return body

        sim.spawn("holder", master("holder", 0))
        sim.spawn("bulk", master("bulk", 1))
        sim.spawn("urgent", master("urgent", 2))
        sim.run()
        assert order == ["holder", "urgent", "bulk"]


class TestSplitProtocol:
    def test_split_releases_bus_during_slave_wait(self, sim):
        bus, _ = make_system(sim, protocol="split", mem_latency=50)
        times = {}

        def master(label, start_delay, addr):
            def body():
                yield ns(start_delay)
                yield from bus.read(addr, 1, master=label)
                times[label] = sim.now.to_ns()

            return body

        sim.spawn("m1", master("m1", 0, 0x1000))
        sim.spawn("m2", master("m2", 1, 0x1040))
        sim.run()
        # Blocking protocol would serialize: each ~520ns -> m2 past 1000ns.
        # Split overlaps the two memory waits.
        assert times["m2"] < 700.0

    def test_split_results_still_correct(self, sim):
        bus, mem = make_system(sim, protocol="split")
        mem.poke(0x1000, [11, 22])

        def body():
            data = yield from bus.read(0x1000, 2, master="cpu")
            return data

        box = drive(sim, body)
        sim.run()
        assert box.value == [11, 22]

    def test_unknown_protocol_rejected(self, sim):
        with pytest.raises(ValueError, match="^b: unknown bus protocol 'quantum'"):
            Bus("b", sim=sim, protocol="quantum")

    def test_invalid_width_rejected(self, sim):
        with pytest.raises(ValueError, match="^b: .* multiple of 8, not 12$"):
            Bus("b", sim=sim, data_width_bits=12)


class TestConstruction:
    #: Parameter -> (a value the bus cannot time a transfer with, the error
    #: after the bus's name).
    UNRUNNABLE = {
        "clock_freq_hz": (0, "clock_freq_hz must be positive, not 0"),
        "cycles_per_word": (-1, "cycles_per_word must be non-negative, not -1"),
        "address_phase_cycles": (-2, "address_phase_cycles must be non-negative, not -2"),
    }

    @pytest.mark.parametrize("parameter", list(UNRUNNABLE))
    def test_unrunnable_parameter_fails_naming_the_bus(self, sim, parameter):
        value, message = self.UNRUNNABLE[parameter]
        top = Module("top", sim=sim)
        with pytest.raises(ValueError, match=re.escape(f"top.b: {message}")):
            Bus("b", parent=top, **{parameter: value})


class TestMidArbitrationReconfiguration:
    """The DRCF transformation may swap the slave map while a master waits
    out arbitration: the transfer must target the map current at *grant*
    time, not the one seen at issue time."""

    def test_queued_master_hits_slave_registered_after_issue(self, sim):
        bus, mem1 = make_system(sim, mem_latency=50)
        mem2 = Memory(
            "mem2", sim=sim, base=0x1000, size_words=256,
            latency_cycles=2, clock_freq_hz=100e6,
        )
        mem2.poke(0x1000, 0xBEEF)

        def m1():
            # Holds the bus well past the swap (50-cycle memory latency).
            yield from bus.write(0x1000, 99, master="m1")

        def m2():
            yield ns(1)  # issue while m1 owns the bus; decode sees mem1
            data = yield from bus.read(0x1000, 1, master="m2")
            return data

        def reconfigure():
            yield ns(100)  # mid-arbitration: m1 busy, m2 queued
            assert bus.arbiter.waiters == ["m2"]
            bus.unregister_slave(mem1)
            bus.register_slave(mem2)

        sim.spawn("m1", m1)
        box = drive(sim, m2, name="m2")
        sim.spawn("cfg", reconfigure)
        sim.run()
        # m2 re-decoded at grant time and read the *new* slave.
        assert box.value == [0xBEEF]
        assert bus.monitor.transactions[-1].slave == "mem2"
        # m1 resolved its slave at its own grant time: the in-flight write
        # landed in the old memory even though it was swapped out mid-burst.
        assert mem1.peek(0x1000) == [99]
        assert mem2.peek(0x1000) == [0xBEEF]

    def test_decode_error_surfaces_before_arbitration(self, sim):
        bus, _ = make_system(sim)

        def holder():
            yield from bus.read(0x1000, 8, master="holder")

        def stray():
            yield ns(1)
            yield from bus.read(0x9000, 1, master="stray")

        sim.spawn("h", holder)
        sim.spawn("s", stray)
        with pytest.raises(ProcessError, match="no slave decodes"):
            sim.run()
        # The bad request never reached the arbiter queue.
        assert bus.arbiter.contention_count == 0


class _FaultySlave(BusSlaveIf):
    """A slave whose data phase dies partway through."""

    def __init__(self, base=0x2000, size=64 * 4):
        self.base = base
        self.size = size

    def get_low_add(self):
        return self.base

    def get_high_add(self):
        return self.base + self.size - 1

    def read(self, addr, count=1):
        yield ns(30)
        raise RuntimeError("target abort")

    def write(self, addr, data):
        yield ns(30)
        raise RuntimeError("target abort")


class TestErrorTransactions:
    def test_slave_error_recorded_with_error_status(self, sim):
        bus, _ = make_system(sim)
        bus.register_slave(_FaultySlave())

        def body():
            yield from bus.read(0x2000, 1, master="cpu")

        sim.spawn("p", body)
        with pytest.raises(ProcessError, match="target abort"):
            sim.run()
        monitor = bus.monitor
        assert monitor.transaction_count == 1
        txn = monitor.transactions[0]
        assert txn.status == "error"
        assert not txn.ok
        assert txn.completed_at.to_ns() == 40.0  # addr phase + 30ns of slave
        assert monitor.error_count == 1
        # The failed master must not leave the bus locked.
        assert bus.arbiter.owner is None

    def test_successful_transactions_report_ok(self, sim):
        bus, _ = make_system(sim)

        def body():
            yield from bus.write(0x1000, 1, master="cpu")

        sim.spawn("p", body)
        sim.run()
        txn = bus.monitor.transactions[0]
        assert txn.status == "ok" and txn.ok
        assert bus.monitor.error_count == 0

    def test_error_transactions_count_in_summary_schema(self, sim):
        """summary() keys are a stable report schema; errored transfers feed
        the existing aggregates rather than changing the shape."""
        bus, _ = make_system(sim)
        bus.register_slave(_FaultySlave())

        def good():
            yield from bus.write(0x1000, 1, master="cpu")

        def bad():
            yield ns(100)
            yield from bus.read(0x2000, 1, master="cpu")

        sim.spawn("g", good)
        sim.spawn("b", bad)
        with pytest.raises(ProcessError):
            sim.run()
        summary = bus.monitor.summary()
        assert set(summary) == {
            "transactions",
            "total_words",
            "config_words",
            "data_words",
            "busy_time_ns",
            "mean_arbitration_wait_ns",
            "words_by_master",
        }
        assert summary["transactions"] == 2

    def test_killed_master_records_nothing(self, sim):
        """A master killed mid-transfer completed nothing: no transaction,
        and the arbiter is released for the next master."""
        bus, _ = make_system(sim, mem_latency=50)

        def victim():
            yield from bus.read(0x1000, 1, master="victim")

        proc = sim.spawn("victim", victim)

        def killer():
            yield ns(100)  # mid-burst
            proc.kill()

        sim.spawn("killer", killer)
        sim.run()
        assert bus.monitor.transaction_count == 0
        assert bus.arbiter.owner is None


def _txn_tuples(bus):
    return [
        (t.kind, t.master, t.addr, t.words, t.issued_at, t.granted_at, t.completed_at, t.tags, t.status)
        for t in bus.monitor.transactions
    ]


class TestBurstTrain:
    """``Bus.read(..., burst=n)``: one request, one recorded transfer per burst."""

    def test_train_records_one_transaction_per_burst(self, sim):
        bus, mem = make_system(sim)
        mem.poke(0x1000, list(range(100)))

        def body():
            data = yield from bus.read(0x1000, 100, master="cfg", tags=["config"], burst=32)
            return data

        box = drive(sim, body)
        sim.run()
        assert box.value == list(range(100))
        assert [(t.addr, t.words) for t in bus.monitor.transactions] == [
            (0x1000, 32), (0x1080, 32), (0x1100, 32), (0x1180, 4)
        ]
        assert all(t.tags == ["config"] for t in bus.monitor.transactions)
        assert mem.read_word_count == 100

    def test_closed_form_books_the_partial_last_burst_in_the_same_call(self, sim):
        """While the master is alone, one closed-form call books the full
        bursts and then the partial last burst, as a one-read record of its
        own, and returns all their words as one slice."""
        bus, mem = make_system(sim)
        mem.poke(0x1000, list(range(100)))
        booked = []

        def body():
            booked.append(bus._closed_form(0x1000, 100, 32, "cfg", ("config",), mem))
            yield ns(1)

        sim.spawn("p", body)
        sim.run()
        assert booked == [list(range(100))]
        log = [(e.addr, e.bursts, e.burst_words) for e in bus.monitor._log]
        assert log == [(0x1000, 3, 32), (0x1180, 1, 4)]
        assert bus.closed_form_bursts == 4

    @pytest.mark.parametrize("protocol", ["blocking", "split"])
    def test_train_matches_separate_burst_reads(self, protocol):
        """A train is timed, arbitrated and counted exactly like a loop
        of separate reads, with a second master contending throughout."""
        runs = {}
        for use_train in (True, False):
            sim = Simulator()
            bus, mem = make_system(sim, protocol=protocol)
            mem.poke(0x1000, list(range(200)))

            def fetcher():
                if use_train:
                    data = yield from bus.read(0x1000, 200, master="cfg", burst=64)
                else:
                    data = []
                    for start in range(0, 200, 64):
                        chunk = min(64, 200 - start)
                        data += yield from bus.read(0x1000 + 4 * start, chunk, master="cfg")
                return data

            def other():
                for _ in range(6):
                    yield ns(130)
                    yield from bus.write(0x1300, [1, 2, 3], master="cpu")

            box = drive(sim, fetcher, name="fetcher")
            sim.spawn("cpu", other)
            sim.run()
            stats = sim.stats.as_dict()
            advances = stats.pop("in_place_advances")
            runs[use_train] = (box.value, _txn_tuples(bus), stats, sim.now)
            if not use_train:
                assert advances == 0  # single-burst reads keep the round trip
        assert runs[True] == runs[False]

    def test_single_burst_keeps_kernel_round_trip(self, sim):
        bus, _ = make_system(sim)

        def body():
            yield from bus.read(0x1000, 64, master="cpu", burst=64)

        sim.spawn("p", body)
        sim.run()
        assert sim.stats.in_place_advances == 0
        assert sim.stats.timed_activations == 3  # address, memory, data

    def test_uncontended_train_advances_every_phase_in_place(self, sim):
        bus, _ = make_system(sim, protocol="split")

        def body():
            yield from bus.read(0x1000, 40, master="cpu", burst=8)

        sim.spawn("p", body)
        sim.run()
        # 5 bursts x 4 phases (address, request beat, memory, data).
        assert sim.stats.in_place_advances == 20
        assert sim.stats.timed_activations == 20

    def test_trace_hook_disables_in_place_advance(self, sim):
        bus, _ = make_system(sim)
        sim.trace_hooks.append(lambda now: None)

        def body():
            yield from bus.read(0x1000, 40, master="cpu", burst=8)

        sim.spawn("p", body)
        sim.run()
        assert sim.stats.in_place_advances == 0
        assert sim.stats.timed_activations == 15

    def test_non_positive_burst_rejected(self, sim):
        bus, _ = make_system(sim)
        with pytest.raises(SimulationError, match="burst length"):
            bus.read(0x1000, 8, burst=0)


class TestKilledWhileQueued:
    """A master killed while it waits for the bus must not wedge it: its
    queue entry goes, and a grant it never resumed to passes on."""

    def _run(self, sim, protocol, kill_after):
        bus, _ = make_system(sim, protocol=protocol, mem_latency=50)
        done = {}

        def master(label, start):
            def body():
                yield start
                yield from bus.read(0x1000, 8, master=label)
                done[label] = sim.now.to_ns()

            return body

        sim.spawn("A", master("A", ZERO_TIME))
        victim = sim.spawn("B", master("B", ns(5)))
        sim.spawn("C", master("C", us(2)))

        def killer():
            for delay in kill_after:
                yield delay
            victim.kill()

        sim.spawn("killer", killer)
        sim.run()
        return bus, done

    @pytest.mark.parametrize("protocol", ["blocking", "split"])
    def test_killed_queued_master_does_not_wedge_the_bus(self, sim, protocol):
        bus, done = self._run(sim, protocol, [ns(20)])
        assert set(done) == {"A", "C"}
        assert bus.arbiter.owner is None
        assert bus.arbiter.waiters == []
        assert [t.master for t in bus.monitor.transactions] == ["A", "C"]

    def test_master_killed_after_its_grant_passes_the_bus_on(self, sim):
        # Blocking: A releases at 660 ns and grants B; the killer wakes in
        # the same instant right after A (its wait was armed later), so B
        # dies holding a grant it never resumed to.
        bus, done = self._run(sim, "blocking", [ns(600), ns(60)])
        assert set(done) == {"A", "C"}
        assert bus.arbiter.owner is None
        assert [t.master for t in bus.monitor.transactions] == ["A", "C"]

    def test_master_killed_queued_for_split_reacquire(self, sim):
        # Split: B holds the bus for its request at 20-40 ns, its memory
        # wait ends at 610 ns while A re-holds the bus (590-670 ns), so B
        # is queued to re-acquire when it is killed at 640 ns.
        bus, done = self._run(sim, "split", [ns(640)])
        assert set(done) == {"A", "C"}
        assert bus.arbiter.owner is None
        assert bus.arbiter.waiters == []

    def test_master_killed_after_split_reacquire_grant(self, sim):
        bus, done = self._run(sim, "split", [ns(600), ns(70)])
        assert set(done) == {"A", "C"}
        assert bus.arbiter.owner is None


class TestSharedMasterLabel:
    """Requesters sharing a label (the default ``master="?"``) each wait
    for their own grant: transfers on one bus never overlap."""

    @pytest.mark.parametrize("protocol", ["blocking", "split"])
    def test_transfers_never_overlap(self, sim, protocol):
        bus, _ = make_system(sim, protocol=protocol, mem_latency=50)
        for i in range(3):
            sim.spawn(f"m{i}", lambda: (yield from bus.read(0x1000, 8)))
        sim.run()
        assert bus.monitor.transaction_count == 3
        spans = sorted((t.granted_at, t.completed_at) for t in bus.monitor.transactions)
        for (start, end), (next_start, _) in zip(spans, spans[1:]):
            if protocol == "blocking":
                assert next_start >= end  # the bus is held for the whole transfer
            else:
                # Split holds the bus for the address phase and request beat.
                assert next_start - start >= bus.cycles(2)
        assert bus.arbiter.owner is None
        assert bus.arbiter.waiters == []


class _WaitStateMemory(Memory):
    """A memory whose every read adds a 100-ns wait state."""

    closed_read = None  # the closed forms could not book the wait state

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def read(self, addr, count=1):
        self.calls += 1
        yield ns(100)
        data = yield from super().read(addr, count)
        return data


class TestSlaveReadOverride:
    """The bus reads a memory through its ``read``, as any slave: a
    subclass's override runs on every transfer."""

    def make(self, sim):
        bus = Bus("bus", sim=sim, clock_freq_hz=100e6)
        mem = _WaitStateMemory("mem", sim=sim, base=0, size_words=64, clock_freq_hz=100e6)
        bus.register_slave(mem)
        return bus, mem

    def test_single_read_runs_the_override(self, sim):
        bus, mem = self.make(sim)
        drive(sim, lambda: bus.read(0, 4, master="cpu"))
        sim.run()
        # address phase 10 + memory (2 + 3) x 10 + data 4 x 10 + wait state 100
        assert sim.now == ns(200)
        assert mem.calls == 1

    def test_every_burst_of_a_train_runs_the_override(self, sim):
        bus, mem = self.make(sim)
        box = drive(sim, lambda: bus.read(0, 8, master="cfg", burst=2))
        sim.run()
        # 4 bursts of (10 + 30 + 20 + 100) ns, none booked in closed form.
        assert sim.now == ns(640)
        assert mem.calls == 4
        assert box.value == [0] * 8
        assert bus.closed_form_declines["slave"] == 4
        assert bus.closed_form_bursts == 0


class TestMonitorIntegration:
    def test_transactions_recorded_with_tags(self, sim):
        bus, _ = make_system(sim)

        def body():
            yield from bus.read(0x1000, 4, master="cpu", tags=["config"])
            yield from bus.write(0x1000, [1], master="cpu")

        sim.spawn("p", body)
        sim.run()
        monitor = bus.monitor
        assert monitor.transaction_count == 2
        assert monitor.words_by_tag("config") == 4
        assert monitor.words_without_tag("config") == 1
        assert monitor.words_by_master() == {"cpu": 5}
        assert monitor.transactions[0].kind == "read"
        assert monitor.transactions[0].slave == "mem"
