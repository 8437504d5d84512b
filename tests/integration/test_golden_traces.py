"""Golden-trace tests for the scheduler.

Every design here runs under a per-instant trace hook that serializes the
committed value of every signal in the hierarchy into a running digest.
Each run must reproduce its recorded row byte for byte: the digest, the
number of traced instants, the end time, the final signal values, the
kernel counters and a digest of what the design itself recorded (FIFO
hand-offs, mutex grants, bus read-backs, ...).  A row that changes is a
change of kernel semantics, never noise: the scheduler is deterministic.

The designs are small hand-written RTL-style method chains, clocked
pipelines, channel and bus rendezvous threads, and the paper's Figure 1
SoCs (the baseline and DRCF netlists the examples are built from) under
the real frame workload.  The traced-ChainTop VCD dump and the bus
monitor's transaction log of BusPairTop are golden values too.

The recorded digests say only that nothing changed.  The method chains'
final values, the rendezvous threads' observations and the clock's edges
are also checked against values derived by hand from the designs.
"""

import hashlib

import pytest

from repro.apps import (
    JobRunner,
    frame_interleaved_jobs,
    golden_outputs,
    make_baseline_netlist,
    make_reconfigurable_netlist,
)
from repro.bus import Bus, InterruptController, Memory
from repro.kernel import (
    Clock,
    Event,
    Fifo,
    Module,
    Mutex,
    Port,
    ProcessError,
    Signal,
    Simulator,
    ns,
)
from repro.kernel.signal import signals_of
from repro.kernel.tracing import VcdTracer
from repro.tech import VIRTEX2PRO

ACCELS = ("fir", "xtea")

#: The kernel counters each row pins.
COUNTERS = (
    "process_executions",
    "delta_cycles",
    "timed_activations",
    "signal_updates",
    "in_place_advances",
)

#: Attributes designs record their own observations in.
OBSERVED = ("consumed", "grants", "read_back", "received", "handled", "edges", "count", "ticks")


def _simulator():
    """A simulator on the generic scheduler.

    Trees that still carried the static-schedule specializer defaulted to
    ``specialize=True``; there the keyword switches it off, so this file
    also checks the rows against the tree they were recorded on.
    """
    try:
        return Simulator(specialize=False)
    except TypeError:
        return Simulator()


# ---------------------------------------------------------------------------
# Method chains and edge taps
# ---------------------------------------------------------------------------

class Stage(Module):
    """out = src + 1, combinationally sensitive to src."""

    def __init__(self, name, parent, src):
        super().__init__(name, parent=parent)
        self.src = src
        self.out = Signal(self.sim, 0, f"{self.full_name}.out")
        self.add_method(self.propagate, sensitivity=[src.value_changed], initialize=False)

    def propagate(self):
        self.out.write(self.src.read() + 1)


class ChainTop(Module):
    """A thread driving ``depth`` chained stages once per ns."""

    def __init__(self, name, sim, depth=4, rounds=3):
        super().__init__(name, sim=sim)
        self.depth = depth
        self.rounds = rounds
        self.head = Signal(sim, 0, f"{name}.head")
        src = self.head
        for k in range(depth):
            src = Stage(f"s{k}", self, src).out
        self.tail = src
        self.add_thread(self.drive)

    def drive(self):
        for i in range(self.rounds):
            self.head.write(i + 1)
            yield ns(1)


class DiamondTop(Module):
    """a fans out to two stages that reconverge: out = 3a + 10."""

    def __init__(self, name, sim, rounds=4):
        super().__init__(name, sim=sim)
        self.rounds = rounds
        self.a = Signal(sim, 0, f"{name}.a")
        self.left = Signal(sim, 0, f"{name}.left")
        self.right = Signal(sim, 0, f"{name}.right")
        self.out = Signal(sim, 0, f"{name}.out")
        self.add_method(self.go_left, sensitivity=[self.a.value_changed], initialize=False)
        self.add_method(self.go_right, sensitivity=[self.a.value_changed], initialize=False)
        self.add_method(
            self.combine,
            sensitivity=[self.left.value_changed, self.right.value_changed],
            initialize=False,
        )
        self.add_thread(self.drive)

    def go_left(self):
        self.left.write(self.a.read() * 2)

    def go_right(self):
        self.right.write(self.a.read() + 10)

    def combine(self):
        self.out.write(self.left.read() + self.right.read())

    def drive(self):
        for i in range(self.rounds):
            self.a.write(i + 1)
            yield ns(1)


class EdgeTapsTop(Module):
    """Edge-sensitive methods: posedge/negedge taps on a toggling signal."""

    def __init__(self, name, sim, rounds=6):
        super().__init__(name, sim=sim)
        self.rounds = rounds
        self.t = Signal(sim, False, f"{name}.t")
        self.p = Signal(sim, 0, f"{name}.p")
        self.n = Signal(sim, 0, f"{name}.n")
        self.add_method(self.on_pos, sensitivity=[self.t.posedge], initialize=False)
        self.add_method(self.on_neg, sensitivity=[self.t.negedge], initialize=False)
        self.add_thread(self.drive)

    def on_pos(self):
        self.p.write(1)

    def on_neg(self):
        self.n.write(2)

    def drive(self):
        level = False
        for _ in range(self.rounds):
            level = not level
            self.t.write(level)
            yield ns(1)


class StatefulTop(Module):
    """The reader method mutates module state."""

    def __init__(self, name, sim):
        super().__init__(name, sim=sim)
        self.count = 0
        self.s = Signal(sim, 0, f"{name}.s")
        self.add_method(self.bump, sensitivity=[self.s.value_changed], initialize=False)
        self.add_thread(self.drive)

    def bump(self):
        self.count = self.count + 1

    def drive(self):
        for i in range(3):
            self.s.write(i + 1)
            yield ns(1)


class DynamicTop(Module):
    """The driver thread spawns a process mid-run."""

    def __init__(self, name, sim):
        super().__init__(name, sim=sim)
        self.s = Signal(sim, 0, f"{name}.s")
        self.add_thread(self.drive)

    def helper(self):
        yield ns(1)

    def drive(self):
        self.s.write(1)
        self.sim.spawn("late", self.helper)
        yield ns(1)


class UnresolvedWriterTop(Module):
    """The thread's yield sits in a nested expression."""

    def __init__(self, name, sim):
        super().__init__(name, sim=sim)
        self.t = Signal(self.sim, 0, name="t")
        self.o = Signal(self.sim, 0, name="o")
        self.add_method(self.tap, sensitivity=(self.t.value_changed,), initialize=False)
        self.add_thread(self.drive)

    def tap(self):
        self.o.write(self.t.read() + 1)

    def drive(self):
        for i in range(3):
            _ = [(yield ns(1))]
            self.t.write(i + 1)


class DoubleWriteTop(Module):
    """The thread pulses the observed signal twice in one instant: the
    staged update absorbs the pulse, so the tap sees one change."""

    def __init__(self, name, sim):
        super().__init__(name, sim=sim)
        self.t = Signal(self.sim, 0, name="t")
        self.o = Signal(self.sim, 0, name="o")
        self.add_method(self.tap, sensitivity=(self.t.value_changed,), initialize=False)
        self.add_thread(self.drive)

    def tap(self):
        self.o.write(self.t.read() + 1)

    def drive(self):
        for i in range(3):
            self.t.write(0)
            self.t.write(i + 1)
            yield ns(1)


class PulseMethodTop(Module):
    """A method writes the observed signal twice per activation."""

    def __init__(self, name, sim):
        super().__init__(name, sim=sim)
        self.s = Signal(self.sim, 0, name="s")
        self.b = Signal(self.sim, False, name="b")
        self.seen = Signal(self.sim, 0, name="seen")
        self.add_method(self.pulse, sensitivity=(self.s.value_changed,), initialize=False)
        self.add_method(self.tap, sensitivity=(self.b.posedge,), initialize=False)
        self.add_thread(self.drive)

    def pulse(self):
        self.b.write(True)
        self.b.write(False)

    def tap(self):
        self.seen.write(self.s.read())

    def drive(self):
        for i in range(3):
            self.s.write(i + 1)
            yield ns(1)


class PortWriter(Module):
    def __init__(self, name, parent):
        super().__init__(name, parent=parent)
        self.out = Port(self, None, name="out")
        self.add_thread(self.drive)

    def drive(self):
        for i in range(3):
            self.out.write(i)
            yield ns(1)


class SharedPortNetTop(Module):
    """Two writers drive one signal through their ports."""

    def __init__(self, name, sim):
        super().__init__(name, sim=sim)
        self.net = Signal(self.sim, 0, name="net")
        self.w1 = PortWriter("w1", self)
        self.w2 = PortWriter("w2", self)
        self.w1.out.bind(self.net)
        self.w2.out.bind(self.net)


# ---------------------------------------------------------------------------
# Clocked pipelines
# ---------------------------------------------------------------------------

class ClockedPipelineTop(Module):
    """A Clock driving two sequential stages through a register net."""

    def __init__(self, name, sim):
        super().__init__(name, sim=sim)
        self.clk = Clock("clk", ns(10), parent=self)
        self.d = Signal(self.sim, 0, name=f"{name}.d")
        self.q = Signal(self.sim, 0, name=f"{name}.q")
        self.q2 = Signal(self.sim, 0, name=f"{name}.q2")
        self.add_method(self.stage1, sensitivity=(self.clk.posedge,), initialize=False)
        self.add_method(self.stage2, sensitivity=(self.clk.posedge,), initialize=False)

    def stage1(self):
        self.q.write(self.d.read() + 1)

    def stage2(self):
        self.q2.write(self.q.read() * 2)


class _RegisteredStage(Module):
    """One registered pipeline stage fed entirely through ports."""

    def __init__(self, name, parent, gain):
        super().__init__(name, parent=parent)
        self.gain = gain
        self.clk = Port(self, None, name="clk")
        self.inp = Port(self, None, name="inp")
        self.out = Port(self, None, name="out")

    def connect(self):
        # Sensitivity lists resolve events eagerly, so the process is
        # registered only once the clock port is bound.
        self.add_method(self.tick, sensitivity=(self.clk.posedge,), initialize=False)

    def tick(self):
        self.out.write(self.inp.read() * self.gain)


class ClockedPortPipelineTop(Module):
    """A Clock fanned out through ports to registered pipeline stages."""

    def __init__(self, name, sim, depth=3):
        super().__init__(name, sim=sim)
        self.clk = Clock("clk", ns(10), parent=self)
        self.d = Signal(self.sim, 1, name=f"{name}.d")
        feed = self.d
        self.stages = []
        for i in range(depth):
            out = Signal(self.sim, 0, name=f"{name}.n{i}")
            setattr(self, f"n{i}", out)
            stage = _RegisteredStage(f"s{i}", self, gain=i + 2)
            stage.clk.bind(self.clk.signal)
            stage.inp.bind(feed)
            stage.out.bind(out)
            stage.connect()
            feed = out
            self.stages.append(stage)


class ClockAnyOfTop(Module):
    """A free-running :class:`Clock`: its toggle thread waits on an
    ``AnyOf(pause, timeout)`` composite each half-period."""

    def __init__(self, name, sim):
        super().__init__(name, sim=sim)
        self.clk = Clock("clk", ns(10), parent=self)
        self.edges = []
        self.add_method(
            self.on_edge, sensitivity=[self.clk.signal.value_changed],
            initialize=False,
        )

    def on_edge(self):
        self.edges.append((self.clk.signal.read(), self.sim.now.to_ns()))


# ---------------------------------------------------------------------------
# Rendezvous threads: channels, mutexes, buses, interrupts
# ---------------------------------------------------------------------------

class FifoPipeTop(Module):
    """Producer/consumer pair over a bounded FIFO."""

    def __init__(self, name, sim, n=8, capacity=2):
        super().__init__(name, sim=sim)
        self.n = n
        self.fifo = Fifo(self.sim, capacity=capacity, name=f"{name}.fifo")
        self.consumed = []
        self.add_thread(self.produce)
        self.add_thread(self.consume)

    def produce(self):
        for i in range(self.n):
            yield from self.fifo.put(i * 3)
            yield ns(2)

    def consume(self):
        for _ in range(self.n):
            item = yield from self.fifo.get()
            self.consumed.append((item, self.sim.now.to_ns()))
            yield ns(5)


class MutexWorkersTop(Module):
    """Two workers contending on a mutex."""

    def __init__(self, name, sim, rounds=6):
        super().__init__(name, sim=sim)
        self.rounds = rounds
        self.mutex = Mutex(self.sim, f"{name}.m")
        self.grants = []
        self.add_thread(self.worker_a)
        self.add_thread(self.worker_b)

    def worker_a(self):
        for _ in range(self.rounds):
            yield from self.mutex.lock("a")
            self.grants.append(("a", self.sim.now.to_ns()))
            yield ns(3)
            self.mutex.unlock()
            yield ns(1)

    def worker_b(self):
        for _ in range(self.rounds):
            yield from self.mutex.lock("b")
            self.grants.append(("b", self.sim.now.to_ns()))
            yield ns(4)
            self.mutex.unlock()
            yield ns(1)


class PureTimedTop(Module):
    """A thread with only timed waits."""

    def __init__(self, name, sim):
        super().__init__(name, sim=sim)
        self.ticks = 0
        self.add_thread(self.beat)

    def beat(self):
        for _ in range(4):
            yield ns(10)
            self.ticks += 1


class BusPairTop(Module):
    """Two bus masters contending for one memory over blocking transport."""

    def __init__(self, name, sim, n=16):
        super().__init__(name, sim=sim)
        self.n = n
        self.bus = Bus("bus", parent=self, clock_freq_hz=100e6)
        self.mem = Memory(
            "mem", parent=self, base=0, size_words=64, clock_freq_hz=100e6
        )
        self.bus.register_slave(self.mem)
        self.read_back = []
        self.add_thread(self.writer)
        self.add_thread(self.reader)

    def writer(self):
        for i in range(self.n):
            yield from self.bus.write((i % 64) * 4, i + 1, master="writer")

    def reader(self):
        for i in range(self.n):
            data = yield from self.bus.read((i % 64) * 4, 1, master="reader")
            self.read_back.append(data[0])


class UserChannel:
    """A user-defined rendezvous channel class."""

    def __init__(self, sim, name="chan"):
        self.sim = sim
        self._full = Event(sim, f"{name}.full")
        self._empty = Event(sim, f"{name}.empty")
        self._item = None
        self._has = False

    def send(self, item):
        while self._has:
            yield self._empty
        self._item = item
        self._has = True
        self._full.notify_delta()

    def recv(self):
        while not self._has:
            yield self._full
        item = self._item
        self._has = False
        self._empty.notify_delta()
        return item


class UserChannelTop(Module):
    """Producer/consumer over :class:`UserChannel`."""

    def __init__(self, name, sim, n=6):
        super().__init__(name, sim=sim)
        self.n = n
        self.chan = UserChannel(sim, f"{name}.c")
        self.received = []
        self.total = Signal(sim, 0, name=f"{name}.total")
        self.add_thread(self.producer)
        self.add_thread(self.consumer)

    def producer(self):
        for i in range(self.n):
            yield ns(3)
            yield from self.chan.send(i * 11)

    def consumer(self):
        total = 0
        for _ in range(self.n):
            item = yield from self.chan.recv()
            self.received.append((item, self.sim.now.to_ns()))
            total += item
            self.total.write(total)


class IrqTop(Module):
    """Interrupt-driven handshake: the handler blocks in
    ``InterruptController.read/write`` and on controller-owned events."""

    def __init__(self, name, sim, rounds=4):
        super().__init__(name, sim=sim)
        self.rounds = rounds
        self.irq = InterruptController("irq", parent=self, base=0x0)
        self.irq.register_source("dev", 0)
        self.ack = Event(sim, f"{name}.ack")
        self.count = Signal(sim, 0, name=f"{name}.count")
        self.handled = []
        self.add_thread(self.driver)
        self.add_thread(self.handler)

    def driver(self):
        for _ in range(self.rounds):
            yield ns(10)
            self.irq.raise_irq("dev")
            yield self.ack

    def handler(self):
        for i in range(self.rounds):
            yield self.irq.any_irq
            pending = yield from self.irq.read(0x0, 1)
            yield from self.irq.write(0x8, pending[0])
            self.handled.append((pending[0], self.sim.now.to_ns()))
            self.count.write(i + 1)
            self.ack.notify()


class BlockingTransportTop(Module):
    """A two-master blocking-transport netlist: producer and consumer
    threads hand addresses through a FIFO and move data over an arbitrated
    bus into a shared memory, publishing their progress on signals."""

    def __init__(self, name, sim, n=12):
        super().__init__(name, sim=sim)
        self.n = n
        self.bus = Bus("bus", parent=self, clock_freq_hz=100e6)
        self.mem = Memory(
            "mem", parent=self, base=0, size_words=128, clock_freq_hz=100e6
        )
        self.bus.register_slave(self.mem)
        self.fifo = Fifo(self.sim, capacity=4, name=f"{name}.fifo")
        self.produced = Signal(self.sim, 0, name=f"{name}.produced")
        self.checksum = Signal(self.sim, 0, name=f"{name}.checksum")
        self.add_thread(self.producer)
        self.add_thread(self.consumer)

    def producer(self):
        for i in range(self.n):
            yield from self.bus.write(i * 4, i * 7 + 1, master="producer")
            yield from self.fifo.put(i * 4)
            self.produced.write(i + 1)

    def consumer(self):
        total = 0
        for _ in range(self.n):
            addr = yield from self.fifo.get()
            data = yield from self.bus.read(addr, 1, master="consumer")
            total += data[0]
            self.checksum.write(total)


class FaultyWorkerTop(Module):
    """A thread that dies after its first rendezvous."""

    def __init__(self, name, sim):
        super().__init__(name, sim=sim)
        self.mutex = Mutex(self.sim, f"{name}.m")
        self.add_thread(self.worker)

    def worker(self):
        yield from self.mutex.lock("w")
        yield ns(5)
        raise ValueError("boom in worker thread")


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------

def _hierarchy_signals(sim):
    found = []
    for top in sim._top_modules:
        for module in (top, *top.descendants()):
            for attr, sig in sorted(signals_of(module).items()):
                found.append((f"{module.full_name}.{attr}", sig))
    return found


def _sha(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _observe(sim):
    """Attach a per-instant digest hook; returns the row accessor."""
    signals = _hierarchy_signals(sim)
    digest = hashlib.sha256()
    count = [0]

    def hook(now):
        count[0] += 1
        line = f"{now.femtoseconds}|" + "|".join(
            f"{name}={sig.read()!r}" for name, sig in signals
        )
        digest.update(line.encode())

    sim.trace_hooks.append(hook)

    def row(observed):
        stats = sim.stats.as_dict()
        return {
            "trace_sha": digest.hexdigest(),
            "instants": count[0],
            "end_fs": sim.now.femtoseconds,
            "final": {name: sig.read() for name, sig in signals},
            "stats": {name: stats[name] for name in COUNTERS},
            "observed_sha": _sha(observed),
        }

    return row


def _run_design(top_cls, until=None):
    sim = _simulator()
    top = top_cls("t", sim)
    row = _observe(sim)
    sim.run(until=until)
    observed = {attr: getattr(top, attr) for attr in OBSERVED if hasattr(top, attr)}
    if hasattr(top, "mem"):
        observed["mem"] = top.mem.peek(0, 16)
    return row(observed)


def _run_soc(make):
    jobs = frame_interleaved_jobs(ACCELS, n_frames=1, seed=7)
    netlist, info = make(ACCELS)
    sim = _simulator()
    design = netlist.elaborate(sim)
    runner = JobRunner(info.accel_bases, info.buffer_words)
    design["cpu"].run_task(runner.task(jobs), name="workload")
    row = _observe(sim)
    sim.run()
    assert len(runner.results) == len(jobs)
    for job in runner.results:
        assert job.outputs == golden_outputs(job.spec)
    return row({"jobs": [(job.start_ns, job.end_ns) for job in runner.results]})


#: Design name -> how to run it.
DESIGNS = {
    "ChainTop": lambda: _run_design(ChainTop),
    "DiamondTop": lambda: _run_design(DiamondTop),
    "EdgeTapsTop": lambda: _run_design(EdgeTapsTop),
    "StatefulTop": lambda: _run_design(StatefulTop),
    "DynamicTop": lambda: _run_design(DynamicTop),
    "UnresolvedWriterTop": lambda: _run_design(UnresolvedWriterTop, ns(50)),
    "DoubleWriteTop": lambda: _run_design(DoubleWriteTop, ns(50)),
    "PulseMethodTop": lambda: _run_design(PulseMethodTop, ns(50)),
    "SharedPortNetTop": lambda: _run_design(SharedPortNetTop, ns(50)),
    "ClockedPipelineTop": lambda: _run_design(ClockedPipelineTop, ns(100)),
    "ClockedPortPipelineTop": lambda: _run_design(ClockedPortPipelineTop, ns(200)),
    "ClockAnyOfTop": lambda: _run_design(ClockAnyOfTop, ns(200)),
    "FifoPipeTop": lambda: _run_design(FifoPipeTop),
    "MutexWorkersTop": lambda: _run_design(MutexWorkersTop),
    "PureTimedTop": lambda: _run_design(PureTimedTop),
    "BusPairTop": lambda: _run_design(BusPairTop),
    "UserChannelTop": lambda: _run_design(UserChannelTop),
    "IrqTop": lambda: _run_design(IrqTop),
    "BlockingTransportTop": lambda: _run_design(BlockingTransportTop),
    "soc_baseline": lambda: _run_soc(make_baseline_netlist),
    "soc_drcf": lambda: _run_soc(lambda a: make_reconfigurable_netlist(a, tech=VIRTEX2PRO)),
}

#: Rows recorded on the generic scheduler; see the module docstring.
GOLDEN = {'BlockingTransportTop': {'trace_sha': '4779eec560f8fa25fea1a2cdd349d3e9537e2922db7955b8cc0df6d090035545',
                          'instants': 73,
                          'end_fs': 960000000,
                          'final': {'t.checksum': 474, 't.produced': 12},
                          'stats': {'process_executions': 96,
                                    'delta_cycles': 1,
                                    'timed_activations': 72,
                                    'signal_updates': 24,
                                    'in_place_advances': 0},
                          'observed_sha': '28130f0d74822bc5ccb823999519c075a0416fd6368c222d3c0b0bcdb88d9948'},
 'BusPairTop': {'trace_sha': '2077e7967fccf725b2bdc7f914b5f9e856cc610dbea6d16327f12f23a434ed51',
                'instants': 97,
                'end_fs': 1280000000,
                'final': {},
                'stats': {'process_executions': 129,
                          'delta_cycles': 0,
                          'timed_activations': 96,
                          'signal_updates': 0,
                          'in_place_advances': 0},
                'observed_sha': '68209ae4d53268b92d471b08021a40bc8b3be907e406cf57afc33a98433e3b9a'},
 'ChainTop': {'trace_sha': 'a8046373f6351888109e3647f292d5701d25d6ea256620813888b8908617c63d',
              'instants': 4,
              'end_fs': 3000000,
              'final': {'t.head': 3,
                        't.tail': 7,
                        't.s0.out': 4,
                        't.s0.src': 3,
                        't.s1.out': 5,
                        't.s1.src': 4,
                        't.s2.out': 6,
                        't.s2.src': 5,
                        't.s3.out': 7,
                        't.s3.src': 6},
              'stats': {'process_executions': 16,
                        'delta_cycles': 12,
                        'timed_activations': 3,
                        'signal_updates': 15,
                        'in_place_advances': 0},
              'observed_sha': '44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a'},
 'ClockAnyOfTop': {'trace_sha': 'f0cfeb885fa3ec6d897cb363e2d51a4a512e9fb8f0083786e86a7474a9c8b460',
                   'instants': 41,
                   'end_fs': 200000000,
                   'final': {'t.clk.signal': True},
                   'stats': {'process_executions': 81,
                             'delta_cycles': 40,
                             'timed_activations': 40,
                             'signal_updates': 41,
                             'in_place_advances': 0},
                   'observed_sha': '9f86f3a0eb628b1ec0e375656bc24c7e703b0ba77ce84e66ed093c3c3ae8c543'},
 'ClockedPipelineTop': {'trace_sha': 'e88c30d70a99ff5fd3d1a30b74d37c3982234d29dd08339b8de20acaa995137d',
                        'instants': 21,
                        'end_fs': 100000000,
                        'final': {'t.d': 0, 't.q': 1, 't.q2': 2, 't.clk.signal': True},
                        'stats': {'process_executions': 41,
                                  'delta_cycles': 10,
                                  'timed_activations': 20,
                                  'signal_updates': 41,
                                  'in_place_advances': 0},
                        'observed_sha': '44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a'},
 'ClockedPortPipelineTop': {'trace_sha': 'c0e4fa172aff0bc8e840d8d061b509f2675ca28f9489aacbffc101db2c8ec69d',
                            'instants': 41,
                            'end_fs': 200000000,
                            'final': {'t.d': 1,
                                      't.n0': 2,
                                      't.n1': 6,
                                      't.n2': 24,
                                      't.clk.signal': True},
                            'stats': {'process_executions': 101,
                                      'delta_cycles': 20,
                                      'timed_activations': 40,
                                      'signal_updates': 101,
                                      'in_place_advances': 0},
                            'observed_sha': '44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a'},
 'DiamondTop': {'trace_sha': '66a9111aa17a06c1df47ef6c81adc45799022e033ffb1ffed79879574d7cff4d',
                'instants': 5,
                'end_fs': 4000000,
                'final': {'t.a': 4, 't.left': 8, 't.out': 22, 't.right': 14},
                'stats': {'process_executions': 17,
                          'delta_cycles': 8,
                          'timed_activations': 4,
                          'signal_updates': 16,
                          'in_place_advances': 0},
                'observed_sha': '44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a'},
 'DoubleWriteTop': {'trace_sha': 'd5356251260ec805ae9dc01648d391ec1401003b7f93f99d11c5ca135ad47959',
                    'instants': 4,
                    'end_fs': 3000000,
                    'final': {'t.o': 4, 't.t': 3},
                    'stats': {'process_executions': 7,
                              'delta_cycles': 3,
                              'timed_activations': 3,
                              'signal_updates': 6,
                              'in_place_advances': 0},
                    'observed_sha': '44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a'},
 'DynamicTop': {'trace_sha': '239f15ffb4b5aef67b0165a8219e9bec003c9e7a05ba954ec2bf07a68c1a5303',
                'instants': 2,
                'end_fs': 1000000,
                'final': {'t.s': 1},
                'stats': {'process_executions': 4,
                          'delta_cycles': 0,
                          'timed_activations': 2,
                          'signal_updates': 1,
                          'in_place_advances': 0},
                'observed_sha': '44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a'},
 'EdgeTapsTop': {'trace_sha': '0812da455a2867ec3a395a961902a7b6e924599d22b2e59fbae1967d44fbc5d8',
                 'instants': 7,
                 'end_fs': 6000000,
                 'final': {'t.n': 2, 't.p': 1, 't.t': False},
                 'stats': {'process_executions': 13,
                           'delta_cycles': 6,
                           'timed_activations': 6,
                           'signal_updates': 12,
                           'in_place_advances': 0},
                 'observed_sha': '44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a'},
 'FifoPipeTop': {'trace_sha': '05f453a0396ef7ef74063697fde6c2c286ceab0591c1b47c17bf953cfe31abc7',
                 'instants': 17,
                 'end_fs': 40000000,
                 'final': {},
                 'stats': {'process_executions': 22,
                           'delta_cycles': 4,
                           'timed_activations': 16,
                           'signal_updates': 0,
                           'in_place_advances': 0},
                 'observed_sha': '0eb9bfa62b21313a872062c334249b50ee72b5e0973c0e7d03f92982da10c2e9'},
 'IrqTop': {'trace_sha': '9b59537ea13f11b2f6913f68e06fd523c001dca1c7bce302775f25e1f84b040e',
            'instants': 13,
            'end_fs': 120000000,
            'final': {'t.count': 4},
            'stats': {'process_executions': 22,
                      'delta_cycles': 0,
                      'timed_activations': 12,
                      'signal_updates': 4,
                      'in_place_advances': 0},
            'observed_sha': '43f81188e3e8f1858ae0827c20ea31baaeb5df6c0913702be1b55272a1ae2660'},
 'MutexWorkersTop': {'trace_sha': '760becfc7e3f424b1fedb6cce6b09da089dce829d6254a10f9bd700b8b1eef39',
                     'instants': 25,
                     'end_fs': 43000000,
                     'final': {},
                     'stats': {'process_executions': 37,
                               'delta_cycles': 0,
                               'timed_activations': 24,
                               'signal_updates': 0,
                               'in_place_advances': 0},
                     'observed_sha': '3a70f380c50b24f9ba52037f649081a77b4f404089089af7721294d0da5769e6'},
 'PulseMethodTop': {'trace_sha': 'a6b9fe7a4551669cd1258e8122e6aa0e1db6cce4d4159429bd96c905256b39a6',
                    'instants': 4,
                    'end_fs': 3000000,
                    'final': {'t.b': False, 't.s': 3, 't.seen': 0},
                    'stats': {'process_executions': 7,
                              'delta_cycles': 3,
                              'timed_activations': 3,
                              'signal_updates': 6,
                              'in_place_advances': 0},
                    'observed_sha': '44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a'},
 'PureTimedTop': {'trace_sha': '2b45a85e5b23badbf3d892e469b4470d54615cc8a7b957ca6c58b918d32f1c54',
                  'instants': 5,
                  'end_fs': 40000000,
                  'final': {},
                  'stats': {'process_executions': 5,
                            'delta_cycles': 0,
                            'timed_activations': 4,
                            'signal_updates': 0,
                            'in_place_advances': 0},
                  'observed_sha': 'b5a6c3d3c3711ab8bcee207e8245dabd6597474d0b9b32dd648e1d6a23668462'},
 'SharedPortNetTop': {'trace_sha': 'd8e51668209cbf55e01aa5803b3b83a56ef46bcfa5171642c9ac59c6b58b1d8b',
                      'instants': 4,
                      'end_fs': 3000000,
                      'final': {'t.net': 2},
                      'stats': {'process_executions': 8,
                                'delta_cycles': 0,
                                'timed_activations': 6,
                                'signal_updates': 3,
                                'in_place_advances': 0},
                      'observed_sha': '44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a'},
 'StatefulTop': {'trace_sha': '125768b4687deeffdb4e7d3d190ab9c78519403d2a22eaf610f996130f103aae',
                 'instants': 4,
                 'end_fs': 3000000,
                 'final': {'t.s': 3},
                 'stats': {'process_executions': 7,
                           'delta_cycles': 3,
                           'timed_activations': 3,
                           'signal_updates': 3,
                           'in_place_advances': 0},
                 'observed_sha': '49b380c6870ac6264b236f8e000302a16e41b545f61d8dd9743440989553c21a'},
 'UnresolvedWriterTop': {'trace_sha': '3bc5b28bb98fdba3b3a4b3f1b1a1a227fb79b7c13ba0203448a62d6adc864311',
                         'instants': 4,
                         'end_fs': 3000000,
                         'final': {'t.o': 4, 't.t': 3},
                         'stats': {'process_executions': 7,
                                   'delta_cycles': 3,
                                   'timed_activations': 3,
                                   'signal_updates': 6,
                                   'in_place_advances': 0},
                         'observed_sha': '44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a'},
 'UserChannelTop': {'trace_sha': '16313f6580dfe25c9fe3317184c72a354b1f6b3d573a950418c952560ecfbb21',
                    'instants': 7,
                    'end_fs': 18000000,
                    'final': {'t.total': 165},
                    'stats': {'process_executions': 14,
                              'delta_cycles': 6,
                              'timed_activations': 6,
                              'signal_updates': 6,
                              'in_place_advances': 0},
                    'observed_sha': '91f143e70cf2450041ac68191640d012d508d365805f00f4ccad64ffed3c972c'},
 'soc_baseline': {'trace_sha': '7e2b3673d2d470e7a175a4ef8de10087280837f86e3c72c832abb6b4051b5613',
                  'instants': 212,
                  'end_fs': 6835000000,
                  'final': {},
                  'stats': {'process_executions': 216,
                            'delta_cycles': 0,
                            'timed_activations': 211,
                            'signal_updates': 0,
                            'in_place_advances': 0},
                  'observed_sha': 'acf9bcfd62d2357717be66181459108154eedd59b151a46ab67f21be321a7d64'},
 'soc_drcf': {'trace_sha': 'f2b5dfabd075052da73f5307f790adb0862855c05d81ff056bfd73b1483b5280',
              'instants': 2502,
              'end_fs': 2031599090884,
              'final': {'top.drcf1.active_context_signal': 2},
              'stats': {'process_executions': 2511,
                        'delta_cycles': 2,
                        'timed_activations': 2501,
                        'signal_updates': 2,
                        'in_place_advances': 0},
              'observed_sha': '6cbff910d9d1d50f85875d16ed3e55038be2c465b199892145ec16be09be9c47'}}


@pytest.mark.parametrize("design", sorted(DESIGNS))
def test_golden_trace(design):
    assert DESIGNS[design]() == GOLDEN[design]


GOLDEN_CHAIN_VCD = """\
$date reproduction run $end
$version repro VcdTracer $end
$timescale 1ps $end
$scope module equiv $end
$var wire 8 ! chain.head $end
$var wire 8 " chain.tail $end
$var wire 8 # chain.s0.out $end
$var wire 8 $ chain.s1.out $end
$var wire 8 % chain.s2.out $end
$upscope $end
$enddefinitions $end
#0
b0 !
b0 "
b0 #
b0 $
b0 %
b1 !
b10 #
b11 $
b100 %
b101 "
#1000
b10 !
b11 #
b100 $
b101 %
b110 "
#2000
b11 !
b100 #
b101 $
b110 %
b111 "
"""


def traced_chain_vcd():
    sim = _simulator()
    top = ChainTop("chain", sim)
    tracer = VcdTracer("equiv")
    traced = {}  # identity-deduped: stages alias src/out signals
    for module in (top, *top.descendants()):
        for attr, sig in sorted(signals_of(module).items()):
            traced.setdefault(id(sig), (f"{module.full_name}.{attr}", sig))
    for name, sig in traced.values():
        tracer.trace(sig, name=name, width=8)
    sim.run()
    return tracer.dumps()


def bus_pair_log():
    sim = _simulator()
    top = BusPairTop("t", sim)
    sim.run()
    return [
        (t.kind, t.master, t.addr, t.granted_at.femtoseconds, t.completed_at.femtoseconds)
        for t in top.bus.monitor.transactions
    ]


def test_traced_chain_vcd_dump():
    # The stage outputs alias the next stage's input, so the dump holds the
    # head, the tail and the three inner outputs once each.
    assert traced_chain_vcd() == GOLDEN_CHAIN_VCD


def test_bus_pair_monitor_log():
    # The masters strictly alternate: each 40-ns transfer is granted the
    # moment the previous one completes.
    expected = []
    for i in range(16):
        expected.append(("write", "writer", i * 4, 80_000_000 * i, 80_000_000 * i + 40_000_000))
        expected.append(("read", "reader", i * 4, 80_000_000 * i + 40_000_000, 80_000_000 * (i + 1)))
    assert bus_pair_log() == expected


# ---------------------------------------------------------------------------
# What the designs compute, derived by hand
# ---------------------------------------------------------------------------

def _run_top(top_cls, until=None):
    sim = _simulator()
    top = top_cls("t", sim)
    sim.run(until=until)
    return sim, top


def _read(value):
    return value.read() if isinstance(value, Signal) else value


#: Design -> (end time in ns, the values it settles to).
FINAL_VALUES = {
    # Each stage adds one: tail = head + depth.
    ChainTop: (3, {"head": 3, "tail": 7}),
    # The two arms reconverge: out = 2a + (a + 10).
    DiamondTop: (4, {"a": 4, "left": 8, "right": 14, "out": 22}),
    # Six toggles leave t low, after each tap has fired.
    EdgeTapsTop: (6, {"t": False, "p": 1, "n": 2}),
}


@pytest.mark.parametrize("top_cls", [ChainTop, DiamondTop, EdgeTapsTop])
def test_final_values(top_cls):
    sim, top = _run_top(top_cls)
    end_ns, expected = FINAL_VALUES[top_cls]
    finals = {name: sig.read() for name, sig in vars(top).items() if isinstance(sig, Signal)}
    assert finals == expected
    assert sim.now == ns(end_ns)


#: Design -> (end time in ns, what its threads record).
THREAD_OBSERVATIONS = {
    # The consumer's 5-ns hold paces the pipe; the producer blocks on the
    # full FIFO in between.
    FifoPipeTop: (40, {"consumed": [(3 * i, 5.0 * i) for i in range(8)]}),
    # Grants alternate; a round is a's 3-ns hold plus b's 4-ns hold.
    MutexWorkersTop: (
        43,
        {"grants": [(w, 7.0 * k + t) for k in range(6) for w, t in (("a", 0), ("b", 3))]},
    ),
    # 32 transfers of 40 ns each; every read sees the write before it.
    BusPairTop: (1280, {"read_back": list(range(1, 17))}),
    # Each hand-off waits for the producer's 3-ns delay.
    UserChannelTop: (
        18,
        {"received": [(11 * i, 3.0 * (i + 1)) for i in range(6)], "total": 11 * 15},
    ),
    # A round is the driver's 10-ns wait plus two 10-ns register accesses.
    IrqTop: (120, {"handled": [(1, 30.0 * (k + 1)) for k in range(4)], "count": 4}),
}


@pytest.mark.parametrize(
    "top_cls", [FifoPipeTop, MutexWorkersTop, BusPairTop, UserChannelTop, IrqTop]
)
def test_thread_observations(top_cls):
    sim, top = _run_top(top_cls)
    end_ns, expected = THREAD_OBSERVATIONS[top_cls]
    assert {attr: _read(getattr(top, attr)) for attr in expected} == expected
    assert sim.now == ns(end_ns)


def test_clock_anyof_edges():
    # The clock starts high and toggles every 5 ns: one edge per half-period,
    # falling edges on the odd multiples of 5 ns.
    sim, top = _run_top(ClockAnyOfTop, until=ns(100))
    assert top.edges == [(k % 2 == 0, 5.0 * k) for k in range(1, 21)]
    assert sim.now == ns(100)


# ---------------------------------------------------------------------------
# Scheduler behaviour the rows rely on
# ---------------------------------------------------------------------------

def test_register_keeps_staged_semantics():
    # stage2 must see stage1's *previous* output in the same instant:
    # after the first posedge q2 is twice the initial q, not twice the
    # just-staged one.
    sim = _simulator()
    top = ClockedPipelineTop("p", sim)
    top.d.write(41)
    sim.run(until=ns(14))  # exactly one posedge (clock starts high)
    assert top.q.read() == 42
    assert top.q2.read() == 0  # old q (0) * 2, not 84


def test_thread_exception_becomes_process_error():
    sim = _simulator()
    FaultyWorkerTop("t", sim)
    with pytest.raises(ProcessError, match="boom in worker thread"):
        sim.run()


def test_spawn_from_trace_hook_runs_at_that_instant():
    # A trace hook injecting a spawn models instrumentation added mid-run.
    sim = _simulator()
    top = ChainTop("chain", sim, depth=3, rounds=4)
    ran = []

    def late():
        ran.append(sim.now.femtoseconds)
        yield ns(1)

    def hook(now):
        if now.femtoseconds == 1_000_000 and not ran:
            sim.spawn("late", late)

    sim.trace_hooks.append(hook)
    sim.run()
    assert ran == [1_000_000]
    assert top.tail.read() == top.rounds + top.depth


def test_update_callback_attached_mid_run():
    sim = _simulator()
    top = ChainTop("chain", sim, depth=3, rounds=4)
    observed = []

    def on_tail(now, value):
        observed.append((now.femtoseconds, value))

    attached = []

    def hook(now):
        if now.femtoseconds == 1_000_000 and not attached:
            attached.append(1)
            top.tail.on_update(on_tail)

    sim.trace_hooks.append(hook)
    sim.run()
    assert top.tail.read() == top.rounds + top.depth
    # The callback observes every committed change after attachment:
    # at t ns the drive thread has written t+1, so tail = t+1+depth.
    assert observed == [
        (2_000_000, 3 + top.depth),
        (3_000_000, 4 + top.depth),
    ]
