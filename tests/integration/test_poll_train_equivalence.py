"""Poll trains run two ways with no observable difference.

``Processor.poll`` reads a STATUS word over the bus, then computes for the
poll interval, until the word passes its mask.  While the polling CPU is
alone on the timeline, the bus books every poll before the word can next
change in one step (``Bus.book_polls``): the skipped kernel round trips,
the arbiter's grants, the slave's per-call records (a DRCF's LRU touches
and active calls) and one monitor record.  The poll after a
train, the one that sees the word pass and every declined poll go through
the kernel.  As in test_burst_train_equivalence.py, each design runs
``closed`` (as is) and ``round_trip`` (a no-op trace hook turns every
closed form off).

Both runs must agree on everything that module's ``_fingerprint`` sees,
and on the processor's counters, the accelerators' state, the DRCF slot
manager's LRU ticks, the jobs' outputs and times, and any error; and the
closed run's ``in_place_advances`` must be exactly its booked waits.
"""

from hypothesis import given, settings, strategies as st

from repro.apps.accelerators.base import (
    CMD_START,
    REG_CTRL,
    REG_JOBSIZE,
    REG_PARAM,
    REG_STATUS,
    STATUS_DONE,
    Accelerator,
)
from repro.apps.driver import run_accelerator_job
from repro.bus import Bus, ConfigMemory, Memory
from repro.core import Context, ContextParameters, Drcf
from repro.cpu import Processor
from repro.kernel import ns
from tests.core.helpers import small_tech
from tests.integration.test_burst_train_equivalence import (
    MODES,
    _assert_equivalent,
    _fingerprint,
    _simulator,
)

BUFFER_WORDS = 16
#: Scratch memory that a competing master reads.
MEM_BASE = 0x8000
CFG_BASE = 0x10_0000


class CopyAccelerator(Accelerator):
    """Returns its inputs; a job takes PARAM + JOBSIZE cycles."""

    ALGORITHM = "copy"

    def compute(self, inputs, param, coefs):
        return list(inputs)

    def job_cycles(self, jobsize, param):
        return param + jobsize


class Design:
    """A CPU driving two accelerators over one bus, plain or as the two
    contexts of a single-slot DRCF, plus a scratch memory.  Under
    ``blocking`` the DRCF fetches over a bus of its own (on the CPU's bus
    the fetch would deadlock, Section 5.4, limitation 3)."""

    def __init__(self, mode, protocol, host, access_cycles):
        self.sim = sim = _simulator(mode)
        self.bus = Bus("bus", sim=sim, protocol=protocol)
        self.cpu = Processor("cpu", sim=sim)
        self.cpu.mst_port.bind(self.bus)
        self.bus.register_slave(Memory("mem", sim=sim, base=MEM_BASE, size_words=64))
        self.accels = [
            CopyAccelerator(
                f"acc{i}",
                sim=sim,
                base=0x1_0000 * (i + 1),
                buffer_words=BUFFER_WORDS,
                access_cycles=access_cycles,
            )
            for i in range(2)
        ]
        self.drcf = None
        if host == "plain":
            for accel in self.accels:
                self.bus.register_slave(accel)
            return
        config_bus = self.bus
        if protocol == "blocking":
            config_bus = Bus("config_bus", sim=sim, protocol=protocol)
        cfg = ConfigMemory("cfg", sim=sim, base=CFG_BASE, size_words=4096)
        config_bus.register_slave(cfg)
        contexts = []
        for i, accel in enumerate(self.accels):
            params = ContextParameters(config_addr=CFG_BASE + 0x1000 * i, size_bytes=640)
            cfg.register_context_region(f"acc{i}", params.config_addr, params.size_bytes)
            contexts.append(Context(name=f"acc{i}", module=accel, params=params, gates=1000))
        self.drcf = Drcf("drcf", sim=sim, contexts=contexts, tech=small_tech(), config_burst_words=16)
        self.drcf.mst_port.bind(config_bus)
        self.bus.register_slave(self.drcf)

    def run_jobs(self, jobs, interval, pre_waits=0):
        """Spawn the CPU's task: ``pre_waits`` waits of 1 ns, then each
        ``(accelerator, job size, PARAM)`` job through the driver."""
        self.outcome = []

        def task(cpu):
            for _ in range(pre_waits):
                yield ns(1)
            for index, size, param in jobs:
                outputs = yield from run_accelerator_job(
                    cpu,
                    self.accels[index].base,
                    list(range(1, size + 1)),
                    param=param,
                    buffer_words=BUFFER_WORDS,
                    poll_interval_cycles=interval,
                )
                self.outcome.append((index, outputs, self.sim.now.femtoseconds))

        self.cpu.run_task(task, name="jobs")

    def compete(self, wake_ns, words):
        """Another process wakes at ``wake_ns`` and, with ``words``, reads
        that many words of the scratch memory over the CPU's bus."""

        def other():
            yield ns(wake_ns)
            if words:
                yield from self.bus.read(MEM_BASE, words, master="other")

        self.sim.spawn("other", other)

    def run(self, **kwargs):
        try:
            self.sim.run(**kwargs)
        except Exception as exc:  # a poll loop that ran out raises here
            self.outcome.append((type(exc).__name__, str(exc), self.sim.now.femtoseconds))

    def fingerprint(self):
        """``_fingerprint``'s quadruple with the extra state in its first
        entry."""
        seen, *books = _fingerprint(self.sim)
        cpu = self.cpu
        seen["cpu"] = (cpu.bus_reads, cpu.bus_writes, cpu.compute_cycles, cpu.tasks_completed)
        seen["accels"] = [
            (a.jobs_done, a.total_compute_time.femtoseconds, a._status, a.busy) for a in self.accels
        ]
        if self.drcf is not None:
            slots = self.drcf.scheduler.slots
            seen["slots"] = (
                slots._tick,
                [(s.index, s.last_use, s.loaded_at, s.loading, s.context and s.context.name) for s in slots.slots],
            )
        seen["outcome"] = self.outcome
        seen["states"] = [(p.name, p.state, p.wait_description) for p in self.sim._processes]
        seen["pending"] = self.sim.pending_timed_count()
        return (seen, *books)

    def snapshot(self):
        """What a stepped run can see between steps."""
        sim, arbiter = self.sim, self.bus.arbiter
        stats = sim.stats.as_dict()
        del stats["in_place_advances"]
        return (
            sim.now,
            (arbiter.owner, arbiter.waiters, arbiter.grant_count),
            self.bus.monitor.transaction_count,
            (self.cpu.bus_reads, self.cpu.compute_cycles),
            self.drcf and self.drcf.stats.total_calls,
            [(p.name, p.state, p.wait_description) for p in sim._processes],
            sim.pending_timed_count(),
            stats,
        )

    @property
    def polls_booked(self):
        return self.bus.closed_form_polls


def _both(build):
    """``build(mode)`` -> a Design that has run; the fingerprint quadruple
    of each mode, and the closed run's design."""
    runs = {}
    for mode in MODES:
        design = build(mode)
        runs[mode] = design.fingerprint()
        if mode == "closed":
            closed = design
    return runs, closed


protocols = st.sampled_from(["split", "blocking"])
hosts = st.sampled_from(["plain", "drcf"])
access_cycles = st.integers(0, 6)
intervals = st.integers(0, 40)
#: (accelerator, job size, PARAM): PARAM + size cycles set the completion.
jobs = st.lists(
    st.tuples(st.integers(0, 1), st.integers(1, BUFFER_WORDS), st.integers(0, 3000)),
    min_size=1,
    max_size=3,
)
#: None, or (wake ns, scratch words the competitor then reads; 0: none).
competitors = st.none() | st.tuples(st.integers(0, 40_000), st.integers(0, 4))


class TestGeneratedPolls:
    @given(protocols, hosts, access_cycles, intervals, jobs, competitors)
    @settings(deadline=None)
    def test_closed_and_round_trip_agree(self, protocol, host, access, interval, job_list, competitor):
        """A competing process's wake cuts a train short, and its read
        contends for the bus; without one, every job long enough for a
        few polls books a train."""

        def build(mode):
            design = Design(mode, protocol, host, access)
            design.run_jobs(job_list, interval)
            if competitor is not None:
                design.compete(*competitor)
            design.run()
            return design

        runs, closed = _both(build)
        _assert_equivalent(runs, engaged=False)
        outcome = runs["closed"][0]["outcome"]
        assert [out for _, out, _ in outcome] == [list(range(1, size + 1)) for _, size, _ in job_list]
        if competitor is None and any(param >= 500 for _, _, param in job_list):
            assert closed.polls_booked > 0

    @given(protocols, hosts, access_cycles, intervals, jobs, st.integers(30, 3000))
    @settings(deadline=None, max_examples=25)
    def test_stepped_runs_agree(self, protocol, host, access, interval, job_list, step_ns):
        """``run(until=...)`` in steps that land inside trains: a train
        books only the polls that end by ``until``, so each step stops
        where the round trip stops."""
        designs = {}
        for mode in MODES:
            designs[mode] = Design(mode, protocol, host, access)
            designs[mode].run_jobs(job_list, interval)
        until = ns(step_ns)
        while len(designs["closed"].outcome) < len(job_list):
            for design in designs.values():
                design.run(until=until)
            assert designs["closed"].snapshot() == designs["round_trip"].snapshot()
            until = until + ns(step_ns)
        for design in designs.values():
            design.run()
        _assert_equivalent({mode: d.fingerprint() for mode, d in designs.items()}, engaged=False)

    @given(protocols, hosts, access_cycles, intervals, jobs, st.integers(0, 255))
    @settings(deadline=None, max_examples=25)
    def test_watchdog_check_points(self, protocol, host, access, interval, job_list, pre_waits):
        """With ``max_wall_s`` armed, the kernel checks the wall clock every
        256 process executions and timed activations; a train stops short
        of each check point and the poll there goes through the kernel."""

        def build(mode):
            design = Design(mode, protocol, host, access)
            design.run_jobs(job_list, interval, pre_waits=pre_waits)
            design.run(max_wall_s=600.0)
            return design

        runs, _ = _both(build)
        _assert_equivalent(runs, engaged=False)


def _single_poll_loop(mode, protocol, host, interval, param, max_polls, settle_ns=0):
    """Start one job by hand, wait ``settle_ns``, then poll its STATUS
    with ``max_polls``."""
    design = Design(mode, protocol, host, 1)
    base = design.accels[0].base
    design.outcome = []

    def task(cpu):
        yield from cpu.write(base + REG_JOBSIZE, 4)
        yield from cpu.write(base + REG_PARAM, param)
        yield from cpu.write(base + REG_CTRL, CMD_START)
        yield ns(settle_ns)
        word = yield from cpu.poll(
            base + REG_STATUS, STATUS_DONE, STATUS_DONE, interval_cycles=interval, max_polls=max_polls
        )
        design.outcome.append(word)

    design.cpu.run_task(task, name="poller")
    design.run()
    return design


#: Two jobs, each long enough for many polls.
PINNED_JOBS = [(0, 8, 2000), (1, 4, 2000)]


def _pinned_jobs(mode, protocol, host, interval):
    design = Design(mode, protocol, host, 1)
    design.run_jobs(PINNED_JOBS, interval)
    design.run()
    return design


class TestPinned:
    def test_trains_engage_and_match_the_round_trip(self):
        """Two 2,000-cycle jobs on a DRCF: every poll of each job but the
        one that sees DONE is booked, as one train record per job."""
        runs, closed = _both(lambda mode: _pinned_jobs(mode, "split", "drcf", 16))
        _assert_equivalent(runs, engaged=False)
        polls = closed.cpu.bus_reads - sum(size for _, size, _ in PINNED_JOBS)
        assert closed.polls_booked == polls - len(PINNED_JOBS) == 174
        # A booked poll train is the only kind of record with a gap.
        trains = [e for e in closed.bus.monitor._log if e.gap_fs > 0]
        assert len(trains) == len(PINNED_JOBS)
        assert sum(t.words for t in trains) == closed.polls_booked

    def test_zero_interval(self):
        """``compute(0)`` does not wait: a poll books one wait fewer."""
        for protocol in ("split", "blocking"):
            runs, closed = _both(lambda mode: _pinned_jobs(mode, protocol, "plain", 0))
            _assert_equivalent(runs, engaged=False)
            assert closed.polls_booked > 0

    def test_max_polls_runs_out_inside_a_train(self):
        """Seven polls left and a job far longer than seven polls: the
        first train books all seven, and the poll loop raises the same
        error at the same time as seven kernel round trips."""
        for host in ("plain", "drcf"):
            runs, closed = _both(lambda mode: _single_poll_loop(mode, "split", host, 8, 5000, 7))
            _assert_equivalent(runs, engaged=False)
            (error,) = runs["closed"][0]["outcome"]
            assert error[0] == "ProcessError" and "exceeded 7 attempts" in error[1]
            assert closed.polls_booked == 7

    def test_a_done_word_is_read_through_the_kernel(self):
        """The job finished while the CPU waited: the word already passes
        the mask, so the poll declines ``done`` and reads it through the
        kernel."""
        runs, closed = _both(lambda mode: _single_poll_loop(mode, "blocking", "plain", 8, 0, 50, 10_000))
        _assert_equivalent(runs, engaged=False)
        assert runs["closed"][0]["outcome"] == [STATUS_DONE]
        assert closed.polls_booked == 0
        assert closed.bus.closed_form_poll_declines["done"] == 1



class TestBurstTrainsFromAccelerators:
    """The burst-train closed form reads accelerators and DRCF contexts
    through the same slave contract as polls."""

    @given(protocols, hosts, st.integers(1, BUFFER_WORDS - 1), st.integers(2, 2 * BUFFER_WORDS))
    @settings(deadline=None, max_examples=25)
    def test_buffer_trains_agree(self, protocol, host, burst, count):
        def build(mode):
            design = Design(mode, protocol, host, 2)
            design.run_jobs([(0, BUFFER_WORDS, 100)], 8)
            base = design.accels[0].inbuf_addr

            def reader():
                yield ns(20_000)
                data = yield from design.bus.read(base, count, master="dma", burst=burst)
                design.outcome.append(data)

            design.sim.spawn("reader", reader)
            design.run()
            return design

        runs, closed = _both(build)
        _assert_equivalent(runs, engaged=count > burst)
