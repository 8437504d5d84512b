"""Burst trains advance time in place with no observable difference.

A configuration fetch is one burst train (``Bus.read(..., burst=n)``),
and inside a train every phase wait first asks the kernel whether the
fetching process is alone on the timeline up to its wake; if so, time
advances in place (``Simulator.advance_alone``).  Any trace hook turns
that off, so each design here runs twice: as is, and with a no-op hook in
``sim.trace_hooks``, which sends every phase through the kernel.  Both
runs must agree on everything a user can see: every bus transaction,
``DrcfStats``, memory counters, job outputs, the end time and every
``SimulatorStats`` counter except ``in_place_advances`` itself.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

import repro.kernel
from repro.apps import (
    JobRunner,
    frame_interleaved_jobs,
    golden_outputs,
    make_multi_fabric_netlist,
    make_reconfigurable_netlist,
)
from repro.bus import Bus, Memory
from repro.core import Drcf
from repro.faults import FAULT_KINDS, CampaignScenario
from repro.faults.campaign import _run_trial, build_fault_grid
from repro.kernel import Event, Simulator, ns, us
from repro.tech import MORPHOSYS, VIRTEX2PRO

ACCELS = ("fir", "xtea")
#: Scratch window of the configuration memory, clear of every bitstream.
CFG_SCRATCH = 0x0080_0000


def _noop_hook(now):
    """A trace hook that observes nothing; its presence disables the advance."""


def _modules(sim):
    for top in sim._top_modules:
        yield top
        yield from top.descendants()


def _fingerprint(sim, runner=None):
    """Everything observable about a run, plus its in-place advance count."""
    seen = {"end_fs": sim.now.femtoseconds}
    for module in _modules(sim):
        name = module.full_name
        if isinstance(module, Bus):
            seen[name] = [
                (
                    t.kind, t.master, t.slave, t.addr, t.words,
                    t.issued_at.femtoseconds, t.granted_at.femtoseconds,
                    t.completed_at.femtoseconds, tuple(t.tags), t.status,
                )
                for t in module.monitor.transactions
            ] + [(module.arbiter.owner, module.arbiter.waiters)]
        elif isinstance(module, Memory):
            seen[name] = (module.read_word_count, module.write_word_count, module.generation)
        elif isinstance(module, Drcf):
            stats = module.stats
            seen[name] = (
                stats.summary(),
                {ctx: vars(cs) for ctx, cs in stats.per_context.items()},
                stats.timeline.to_csv(),
            )
    if runner is not None:
        seen["jobs"] = [(r.spec, r.outputs, r.start_ns, r.end_ns) for r in runner.results]
    stats = sim.stats.as_dict()
    advances = stats.pop("in_place_advances")
    seen["stats"] = stats
    return seen, advances


def _build_soc(make, hooked):
    netlist, info = make()
    sim = Simulator()
    if hooked:
        sim.trace_hooks.append(_noop_hook)
    design = netlist.elaborate(sim)
    runner = JobRunner(info.accel_bases, info.buffer_words)
    jobs = frame_interleaved_jobs(tuple(info.accel_bases), n_frames=1, seed=7)
    design[info.cpu_name].run_task(runner.task(jobs), name="workload")
    return sim, design, runner, jobs


NETLISTS = {
    "split": lambda: make_reconfigurable_netlist(ACCELS, tech=VIRTEX2PRO, bus_protocol="split"),
    "blocking_dedicated": lambda: make_reconfigurable_netlist(
        ACCELS, tech=VIRTEX2PRO, bus_protocol="blocking", dedicated_config_bus=True
    ),
    "multi_fabric": lambda: make_multi_fabric_netlist(
        {"drcf1": (("fir", "xtea"), VIRTEX2PRO), "drcf2": (("fft", "viterbi"), MORPHOSYS)}
    ),
}


class TestReconfigurableNetlists:
    @pytest.mark.parametrize("name", sorted(NETLISTS))
    def test_hooked_run_is_identical(self, name):
        runs = {}
        for hooked in (False, True):
            sim, _, runner, jobs = _build_soc(NETLISTS[name], hooked)
            sim.run()
            assert len(runner.results) == len(jobs)
            for job in runner.results:
                assert job.outputs == golden_outputs(job.spec)
            runs[hooked] = _fingerprint(sim, runner)
        (as_is, advanced), (hooked, hooked_advances) = runs[False], runs[True]
        assert as_is == hooked
        assert advanced > 0  # the trains really took the fast path
        assert hooked_advances == 0


class TestCampaignTrials:
    """One full-recovery trial per fault kind: armed fault hooks read
    ``sim.now`` on the fetch path, so they see exactly the same times."""

    @pytest.fixture(scope="class")
    def payloads(self):
        scenario = CampaignScenario(
            name="modem", accels=("fir", "fft", "viterbi", "xtea"), tech="virtex2pro", n_frames=1
        )
        base = {
            "scenario": scenario.to_dict(),
            "recovery": "full",
            "trial_seed": 7,
            "until_ns": None,
            "max_wall_s": 600.0,  # armed: the watchdog's cadence is kept too
        }
        golden = _run_trial(dict(base, fault=None, trial=-1))
        grid = build_fault_grid(scenario, len(FAULT_KINDS), 7, golden["makespan_ns"])
        until_ns = 4 * golden["makespan_ns"]
        return {
            spec.kind: dict(base, fault=spec.to_dict(), trial=i, trial_seed=100 + i, until_ns=until_ns)
            for i, spec in enumerate(grid)
        }

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_trial_is_identical(self, kind, payloads, monkeypatch):
        runs = {}
        for hooked in (False, True):
            sims = []

            class RecordingSimulator(Simulator):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    if hooked:
                        self.trace_hooks.append(_noop_hook)
                    sims.append(self)

            monkeypatch.setattr(repro.kernel, "Simulator", RecordingSimulator)
            result = _run_trial(payloads[kind])
            (sim,) = sims
            runs[hooked] = (result, *_fingerprint(sim))
        (result, as_is, advanced), (hooked_result, hooked, hooked_advances) = runs[False], runs[True]
        assert result == hooked_result
        assert result["fault"]["kind"] == kind
        assert as_is == hooked
        assert advanced > 0
        assert hooked_advances == 0


def _snapshot(sim, design, bus_name="system_bus"):
    bus = design[bus_name]
    stats = sim.stats.as_dict()
    del stats["in_place_advances"]
    return (
        sim.now,
        bus.arbiter.owner,
        bus.arbiter.waiters,
        bus.monitor.transaction_count,
        design["cfgmem"].read_word_count,
        design["mem"].read_word_count,
        design["mem"].write_word_count,
        [(p.name, p.state, p.wait_description) for p in sim._processes],
        sim.pending_timed_count(),
        stats,
    )


class TestSteppedRuns:
    """``run(until=...)`` in small steps through a fetch: a phase whose
    wake lies past ``until`` goes through the kernel, so the run stops
    with the fetcher waiting exactly where the per-phase path stops it."""

    @pytest.mark.parametrize(
        "step, window",
        [(ns(7), us(4)), (ns(100), us(60)), (us(1), us(450))],
        ids=["7ns", "100ns", "1us"],
    )
    def test_lockstep_snapshots_match(self, step, window):
        sims = {hooked: _build_soc(NETLISTS["split"], hooked) for hooked in (False, True)}
        until = step
        while until <= window:
            snapshots = []
            for hooked in (False, True):
                sim, design, _, _ = sims[hooked]
                assert sim.run(until=until) == until
                snapshots.append(_snapshot(sim, design))
            assert snapshots[0] == snapshots[1]
            until = until + step
        runs = {}
        for hooked in (False, True):
            sim, _, runner, jobs = sims[hooked]
            sim.run()
            assert len(runner.results) == len(jobs)
            runs[hooked] = _fingerprint(sim, runner)
        assert runs[False][0] == runs[True][0]
        assert runs[False][1] > 0


#: One background master: (start ns, gap ns, burst words, priority,
#: transfers, writes?).
background_masters = st.lists(
    st.tuples(
        st.integers(0, 3000),
        st.integers(0, 500),
        st.integers(1, 16),
        st.integers(0, 3),
        st.integers(1, 4),
        st.booleans(),
    ),
    min_size=1,
    max_size=4,
)


def _contended_fetch(protocol, arbitration, masters, victim, hooked):
    """A fetching SoC plus background masters on the bus the fetch uses.

    The victim master is killed right after it asks for the bus; with
    ``late_kill_ns`` set, the first background master is killed that long
    after, in whatever state it is in by then.  Returns the run's
    fingerprint, its in-place advance count and whether the victim was
    still queued when it was killed (``[True]``) or had already been
    granted the bus (``[False]``)."""
    kwargs = {"bus_protocol": protocol, "arbitration": arbitration}
    if protocol == "blocking":
        kwargs["dedicated_config_bus"] = True
    netlist, info = make_reconfigurable_netlist(ACCELS, tech=VIRTEX2PRO, **kwargs)
    sim = Simulator()
    if hooked:
        sim.trace_hooks.append(_noop_hook)
    design = netlist.elaborate(sim)
    bus = design["config_bus" if protocol == "blocking" else "system_bus"]
    base = info.cfg_base + CFG_SCRATCH
    runner = JobRunner(info.accel_bases, info.buffer_words)
    jobs = frame_interleaved_jobs(ACCELS, n_frames=1, seed=7)
    design["cpu"].run_task(runner.task(jobs), name="workload")

    background = []
    for index, (start, gap, words, priority, transfers, writes) in enumerate(masters):
        label = f"bg{index}"
        bus.set_master_priority(label, priority)

        def traffic(label=label, start=start, gap=gap, words=words, transfers=transfers, writes=writes):
            yield ns(start)
            addr = base + 0x1000 * int(label[2:])
            for n in range(transfers):
                if writes:
                    yield from bus.write(addr, [n] * words, master=label)
                else:
                    yield from bus.read(addr, words, master=label)
                if gap:
                    yield ns(gap)

        background.append(sim.spawn(label, traffic))

    start, priority, late_kill_ns = victim
    bus.set_master_priority("victim", priority)
    queued = Event(sim, "victim.queued")

    def victim_body():
        yield ns(start)
        while not bus.arbiter.busy:
            yield ns(7)
        queued.notify()  # the killer runs once this process has queued
        yield from bus.read(base, 8, master="victim")

    victim_proc = sim.spawn("victim", victim_body)
    killed_while_queued = []

    def killer():
        yield queued
        killed_while_queued.append("victim" in bus.arbiter.waiters)
        victim_proc.kill()
        if late_kill_ns is not None:
            # A background master dies in whatever state it is in by then.
            yield ns(late_kill_ns)
            background[0].kill()

    sim.spawn("killer", killer)
    sim.run(until=us(100))
    seen, advances = _fingerprint(sim, runner)
    seen["states"] = [(p.name, p.state, p.wait_description) for p in sim._processes]
    seen["pending"] = sim.pending_timed_count()
    return seen, advances, killed_while_queued


class TestBackgroundMasters:
    @given(
        st.sampled_from(["split", "blocking"]),
        st.sampled_from(["fifo", "priority", "round_robin"]),
        background_masters,
        st.tuples(st.integers(0, 2000), st.integers(0, 3), st.none() | st.integers(0, 3000)),
    )
    @settings(max_examples=25, deadline=None)
    def test_contended_fetch_is_identical(self, protocol, arbitration, masters, victim):
        as_is, advanced, killed = _contended_fetch(protocol, arbitration, masters, victim, False)
        hooked, hooked_advances, _ = _contended_fetch(
            protocol, arbitration, masters, victim, True
        )
        assert as_is == hooked
        assert advanced > 0
        assert hooked_advances == 0
        # The rest of the strategy is about a victim killed in the queue.
        assume(killed == [True])

    def test_victim_killed_between_grant_and_resumption(self):
        """At 20 ns the victim finds the bus busy, wakes the killer and asks
        for the bus; the CPU releases it in the same evaluation phase and
        grants it to the victim before the killer runs.  The victim dies
        owning a grant it never resumed on, and withdrawing it frees the
        bus: the dead victim does not keep it."""
        draw = ("split", "fifo", [(21, 0, 1, 0, 1, False)], (20, 0, None))
        as_is, advanced, killed = _contended_fetch(*draw, False)
        hooked, hooked_advances, _ = _contended_fetch(*draw, True)
        assert killed == [False]
        assert as_is == hooked
        assert advanced > 0 and hooked_advances == 0
        *transactions, (owner, waiters) = as_is["top.system_bus"]
        assert owner != "victim" and "victim" not in waiters
        assert all(t[1] != "victim" for t in transactions)
        # The bus stays usable: the background master's later read completes.
        assert [t[-1] for t in transactions if t[1] == "bg0"] == ["ok"]
