"""Burst trains run two ways with no observable difference.

A configuration fetch is one burst train (``Bus.read(..., burst=n)``).
While the fetching process is alone on the timeline, the bus books whole
bursts of it in closed form (``Bus._closed_form``): the skipped kernel
round trips, one memory slice and one monitor record for the bursts that
fit the horizon, and a one-read record of its own for a partial last
burst.  A burst the closed form declines waits out its phases through the
kernel.  Each design here runs two ways:

* ``closed``: as is;
* ``round_trip``: a no-op hook in ``sim.trace_hooks``, which turns the
  closed form off and sends every phase through the kernel.

Both must agree on everything a user can see: every bus transaction and
monitor aggregate, the arbiter's counts, ``DrcfStats``, memory counters,
job outputs, the end time, the kernel's sequence counter and every
``SimulatorStats`` counter except ``in_place_advances``, which counts
exactly the phase waits of the bursts booked in closed form and the waits
of the polls booked in closed form (poll trains have their own test,
test_poll_train_equivalence.py).
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
from repro.faults import FAULT_KINDS, CampaignScenario, FaultInjector, FaultSpec
from repro.faults.campaign import _run_trial, build_fault_grid
from repro.kernel import Event, SimulationError, Simulator, ns, us
from repro.tech import MORPHOSYS, VIRTEX2PRO
from tests.faults.helpers import RIG_INFO, access, make_rig, rig_design

MODES = ("closed", "round_trip")
ACCELS = ("fir", "xtea")
#: Scratch window of the configuration memory, clear of every bitstream.
CFG_SCRATCH = 0x0080_0000


def _noop_hook(now):
    """A trace hook that observes nothing; its presence disables the closed form."""


def _simulator(mode):
    sim = Simulator()
    if mode == "round_trip":
        sim.trace_hooks.append(_noop_hook)
    return sim


def _modules(sim):
    for top in sim._top_modules:
        yield top
        yield from top.descendants()


def _poll_waits(bus):
    """The waits of the polls ``bus`` booked in closed form: 3 per poll
    under ``blocking``, 4 under ``split``, plus the interval's compute of
    each poll of a train with an interval.  Those trains are the log's
    records with a gap (a transfer that ran through the kernel, and a
    burst train, have none)."""
    phases = 4 if bus.protocol == "split" else 3
    return bus.closed_form_polls * phases + sum(
        entry.bursts for entry in bus.monitor._log if entry.gap_fs > 0
    )


def _fingerprint(sim, runner=None):
    """Everything observable about a run, its in-place advance count, the
    number of bursts the buses booked in closed form, and the waits booked
    in closed form: the bursts' phase waits (3 per burst under
    ``blocking``, 4 under ``split``) and the polls' waits."""
    seen = {"end_fs": sim.now.femtoseconds, "seq": sim._seq}
    closed = waits = 0
    for module in _modules(sim):
        name = module.full_name
        if isinstance(module, Bus):
            monitor = module.monitor
            # The aggregates first: they must come from the log's records,
            # not from an expansion.
            aggregates = (
                monitor.summary(),
                monitor.busy_time(),
                monitor.mean_arbitration_wait(),
                monitor.max_arbitration_wait(),
                monitor.error_count,
                monitor.words_by_slave(),
            )
            transactions = [
                (
                    t.kind, t.master, t.slave, t.addr, t.words,
                    t.issued_at.femtoseconds, t.granted_at.femtoseconds,
                    t.completed_at.femtoseconds, tuple(t.tags), t.status,
                )
                for t in monitor.transactions
            ]
            arbiter = module.arbiter
            seen[name] = (
                aggregates,
                transactions,
                (arbiter.owner, arbiter.waiters, arbiter.grant_count, arbiter.contention_count),
            )
            closed += module.closed_form_bursts
            waits += module.closed_form_bursts * (4 if module.protocol == "split" else 3)
            waits += _poll_waits(module)
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
    return seen, advances, closed, waits


def _assert_equivalent(runs, engaged=True):
    """``runs`` maps each mode to ``_fingerprint``'s quadruple."""
    closed, advances, bursts, waits = runs["closed"]
    round_trip, *round_trip_books = runs["round_trip"]
    assert closed == round_trip
    assert round_trip_books == [0, 0, 0]
    assert advances == waits  # every in-place advance is a closed-form booking
    if engaged:
        assert bursts > 0  # the trains really took the closed form


def _build_soc(make, mode):
    netlist, info = make()
    sim = _simulator(mode)
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
        for mode in MODES:
            sim, _, runner, jobs = _build_soc(NETLISTS[name], mode)
            sim.run()
            assert len(runner.results) == len(jobs)
            for job in runner.results:
                assert job.outputs == golden_outputs(job.spec)
            runs[mode] = _fingerprint(sim, runner)
        _assert_equivalent(runs)


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
        runs, results = {}, {}
        for mode in MODES:
            sims = []

            class RecordingSimulator(Simulator):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    if mode == "round_trip":
                        self.trace_hooks.append(_noop_hook)
                    sims.append(self)

            monkeypatch.setattr(repro.kernel, "Simulator", RecordingSimulator)
            results[mode] = _run_trial(payloads[kind])
            (sim,) = sims
            runs[mode] = _fingerprint(sim)
        assert results["closed"] == results["round_trip"]
        assert results["closed"]["fault"]["kind"] == kind
        _assert_equivalent(runs)


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
    """``run(until=...)`` in small steps through a fetch: a burst that
    would end past ``until`` goes through the kernel, so the run stops
    with the fetcher waiting exactly where the round trip stops it."""

    @pytest.mark.parametrize(
        "step, window",
        [(ns(7), us(4)), (ns(100), us(60)), (us(1), us(450))],
        ids=["7ns", "100ns", "1us"],
    )
    def test_lockstep_snapshots_match(self, step, window):
        sims = {mode: _build_soc(NETLISTS["split"], mode) for mode in MODES}
        until = step
        while until <= window:
            snapshots = []
            for mode in MODES:
                sim, design, _, _ = sims[mode]
                assert sim.run(until=until) == until
                snapshots.append(_snapshot(sim, design))
            assert snapshots[0] == snapshots[1]
            until = until + step
        runs = {}
        for mode in MODES:
            sim, _, runner, jobs = sims[mode]
            sim.run()
            assert len(runner.results) == len(jobs)
            runs[mode] = _fingerprint(sim, runner)
        _assert_equivalent(runs)


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


def _contended_fetch(protocol, arbitration, masters, victim, mode):
    """A fetching SoC plus background masters on the bus the fetch uses.

    The victim master is killed right after it asks for the bus; with
    ``late_kill_ns`` set, the first background master is killed that long
    after, in whatever state it is in by then.  Returns the run's
    fingerprint quadruple and whether the victim was still queued when it
    was killed (``[True]``) or had already been granted the bus
    (``[False]``)."""
    kwargs = {"bus_protocol": protocol, "arbitration": arbitration}
    if protocol == "blocking":
        kwargs["dedicated_config_bus"] = True
    netlist, info = make_reconfigurable_netlist(ACCELS, tech=VIRTEX2PRO, **kwargs)
    sim = _simulator(mode)
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
    seen, *books = _fingerprint(sim, runner)
    seen["states"] = [(p.name, p.state, p.wait_description) for p in sim._processes]
    seen["pending"] = sim.pending_timed_count()
    return (seen, *books), killed_while_queued


class TestBackgroundMasters:
    @given(
        st.sampled_from(["split", "blocking"]),
        st.sampled_from(["fifo", "priority", "round_robin"]),
        background_masters,
        st.tuples(st.integers(0, 2000), st.integers(0, 3), st.none() | st.integers(0, 3000)),
    )
    @settings(max_examples=25, deadline=None)
    def test_contended_fetch_is_identical(self, protocol, arbitration, masters, victim):
        runs, killed = {}, {}
        for mode in MODES:
            runs[mode], killed[mode] = _contended_fetch(protocol, arbitration, masters, victim, mode)
        _assert_equivalent(runs)
        # The rest of the strategy is about a victim killed in the queue.
        assume(killed["closed"] == [True])

    def test_victim_killed_between_grant_and_resumption(self):
        """At 20 ns the victim finds the bus busy, wakes the killer and asks
        for the bus; the CPU releases it in the same evaluation phase and
        grants it to the victim before the killer runs.  The victim dies
        owning a grant it never resumed on, and withdrawing it frees the
        bus: the dead victim does not keep it."""
        draw = ("split", "fifo", [(21, 0, 1, 0, 1, False)], (20, 0, None))
        runs, killed = {}, {}
        for mode in MODES:
            runs[mode], killed[mode] = _contended_fetch(*draw, mode)
        assert killed["closed"] == [False]
        _assert_equivalent(runs)
        _, transactions, (owner, waiters, _, _) = runs["closed"][0]["top.system_bus"]
        assert owner != "victim" and "victim" not in waiters
        assert all(t[1] != "victim" for t in transactions)
        # The bus stays usable: the background master's later read completes.
        assert [t[-1] for t in transactions if t[1] == "bg0"] == ["ok"]


#: Words in each memory of the train rig.
MEM_WORDS = 512


def _train_runs(protocol, start, count, burst, *, others=(), pre_waits=0, until=None, max_wall_s=None):
    """One master reads a ``count``-word train in ``burst``-word bursts
    from word ``start`` of a bus with two memories back to back: ``low``
    (words [0, MEM_WORDS)) and ``high`` (the next MEM_WORDS).  It first
    waits ``pre_waits`` times 1 ns; each of ``others`` is a process that
    only waits that many ns.  The run stops at ``until`` (a snapshot is
    taken) and then runs to its end.

    Returns each mode's fingerprint quadruple, and the ``closed`` run's
    bus."""
    runs = {}
    for mode in MODES:
        sim = _simulator(mode)
        bus = Bus("bus", sim=sim, protocol=protocol)
        for i, name in enumerate(("low", "high")):
            memory = Memory(
                name, sim=sim, base=4 * MEM_WORDS * i, size_words=MEM_WORDS, latency_cycles=2 + i
            )
            memory.poke(memory.base, [(i << 16) + w for w in range(MEM_WORDS)])
            bus.register_slave(memory)
        outcome = []

        def fetcher():
            for _ in range(pre_waits):
                yield ns(1)
            try:
                data = yield from bus.read(4 * start, count, master="dma", tags=["config"], burst=burst)
            except SimulationError as exc:
                data = str(exc)
            outcome.append((data, sim.now))

        sim.spawn("fetcher", fetcher)
        for i, wake in enumerate(others):
            sim.spawn(f"other{i}", lambda wake=wake: (yield ns(wake)))
        snapshot = None
        if until is not None:
            sim.run(until=until, max_wall_s=max_wall_s)
            snapshot = _fingerprint(sim)[0], [
                (p.name, p.state, p.wait_description) for p in sim._processes
            ]
        sim.run(max_wall_s=max_wall_s)
        seen, *books = _fingerprint(sim)
        seen["outcome"] = outcome
        seen["snapshot"] = snapshot
        runs[mode] = (seen, *books)
        if mode == "closed":
            closed_bus = bus
    return runs, closed_bus


def _transient_runs(target, at_ns, n_bursts, seed):
    """The DRCF rig fetching s0, s1, s0, s1 with one ``bus_transient``
    fault armed.  Returns each mode's fingerprint quadruple (with the loaded
    contexts' corruption flags and the injector's log), and the
    closed-form declines of the ``closed`` run."""
    runs = {}
    for mode in MODES:
        rig = make_rig()
        if mode == "round_trip":
            rig.sim.trace_hooks.append(_noop_hook)
        injector = FaultInjector(seed=seed)
        injector.arm(FaultSpec("bus_transient", target, at_ns=float(at_ns), n_bursts=n_bursts))
        injector.attach(rig.sim, rig_design(rig), RIG_INFO)
        access(rig, 0, 1, 0, 1)
        seen, *books = _fingerprint(rig.sim)
        seen["corrupted"] = [rig.drcf.loaded_corrupted(name) for name in ("s0", "s1")]
        seen["events"] = injector.events
        runs[mode] = (seen, *books)
        if mode == "closed":
            declines = rig.bus.closed_form_declines
    return runs, declines


protocols = st.sampled_from(["blocking", "split"])
bursts = st.integers(1, 16)


class TestTrainEdges:
    """Generated trains at the edges of the closed form."""

    @given(protocols, bursts, st.integers(1, 48), st.integers(1, MEM_WORDS + 16))
    @settings(deadline=None)
    def test_crossing_a_slave_boundary(self, protocol, burst, before, after):
        """The train starts ``before`` words short of ``high``: a burst that
        straddles the boundary fails in ``low``, a train that runs past
        ``high`` fails to decode, and either error surfaces at the same
        burst and the same time."""
        assume(before + after > burst)
        runs, bus = _train_runs(protocol, MEM_WORDS - before, before + after, burst)
        _assert_equivalent(runs, engaged=False)
        assert bus.closed_form_declines["range"] > 0

    @given(protocols, bursts, st.integers(2, 120), st.integers(0, 3000))
    @settings(deadline=None)
    def test_running_into_until(self, protocol, burst, count, until_ns):
        """``until`` cuts the train: the closed form books only the bursts
        that end by then, and the run stops where the round trip stops."""
        assume(count > burst)
        runs, _ = _train_runs(protocol, 0, count, burst, until=ns(until_ns))
        _assert_equivalent(runs)

    @given(protocols, st.integers(1, 4), st.integers(86, 120), st.integers(0, 255))
    @settings(deadline=None)
    def test_crossing_watchdog_check_points(self, protocol, burst, n_bursts, pre_waits):
        """With the watchdog armed, the kernel checks the wall clock every
        256 process executions and timed activations.  The closed form
        stops short of each check, and the burst it declines there waits
        out its phases through the kernel."""
        runs, bus = _train_runs(
            protocol, 0, n_bursts * burst, burst, pre_waits=pre_waits, max_wall_s=600.0
        )
        _assert_equivalent(runs)
        assert bus.closed_form_declines["horizon"] > 0  # 258 waits or more: a check cut the train

    def test_a_watchdog_check_between_the_full_bursts_and_the_partial_one(self):
        """After 248 waits, the two full bursts use up the waits left
        before the watchdog's next check: the partial last burst declines
        ``horizon`` and waits out its phases through the kernel."""
        runs, bus = _train_runs("blocking", 0, 2 * 4 + 1, 4, pre_waits=248, max_wall_s=600.0)
        _assert_equivalent(runs)
        assert bus.closed_form_bursts == 2
        assert bus.closed_form_declines["horizon"] == 1

    @given(
        protocols, bursts, st.integers(2, MEM_WORDS // 2), st.lists(st.integers(0, 4000), max_size=4)
    )
    @settings(deadline=None)
    def test_a_timed_action_cuts_the_prefix(self, protocol, burst, count, wakes):
        """Other processes wake in mid-train: the closed form books only the
        bursts that end before the next wake, and picks up after it."""
        assume(count > burst)
        runs, _ = _train_runs(protocol, 0, count, burst, others=wakes)
        _assert_equivalent(runs, engaged=False)

    @given(protocols, st.integers(2, 16), st.integers(1, 15), st.integers(1, 15))
    @settings(deadline=None)
    def test_partial_last_burst(self, protocol, burst, full, rest):
        """The closed form books the full bursts as one record and the
        partial last burst as a one-read record of its own."""
        rest = 1 + (rest - 1) % (burst - 1)
        runs, bus = _train_runs(protocol, 3, full * burst + rest, burst)
        _assert_equivalent(runs)
        ((data, _),) = runs["closed"][0]["outcome"]
        assert data == list(range(3, 3 + full * burst + rest))
        _, transactions, _ = runs["closed"][0]["bus"]
        assert [t[4] for t in transactions] == [burst] * full + [rest]
        log = [(entry.bursts, entry.burst_words, entry.addr) for entry in bus.monitor._log]
        assert log == [(full, burst, 12), (1, rest, 12 + 4 * full * burst)]

    @given(
        st.sampled_from(["s0", "s1"]),
        st.integers(0, 12_000),
        st.integers(1, 6),
        st.integers(0, 2**16),
    )
    @settings(deadline=None)
    def test_bus_transient_in_mid_train(self, target, at_ns, n_bursts, seed):
        """A ``bus_transient`` fault arms the memory's read filter: the
        closed form declines (``read_filter``) until the fault's bursts are
        spent, possibly in mid-train, and the same bursts get the same
        flipped bits on both paths."""
        runs, _ = _transient_runs(target, at_ns, n_bursts, seed)
        _assert_equivalent(runs, engaged=False)

    def test_bus_transient_spent_in_the_first_burst(self):
        """The fault hits the first burst of the first fetch; the rest of
        that train and every later fetch take the closed form."""
        runs, declines = _transient_runs("s0", 0, 1, 7)
        _assert_equivalent(runs)
        assert declines["read_filter"] == 1
        assert len(runs["closed"][0]["events"]) == 1
