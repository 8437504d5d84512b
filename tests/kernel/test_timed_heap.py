"""The timed heap: ``(time_fs, seq, owner)`` entries and their liveness rule.

An entry is live iff its owner's ``live_seq`` equals the entry's ``seq``.
A thread's plain ``yield <SimTime>`` pushes its own wait handle as the
owner; event notifications, ``next_trigger`` timeouts and
``Simulator.schedule`` push a :class:`TimedAction`.  The property test
checks the heap against an independent model that keeps every entry as a
``[time_fs, seq, ...]`` record in a plain list and fires the least live
``(time_fs, seq)`` each time.
"""

from hypothesis import given, settings, strategies as st

from repro.kernel import (
    TIMEOUT,
    ZERO_TIME,
    AnyOf,
    Event,
    MethodProcess,
    Simulator,
    ns,
)
import repro.kernel.simulator as simulator_module

N_EVENTS = 2

#: One wait of a waiter thread: a plain timeout, or an AnyOf on one event
#: bounded by a timeout.
waiter_steps = st.one_of(
    st.tuples(st.just("plain"), st.integers(0, 30)),
    st.tuples(st.just("anyof"), st.integers(0, N_EVENTS - 1), st.integers(1, 30)),
)
#: One step of the main thread, which starts first at t=0.
main_ops = st.one_of(
    st.tuples(st.just("wait"), st.integers(0, 20)),
    st.tuples(st.just("notify"), st.integers(0, N_EVENTS - 1), st.integers(1, 40)),
    st.tuples(st.just("cancel"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("schedule"), st.integers(0, 40)),
    st.tuples(st.just("unschedule"), st.integers(0, 7)),
    st.tuples(st.just("kill"), st.integers(0, 3)),
)
scenarios = st.fixed_dictionaries(
    {
        "main": st.lists(main_ops, max_size=12),
        "waiters": st.lists(st.lists(waiter_steps, min_size=1, max_size=4), max_size=4),
        # next_trigger(SimTime) delays of each method process.
        "methods": st.lists(st.lists(st.integers(0, 30), max_size=3), max_size=2),
        "until": st.one_of(st.none(), st.integers(0, 120)),
    }
)


def run_kernel(scenario):
    """Run ``scenario`` on the kernel: (log, timed activations, pending,
    seq, end time)."""
    sim = Simulator()
    events = [Event(sim, f"e{k}") for k in range(N_EVENTS)]
    log = []
    actions = []
    waiters = []

    def main():
        for i, op in enumerate(scenario["main"]):
            kind = op[0]
            if kind == "wait":
                yield ns(op[1])
            elif kind == "notify":
                events[op[1]].notify(ns(op[2]))
            elif kind == "cancel":
                events[op[1]].cancel()
            elif kind == "schedule":
                k = len(actions)
                actions.append(
                    sim.schedule(ns(op[1]), lambda k=k: log.append(("cb", k, sim._now_fs)))
                )
            elif kind == "unschedule" and actions:
                actions[op[1] % len(actions)].cancel()
            elif kind == "kill" and waiters:
                waiters[op[1] % len(waiters)].kill()
            log.append(("main", i, sim._now_fs, sim.pending_timed_count(), sim._seq))

    def make_waiter(w, steps):
        def body():
            for i, step in enumerate(steps):
                if step[0] == "plain":
                    result = yield ns(step[1])
                else:
                    result = yield AnyOf([events[step[1]]], timeout=ns(step[2]))
                woke_by = "timeout" if result is TIMEOUT else "event"
                log.append(("wake", w, i, woke_by, sim._now_fs))

        return body

    def make_method(m, delays):
        runs = []

        def fn():
            i = len(runs)
            runs.append(i)
            log.append(("method", m, i, sim._now_fs))
            if i < len(delays):
                method.next_trigger(ns(delays[i]))

        method = MethodProcess(sim, f"m{m}", fn)
        return method

    sim.spawn("main", main)
    for w, steps in enumerate(scenario["waiters"]):
        waiters.append(sim.spawn(f"w{w}", make_waiter(w, steps)))
    for m, delays in enumerate(scenario["methods"]):
        sim.register_process(make_method(m, delays))
    until = scenario["until"]
    end = sim.run(until=None if until is None else ns(until))
    return (
        log,
        sim.stats.timed_activations,
        sim.pending_timed_count(),
        sim._seq,
        end.femtoseconds,
    )


class _Model:
    """The timed behaviour of a scenario, from a list of entries.

    Every timed request takes the next sequence number and appends one
    ``[time_fs, seq, owner, live]`` record; cancelling or superseding it
    clears ``live``.  Each timed phase fires, one by one, the least live
    ``(time_fs, seq)`` at the earliest live time, and the evaluation phase
    then runs what became runnable in that order.
    """

    def __init__(self, scenario):
        self.scenario = scenario
        self.seq = 0
        self.entries = []
        self.now = 0
        self.activations = 0
        self.log = []
        self.runnable = []
        # Per event: its pending entry and its waiters in registration order.
        self.pending = [None] * N_EVENTS
        self.event_waiters = [[] for _ in range(N_EVENTS)]
        self.actions = []
        self.waiters = [
            {"steps": steps, "next": 0, "entry": None, "event": None, "woke_by": None,
             "dead": False}
            for steps in scenario["waiters"]
        ]
        self.methods = [{"delays": d, "runs": 0} for d in scenario["methods"]]
        self.main_pc = 0

    def push(self, time_fs, owner):
        self.seq += 1
        entry = [time_fs, self.seq, owner, True]
        self.entries.append(entry)
        return entry

    def live(self):
        return [e for e in self.entries if e[3]]

    # -- the processes -------------------------------------------------------
    def run_main(self):
        ops = self.scenario["main"]
        if self.main_pc and ops[self.main_pc - 1][0] == "wait":
            self.log_main(self.main_pc - 1)  # resumed after its wait
        while self.main_pc < len(ops):
            i = self.main_pc
            op = ops[i]
            self.main_pc += 1
            kind = op[0]
            if kind == "wait":
                self.push(self.now + op[1] * 10**6, ("main",))
                return
            if kind == "notify":
                k, target = op[1], self.now + op[2] * 10**6
                pending = self.pending[k]
                if pending is None or pending[0] > target:
                    if pending is not None:
                        pending[3] = False
                    self.pending[k] = self.push(target, ("event", k))
            elif kind == "cancel":
                if self.pending[op[1]] is not None:
                    self.pending[op[1]][3] = False
                    self.pending[op[1]] = None
            elif kind == "schedule":
                self.actions.append(self.push(self.now + op[1] * 10**6, ("cb", len(self.actions))))
            elif kind == "unschedule" and self.actions:
                self.actions[op[1] % len(self.actions)][3] = False
            elif kind == "kill" and self.waiters:
                self.kill(op[1] % len(self.waiters))
            self.log_main(i)

    def log_main(self, i):
        self.log.append(("main", i, self.now, len(self.live()), self.seq))

    def kill(self, w):
        waiter = self.waiters[w]
        if waiter["dead"]:
            return
        waiter["dead"] = True
        if waiter["entry"] is not None:
            waiter["entry"][3] = False
            waiter["entry"] = None
        if waiter["event"] is not None:
            self.event_waiters[waiter["event"]].remove(w)
            waiter["event"] = None

    def run_waiter(self, w):
        waiter = self.waiters[w]
        if waiter["dead"]:
            return
        if waiter["next"]:
            self.log.append(("wake", w, waiter["next"] - 1, waiter["woke_by"], self.now))
        if waiter["next"] == len(waiter["steps"]):
            waiter["dead"] = True
            return
        step = waiter["steps"][waiter["next"]]
        waiter["next"] += 1
        if step[0] == "plain":
            waiter["entry"] = self.push(self.now + step[1] * 10**6, ("waiter", w))
        else:
            waiter["event"] = step[1]
            self.event_waiters[step[1]].append(w)
            waiter["entry"] = self.push(self.now + step[2] * 10**6, ("waiter", w))

    def run_method(self, m):
        method = self.methods[m]
        i = method["runs"]
        method["runs"] += 1
        self.log.append(("method", m, i, self.now))
        if i < len(method["delays"]):
            self.push(self.now + method["delays"][i] * 10**6, ("method", m))

    # -- the phases --------------------------------------------------------------
    def fire(self, owner):
        kind = owner[0]
        if kind == "cb":
            self.log.append(("cb", owner[1], self.now))
        elif kind == "event":
            self.pending[owner[1]] = None
            for w in self.event_waiters[owner[1]]:
                waiter = self.waiters[w]
                waiter["entry"][3] = False  # its timeout lost
                waiter["entry"] = None
                waiter["event"] = None
                waiter["woke_by"] = "event"
                self.runnable.append(("waiter", w))
            self.event_waiters[owner[1]] = []
        elif kind == "waiter":
            waiter = self.waiters[owner[1]]
            if waiter["event"] is not None:
                self.event_waiters[waiter["event"]].remove(owner[1])
                waiter["event"] = None
            waiter["entry"] = None
            waiter["woke_by"] = "timeout"
            self.runnable.append(owner)
        else:  # the main thread or a method
            self.runnable.append(owner)

    def run(self):
        until = self.scenario["until"]
        until_fs = None if until is None else until * 10**6
        self.runnable = [("main",)]
        self.runnable += [("waiter", w) for w in range(len(self.waiters))]
        self.runnable += [("method", m) for m in range(len(self.methods))]
        while True:
            for owner in self.runnable:
                if owner[0] == "main":
                    self.run_main()
                elif owner[0] == "waiter":
                    self.run_waiter(owner[1])
                else:
                    self.run_method(owner[1])
            self.runnable = []
            live = self.live()
            if not live:
                break
            first = min(live, key=lambda e: (e[0], e[1]))
            if until_fs is not None and first[0] > until_fs:
                self.now = until_fs
                break
            self.now = first[0]
            while True:
                due = [e for e in self.live() if e[0] == self.now]
                if not due:
                    break
                entry = min(due, key=lambda e: e[1])
                self.entries.remove(entry)
                self.activations += 1
                self.fire(entry[2])
        return self.log, self.activations, len(self.live()), self.seq, self.now


class TestAgainstModel:
    @given(scenarios)
    @settings(deadline=None)
    def test_firing_order_and_books_match_the_model(self, scenario):
        assert run_kernel(scenario) == _Model(scenario).run()


class _CountingTimedAction(simulator_module.TimedAction):
    __slots__ = ()
    made = 0

    def __init__(self, *args):
        super().__init__(*args)
        type(self).made += 1


class TestPinned:
    def test_a_plain_wait_allocates_no_timed_action(self, sim, monkeypatch):
        monkeypatch.setattr(simulator_module, "TimedAction", _CountingTimedAction)
        _CountingTimedAction.made = 0
        ev = Event(sim, "e")

        def body():
            for _ in range(5):
                yield ns(3)
            ev.notify(ns(1))  # a timed notification still makes one

        process = sim.spawn("p", body)
        sim.run()
        assert _CountingTimedAction.made == 1
        assert sim.stats.timed_activations == 6
        assert sim._seq == 6
        assert process._wait_handle.live_seq == 5  # the last plain wait's entry

    def test_a_stale_entry_is_skipped_and_not_counted(self, sim):
        """An AnyOf timeout that loses to its event stays on the heap as a
        stale entry: it neither fires, nor counts, nor advances time."""
        ev = Event(sim, "e")
        seen = []

        def waiter():
            result = yield AnyOf([ev], timeout=ns(10))
            seen.append((sim.now, result, len(sim._timed_heap), sim.pending_timed_count()))

        sim.spawn("waiter", waiter)
        sim.spawn("notifier", lambda: ev.notify(ns(5)))
        assert sim.run() == ns(5)
        assert seen == [(ns(5), ev, 1, 0)]
        assert sim.stats.timed_activations == 1
        assert sim._timed_heap == []  # discarded when the timed phase looked

    def test_a_stale_entry_at_a_busy_instant_is_skipped(self, sim):
        fired = []
        sim.schedule(ns(5), lambda: fired.append("a"))
        sim.schedule(ns(5), lambda: fired.append("b")).cancel()
        sim.schedule(ns(5), lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "c"]
        assert sim.stats.timed_activations == 2

    def test_a_killed_timed_waiter_leaves_a_stale_entry(self, sim):
        sleeper = sim.spawn("sleeper", lambda: (yield ns(50)))
        sim.spawn("killer", sleeper.kill)
        assert sim.run() == ZERO_TIME
        assert sim.pending_timed_count() == 0
        assert sim.stats.timed_activations == 0

    def test_run_until_pushes_back_the_first_entry_past_until(self, sim):
        woke = []

        def body():
            yield ns(10)
            woke.append(sim.now)

        sim.spawn("p", body)
        assert sim.run(until=ns(4)) == ns(4)
        assert sim._timed_heap[0][:2] == (ns(10).femtoseconds, 1)
        assert sim.pending_timed_count() == 1
        assert sim.stats.timed_activations == 0
        sim.run()
        assert woke == [ns(10)]
        assert sim.stats.timed_activations == 1
        assert sim._seq == 1


class TestZeroDurationWait:
    """``yield ZERO_TIME`` is a timed wait at the current instant.

    SystemC's ``wait(SC_ZERO_TIME)`` is a delta wait instead; this pins
    the kernel's present behaviour (see ROADMAP), which the poll-train and
    burst-train equivalence tests and ``Simulator.book_alone`` rely on.
    """

    def test_zero_time_wait_is_a_timed_activation_at_the_same_instant(self, sim):
        hooked = []
        seen = []
        sim.trace_hooks.append(hooked.append)

        def body():
            result = yield ZERO_TIME
            seen.append((sim.now, result))

        sim.spawn("p", body)
        sim.run()
        assert seen == [(ZERO_TIME, TIMEOUT)]
        assert sim.stats.as_dict() == {
            "process_executions": 2,
            "delta_cycles": 0,
            "timed_activations": 1,
            "signal_updates": 0,
            "in_place_advances": 0,
        }
        assert sim._seq == 1
        # The instant t=0 finishes twice: once before the timed activation
        # and once after it, so the hooks fire twice there.
        assert hooked == [ZERO_TIME, ZERO_TIME]

    def test_zero_time_waits_order_with_other_entries_by_seq(self, sim):
        order = []

        def waiter(name):
            def body():
                yield ZERO_TIME
                order.append(name)

            return body

        sim.schedule(ZERO_TIME, lambda: order.append("scheduled"))
        sim.spawn("a", waiter("a"))
        sim.spawn("b", waiter("b"))
        sim.run()
        assert order == ["scheduled", "a", "b"]
        assert sim.stats.timed_activations == 3
