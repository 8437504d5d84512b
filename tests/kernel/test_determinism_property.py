"""Property: the kernel is deterministic over arbitrary process structures.

Hypothesis generates random small "programs" — sets of processes mixing
timed waits, event notification chains and signal writes — and the test
asserts that two independent simulators produce bit-identical logs.  This
is the foundation the whole methodology's reproducibility rests on.
"""

from hypothesis import given, settings, strategies as st

from repro.kernel import Event, Signal, Simulator, ns

# One action of a process body: (kind, operand)
actions = st.one_of(
    st.tuples(st.just("wait"), st.integers(1, 50)),        # wait N ns
    st.tuples(st.just("notify"), st.integers(0, 3)),       # notify event K
    st.tuples(st.just("notify_timed"), st.integers(0, 3)), # notify event K at +5ns
    st.tuples(st.just("wait_event"), st.integers(0, 3)),   # wait on event K
    st.tuples(st.just("write"), st.integers(0, 100)),      # write shared signal
    st.tuples(st.just("read"), st.just(0)),                # log shared signal
)

programs = st.lists(
    st.lists(actions, min_size=1, max_size=6), min_size=1, max_size=4
)


def execute(program):
    """Run one program; returns the (time, process, entry) log."""
    sim = Simulator()
    events = [Event(sim, f"e{i}") for i in range(4)]
    signal = Signal(sim, 0, "shared")
    log = []

    def make_body(pid, script):
        def body():
            for kind, operand in script:
                if kind == "wait":
                    yield ns(operand)
                elif kind == "notify":
                    events[operand].notify()
                elif kind == "notify_timed":
                    events[operand].notify(ns(5))
                elif kind == "wait_event":
                    # Bound the wait so starved waits cannot hang the test.
                    from repro.kernel import AnyOf

                    yield AnyOf([events[operand]], timeout=ns(200))
                elif kind == "write":
                    signal.write(operand)
                elif kind == "read":
                    log.append((sim.now.femtoseconds, pid, "read", signal.read()))
                log.append((sim.now.femtoseconds, pid, kind))
            log.append((sim.now.femtoseconds, pid, "done"))

        return body

    for pid, script in enumerate(program):
        sim.spawn(f"p{pid}", make_body(pid, script))
    end = sim.run()
    return end.femtoseconds, tuple(log), sim.stats.as_dict()


class TestDeterminism:
    @given(programs)
    @settings(max_examples=60, deadline=None)
    def test_identical_runs_identical_logs(self, program):
        run1 = execute(program)
        run2 = execute(program)
        assert run1 == run2

    @given(programs)
    @settings(max_examples=30, deadline=None)
    def test_all_processes_terminate(self, program):
        # Bounded event waits guarantee termination; the log must contain a
        # 'done' entry for every process.
        _, log, _ = execute(program)
        done = {entry[1] for entry in log if entry[2] == "done"}
        assert done == set(range(len(program)))
