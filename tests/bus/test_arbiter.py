"""Arbitration policies: FIFO, priority, round-robin, bookkeeping."""

import pytest

from repro.kernel import SimulationError, ns
from repro.bus import Arbiter


def contender(sim, arbiter, label, order, priority=0, hold=10, rounds=1):
    def body():
        for _ in range(rounds):
            yield from arbiter.request(label, priority)
            order.append((label, sim.now.to_ns()))
            yield ns(hold)
            arbiter.release(label)

    return body


class TestFifo:
    def test_grant_order_is_request_order(self, sim):
        arbiter = Arbiter(sim, "fifo", "a")
        order = []
        for label in ("x", "y", "z"):
            sim.spawn(label, contender(sim, arbiter, label, order))
        sim.run()
        assert [o[0] for o in order] == ["x", "y", "z"]
        assert [o[1] for o in order] == [0.0, 10.0, 20.0]

    def test_uncontended_grant_immediate(self, sim):
        arbiter = Arbiter(sim, "fifo", "a")
        order = []
        sim.spawn("only", contender(sim, arbiter, "only", order))
        sim.run()
        assert order == [("only", 0.0)]
        assert arbiter.contention_count == 0
        assert arbiter.grant_count == 1


class TestPriority:
    def test_lower_number_wins(self, sim):
        arbiter = Arbiter(sim, "priority", "a")
        order = []
        # "low" requests first but has worse priority than "high".
        sim.spawn("holder", contender(sim, arbiter, "holder", order, priority=0))
        sim.spawn("low", contender(sim, arbiter, "low", order, priority=5))
        sim.spawn("high", contender(sim, arbiter, "high", order, priority=1))
        sim.run()
        assert [o[0] for o in order] == ["holder", "high", "low"]

    def test_equal_priority_falls_back_to_order(self, sim):
        arbiter = Arbiter(sim, "priority", "a")
        order = []
        for label in ("a", "b", "c"):
            sim.spawn(label, contender(sim, arbiter, label, order, priority=3))
        sim.run()
        assert [o[0] for o in order] == ["a", "b", "c"]


class TestRoundRobin:
    def test_rotation(self, sim):
        arbiter = Arbiter(sim, "round_robin", "a")
        order = []
        for label in ("a", "b", "c"):
            sim.spawn(label, contender(sim, arbiter, label, order, hold=5, rounds=3))
        sim.run()
        granted = [o[0] for o in order]
        # Each requester appears 3 times and no requester gets two grants
        # while others wait.
        assert sorted(granted) == ["a"] * 3 + ["b"] * 3 + ["c"] * 3
        for i in range(len(granted) - 2):
            assert len({granted[i], granted[i + 1], granted[i + 2]}) == 3


class TestRoundRobinWraparound:
    def test_pointer_wraps_past_end_of_rotation_order(self, sim):
        """The rotation pointer must wrap from the last label back to the
        first: after "c" (last in rotation order) wins, the next grant with
        "a" and "b" queued must go to "a", not scan off the end."""
        arbiter = Arbiter(sim, "round_robin", "a")
        order = []
        # Register rotation order a, b, c via first requests; four rounds
        # drive the pointer across the a->b->c->a seam repeatedly.
        for label in ("a", "b", "c"):
            sim.spawn(label, contender(sim, arbiter, label, order, hold=5, rounds=4))
        sim.run()
        granted = [o[0] for o in order]
        assert granted[:3] == ["a", "b", "c"]
        # Every wrap point hands back to "a".
        assert granted == ["a", "b", "c"] * 4

    def test_sole_waiter_grant_advances_pointer(self, sim):
        """Granting a lone waiter must still move the rotation pointer to
        that winner, or the next contended round would double-grant it."""
        arbiter = Arbiter(sim, "round_robin", "a")
        order = []

        def staggered(label, start, rounds):
            def body():
                yield ns(start)
                for _ in range(rounds):
                    yield from arbiter.request(label)
                    order.append((label, sim.now.to_ns()))
                    yield ns(10)
                    arbiter.release(label)

            return body

        # Phase 1: "a" and "b" alternate with single-waiter queues.
        sim.spawn("a", staggered("a", 0, 2))
        sim.spawn("b", staggered("b", 1, 2))
        # Phase 2: both re-contend together with "c"; rotation must resume
        # from wherever the lone-waiter grants left the pointer.
        sim.spawn("a2", staggered("a", 50, 2))
        sim.spawn("b2", staggered("b", 50, 2))
        sim.spawn("c2", staggered("c", 50, 2))
        sim.run()
        granted = [o[0] for o in order]
        tail = granted[4:]
        assert sorted(tail) == ["a", "a", "b", "b", "c", "c"]
        # No requester gets two grants in a row while the others wait.
        for i in range(len(tail) - 1):
            assert tail[i] != tail[i + 1]

    def test_release_while_queued_grants_in_same_instant(self, sim):
        """Ownership transfers inside release(): the winner's grant time is
        the release instant, with no dead cycle in between."""
        arbiter = Arbiter(sim, "fifo", "a")
        order = []
        sim.spawn("x", contender(sim, arbiter, "x", order, hold=10))
        sim.spawn("y", contender(sim, arbiter, "y", order, hold=10))
        sim.run()
        assert order == [("x", 0.0), ("y", 10.0)]
        assert arbiter.contention_count == 1
        assert arbiter.grant_count == 2


class TestTryAcquire:
    def test_uncontended_takes_ownership(self, sim):
        arbiter = Arbiter(sim, "fifo", "a")
        assert arbiter.try_acquire("m")
        assert arbiter.owner == "m"
        assert arbiter.grant_count == 1
        assert arbiter.contention_count == 0

    def test_fails_while_owned(self, sim):
        arbiter = Arbiter(sim, "fifo", "a")
        arbiter.try_acquire("m")
        assert not arbiter.try_acquire("other")
        assert arbiter.owner == "m"
        arbiter.release("m")
        assert arbiter.try_acquire("other")

    def test_matches_request_bookkeeping(self, sim):
        """try_acquire and the uncontended arm of request() are equivalent:
        same owner, counters and rotation-order note."""
        a1 = Arbiter(sim, "round_robin", "a1")
        a1.try_acquire("m")
        a2 = Arbiter(sim, "round_robin", "a2")

        def body():
            yield from a2.request("m")

        sim.spawn("p", body)
        sim.run()
        assert (a1.owner, a1.grant_count, a1._rr_order) == (
            a2.owner, a2.grant_count, a2._rr_order
        )


class TestKilledRequesters:
    """A requester killed while it waits leaves no trace in the arbiter."""

    def _scenario(self, sim, kill_after):
        arbiter = Arbiter(sim, "fifo", "a")
        order = []
        sim.spawn("x", contender(sim, arbiter, "x", order, hold=10))
        victim = sim.spawn("y", contender(sim, arbiter, "y", order))

        def late():
            yield ns(50)
            yield from arbiter.request("z")
            order.append(("z", sim.now.to_ns()))
            arbiter.release("z")

        sim.spawn("z", late)

        def killer():
            for delay in kill_after:
                yield delay
            victim.kill()

        sim.spawn("killer", killer)
        sim.run()
        return arbiter, order

    def test_killed_while_queued_withdraws_its_request(self, sim):
        arbiter, order = self._scenario(sim, [ns(5)])
        assert order == [("x", 0.0), ("z", 50.0)]
        assert arbiter.owner is None
        assert arbiter.waiters == []

    def test_killed_after_grant_passes_ownership_on(self, sim):
        # x releases at 10 ns and grants y; the killer, armed after x's
        # wait, runs next in the same instant and kills y before it resumes.
        arbiter, order = self._scenario(sim, [ns(5), ns(5)])
        assert order == [("x", 0.0), ("z", 50.0)]
        assert arbiter.owner is None

    def test_shared_label_requesters_get_separate_grants(self, sim):
        arbiter = Arbiter(sim, "fifo", "a")
        order = []
        for name in ("p", "q", "r"):
            sim.spawn(name, contender(sim, arbiter, "same", order, hold=10))
        sim.run()
        assert [t for _, t in order] == [0.0, 10.0, 20.0]
        assert arbiter.owner is None


class TestErrors:
    def test_unknown_policy(self, sim):
        with pytest.raises(ValueError, match="unknown arbitration policy"):
            Arbiter(sim, "lottery", "a")

    def test_release_while_idle(self, sim):
        arbiter = Arbiter(sim, "fifo", "a")
        with pytest.raises(SimulationError, match="released while idle"):
            arbiter.release()

    def test_release_by_non_owner(self, sim):
        arbiter = Arbiter(sim, "fifo", "a")

        def body():
            yield from arbiter.request("owner")
            arbiter.release("impostor")

        sim.spawn("p", body)
        with pytest.raises(Exception, match="owner"):
            sim.run()

    def test_waiters_listing(self, sim):
        arbiter = Arbiter(sim, "fifo", "a")

        def holder():
            yield from arbiter.request("holder")
            yield ns(100)
            arbiter.release("holder")

        def waiter():
            yield ns(1)
            yield from arbiter.request("waiter")
            arbiter.release("waiter")

        sim.spawn("h", holder)
        sim.spawn("w", waiter)
        sim.run(until=ns(50))
        assert arbiter.owner == "holder"
        assert arbiter.waiters == ["waiter"]
