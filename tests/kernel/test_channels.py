"""FIFO, mutex, semaphore: blocking semantics, fairness, bookkeeping."""

import pytest

from repro.kernel import Fifo, Mutex, Semaphore, SimulationError, ns


class TestFifo:
    def test_put_get_order(self, sim):
        fifo = Fifo(sim, capacity=8, name="f")
        out = []

        def producer():
            for i in range(5):
                yield from fifo.put(i)

        def consumer():
            for _ in range(5):
                item = yield from fifo.get()
                out.append(item)

        sim.spawn("p", producer)
        sim.spawn("c", consumer)
        sim.run()
        assert out == [0, 1, 2, 3, 4]

    def test_put_blocks_when_full(self, sim):
        fifo = Fifo(sim, capacity=2, name="f")
        timeline = []

        def producer():
            for i in range(4):
                yield from fifo.put(i)
                timeline.append(("put", i, sim.now.to_ns()))

        def consumer():
            yield ns(10)
            for _ in range(4):
                yield from fifo.get()
                yield ns(10)

        sim.spawn("p", producer)
        sim.spawn("c", consumer)
        sim.run()
        # Third put had to wait for the consumer's first get at t=10.
        assert timeline[0][2] == 0.0 and timeline[1][2] == 0.0
        assert timeline[2][2] == 10.0

    def test_get_blocks_when_empty(self, sim):
        fifo = Fifo(sim, capacity=2, name="f")
        got = []

        def consumer():
            item = yield from fifo.get()
            got.append((item, sim.now.to_ns()))

        def producer():
            yield ns(5)
            yield from fifo.put(42)

        sim.spawn("c", consumer)
        sim.spawn("p", producer)
        sim.run()
        assert got == [(42, 5.0)]

    def test_nb_operations(self, sim):
        fifo = Fifo(sim, capacity=1, name="f")
        assert fifo.nb_get() is None
        assert fifo.nb_put(1)
        assert not fifo.nb_put(2)  # full
        assert fifo.is_full
        assert fifo.nb_get() == 1
        assert fifo.is_empty

    def test_unbounded_fifo_never_full(self, sim):
        fifo = Fifo(sim, capacity=None, name="f")
        for i in range(1000):
            assert fifo.nb_put(i)
        assert not fifo.is_full
        assert len(fifo) == 1000

    def test_invalid_capacity(self, sim):
        with pytest.raises(ValueError):
            Fifo(sim, capacity=0)


class TestMutex:
    def test_fifo_granting(self, sim):
        mutex = Mutex(sim, "m")
        order = []

        def agent(label, hold_ns):
            def body():
                yield from mutex.lock(label)
                order.append((label, sim.now.to_ns()))
                yield ns(hold_ns)
                mutex.unlock()

            return body

        sim.spawn("a", agent("a", 10))
        sim.spawn("b", agent("b", 10))
        sim.spawn("c", agent("c", 10))
        sim.run()
        assert order == [("a", 0.0), ("b", 10.0), ("c", 20.0)]

    def test_try_lock(self, sim):
        mutex = Mutex(sim, "m")
        assert mutex.try_lock("x")
        assert not mutex.try_lock("y")
        assert mutex.owner == "x"
        mutex.unlock()
        assert mutex.owner is None

    def test_unlock_while_unlocked_rejected(self, sim):
        mutex = Mutex(sim, "m")
        with pytest.raises(SimulationError, match="not locked"):
            mutex.unlock()

    def test_waiters_visible(self, sim):
        mutex = Mutex(sim, "m")
        mutex.try_lock("owner")

        def blocked():
            yield from mutex.lock("late")

        sim.spawn("late", blocked)
        sim.run()
        assert mutex.waiters == ["late"]
        assert mutex.contention_count == 1

    def test_reentrant_use_after_release(self, sim):
        mutex = Mutex(sim, "m")
        count = []

        def body():
            for _ in range(3):
                yield from mutex.lock("p")
                count.append(sim.now.to_ns())
                mutex.unlock()
                yield ns(1)

        sim.spawn("p", body)
        sim.run()
        assert len(count) == 3


class TestMutexHandoff:
    """Direct FIFO hand-off: unlock transfers ownership before anyone runs."""

    def test_no_barging_between_unlock_and_resume(self, sim):
        mutex = Mutex(sim, "m")
        log = []

        def holder():
            yield from mutex.lock("holder")
            yield ns(10)
            mutex.unlock()
            # The waiter has not resumed yet, but ownership already moved:
            # a try_lock in this window must lose.
            log.append(("barge", mutex.try_lock("barger")))
            log.append(("owner", mutex.owner))

        def waiter():
            yield ns(1)  # queue behind the holder
            yield from mutex.lock("waiter")
            log.append(("acquired", sim.now.to_ns()))
            mutex.unlock()

        sim.spawn("h", holder)
        sim.spawn("w", waiter)
        sim.run()
        assert ("barge", False) in log
        assert ("owner", "waiter") in log
        assert ("acquired", 10.0) in log

    def test_exactly_one_waiter_wakes_per_unlock(self, sim):
        mutex = Mutex(sim, "m")
        wakeups = []
        acquisitions = []

        def contender(label):
            def body():
                yield from mutex.lock(label)
                wakeups.append(label)
                acquisitions.append((label, sim.now.to_ns()))
                yield ns(10)
                mutex.unlock()

            return body

        for label in ("a", "b", "c", "d"):
            sim.spawn(label, contender(label))
        sim.run()
        # FIFO order, one grant per release, 10 ns apart — losers are never
        # resumed just to re-block (no thundering herd on the lock).
        assert acquisitions == [
            ("a", 0.0), ("b", 10.0), ("c", 20.0), ("d", 30.0)
        ]
        assert wakeups == ["a", "b", "c", "d"]

    def test_killed_waiter_removes_its_own_entry_with_shared_labels(self, sim):
        mutex = Mutex(sim, "m")
        mutex.try_lock("holder")
        acquired = []

        def waiter(tag):
            def body():
                yield from mutex.lock("shared")  # same label on purpose
                acquired.append(tag)
                mutex.unlock()

            return body

        sim.spawn("w1", waiter("w1"))
        w2 = sim.spawn("w2", waiter("w2"))

        def controller():
            yield ns(5)
            w2.kill()  # must remove w2's entry, not the first "shared" entry
            yield ns(5)
            mutex.unlock()

        sim.spawn("ctl", controller)
        sim.run()
        assert acquired == ["w1"]
        assert not mutex.locked
        assert mutex.waiters == []

    def test_waiter_killed_after_grant_passes_lock_on(self, sim):
        mutex = Mutex(sim, "m")
        mutex.try_lock("holder")
        acquired = []

        def waiter(label):
            def body():
                yield from mutex.lock(label)
                acquired.append(label)
                mutex.unlock()

            return body

        doomed = sim.spawn("doomed", waiter("doomed"))
        sim.spawn("next", waiter("next"))

        def controller():
            yield ns(5)
            mutex.unlock()  # grants "doomed" (not yet resumed) ...
            doomed.kill()  # ... who dies holding the grant: must pass it on

        sim.spawn("ctl", controller)
        sim.run()
        assert acquired == ["next"]
        assert not mutex.locked
        assert mutex.owner is None


class TestSemaphore:
    def test_counting(self, sim):
        sem = Semaphore(sim, 2, "s")
        grants = []

        def worker(label):
            def body():
                yield from sem.wait()
                grants.append((label, sim.now.to_ns()))
                yield ns(10)
                sem.post()

            return body

        for label in ("a", "b", "c"):
            sim.spawn(label, worker(label))
        sim.run()
        at_zero = [g for g in grants if g[1] == 0.0]
        assert len(at_zero) == 2  # two tokens available immediately
        assert ("c", 10.0) in grants

    def test_try_wait(self, sim):
        sem = Semaphore(sim, 1, "s")
        assert sem.try_wait()
        assert not sem.try_wait()
        sem.post()
        assert sem.count == 1

    def test_negative_initial_rejected(self, sim):
        with pytest.raises(ValueError):
            Semaphore(sim, -1)

    def test_thundering_herd_single_post_admits_exactly_one(self, sim):
        """One post with five blocked waiters lets exactly one through.

        The posted event wakes every waiter in the same instant; all but one
        must re-check the count and go back to sleep — the count can never
        be driven negative by the herd.
        """
        sem = Semaphore(sim, 0, "s")
        through = []

        def waiter(label):
            def body():
                yield from sem.wait()
                through.append((label, sim.now.to_ns()))

            return body

        for i in range(5):
            sim.spawn(f"w{i}", waiter(f"w{i}"))

        def poster():
            yield ns(5)
            sem.post()

        sim.spawn("poster", poster)
        sim.run()
        assert len(through) == 1
        assert through[0][1] == 5.0
        assert sem.count == 0

    def test_herd_with_multiple_posts_admits_exactly_that_many(self, sim):
        sem = Semaphore(sim, 0, "s")
        through = []

        def waiter(label):
            def body():
                yield from sem.wait()
                through.append(label)

            return body

        for i in range(5):
            sim.spawn(f"w{i}", waiter(f"w{i}"))

        def poster():
            yield ns(5)
            sem.post()
            sem.post()
            sem.post()

        sim.spawn("poster", poster)
        sim.run()
        assert len(through) == 3
        assert sem.count == 0


class TestFifoCapacityRaces:
    def test_two_blocked_producers_one_slot(self, sim):
        """A single get wakes both blocked producers; only one may append.

        The loser must re-check ``is_full`` after the race and block again —
        the FIFO can never exceed its capacity.
        """
        fifo = Fifo(sim, capacity=1, name="f")
        fifo.nb_put("seed")
        high_water = []

        def producer(item):
            def body():
                yield from fifo.put(item)
                high_water.append(len(fifo._items))

            return body

        sim.spawn("p1", producer("p1"))
        sim.spawn("p2", producer("p2"))
        got = []

        def consumer():
            yield ns(5)
            got.append((yield from fifo.get()))
            yield ns(5)
            got.append((yield from fifo.get()))
            yield ns(5)
            got.append((yield from fifo.get()))

        sim.spawn("c", consumer)
        sim.run()
        assert got == ["seed", "p1", "p2"]
        assert max(high_water) <= fifo.capacity

    def test_two_blocked_consumers_one_item(self, sim):
        """A single put wakes both blocked consumers; only one may pop."""
        fifo = Fifo(sim, capacity=4, name="f")
        got = []

        def consumer(label):
            def body():
                item = yield from fifo.get()
                got.append((label, item, sim.now.to_ns()))

            return body

        sim.spawn("c1", consumer("c1"))
        sim.spawn("c2", consumer("c2"))

        def producer():
            yield ns(5)
            yield from fifo.put("x")
            yield ns(5)
            yield from fifo.put("y")

        sim.spawn("p", producer)
        sim.run()
        assert sorted(g[1] for g in got) == ["x", "y"]
        assert [g[2] for g in got] == [5.0, 10.0]
        assert fifo.is_empty
