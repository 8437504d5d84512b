"""Blocking channels: FIFO, mutex and semaphore.

These are the ``sc_fifo`` / ``sc_mutex`` / ``sc_semaphore`` analogues.  All
blocking operations are generator methods used with ``yield from`` inside
thread processes::

    yield from fifo.put(item)
    item = yield from fifo.get()
    yield from mutex.lock()
    ...
    mutex.unlock()

The mutex records its current owner process name, which the deadlock
analyzer uses to reconstruct wait-for chains (paper Section 5.4,
limitation 3).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Generic, List, Optional, TypeVar

from .errors import SimulationError
from .event import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .simulator import Simulator

T = TypeVar("T")


class Fifo(Generic[T]):
    """A bounded FIFO with blocking put/get.

    ``capacity=None`` gives an unbounded FIFO (put never blocks).
    """

    def __init__(self, sim: "Simulator", capacity: Optional[int] = 16, name: str = "fifo") -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("fifo capacity must be positive or None")
        self.sim = sim
        self.name = name
        sim._kernel_objects.add(self)
        self.capacity = capacity
        self._items: Deque[T] = deque()
        self._data_written = Event(sim, f"{name}.data_written")
        self._data_read = Event(sim, f"{name}.data_read")

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._items

    def nb_put(self, item: T) -> bool:
        """Non-blocking put; returns False when full."""
        if self.is_full:
            return False
        self._items.append(item)
        self._data_written.notify_delta()
        return True

    def nb_get(self) -> Optional[T]:
        """Non-blocking get; returns None when empty."""
        if not self._items:
            return None
        item = self._items.popleft()
        self._data_read.notify_delta()
        return item

    def put(self, item: T):
        """Blocking put (generator; use with ``yield from``)."""
        while self.is_full:
            yield self._data_read
        self._items.append(item)
        self._data_written.notify_delta()

    def get(self):
        """Blocking get (generator; use with ``yield from``). Returns the item."""
        while not self._items:
            yield self._data_written
        item = self._items.popleft()
        self._data_read.notify_delta()
        return item


class _MutexWaiter:
    """One queued acquirer: its label, private grant event, and grant flag.

    A token per waiter (rather than a shared released-event plus label list)
    makes the hand-off race-free: ``unlock`` wakes exactly one waiter, and a
    killed waiter removes *its own* token even when several waiters share a
    label.
    """

    __slots__ = ("label", "event", "granted")

    def __init__(self, label: str, event: Event) -> None:
        self.label = label
        self.event = event
        self.granted = False


class Mutex:
    """A mutual-exclusion lock with FIFO granting and owner tracking.

    ``unlock`` hands the lock *directly* to the longest waiter: ownership
    transfers before any other process runs, so a ``try_lock`` issued
    between release and the waiter's resumption cannot barge in.
    """

    def __init__(self, sim: "Simulator", name: str = "mutex") -> None:
        self.sim = sim
        self.name = name
        sim._kernel_objects.add(self)
        self._locked = False
        #: Name of the owning process/agent (caller-supplied label).
        self.owner: Optional[str] = None
        self._wait_queue: List[_MutexWaiter] = []
        self._seq = 0
        self.contention_count = 0

    @property
    def locked(self) -> bool:
        return self._locked

    @property
    def waiters(self) -> List[str]:
        """Labels of agents currently queued for the lock."""
        return [token.label for token in self._wait_queue]

    def try_lock(self, owner: str = "?") -> bool:
        """Non-blocking acquire."""
        if self._locked:
            return False
        self._locked = True
        self.owner = owner
        return True

    def lock(self, owner: str = "?"):
        """Blocking acquire (generator; use with ``yield from``)."""
        if not self._locked:
            self._locked = True
            self.owner = owner
            return
        self.contention_count += 1
        self._seq += 1
        token = _MutexWaiter(owner, Event(self.sim, f"{self.name}.grant.{self._seq}"))
        self._wait_queue.append(token)
        try:
            while not token.granted:
                yield token.event
        except GeneratorExit:
            if token.granted:
                # Granted but the waiter died before resuming: pass it on.
                self.unlock()
            else:
                self._wait_queue.remove(token)
            raise

    def unlock(self) -> None:
        """Release; ownership passes directly to the longest waiter."""
        if not self._locked:
            raise SimulationError(f"mutex {self.name} unlocked while not locked")
        if self._wait_queue:
            token = self._wait_queue.pop(0)
            token.granted = True
            # The lock stays held across the hand-off; only the owner label
            # changes.  No instant exists where try_lock could succeed.
            self.owner = token.label
            token.event.notify()  # immediate: winner resumes in this phase
            return
        self._locked = False
        self.owner = None


class Semaphore:
    """A counting semaphore with blocking wait."""

    def __init__(self, sim: "Simulator", initial: int, name: str = "semaphore") -> None:
        if initial < 0:
            raise ValueError("semaphore initial value must be >= 0")
        self.sim = sim
        self.name = name
        sim._kernel_objects.add(self)
        self._count = initial
        self._posted = Event(sim, f"{name}.posted")

    @property
    def count(self) -> int:
        return self._count

    def try_wait(self) -> bool:
        """Non-blocking decrement."""
        if self._count <= 0:
            return False
        self._count -= 1
        return True

    def wait(self):
        """Blocking decrement (generator; use with ``yield from``)."""
        while self._count <= 0:
            yield self._posted
        self._count -= 1

    def post(self) -> None:
        """Increment and wake one waiter."""
        self._count += 1
        self._posted.notify()
