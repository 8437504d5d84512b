"""Bus arbitration policies.

An :class:`Arbiter` serializes access to a shared resource among named
requesters.  Three grant policies are provided:

``fifo``
    First come, first served (ties by request order).
``priority``
    Fixed priority; lower number wins.  Starvation is possible by design —
    the experiment harness uses this to stress the ref-[8] baseline.
``round_robin``
    Rotating priority over requester labels.

The arbiter exposes its owner and wait queue, which the deadlock analyzer
walks to build wait-for chains.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..kernel import Event, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..kernel import Simulator

_POLICIES = ("fifo", "priority", "round_robin")


class Arbiter:
    """Grant-based serializer for a shared bus.

    Usage from a thread process::

        yield from arbiter.request("top.cpu", priority=0)
        ...  # exclusive use
        arbiter.release("top.cpu")
    """

    def __init__(self, sim: "Simulator", policy: str = "fifo", name: str = "arbiter") -> None:
        if policy not in _POLICIES:
            raise ValueError(f"unknown arbitration policy {policy!r}; expected one of {_POLICIES}")
        self.sim = sim
        self.policy = policy
        self.name = name
        self.owner: Optional[str] = None
        self._seq = 0
        # (label, priority, seq, grant_event)
        self._queue: List[Tuple[str, int, int, Event]] = []
        self._rr_order: List[str] = []
        self._rr_index = 0
        # A spare grant event per requester label.  Every queued request
        # takes its own event (two requesters may share a label), and an
        # event comes back here once its request is granted or withdrawn:
        # immediate notifications leave no state behind, so it is inert.
        self._spare_grants: Dict[str, Event] = {}
        self.grant_count = 0
        self.contention_count = 0

    @property
    def busy(self) -> bool:
        return self.owner is not None

    @property
    def idle(self) -> bool:
        """Nobody owns the bus and nobody is queued for it."""
        return self.owner is None and not self._queue

    @property
    def waiters(self) -> List[str]:
        """Labels currently queued, in request order."""
        return [label for label, _, _, _ in self._queue]

    def try_acquire(self, label: str) -> bool:
        """Non-blocking acquire: take ownership iff uncontended.

        Exactly the uncontended arm of :meth:`request` without the
        generator frame — the bus transfer path calls this first so the
        common single-master case never allocates a generator.  Returns
        False when the caller must fall back to ``yield from request()``.
        """
        if self.owner is None and not self._queue:
            self.owner = label
            self.grant_count += 1
            self._note_requester(label)
            return True
        return False

    def book_grants(self, label: str, n: int) -> None:
        """Book ``n`` uncontended grants to ``label`` that were never taken.

        What ``n`` :meth:`try_acquire`/:meth:`release` pairs on an idle
        arbiter leave behind; the bus calls it for the transfers of a
        closed-form burst train or poll train.
        """
        self.grant_count += n
        self._note_requester(label)

    def request(self, label: str, priority: int = 0):
        """Blocking request for ownership (generator; use with ``yield from``)."""
        if self.try_acquire(label):
            return
        grant = self.enqueue(label, priority)
        try:
            yield grant
        except GeneratorExit:
            self.withdraw(label, grant)
            raise
        # The grant handler has already set self.owner = label.

    def enqueue(self, label: str, priority: int = 0) -> Event:
        """Queue a contended request and return its grant event.

        The transfer path yields the returned event directly (after a
        failed :meth:`try_acquire`) instead of delegating into the
        :meth:`request` generator, saving a frame per contended transfer.
        When the event fires, ownership has already been transferred.  The
        event belongs to this request alone; a requester killed while it
        waits must :meth:`withdraw` it.
        """
        self.contention_count += 1
        self._note_requester(label)
        self._seq += 1
        grant = self._spare_grants.pop(label, None)
        if grant is None:
            grant = Event(self.sim, f"{self.name}.grant.{label}")
        self._queue.append((label, priority, self._seq, grant))
        return grant

    def withdraw(self, label: str, grant: Event) -> None:
        """Retract the request behind ``grant``: its requester was killed.

        A request still queued leaves the queue.  One already granted —
        the requester died between the grant and its resumption — passes
        the bus on, so a dead requester never keeps it.
        """
        for index, entry in enumerate(self._queue):
            if entry[3] is grant:
                del self._queue[index]
                self._spare_grants[label] = grant
                return
        self.release(label)

    def release(self, label: Optional[str] = None) -> None:
        """Release ownership and grant the next requester per policy."""
        if self.owner is None:
            raise SimulationError(f"arbiter {self.name} released while idle")
        if label is not None and label != self.owner:
            raise SimulationError(
                f"arbiter {self.name}: {label} released but owner is {self.owner}"
            )
        self.owner = None
        if not self._queue:
            return
        index = self._select_next()
        winner, _prio, _seq, grant = self._queue.pop(index)
        self.owner = winner
        self.grant_count += 1
        grant.notify()  # immediate: winner resumes in this evaluation phase
        self._spare_grants[winner] = grant

    # -- policy selection ------------------------------------------------------
    def _select_next(self) -> int:
        if len(self._queue) == 1:
            # Every policy grants the sole waiter; round robin must still
            # advance its rotation pointer to the winner.
            if self.policy == "round_robin":
                self._rr_index = self._rr_order.index(self._queue[0][0])
            return 0
        if self.policy == "fifo":
            return min(range(len(self._queue)), key=lambda i: self._queue[i][2])
        if self.policy == "priority":
            return min(range(len(self._queue)), key=lambda i: (self._queue[i][1], self._queue[i][2]))
        # round robin: scan labels after the last winner
        order = self._rr_order
        n = len(order)
        for offset in range(1, n + 1):
            label = order[(self._rr_index + offset) % n]
            for i, entry in enumerate(self._queue):
                if entry[0] == label:
                    self._rr_index = (self._rr_index + offset) % n
                    return i
        return 0  # pragma: no cover - queue labels always registered

    def _note_requester(self, label: str) -> None:
        if label not in self._rr_order:
            self._rr_order.append(label)

    def __repr__(self) -> str:
        return f"Arbiter({self.name!r}, policy={self.policy}, owner={self.owner!r})"
