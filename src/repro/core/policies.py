"""Context slot management and replacement policies.

A single-context FPGA (Virtex-II Pro-style) has one slot; a multi-context
device (MorphoSys-style) holds several resident contexts and needs a
*replacement policy* when a new context must be loaded.  The paper leaves
context selection/allocation to ref [5]; we implement the standard policies
as an ablation (experiment A1).

Two slot managers are provided:

* :class:`FixedSlotManager` — N identical slots (the multi-context model).
* :class:`AreaSlotManager` — slots are carved out of a gate-capacity
  budget, so how many contexts fit depends on their sizes.  This models
  *partial reconfiguration* of a partitionable fabric (VariCore "can be
  partitioned where needed", Virtex partial reconfiguration) and backs the
  paper's future-work item on partial reconfiguration (experiment A2).
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..kernel import SimulationError
from .context import Context


@dataclass
class Slot:
    """One resident-context slot."""

    index: int
    context: Optional[Context] = None
    #: Monotonic counter value of the last use (for LRU).
    last_use: int = -1
    #: Counter value when the context was loaded (for FIFO).
    loaded_at: int = -1
    #: True while a (background) load into this slot is in progress.
    loading: bool = False

    @property
    def empty(self) -> bool:
        return self.context is None and not self.loading


class ReplacementPolicy(abc.ABC):
    """Chooses which resident context to evict."""

    name: str = "abstract"

    @abc.abstractmethod
    def choose_victim(self, candidates: Sequence[Slot]) -> Slot:
        """Pick a victim among ``candidates`` (never empty)."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"


class LruPolicy(ReplacementPolicy):
    """Evict the least recently used context."""

    name = "lru"

    def choose_victim(self, candidates: Sequence[Slot]) -> Slot:
        return min(candidates, key=lambda s: (s.last_use, s.index))


class FifoPolicy(ReplacementPolicy):
    """Evict the oldest-loaded context."""

    name = "fifo"

    def choose_victim(self, candidates: Sequence[Slot]) -> Slot:
        return min(candidates, key=lambda s: (s.loaded_at, s.index))


class RandomPolicy(ReplacementPolicy):
    """Evict a pseudo-random context (seeded, reproducible).

    Pass ``rng`` to share one seeded :class:`random.Random` across the
    whole experiment (fault campaigns and DSE runs do, so a single seed
    reproduces the run end to end); otherwise a private generator is
    built from ``seed``.
    """

    name = "random"

    def __init__(self, seed: int = 1, rng: Optional[random.Random] = None) -> None:
        self._rng = rng if rng is not None else random.Random(seed)

    def choose_victim(self, candidates: Sequence[Slot]) -> Slot:
        return candidates[self._rng.randrange(len(candidates))]


class PinnedLruPolicy(ReplacementPolicy):
    """LRU, but contexts in the pinned set are never evicted.

    Models a designer statically locking a hot context into the fabric.
    """

    name = "pinned_lru"

    def __init__(self, pinned: Sequence[str]) -> None:
        self.pinned = set(pinned)
        self._lru = LruPolicy()

    def choose_victim(self, candidates: Sequence[Slot]) -> Slot:
        free = [
            s
            for s in candidates
            if s.context is None or s.context.name not in self.pinned
        ]
        if not free:
            raise SimulationError(
                "pinned_lru: all evictable slots hold pinned contexts "
                f"(pinned={sorted(self.pinned)})"
            )
        return self._lru.choose_victim(free)


POLICIES: Dict[str, type] = {
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "random": RandomPolicy,
}


def make_policy(name: str, **kwargs) -> ReplacementPolicy:
    """Build a policy by name (``lru``/``fifo``/``random``)."""
    try:
        return POLICIES[name](**kwargs)
    except KeyError:
        raise KeyError(f"unknown policy {name!r}; known: {sorted(POLICIES)}") from None


class SlotManager(abc.ABC):
    """Tracks which contexts are resident on the fabric."""

    def __init__(self, policy: ReplacementPolicy) -> None:
        self.policy = policy
        self._tick = 0

    def tick(self) -> int:
        self._tick += 1
        return self._tick

    @abc.abstractmethod
    def slot_of(self, context: Context) -> Optional[Slot]:
        """The slot holding ``context`` (loaded or loading), else None."""

    @abc.abstractmethod
    def allocate(self, context: Context, active: Optional[Context]) -> Slot:
        """A slot into which ``context`` may be loaded, evicting if needed.

        ``active`` is the currently executing context; on a multi-slot
        fabric it must not be evicted to make room (it is running).
        """

    @abc.abstractmethod
    def resident_contexts(self) -> List[Context]:
        """All fully loaded resident contexts."""

    @abc.abstractmethod
    def has_idle_capacity(self, context: Context, active: Optional[Context]) -> bool:
        """True if ``context`` could be loaded without evicting ``active``."""

    def touch(self, slot: Slot, uses: int = 1) -> None:
        """Mark a slot as just used ``uses`` times over (LRU bookkeeping):
        each use draws one tick."""
        self._tick += uses
        slot.last_use = self._tick


class FixedSlotManager(SlotManager):
    """N interchangeable context slots (multi-context device model)."""

    def __init__(self, n_slots: int, policy: ReplacementPolicy) -> None:
        super().__init__(policy)
        if n_slots < 1:
            raise ValueError("need at least one context slot")
        self.slots = [Slot(index=i) for i in range(n_slots)]

    def slot_of(self, context: Context) -> Optional[Slot]:
        for slot in self.slots:
            if slot.context is context:
                return slot
        return None

    def allocate(self, context: Context, active: Optional[Context]) -> Slot:
        for slot in self.slots:
            if slot.empty:
                return slot
        candidates = [
            s
            for s in self.slots
            if s.context is not active and not s.loading
        ]
        if candidates:
            try:
                return self.policy.choose_victim(candidates)
            except SimulationError:
                pass  # e.g. every non-active slot pinned: fall through
        # Single-slot (or fully pinned) fabric: replacing the active
        # context *is* the switch — the scheduler drains it first.
        candidates = [s for s in self.slots if not s.loading]
        if not candidates:
            raise SimulationError("no evictable context slot (all slots loading)")
        return self.policy.choose_victim(candidates)

    def resident_contexts(self) -> List[Context]:
        return [s.context for s in self.slots if s.context is not None and not s.loading]

    def has_idle_capacity(self, context: Context, active: Optional[Context]) -> bool:
        return any(
            s.empty or (s.context is not active and s.context is not context and not s.loading)
            for s in self.slots
        )


class AreaSlotManager(SlotManager):
    """Slots carved from a gate budget (partial-reconfiguration model).

    A context occupies ``context.gates`` of the fabric's ``capacity_gates``.
    Any set of contexts whose total fits is simultaneously resident; when a
    new context does not fit, victims are evicted per policy until it does.
    """

    def __init__(self, capacity_gates: int, policy: ReplacementPolicy) -> None:
        super().__init__(policy)
        if capacity_gates <= 0:
            raise ValueError("fabric capacity must be positive")
        self.capacity_gates = capacity_gates
        self.slots: List[Slot] = []
        self._next_index = 0

    def _used_gates(self) -> int:
        return sum(s.context.gates for s in self.slots if s.context is not None)

    def slot_of(self, context: Context) -> Optional[Slot]:
        for slot in self.slots:
            if slot.context is context:
                return slot
        return None

    def allocate(self, context: Context, active: Optional[Context]) -> Slot:
        if context.gates > self.capacity_gates:
            raise SimulationError(
                f"context {context.name!r} ({context.gates} gates) exceeds "
                f"fabric capacity ({self.capacity_gates} gates)"
            )
        while self._used_gates() + context.gates > self.capacity_gates:
            candidates = [
                s
                for s in self.slots
                if s.context is not None and s.context is not active and not s.loading
            ]
            if not candidates:
                # Only the active context remains: replacing it is the
                # switch itself (single-resident regime).
                candidates = [
                    s for s in self.slots if s.context is not None and not s.loading
                ]
            if not candidates:
                raise SimulationError(
                    "cannot make room: remaining resident contexts are loading"
                )
            victim = self.policy.choose_victim(candidates)
            self.slots.remove(victim)
        slot = Slot(index=self._next_index)
        self._next_index += 1
        self.slots.append(slot)
        return slot

    def resident_contexts(self) -> List[Context]:
        return [s.context for s in self.slots if s.context is not None and not s.loading]

    def has_idle_capacity(self, context: Context, active: Optional[Context]) -> bool:
        # Room without touching the active context: free gates plus gates of
        # evictable residents.
        free = self.capacity_gates - self._used_gates()
        evictable = sum(
            s.context.gates
            for s in self.slots
            if s.context is not None and s.context is not active and s.context is not context and not s.loading
        )
        return free + evictable >= context.gates
