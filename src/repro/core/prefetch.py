"""Background context prefetching (MorphoSys-style).

Chapter 3 of the paper: "While the RC array is executing one of the 16
contexts, the other 16 contexts can be reloaded into the context memory."
On technologies with ``background_load`` the inactive slot can be filled
while the active context computes, hiding the reconfiguration latency.

A :class:`ContextPrefetcher` watches the scheduler's switch history and,
after every foreground switch, asks a :class:`NextContextPredictor` for the
likely next context and queues a background load of it.  Predictors:

* :class:`SequencePredictor` — the application's known static schedule
  (the common case in the paper's framed wireless workloads), or, given
  every context name, a round robin over all contexts;
* :class:`MarkovPredictor` — most frequent observed successor of the
  current context (learned online).

Experiment A2 measures the hit rate and the latency hidden.
"""

from __future__ import annotations

import abc
from collections import defaultdict
from typing import Dict, Optional, Sequence

from ..kernel import Module
from .drcf import Drcf


class NextContextPredictor(abc.ABC):
    """Predicts the next context from the foreground switch history."""

    @abc.abstractmethod
    def predict(self, history: Sequence[str]) -> Optional[str]:
        """Name of the context to prefetch, or None for no prediction."""


class SequencePredictor(NextContextPredictor):
    """Follows a known cyclic schedule of context names."""

    def __init__(self, schedule: Sequence[str]) -> None:
        if not schedule:
            raise ValueError("schedule must not be empty")
        self.schedule = list(schedule)

    def predict(self, history: Sequence[str]) -> Optional[str]:
        if not history:
            return self.schedule[0]
        current = history[-1]
        try:
            index = self.schedule.index(current)
        except ValueError:
            return self.schedule[0]
        return self.schedule[(index + 1) % len(self.schedule)]


class MarkovPredictor(NextContextPredictor):
    """First-order successor statistics learned from the history."""

    def predict(self, history: Sequence[str]) -> Optional[str]:
        if len(history) < 2:
            return None
        counts: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for prev, nxt in zip(history, history[1:]):
            counts[prev][nxt] += 1
        successors = counts.get(history[-1])
        if not successors:
            return None
        # Deterministic tie-break by name.
        return max(sorted(successors), key=lambda n: successors[n])


class ContextPrefetcher(Module):
    """Drives background loads on a DRCF after each foreground switch."""

    def __init__(
        self,
        name: str,
        parent=None,
        sim=None,
        *,
        drcf: Drcf,
        predictor: NextContextPredictor,
    ) -> None:
        super().__init__(name, parent=parent, sim=sim)
        self.drcf = drcf
        self.predictor = predictor
        self.predictions = 0
        self.requests_issued = 0
        self.add_thread(self._run, name="prefetch", daemon=True)

    def _run(self):
        scheduler = self.drcf.scheduler
        while True:
            yield scheduler.switch_completed
            prediction = self.predictor.predict(scheduler.switch_history)
            self.predictions += 1
            if prediction is None:
                continue
            if scheduler.active is not None and prediction == scheduler.active.name:
                continue
            if self.drcf.prefetch(prediction) is not None:
                self.requests_issued += 1
