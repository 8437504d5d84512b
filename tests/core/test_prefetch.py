"""Prefetch predictors and the background-loading driver."""

import pytest

from repro.core import (
    ContextPrefetcher,
    MarkovPredictor,
    SequencePredictor,
)
from tests.core.helpers import DrcfRig, small_tech


class TestPredictors:
    def test_sequence_follows_schedule(self):
        predictor = SequencePredictor(["a", "b", "c"])
        assert predictor.predict([]) == "a"
        assert predictor.predict(["a"]) == "b"
        assert predictor.predict(["a", "b", "c"]) == "a"  # wraps
        assert predictor.predict(["zzz"]) == "a"  # unknown resets

    def test_sequence_rejects_empty(self):
        with pytest.raises(ValueError):
            SequencePredictor([])

    def test_markov_learns_successors(self):
        predictor = MarkovPredictor()
        history = ["a", "b", "a", "b", "a", "c", "a", "b", "a"]
        # 'a' is followed by 'b' 3 times, by 'c' once.
        assert predictor.predict(history) == "b"

    def test_markov_needs_history(self):
        predictor = MarkovPredictor()
        assert predictor.predict([]) is None
        assert predictor.predict(["a"]) is None

    def test_markov_unseen_current(self):
        predictor = MarkovPredictor()
        assert predictor.predict(["a", "b", "z"]) is None


class TestPrefetcherModule:
    def _run(self, accesses, predictor, n_contexts=3):
        tech = small_tech(context_slots=2, background_load=True)
        rig = DrcfRig(n_contexts=n_contexts, tech=tech, context_gates=2000)
        prefetcher = ContextPrefetcher(
            "pf", sim=rig.sim, drcf=rig.drcf, predictor=predictor
        )

        def body():
            for index in accesses:
                yield from rig.master_read(rig.addr(index))

        rig.sim.spawn("p", body)
        rig.sim.run()
        return rig, prefetcher

    def test_perfect_prediction_hides_fetches(self):
        accesses = [0, 1, 2, 0, 1, 2]
        rig, prefetcher = self._run(
            accesses, SequencePredictor(["s0", "s1", "s2"])
        )
        stats = rig.drcf.stats
        assert prefetcher.requests_issued > 0
        assert stats.prefetch_hits > 0
        # Foreground fetch misses strictly fewer than without prefetch
        # (which would be 6: every access switches on a 2-slot LRU cycle).
        assert stats.fetch_misses < 6

    def test_prefetch_disabled_without_background_load(self):
        rig = DrcfRig(n_contexts=2, tech=small_tech(context_slots=2))
        prefetcher = ContextPrefetcher(
            "pf", sim=rig.sim, drcf=rig.drcf,
            predictor=SequencePredictor(["s0", "s1"]),
        )

        def body():
            yield from rig.master_read(rig.addr(0))
            yield from rig.master_read(rig.addr(1))

        rig.sim.spawn("p", body)
        rig.sim.run()
        assert prefetcher.requests_issued == 0
        assert rig.drcf.stats.background_loads == 0

    def test_no_self_prefetch(self):
        # Predicting the active context issues nothing.
        rig, prefetcher = self._run([0, 0, 0], SequencePredictor(["s0"]))
        assert prefetcher.requests_issued == 0

    def test_end_to_end_speedup_with_overlap_window(self):
        """Prefetch pays off when computation/idle time between invocations
        gives the background load something to overlap with."""
        from repro.kernel import us

        accesses = [0, 1, 2] * 3
        tech = small_tech(context_slots=2, background_load=True)

        def body(rig):
            def run():
                for index in accesses:
                    yield from rig.master_read(rig.addr(index))
                    yield us(40)  # think time: the overlap window

            return run

        rig_plain = DrcfRig(n_contexts=3, tech=tech, context_gates=2000)
        rig_plain.sim.spawn("p", body(rig_plain))
        rig_plain.sim.run()
        t_plain = rig_plain.sim.now

        rig_pf = DrcfRig(n_contexts=3, tech=tech, context_gates=2000)
        ContextPrefetcher(
            "pf", sim=rig_pf.sim, drcf=rig_pf.drcf,
            predictor=SequencePredictor(["s0", "s1", "s2"]),
        )
        rig_pf.sim.spawn("p", body(rig_pf))
        rig_pf.sim.run()
        assert rig_pf.sim.now < t_plain
        assert rig_pf.drcf.stats.prefetch_hits > 0
