"""Property-based invariants of the context scheduler over random access
sequences (the core correctness arguments of the methodology)."""

from hypothesis import given, settings, strategies as st

from repro.core import ContextPrefetcher, SequencePredictor
from repro.kernel import ZERO_TIME
from tests.core.helpers import DrcfRig, small_tech

access_sequences = st.lists(st.integers(0, 3), min_size=1, max_size=12)
slot_counts = st.integers(1, 3)


def run_sequence(rig, accesses, payload_offset=4):
    """Drive reads/writes for each access; returns written-value model."""
    model = {}

    def body():
        for step, index in enumerate(accesses):
            value = 1000 + step
            yield from rig.master_write(rig.addr(index, payload_offset), value)
            model[index] = value
            data = yield from rig.master_read(rig.addr(index, payload_offset))
            assert data == [model[index]]

    rig.sim.spawn("p", body)
    rig.sim.run()
    return model


class TestSchedulerInvariants:
    @given(access_sequences, slot_counts)
    @settings(max_examples=30, deadline=None)
    def test_traffic_switches_and_residency(self, accesses, n_slots):
        tech = small_tech(context_slots=n_slots)
        rig = DrcfRig(n_contexts=4, tech=tech, context_gates=400)
        run_sequence(rig, accesses)
        stats = rig.drcf.stats
        words_per_context = rig.drcf.contexts[0].params.config_words(4)

        # 1. Bus config traffic equals fetch misses times context words.
        assert (
            rig.bus.monitor.words_by_tag("config")
            == stats.fetch_misses * words_per_context
            == stats.total_config_words
        )

        # 2. Every change of target context is a switch; repeats are free.
        expected_switches = 1 + sum(
            1 for a, b in zip(accesses, accesses[1:]) if a != b
        )
        assert stats.total_switches == expected_switches
        assert stats.fetch_misses + stats.resident_hits == expected_switches

        # 3. With a single slot every switch is a miss.
        if n_slots == 1:
            assert stats.resident_hits == 0

        # 4. Residency bounded by slot count; last context resident+active.
        resident = rig.drcf.resident_context_names()
        assert len(resident) <= n_slots
        assert rig.drcf.active_context_name == f"s{accesses[-1]}"
        assert f"s{accesses[-1]}" in resident

        # 5. Instrumentation is conservative: busy components of the
        # observation window never exceed the wall clock.
        total = rig.sim.now
        assert stats.total_reconfig_time <= total
        assert stats.total_active_time <= total

        # 6. Per-context calls sum to the number of accesses (1 write +
        # 1 read each).
        assert stats.total_calls == 2 * len(accesses)

    @given(access_sequences)
    @settings(max_examples=15, deadline=None)
    def test_functional_state_preserved_across_switches(self, accesses):
        """Context switching must never corrupt wrapped-module state."""
        rig = DrcfRig(n_contexts=4, tech=small_tech(context_slots=1), context_gates=300)
        final_model = run_sequence(rig, accesses)

        # Read everything back once more after arbitrary switching.
        def verify():
            for index, value in sorted(final_model.items()):
                data = yield from rig.master_read(rig.addr(index, 4))
                assert data == [value]

        rig.sim.spawn("v", verify)
        rig.sim.run()

    @given(access_sequences, st.integers(16, 128))
    @settings(max_examples=15, deadline=None)
    def test_burst_length_does_not_change_total_traffic(self, accesses, burst):
        results = []
        for b in (burst, 64):
            rig = DrcfRig(
                n_contexts=4,
                tech=small_tech(context_slots=1),
                context_gates=500,
                config_burst_words=b,
            )
            run_sequence(rig, accesses)
            results.append(rig.bus.monitor.words_by_tag("config"))
        assert results[0] == results[1]


class TestPrefetchInvariants:
    @given(access_sequences)
    @settings(max_examples=15, deadline=None)
    def test_prefetch_never_changes_results_or_foreground_counts(self, accesses):
        tech = small_tech(context_slots=2, background_load=True)

        def run(with_prefetch):
            rig = DrcfRig(n_contexts=4, tech=tech, context_gates=300)
            if with_prefetch:
                ContextPrefetcher(
                    "pf",
                    sim=rig.sim,
                    drcf=rig.drcf,
                    predictor=SequencePredictor([f"s{i}" for i in range(4)]),
                )
            model = run_sequence(rig, accesses)
            return model, rig.drcf.stats

        model_plain, stats_plain = run(False)
        model_pf, stats_pf = run(True)
        # Functional results identical — prefetch (even mispredicting, which
        # can pollute slots and *add* misses) never changes behaviour.
        assert model_plain == model_pf
        # Foreground switch count is workload-determined, prefetch or not.
        assert stats_pf.total_switches == stats_plain.total_switches

    @given(access_sequences)
    @settings(max_examples=15, deadline=None)
    def test_oracle_prefetch_reduces_to_single_miss(self, accesses):
        """With a perfect next-context oracle and 2 slots, only the very
        first context load is a foreground fetch miss."""
        from repro.core import NextContextPredictor

        switch_seq = []
        for index in accesses:
            name = f"s{index}"
            if not switch_seq or switch_seq[-1] != name:
                switch_seq.append(name)

        class Oracle(NextContextPredictor):
            def predict(self, history):
                if len(history) < len(switch_seq):
                    return switch_seq[len(history)]
                return None

        tech = small_tech(context_slots=2, background_load=True)
        rig = DrcfRig(n_contexts=4, tech=tech, context_gates=300)
        ContextPrefetcher("pf", sim=rig.sim, drcf=rig.drcf, predictor=Oracle())
        run_sequence(rig, accesses)
        stats = rig.drcf.stats
        assert stats.fetch_misses == 1
        # Every later switch was served from a resident slot — either just
        # prefetched or still resident from an earlier activation.
        assert stats.resident_hits == len(switch_seq) - 1
        if len(switch_seq) > 1:
            assert stats.prefetch_hits >= 1
