"""Golden-trace guard for the kernel hot-path refactor.

The expected values below were recorded by running
``determinism_scenario.build_and_run`` on the pre-refactor (seed) kernel
(commit 255a71e, O(n) update/delta queues and list-backed waiter sets).
The refactored kernel must reproduce the event ordering, the per-instant
delta-cycle counts, and every SimulatorStats counter exactly.
"""

from tests.kernel.determinism_scenario import build_and_run

EXPECTED_STATS = {
    # 53 on the seed kernel; the mutex direct hand-off removed one spurious
    # wakeup (losers of a lock race are no longer resumed just to re-block).
    # The observable trace below is unchanged.
    "process_executions": 52,
    "delta_cycles": 7,
    "timed_activations": 21,
    "signal_updates": 4,
    # Timed waits burst trains advanced in place: 0, since this
    # scenario issues no burst train.
    "in_place_advances": 0,
}

EXPECTED_END_FS = 13_000_000
EXPECTED_EVENT_COUNTS = [2, 2, 2]

EXPECTED_TRACE = [
    (0, 0, "m:1"),
    (0, 0, "drv:start"),
    (0, 0, "put:0"),
    (0, 0, "put:1"),
    (0, 0, "w1:fired"),
    (1_000_000, 0, "lock:a"),
    (1_000_000, 1, "w3:fired"),
    (1_000_000, 1, "any1:e3"),
    (1_000_000, 1, "m:2"),
    (1_000_000, 1, "w2:fired"),
    (2_000_000, 1, "w3:fired"),
    (3_000_000, 1, "got:0"),
    (3_000_000, 2, "put:2"),
    (5_000_000, 2, "got:1"),
    (5_000_000, 3, "put:3"),
    (6_000_000, 3, "unlock:a"),
    (6_000_000, 3, "lock:b"),
    (7_000_000, 3, "all:done"),
    (7_000_000, 3, "w1:fired"),
    (7_000_000, 3, "got:2"),
    (7_000_000, 3, "unlock:b"),
    (7_000_000, 3, "lock:c"),
    (8_000_000, 3, "m:3"),
    (8_000_000, 3, "unlock:c"),
    (9_000_000, 3, "got:3"),
    (9_000_000, 4, "m:4"),
    (9_000_000, 4, "any2:e2"),
    (9_000_000, 4, "w2:fired"),
    (10_000_000, 5, "sig=2"),
    (11_000_000, 6, "pos"),
    (12_000_000, 7, "neg"),
    (13_000_000, 7, "drv:done"),
]


class TestSchedulerDeterminism:
    def test_trace_matches_seed_kernel(self):
        result = build_and_run()
        assert result["trace"] == EXPECTED_TRACE

    def test_stats_counters_match_seed_kernel(self):
        result = build_and_run()
        assert result["stats"] == EXPECTED_STATS
        assert result["delta_count"] == EXPECTED_STATS["delta_cycles"]

    def test_end_state_matches_seed_kernel(self):
        result = build_and_run()
        assert result["end_fs"] == EXPECTED_END_FS
        assert result["e_counts"] == EXPECTED_EVENT_COUNTS
        assert result["pending_timed"] == 0

    def test_repeatable_within_process(self):
        assert build_and_run() == build_and_run()

    def test_cancel_renotify_fires_in_new_queue_position(self):
        # The (1 ns, delta 1) block: e2 was queued first, canceled, and
        # requeued after e3 — so e3's waiters fire before e2's.
        result = build_and_run()
        at_1ns_d1 = [tag for t, d, tag in result["trace"] if t == 1_000_000 and d == 1]
        assert at_1ns_d1.index("w3:fired") < at_1ns_d1.index("w2:fired")
