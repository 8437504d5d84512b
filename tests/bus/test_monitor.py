"""Bus monitor aggregation over its one record type."""

from hypothesis import given, settings, strategies as st

from repro.bus import BusMonitor, Transaction, TrainRecord
from repro.kernel import ZERO_TIME, fs, ns, us


def one_read(
    kind="read", master="cpu", slave="mem", words=4, issued=0, granted=0, done=40, tags=(),
    status="ok",
):
    """The one-read record of a transfer that ran through the kernel
    (times in ns)."""
    return TrainRecord(
        kind=kind,
        master=master,
        slave=slave,
        addr=0x1000,
        stride=0,
        burst_words=words,
        bursts=1,
        start_fs=ns(issued).femtoseconds,
        burst_fs=ns(done - granted).femtoseconds,
        tags=tuple(tags),
        wait_fs=ns(granted - issued).femtoseconds,
        status=status,
    )


def as_record(txn):
    """The one-read record the bus keeps for ``txn`` had it run through
    the kernel."""
    issued, granted = txn.issued_at.femtoseconds, txn.granted_at.femtoseconds
    return TrainRecord(
        kind=txn.kind,
        master=txn.master,
        slave=txn.slave,
        addr=txn.addr,
        stride=0,
        burst_words=txn.words,
        bursts=1,
        start_fs=issued,
        burst_fs=txn.completed_at.femtoseconds - granted,
        tags=tuple(txn.tags),
        wait_fs=granted - issued,
        status=txn.status,
    )


class TestAggregation:
    def test_word_totals_and_tags(self):
        monitor = BusMonitor()
        monitor.record(one_read(words=4))
        monitor.record(one_read(words=8, tags=["config"]))
        assert monitor.total_words == 12
        assert monitor.words_by_tag("config") == 8
        assert monitor.words_without_tag("config") == 4
        assert monitor.transaction_count == 2

    def test_per_master_per_slave(self):
        monitor = BusMonitor()
        monitor.record(one_read(master="cpu", words=2))
        monitor.record(one_read(master="dma", slave="cfg", words=6))
        assert monitor.words_by_master() == {"cpu": 2, "dma": 6}
        assert monitor.words_by_slave() == {"mem": 2, "cfg": 6}

    def test_busy_time_and_utilization(self):
        monitor = BusMonitor()
        monitor.record(one_read(granted=0, done=40))
        monitor.record(one_read(granted=50, done=70))
        assert monitor.busy_time() == ns(60)
        assert abs(monitor.utilization(ns(120)) - 0.5) < 1e-9
        assert monitor.utilization(ZERO_TIME) == 0.0

    def test_arbitration_waits(self):
        monitor = BusMonitor()
        monitor.record(one_read(issued=0, granted=10, done=20))
        monitor.record(one_read(issued=0, granted=30, done=40, master="dma"))
        assert monitor.mean_arbitration_wait() == ns(20)
        assert monitor.mean_arbitration_wait("dma") == ns(30)
        assert monitor.max_arbitration_wait() == ns(30)
        assert monitor.mean_arbitration_wait("ghost") == ZERO_TIME
        assert BusMonitor().max_arbitration_wait() == ZERO_TIME

    def test_transaction_properties(self):
        (t,) = one_read(issued=5, granted=10, done=40).expand()
        assert t.arbitration_wait == ns(5)
        assert t.latency == ns(35)
        assert not t.has_tag("config")

    def test_errors_are_counted(self):
        monitor = BusMonitor()
        monitor.record(one_read(status="error", done=30))
        monitor.record(one_read())
        assert monitor.error_count == 1
        assert [t.status for t in monitor.transactions] == ["error", "ok"]

    def test_reset(self):
        monitor = BusMonitor()
        monitor.record(one_read())
        monitor.reset()
        assert monitor.transaction_count == 0
        assert monitor.busy_time() == ZERO_TIME

    def test_summary_keys(self):
        monitor = BusMonitor()
        monitor.record(one_read(tags=["config"]))
        summary = monitor.summary()
        for key in ("transactions", "total_words", "config_words", "data_words", "busy_time_ns"):
            assert key in summary


MASTERS = ("cpu", "dma", "drcf")
SLAVES = ("mem", "cfg")
TAGS = ("config", "fir", "data")
tag_sets = st.lists(st.sampled_from(TAGS), max_size=2, unique=True).map(tuple)

#: Transfers that ran through the kernel: one read each, with its own
#: arbitration wait and status.
kernel_runs = st.builds(
    lambda kind, master, slave, addr, words, issued, wait, busy, tags, status: TrainRecord(
        kind, master, slave, addr, 0, words, 1, issued, busy, tags, wait_fs=wait, status=status
    ),
    st.sampled_from(["read", "write"]),
    st.sampled_from(MASTERS),
    st.sampled_from(SLAVES),
    st.integers(0, 2**16),
    st.integers(1, 16),
    st.integers(0, 10**9),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    tag_sets,
    st.sampled_from(["ok", "ok", "error"]),
)
#: Closed-form burst trains: bursts back to back, ``stride`` bytes apart.
burst_trains = st.builds(
    lambda master, slave, addr, stride, burst_words, bursts, start, burst_fs, tags: TrainRecord(
        "read", master, slave, addr, stride, burst_words, bursts, start, burst_fs, tags
    ),
    st.sampled_from(MASTERS),
    st.sampled_from(SLAVES),
    st.integers(0, 2**16),
    st.integers(4, 256),
    st.integers(1, 16),
    st.integers(1, 25),
    st.integers(0, 10**9),
    st.integers(0, 10**6),
    tag_sets,
)
#: Closed-form poll trains: one-word reads of one address (stride 0), one
#: poll interval (``gap_fs``, 0 included) apart.
poll_trains = st.builds(
    lambda master, slave, addr, polls, start, read, tags, gap: TrainRecord(
        "read", master, slave, addr, 0, 1, polls, start, read, tags, gap_fs=gap
    ),
    st.sampled_from(MASTERS),
    st.sampled_from(SLAVES),
    st.integers(0, 2**16),
    st.integers(1, 100),
    st.integers(0, 10**9),
    st.integers(0, 10**6),
    tag_sets,
    st.integers(0, 10**6),
)
traffic = st.lists(st.one_of(kernel_runs, burst_trains, poll_trains), max_size=12)


def _feed(records):
    """One monitor fed ``records`` as given, and one fed the one-read
    records of their expansion, as if every transfer had run through the
    kernel."""
    as_given, expanded = BusMonitor(), BusMonitor()
    for entry in records:
        as_given.record(entry)
        for txn in entry.expand():
            expanded.record(as_record(txn))
    return as_given, expanded


def _queries(monitor):
    """Every aggregate query, then the transactions."""
    return (
        monitor.transaction_count,
        monitor.error_count,
        monitor.total_words,
        [(monitor.words_by_tag(tag), monitor.words_without_tag(tag)) for tag in TAGS],
        list(monitor.words_by_master().items()),
        list(monitor.words_by_slave().items()),
        monitor.busy_time(),
        monitor.utilization(ns(5)),
        monitor.utilization(us(2000)),
        [monitor.mean_arbitration_wait(master) for master in (None, *MASTERS)],
        monitor.max_arbitration_wait(),
        monitor.summary(),
        monitor.transactions,
    )


class TestTrainRecords:
    """A record answers every query as the one-read records of its
    expansion do."""

    @given(traffic, traffic)
    @settings(deadline=None)
    def test_records_match_their_expansion(self, before, after):
        as_given, expanded = _feed(before)
        assert _queries(as_given) == _queries(expanded)
        for monitor in (as_given, expanded):
            monitor.reset()
        assert _queries(as_given) == _queries(expanded) == _queries(BusMonitor())
        more_as_given, more_expanded = _feed(after)
        assert _queries(more_as_given) == _queries(more_expanded)

    @given(kernel_runs)
    def test_a_kernel_run_is_its_own_expansion(self, record):
        assert [as_record(txn) for txn in record.expand()] == [record]

    def test_one_read_expansion(self):
        record = one_read(
            master="dma", issued=5, granted=10, done=40, tags=["config"], status="error"
        )
        assert list(record.expand()) == [
            Transaction("read", "dma", "mem", 0x1000, 4, ns(5), ns(10), ns(40), ["config"], "error")
        ]

    def test_expansion(self):
        train = TrainRecord("read", "dma", "cfg", 0x100, 16, 4, 3, 1000, 70, ("config",))
        assert (train.words, train.busy_fs) == (12, 210)
        assert list(train.expand()) == [
            Transaction("read", "dma", "cfg", 0x100, 4, fs(1000), fs(1000), fs(1070), ["config"]),
            Transaction("read", "dma", "cfg", 0x110, 4, fs(1070), fs(1070), fs(1140), ["config"]),
            Transaction("read", "dma", "cfg", 0x120, 4, fs(1140), fs(1140), fs(1210), ["config"]),
        ]

    def test_expansion_of_a_poll_train(self):
        """Stride 0 reads the same address each time; each read is issued
        ``gap_fs`` after the previous one completed."""
        train = TrainRecord("read", "cpu", "acc", 0x4004, 0, 1, 3, 1000, 40, (), gap_fs=80)
        assert (train.words, train.busy_fs) == (3, 120)
        assert list(train.expand()) == [
            Transaction("read", "cpu", "acc", 0x4004, 1, fs(1000), fs(1000), fs(1040), []),
            Transaction("read", "cpu", "acc", 0x4004, 1, fs(1120), fs(1120), fs(1160), []),
            Transaction("read", "cpu", "acc", 0x4004, 1, fs(1240), fs(1240), fs(1280), []),
        ]

    def test_transactions_are_a_fresh_list_with_fresh_tags(self):
        monitor = BusMonitor()
        monitor.record(TrainRecord("read", "dma", "cfg", 0, 4, 1, 2, 0, 10, ("config",)))
        first, second = monitor.transactions
        assert first.tags == second.tags == ["config"] and first.tags is not second.tags
        monitor.transactions.clear()
        assert monitor.transaction_count == len(monitor.transactions) == 2
