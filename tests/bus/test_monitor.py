"""Bus monitor aggregation, train records included."""

from hypothesis import given, settings, strategies as st

from repro.bus import BusMonitor, Transaction, TrainRecord
from repro.kernel import ZERO_TIME, fs, ns, us


def txn(kind="read", master="cpu", slave="mem", words=4, issued=0, granted=0, done=40, tags=()):
    return Transaction(
        kind=kind,
        master=master,
        slave=slave,
        addr=0x1000,
        words=words,
        issued_at=ns(issued),
        granted_at=ns(granted),
        completed_at=ns(done),
        tags=list(tags),
    )


class TestAggregation:
    def test_word_totals_and_tags(self):
        monitor = BusMonitor()
        monitor.record(txn(words=4))
        monitor.record(txn(words=8, tags=["config"]))
        assert monitor.total_words == 12
        assert monitor.words_by_tag("config") == 8
        assert monitor.words_without_tag("config") == 4
        assert monitor.transaction_count == 2

    def test_per_master_per_slave(self):
        monitor = BusMonitor()
        monitor.record(txn(master="cpu", words=2))
        monitor.record(txn(master="dma", slave="cfg", words=6))
        assert monitor.words_by_master() == {"cpu": 2, "dma": 6}
        assert monitor.words_by_slave() == {"mem": 2, "cfg": 6}

    def test_busy_time_and_utilization(self):
        monitor = BusMonitor()
        monitor.record(txn(granted=0, done=40))
        monitor.record(txn(granted=50, done=70))
        assert monitor.busy_time() == ns(60)
        assert abs(monitor.utilization(ns(120)) - 0.5) < 1e-9
        assert monitor.utilization(ZERO_TIME) == 0.0

    def test_arbitration_waits(self):
        monitor = BusMonitor()
        monitor.record(txn(issued=0, granted=10, done=20))
        monitor.record(txn(issued=0, granted=30, done=40, master="dma"))
        assert monitor.mean_arbitration_wait() == ns(20)
        assert monitor.mean_arbitration_wait("dma") == ns(30)
        assert monitor.max_arbitration_wait() == ns(30)
        assert monitor.mean_arbitration_wait("ghost") == ZERO_TIME

    def test_transaction_properties(self):
        t = txn(issued=5, granted=10, done=40)
        assert t.arbitration_wait == ns(5)
        assert t.latency == ns(35)
        assert not t.has_tag("config")

    def test_reset(self):
        monitor = BusMonitor()
        monitor.record(txn())
        monitor.reset()
        assert monitor.transaction_count == 0
        assert monitor.busy_time() == ZERO_TIME

    def test_summary_keys(self):
        monitor = BusMonitor()
        monitor.record(txn(tags=["config"]))
        summary = monitor.summary()
        for key in ("transactions", "total_words", "config_words", "data_words", "busy_time_ns"):
            assert key in summary


MASTERS = ("cpu", "dma", "drcf")
SLAVES = ("mem", "cfg")
TAGS = ("config", "fir", "data")

single_transactions = st.builds(
    lambda kind, master, slave, addr, words, issued, wait, busy, tags, status: Transaction(
        kind=kind,
        master=master,
        slave=slave,
        addr=addr,
        words=words,
        issued_at=fs(issued),
        granted_at=fs(issued + wait),
        completed_at=fs(issued + wait + busy),
        tags=list(tags),
        status=status,
    ),
    st.sampled_from(["read", "write"]),
    st.sampled_from(MASTERS),
    st.sampled_from(SLAVES),
    st.integers(0, 2**16),
    st.integers(1, 16),
    st.integers(0, 10**9),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.lists(st.sampled_from(TAGS), max_size=2, unique=True),
    st.sampled_from(["ok", "ok", "error"]),
)
train_records = st.builds(
    TrainRecord,
    st.just("read"),
    st.sampled_from(MASTERS),
    st.sampled_from(SLAVES),
    st.integers(0, 2**16),
    st.integers(4, 256),
    st.integers(1, 16),
    st.integers(1, 100),
    st.integers(0, 10**9),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.lists(st.sampled_from(TAGS), max_size=2, unique=True).map(tuple),
)
#: Poll trains: one-word reads of one address (stride 0), one poll
#: interval (``gap_fs``) apart.
poll_train_records = st.builds(
    lambda master, slave, addr, polls, start, read, tags, gap: TrainRecord(
        "read", master, slave, addr, 0, 1, polls, start, read, read, tags, gap_fs=gap
    ),
    st.sampled_from(MASTERS),
    st.sampled_from(SLAVES),
    st.integers(0, 2**16),
    st.integers(1, 100),
    st.integers(0, 10**9),
    st.integers(0, 10**6),
    st.lists(st.sampled_from(TAGS), max_size=2, unique=True).map(tuple),
    st.integers(1, 10**6),
)
traffic = st.lists(st.one_of(single_transactions, train_records, poll_train_records), max_size=12)


def _feed(records):
    """One monitor fed ``records`` as given, and one fed the same traffic
    as single transactions, each train expanded burst by burst."""
    with_records, expanded = BusMonitor(), BusMonitor()
    for entry in records:
        if isinstance(entry, TrainRecord):
            with_records.record_train(entry)
            for txn in entry.expand():
                expanded.record(txn)
        else:
            with_records.record(entry)
            expanded.record(entry)
    return with_records, expanded


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
    """A train record answers every query as its expanded bursts do."""

    @given(traffic, traffic)
    @settings(deadline=None)
    def test_records_match_their_expansion(self, before, after):
        with_records, expanded = _feed(before)
        assert _queries(with_records) == _queries(expanded)
        for monitor in (with_records, expanded):
            monitor.reset()
        assert _queries(with_records) == _queries(expanded) == _queries(BusMonitor())
        more_records, more_expanded = _feed(after)
        assert _queries(more_records) == _queries(more_expanded)

    def test_expansion(self):
        train = TrainRecord("read", "dma", "cfg", 0x100, 16, 4, 10, 1000, 70, 50, ("config",))
        assert train.bursts == 3
        assert train.busy_fs == 190
        assert list(train.expand()) == [
            Transaction("read", "dma", "cfg", 0x100, 4, fs(1000), fs(1000), fs(1070), ["config"]),
            Transaction("read", "dma", "cfg", 0x110, 4, fs(1070), fs(1070), fs(1140), ["config"]),
            Transaction("read", "dma", "cfg", 0x120, 2, fs(1140), fs(1140), fs(1190), ["config"]),
        ]

    def test_expansion_of_a_poll_train(self):
        """Stride 0 reads the same address each time; each read is issued
        ``gap_fs`` after the previous one completed."""
        train = TrainRecord("read", "cpu", "acc", 0x4004, 0, 1, 3, 1000, 40, 40, (), gap_fs=80)
        assert train.bursts == 3
        assert train.busy_fs == 120
        assert list(train.expand()) == [
            Transaction("read", "cpu", "acc", 0x4004, 1, fs(1000), fs(1000), fs(1040), []),
            Transaction("read", "cpu", "acc", 0x4004, 1, fs(1120), fs(1120), fs(1160), []),
            Transaction("read", "cpu", "acc", 0x4004, 1, fs(1240), fs(1240), fs(1280), []),
        ]

    def test_transactions_are_a_fresh_list_with_fresh_tags(self):
        monitor = BusMonitor()
        monitor.record_train(TrainRecord("read", "dma", "cfg", 0, 4, 1, 2, 0, 10, 10, ("config",)))
        first, second = monitor.transactions
        assert first.tags == second.tags == ["config"] and first.tags is not second.tags
        monitor.transactions.clear()
        assert monitor.transaction_count == len(monitor.transactions) == 2

