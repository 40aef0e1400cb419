"""The stressor turned on the monitor's own log (Stress-SGX, PAPERS.md).

A hypothesis state machine drives a real ``Tsdb`` + ``WalWriter`` +
``SimDisk`` through arbitrary interleavings of everything that can
happen to a log — scalar appends, batches, cursor frames, flushes,
rotations, checkpoints, power loss that tears the unflushed tail at any
byte, recovery — and after every step holds:

    what ``recover`` rebuilds from the medium
        == a dict-of-lists model of every accepted sample
           minus exactly the loss the medium's crash report implies.

The loss is taken from ``DiskCrashReport`` by the reference walker in
``tests/codec_oracle.py``, never from the code under test.  It is always
a suffix of the log: only the live segment has an unflushed tail.

Tier-1 runs the loaded hypothesis profile (``dev``/``ci``); the kill-loop
CI step runs it again under ``HYPOTHESIS_PROFILE=soak``.
"""

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.errors import TsdbError
from repro.pmag.model import Labels
from repro.pmag.tsdb import Tsdb
from repro.pmag.wal import WalWriter, recover
from repro.simkernel.disk import SimDisk
from tests.codec_oracle import reference_crash_loss, reference_replay_v2

SERIES = [Labels.of("m", job="a", i=str(i)) for i in range(4)] + [
    Labels.of("mé", zone="日本")]
series = st.sampled_from(SERIES)
#: Steps of a series' clock: mostly forward; zero and back are rejected.
steps = st.integers(-1, 3)
#: Small enough that batches straddle flush and rotation boundaries.
FLUSH_EVERY, SEGMENT_MAX = 5, 7


def contents(tsdb):
    return {
        labels: [(s.time_ns, s.value)
                 for s in storage.window(-2**63, 2**63 - 1)]
        for labels, storage in tsdb.series_items() if storage.sample_count
    }


class WalMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.disk = SimDisk()
        #: Bytes of the unflushed tail the next crash leaves on the platter.
        self.torn = 0
        self.disk.add_crash_fault(lambda _name, _tail: self.torn)
        #: Every accepted sample still owed by the medium, in log order.
        self.log = []
        self.cursors = {}
        self.crash_report = None
        self.tsdb = Tsdb()
        self._attach_writer()

    def _attach_writer(self):
        self.writer = WalWriter(
            self.disk, flush_every_records=FLUSH_EVERY,
            segment_max_records=SEGMENT_MAX)
        self.tsdb.attach_wal(self.writer)

    # -- the model -------------------------------------------------------
    def model(self):
        out = {}
        for labels, time_ns, value in self.log:
            out.setdefault(labels, []).append((time_ns, value))
        return out

    def _next(self, labels, step, pending=()):
        """The sample ``step`` past the series' newest one, and whether
        the store should take it."""
        times = [t for l, t, _v in [*self.log, *pending] if l == labels]
        time_ns = max(times, default=0) + step
        return (labels, time_ns, time_ns / 4), step > 0 or not times

    alive = precondition(lambda self: self.crash_report is None)
    dead = precondition(lambda self: self.crash_report is not None)

    # -- rules -----------------------------------------------------------
    @alive
    @rule(labels=series, step=steps)
    def scalar_append(self, labels, step):
        sample, accept = self._next(labels, step)
        try:
            self.tsdb.append(*sample)
        except TsdbError:
            assert not accept
        else:
            assert accept
            self.log.append(sample)

    @alive
    @rule(batch=st.lists(st.tuples(series, steps), max_size=9))
    def batch_append(self, batch):
        entries, accepted, expected = [], [], []
        for index, (labels, step) in enumerate(batch):
            sample, accept = self._next(labels, step, accepted)
            entries.append(sample)
            if accept:
                accepted.append(sample)
            else:
                expected.append(index)
        assert self.tsdb.append_batch(entries) == expected
        self.log += accepted

    @alive
    @rule(key=st.sampled_from(["rules/a", "rules/b"]),
          cursor_ns=st.integers(0, 2**40))
    def cursor(self, key, cursor_ns):
        self.writer.append_cursor(key, cursor_ns)
        self.cursors[key] = cursor_ns

    @alive
    @rule()
    def flush(self):
        self.writer.flush()
        assert self.writer.unflushed_records == 0

    @alive
    @rule()
    def rotation(self):
        # Fill the live segment until the writer opens the next one.
        segments = self.writer.segments_total
        while self.writer.segments_total == segments:
            self.scalar_append(SERIES[0], 1)
        assert self.writer.unflushed_records == 0

    @alive
    @rule()
    def checkpoint(self):
        self.writer.checkpoint(self.tsdb)
        assert len(self.disk.list_files("wal/checkpoint-")) == 1
        assert len(self.disk.list_files("wal/segment-")) == 1

    @alive
    @rule(torn=st.integers(0, 400))
    def crash(self, torn):
        unflushed = self.writer.unflushed_records
        self.torn = torn
        self.crash_report = self.disk.crash()
        self.tsdb = self.writer = None  # the process is gone
        lost = reference_crash_loss(self.crash_report)
        assert lost <= unflushed
        if not torn:
            assert lost == unflushed
        self.lost = lost
        self.log = self.log[:len(self.log) - lost]
        # A cursor is metadata: whichever frames survive are whatever
        # the slow reader finds on what is left of the medium.
        self.cursors = {}
        for name in self.disk.list_files("wal/segment-"):
            self.cursors.update(reference_replay_v2(self.disk.read(name))[1])

    @dead
    @rule()
    def recover_after_crash(self):
        self.tsdb, report = recover(
            self.disk, crash_report=self.crash_report)
        assert report.samples_lost == self.lost
        assert report.cursors == self.cursors
        self.crash_report = None
        self._attach_writer()
        self.writer.record_cursors(report.cursors)

    # -- the invariant ---------------------------------------------------
    @invariant()
    def medium_holds_the_model_minus_the_loss(self):
        # recover() only reads, so it can be asked after every step —
        # of a live medium (unflushed bytes included) or a crashed one.
        rebuilt, report = recover(self.disk, crash_report=self.crash_report)
        expected = self.model()
        assert contents(rebuilt) == expected
        assert report.records_quarantined == 0
        assert report.cursors == self.cursors
        if self.crash_report is None:
            assert contents(self.tsdb) == expected
            assert report.samples_lost == 0
            # The count-based flush bounds what the next crash can take.
            assert self.writer.unflushed_records < FLUSH_EVERY
        else:
            assert report.samples_lost == self.lost


TestWalMachine = WalMachine.TestCase
