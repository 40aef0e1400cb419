"""The uplink's arrival feed against the store-reading reference collect.

A :class:`RemoteWriteClient` collects each flush window from its
engine's arrival feed and reads the store only to catch up.  The
hypothesis state machine below runs it beside
:class:`tests.remote_write_oracle.ReferenceClient`, which reads every
window from the store, on one shared store (without a WAL, and with a
4-partition one) through arbitrary interleavings of ingest — rejected, future and
behind-watermark samples included — flushes, late arrivals, stop,
seed, retention shorter than a flush, and deletes.  After
every flush both must have queued the same ``(seq, entries, end_ns)``
and put byte-identical frames on the wire.

The other tests pin the traffic the feed saves (steady flushes never
catch up on a leaf → relay → root tree; a late arrival costs exactly
one) and that a stopped client retains nothing.
"""

import math
import struct
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.net.http import HttpNetwork
from repro.orchestration.fleet import NodeFleet
from repro.orchestration.kubernetes import Cluster
from repro.pmag.model import Labels, Matcher
from repro.pmag.remote_write import RemoteWriteClient, encode_frame
from repro.pmag.storage import series_fingerprint
from repro.pmag.tsdb import Tsdb
from repro.simkernel.clock import VirtualClock, seconds
from repro.simkernel.rng import DeterministicRng
from repro.teemon import FederationTopology, TeemonConfig
from tests.remote_write_oracle import ReferenceClient
from tests.test_storage_engine import partitioned

SERIES = [Labels.of("m", job="a", i=str(i)) for i in range(3)] + [
    Labels.of("n", job="b", i="3"),
    Labels({"job": "nameless", "i": "4"}),  # no metric name: rejected
]
series = st.sampled_from(SERIES)
#: Sample time relative to now: behind the watermark, in the window, or
#: in the future.
offsets = st.integers(-12, 8)
#: A value the store takes, NaN, or one its typed column refuses.
values = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
                   st.sampled_from([math.nan, "x"]))
#: Short enough that retention cuts into a flush window.
RETENTION_NS = 4


class _Uplink:
    """A network that records every body and acks while ``up``."""

    def __init__(self):
        self.up = True
        self.bodies = []

    def post_url(self, _url, body):
        self.bodies.append(body)
        if not self.up:
            return SimpleNamespace(ok=False, body="")
        return SimpleNamespace(ok=True, body=f"ack {body.split()[3]} ")


def _client(cls, clock, tsdb, max_frame_samples=3, queue_max_frames=4):
    return cls(clock, _Uplink(), tsdb, "http://up", "leaf-0",
               max_frame_samples=max_frame_samples,
               queue_max_frames=queue_max_frames, max_retries=0,
               rng=DeterministicRng(0))


def _wire(entries):
    """Entries with values as their packed bytes (NaN compares equal)."""
    return [(labels, time_ns, struct.pack("<d", value))
            for labels, time_ns, value in entries]


class FeedMachine(RuleBasedStateMachine):
    SHARDS = 1

    def __init__(self):
        super().__init__()
        self.clock = VirtualClock()
        self.clock.advance(20)
        if self.SHARDS == 1:
            self.tsdb = Tsdb(retention_ns=RETENTION_NS)
        else:
            self.tsdb = partitioned(self.SHARDS, retention_ns=RETENTION_NS)
        self.client = _client(RemoteWriteClient, self.clock, self.tsdb)
        self.reference = _client(ReferenceClient, self.clock, self.tsdb)

    def _both(self, method, *args):
        for client in (self.client, self.reference):
            getattr(client, method)(*args)

    def _entries(self, items):
        now = self.clock.now_ns
        return [(labels, now + offset, value)
                for labels, offset, value in items]

    def _check(self):
        got, want = self.client, self.reference
        assert [(f.seq, _wire(f.entries), f.end_ns) for f in got._queue] == [
            (f.seq, _wire(f.entries), f.end_ns) for f in want._queue]
        assert got._network.bodies == want._network.bodies
        assert (got.watermark_ns, got.acked_seq, got._collected_ns) == (
            want.watermark_ns, want.acked_seq, want._collected_ns)
        assert got.frames_dropped == want.frames_dropped

    # -- ingest: a batch, a frame's blocks, or one series' run -------------
    @rule(how=st.sampled_from(["batch", "fingerprinted", "run"]),
          items=st.lists(st.tuples(series, offsets, values), max_size=8))
    def ingest(self, how, items):
        entries = self._entries(items)
        if how == "batch":
            self.tsdb.append_batch(entries)
            return
        blocks = {}
        for labels, time_ns, value in entries:
            blocks.setdefault(labels, []).append((time_ns, value))
        if how == "fingerprinted":
            self.tsdb.append_fingerprinted([
                (series_fingerprint(labels), labels, samples)
                for labels, samples in blocks.items()])
            return
        for labels, samples in blocks.items():
            self.tsdb.append_run(labels, [t for t, _v in samples],
                                 [v for _t, v in samples])

    # -- time passes, then both flush --------------------------------------
    @rule(ns=st.integers(0, 3), up=st.booleans())
    def flush(self, ns=0, up=True):
        self.clock.advance(ns)
        self.client._network.up = self.reference._network.up = up
        self._both("flush")
        self._check()

    # -- what the clients are told -----------------------------------------
    @rule(how=st.sampled_from(["late_arrival", "seed", "stop"]),
          offset=offsets, acked=st.one_of(st.none(), st.integers(0, 9)))
    def restart(self, how, offset, acked):
        if how == "late_arrival":
            self._both("note_late_arrival", self.clock.now_ns + offset)
        elif how == "seed":
            # A recovered cursor: at or behind what was collected.
            self._both("seed", self.reference._collected_ns - abs(offset),
                       acked)
        else:
            self._both("stop")
            assert self.client._feed is None
            self.flush()

    # -- samples leaving the store -----------------------------------------
    @rule(how=st.sampled_from(["retention", "delete"]),
          job=st.sampled_from(["a", "b"]))
    def remove(self, how, job):
        if how == "retention":
            self.tsdb.enforce_retention(self.clock.now_ns)
        else:
            self.tsdb.delete_series([Matcher.eq("job", job)])


class ShardedFeedMachine(FeedMachine):
    SHARDS = 4


TestFeedMatchesStoreRead = FeedMachine.TestCase
TestShardedFeedMatchesStoreRead = ShardedFeedMachine.TestCase


# ---------------------------------------------------------------------------
# Traffic
# ---------------------------------------------------------------------------
def test_steady_flushes_never_catch_up_and_a_late_arrival_costs_one():
    clock = VirtualClock()
    network = HttpNetwork()
    fleet = NodeFleet(Cluster(clock=clock), network, DeterministicRng(5))
    fleet.add_nodes(6)
    quiet = TeemonConfig(
        enable_exporters=False, enable_recording_rules=False,
        enable_anomaly_detection=False, enable_alerting=False,
    )
    receiving = replace(quiet, remote_write_receiver=True)
    topo = FederationTopology(clock, network)
    topo.add("global", receiving)
    topo.add("region-0", replace(receiving, enable_wal=True),
             uplink="global")
    topo.add("leaf-0", quiet, uplink="region-0")
    nodes = topo.build()
    leaf, relay = nodes["leaf-0"], nodes["region-0"]
    leaf.add_discovery(fleet.discovery())
    clients = [leaf.remote_write_client, relay.remote_write_client]

    clock.advance(seconds(30))
    warm = [c.stats()["collect_catchups"] for c in clients]
    assert warm == [1, 1]  # the first collect reads the store
    shipped = [c.samples_shipped for c in clients]
    clock.advance(seconds(60))
    assert [c.stats()["collect_catchups"] for c in clients] == warm
    assert all(c.samples_shipped > s for c, s in zip(clients, shipped))

    # A frame landing behind the relay's watermark regresses it once.
    late = clock.now_ns - seconds(20)
    relay.remote_write_receiver.handle(encode_frame(
        "leaf-late", 1, 1, [(Labels.of("late_total", job="x"), late, 1.0)]))
    clock.advance(seconds(30))
    assert [c.stats()["collect_catchups"] for c in clients] == [
        warm[0], warm[1] + 1]
    assert relay.remote_write_client.late_arrivals == 1
    got = nodes["global"].tsdb.select_metric("late_total", 0, clock.now_ns)
    assert [[s.time_ns for s in g.samples] for g in got] == [[late]]
    for deployment in nodes.values():
        deployment.stop()


@pytest.mark.parametrize("shards", [1, 4])
def test_stopped_client_retains_nothing_and_catches_up_exactly(shards):
    clock = VirtualClock()
    tsdb = Tsdb() if shards == 1 else partitioned(shards)
    client, reference = (
        _client(cls, clock, tsdb, max_frame_samples=500, queue_max_frames=64)
        for cls in (RemoteWriteClient, ReferenceClient))
    labels = [Labels.of("m", i=str(i)) for i in range(100)]

    def ingest(first, count):
        for time_ns in range(first, first + count):
            tsdb.append_batch([(l, time_ns, float(time_ns)) for l in labels])

    ingest(1, 5)
    clock.advance(5)
    for c in (client, reference):
        c.flush()
        c.stop()
    assert client._feed is None
    assert tsdb._feeds == []
    ingest(6, 100)  # 10k samples while stopped
    assert client._feed is None
    clock.advance(100)
    for c in (client, reference):
        c.flush()
    assert client.collect_catchups == 2
    assert client._network.bodies == reference._network.bodies
    assert client.samples_shipped == reference.samples_shipped == 10_500


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("removal", ["retention", "delete"])
def test_samples_removed_before_the_flush_never_ship(shards, removal):
    clock = VirtualClock()
    tsdb = (Tsdb(retention_ns=20) if shards == 1 else
            partitioned(shards, retention_ns=20))
    client, reference = (
        _client(cls, clock, tsdb, max_frame_samples=500, queue_max_frames=64)
        for cls in (RemoteWriteClient, ReferenceClient))
    gone, early, kept = (Labels.of("m", job=job) for job in "abc")
    clock.advance(10)
    for c in (client, reference):
        c.flush()
    tsdb.append_batch([(gone, 11, 1.0), (early, 30, 2.0)])
    clock.advance(30)
    tsdb.append_batch([(kept, 40, 3.0)])
    if removal == "retention":
        assert tsdb.enforce_retention(clock.now_ns) == 1
    else:
        assert tsdb.delete_series([Matcher.eq("job", "a")]) == 1
    for c in (client, reference):
        c.flush()
    assert client._network.bodies == reference._network.bodies
    assert client.samples_shipped == 2 and client.collect_catchups == 2

    # Expiring only what was shipped leaves the feed's word good.
    clock.advance(20)
    tsdb.append_batch([(kept, 60, 4.0)])
    # early's chunk
    assert tsdb.enforce_retention(clock.now_ns) == 1
    for c in (client, reference):
        c.flush()
    assert client._network.bodies == reference._network.bodies
    assert client.samples_shipped == 3 and client.collect_catchups == 2
