"""Remote-write federation tier: framing, dedup, spill, recovery."""

import struct
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.errors import DeploymentError, WalError
from repro.net.http import HttpNetwork
from repro.orchestration.fleet import NodeFleet
from repro.orchestration.kubernetes import Cluster
from repro.pmag.model import Labels
from repro.pmag.remote_write import (
    RemoteWriteClient,
    RemoteWriteReceiver,
    build_ship_filter,
    decode_frame,
    decode_frame_blocks,
    encode_frame,
    sequence_cursor_key,
    watermark_cursor_key,
)
from repro.pmag.storage import ShardedTsdb, series_fingerprint
from repro.pmag.tsdb import Tsdb
from repro.simkernel.clock import VirtualClock, seconds
from repro.simkernel.kernel import Kernel
from repro.simkernel.rng import DeterministicRng
from repro.teemon import (
    FederationTopology,
    MonitorSupervisor,
    TeemonConfig,
    deploy,
)
from tests.codec_oracle import (
    frame_blocks,
    frame_from_blocks,
    frame_from_payload,
    frame_payload,
    reference_block,
    reference_encode_frame,
    wire_entries,
)


def _entries(count, start_ns=1, metric="m_total", **labels):
    base = dict(labels)
    base["__name__"] = metric
    full = Labels(base)
    return [(full, start_ns + i, float(i)) for i in range(count)]


# ---------------------------------------------------------------------------
# Frame wire format
# ---------------------------------------------------------------------------
def test_frame_roundtrip():
    entries = _entries(3, job="sgx", instance="n0")
    body = encode_frame("leaf-0", 42, 7, entries)
    sender, epoch, seq, decoded = decode_frame(body)
    assert sender == "leaf-0" and epoch == 42 and seq == 7
    assert decoded == entries


def test_frame_blocks_are_shard_partitioned_per_series():
    # v3 frames carry one block per series, stamped with the same CRC32
    # fingerprint ShardedTsdb routes on, labels encoded once per frame.
    entries = (
        _entries(3, job="sgx", instance="n0")
        + _entries(2, start_ns=10, metric="other_total", job="sgx",
                   instance="n1")
        + _entries(2, start_ns=20, job="sgx", instance="n0")
    )
    body = encode_frame("leaf-0", 1, 1, entries)
    sender, epoch, seq, blocks = decode_frame_blocks(body)
    assert (sender, epoch, seq) == ("leaf-0", 1, 1)
    # Two series -> two blocks, first-appearance order, samples merged
    # per series in shipped order.
    assert len(blocks) == 2
    by_labels = {labels: (fp, samples) for fp, labels, samples in blocks}
    for labels, (fp, samples) in by_labels.items():
        assert fp == series_fingerprint(labels)
    first = blocks[0]
    assert first[1].get("instance") == "n0"
    assert len(first[2]) == 5  # both n0 runs merged into one block
    # The flat decode preserves every (labels, ts, value) triple.
    key = lambda e: (tuple(e[0].items()), e[1], e[2])  # noqa: E731
    assert sorted(decode_frame(body)[3], key=key) == sorted(entries, key=key)


def test_frame_rejects_damage():
    body = encode_frame("leaf-0", 0, 1, _entries(2))
    header, payload = body.split("\n", 1)
    with pytest.raises(WalError):
        decode_frame("not-a-frame " + body)
    with pytest.raises(WalError):
        decode_frame(header + "\n" + "AAAA" + payload[4:])
    # Count mismatch between header and payload.
    pieces = header.split()
    pieces[4] = "9"
    with pytest.raises(WalError):
        decode_frame(" ".join(pieces) + "\n" + payload)
    with pytest.raises(WalError):
        encode_frame("has space", 0, 1, _entries(1))


# ---------------------------------------------------------------------------
# Series interning: one encode per series per client, one parse per
# series per receiver — and never a different byte or a skipped check
# ---------------------------------------------------------------------------
frame_entries = st.lists(wire_entries, min_size=1, max_size=12)
SERIES_A = Labels({"__name__": "m_total", "instance": "n0", "job": "sgx"})
SERIES_B = Labels({"__name__": "m_total", "instance": "n1", "job": "sgx"})


@given(st.lists(frame_entries, min_size=1, max_size=6))
def test_frames_sharing_one_memo_are_byte_identical_to_reference(frames):
    headers = {}
    for seq, entries in enumerate(frames, 1):
        assert encode_frame("leaf-0", 3, seq, entries, headers) == \
            reference_encode_frame("leaf-0", 3, seq, entries)
    # One memo entry per distinct series, however many frames carried it.
    assert set(headers) == {e[0] for entries in frames for e in entries}


def test_unencodable_series_raises_every_time_and_is_never_memoised():
    headers = {}
    good = _entries(2, job="sgx")
    oversized = Labels({"__name__": "m", "k": "v" * 70_000})
    for _ in range(2):
        with pytest.raises(WalError, match="too long"):
            encode_frame("leaf-0", 0, 1, good + [(oversized, 1, 1.0)],
                         headers)
    assert oversized not in headers
    # A block over the size cap is checked per frame, memo or not.
    crowded = [(good[0][0], t, 0.0) for t in range(70_000)]
    for _ in range(2):
        with pytest.raises(WalError, match="too large"):
            encode_frame("leaf-0", 0, 1, crowded, headers)
    assert encode_frame("leaf-0", 0, 1, good, headers) == \
        reference_encode_frame("leaf-0", 0, 1, good)


@given(st.lists(frame_entries, min_size=1, max_size=6))
def test_warm_intern_table_decodes_exactly_like_a_cold_one(frames):
    bodies = [
        reference_encode_frame("leaf-0", 0, seq, entries)
        for seq, entries in enumerate(frames, 1)
    ]
    table = {}
    for _pass in range(2):  # second pass: every header already interned
        for body in bodies:
            assert decode_frame_blocks(body, table) == \
                decode_frame_blocks(body)
    series = {e[0] for entries in frames for e in entries}
    assert len(table) == len(series)
    # A known series always comes back as the one interned object.
    interned = {entry[2]: entry[2] for entry in table.values()}
    for body in bodies:
        for _fp, labels, _samples in decode_frame_blocks(body, table)[3]:
            assert labels is interned[labels]


def _flip(data, index, bit):
    return data[:index] + bytes([data[index] ^ (1 << bit)]) + data[index + 1:]


def _damaged_variants(body):
    """Every way to break a two-series frame whose headers are interned.

    Variants that rebuild a block re-frame it with a *valid* length and
    CRC, so the damage has to be caught by the parse, not the checksum.
    """
    payload = frame_payload(body)
    first, second = frame_blocks(body)
    fp_a, count_a = struct.unpack_from("<II", first, 0)
    header_a, header_b = first[:-20], second[:-20]  # one sample each
    assert len(header_a) == len(header_b) and header_a != header_b
    pairs = SERIES_A.items()

    def reframed(*blocks, count=2):
        return frame_from_blocks("leaf-0", 0, 2, count, blocks)

    for index in range(len(payload)):
        yield f"bit flip @{index}", frame_from_payload(
            "leaf-0", 0, 2, 2, _flip(payload, index, index % 8))
    for cut in range(len(header_a) + 1):
        yield f"payload cut inside header @{cut}", frame_from_payload(
            "leaf-0", 0, 2, 2, payload[:8 + cut])
        yield f"block cut inside header @{cut}", reframed(
            first[:cut], second)
        if cut < len(header_a):
            yield f"header cut, samples kept @{cut}", reframed(
                first[:cut] + first[-20:], second)
    tampered = bytearray(first)
    struct.pack_into("<I", tampered, len(header_a), 2)
    yield "sample count tamper", reframed(bytes(tampered), second)
    yield "frame count tamper", reframed(first, second, count=3)
    yield "header swapped, stale CRC", frame_from_payload(
        "leaf-0", 0, 2, 2,
        payload[:8] + header_b + payload[8 + len(header_b):])
    yield "labels swapped under the stamp", reframed(
        header_a[:8] + header_b[8:] + first[-20:], second)
    yield "wrong stamp", reframed(
        reference_block(fp_a ^ 1, pairs, [(5, 1.0)]), second)
    yield "unsorted keys", reframed(
        reference_block(fp_a, pairs[::-1], [(5, 1.0)]), second)
    yield "duplicate key", reframed(
        reference_block(fp_a, pairs + pairs[-1:], [(5, 1.0)]), second)
    yield "duplicate key, count kept", reframed(
        reference_block(fp_a, pairs[:-1] + pairs[-2:-1], [(5, 1.0)],
                        label_count=count_a), second)


@pytest.mark.parametrize("engine", [Tsdb, lambda: ShardedTsdb(shards=4)],
                         ids=["monolith", "sharded"])
def test_damaged_frames_with_interned_headers_are_rejected(engine):
    tsdb = engine()
    receiver = RemoteWriteReceiver(tsdb)
    receiver.handle(encode_frame(
        "leaf-0", 0, 1, [(SERIES_A, 1, 0.0), (SERIES_B, 1, 0.0)]))
    table = receiver._interned  # noqa: SLF001
    before = dict(table)
    assert len(before) == 2
    body = encode_frame(
        "leaf-0", 0, 2, [(SERIES_A, 5, 1.0), (SERIES_B, 5, 1.0)])
    rejected = 0
    for what, damaged in _damaged_variants(body):
        with pytest.raises(WalError):
            receiver.handle(damaged)
            pytest.fail(f"accepted: {what}")
        rejected += 1
        assert receiver.frames_rejected == rejected, what
        assert tsdb.sample_count() == 2, what
        assert table == before, what
        assert all(table[k][2] is before[k][2] for k in before), what
    # The frame ledger still closes, on every engine layout...
    assert receiver.frames_received == (
        receiver.frames_applied + receiver.frames_replayed
        + receiver.frames_rejected)
    # ...and the undamaged frame still lands afterwards.
    assert receiver.handle(body) == "ack 2 applied=2 deduped=0"


def test_first_sight_of_a_series_verifies_its_stamp_on_a_monolith():
    # The stamp used to be checked only by ShardedTsdb, whose TsdbError
    # escaped handle() with no frame counter bumped.
    for tsdb in (Tsdb(), ShardedTsdb(shards=4)):
        receiver = RemoteWriteReceiver(tsdb)
        bad = frame_from_blocks("leaf-0", 0, 1, 1, [reference_block(
            series_fingerprint(SERIES_A) ^ 1, SERIES_A.items(), [(1, 0.0)])])
        with pytest.raises(WalError, match="fingerprint"):
            receiver.handle(bad)
        assert receiver.stats()["frames_rejected"] == 1
        assert receiver.stats()["frames_received"] == 1
        assert tsdb.sample_count() == 0
        assert receiver._interned == {}  # noqa: SLF001


def test_rejected_frame_interns_none_of_its_new_series():
    receiver = RemoteWriteReceiver(Tsdb())
    good = reference_block(
        series_fingerprint(SERIES_A), SERIES_A.items(), [(1, 0.0)])
    unsorted = reference_block(
        series_fingerprint(SERIES_B), SERIES_B.items()[::-1], [(1, 0.0)])
    with pytest.raises(WalError, match="ascending"):
        receiver.handle(frame_from_blocks("leaf-0", 0, 1, 2, [good, unsorted]))
    assert receiver._interned == {}  # noqa: SLF001
    assert receiver.frames_rejected == 1


# ---------------------------------------------------------------------------
# Client/receiver rig
# ---------------------------------------------------------------------------
def _rig(max_frame_samples=500, queue_max_frames=64, max_retries=2):
    clock = VirtualClock()
    network = HttpNetwork()
    leaf = Tsdb()
    global_tsdb = Tsdb()
    receiver = RemoteWriteReceiver(global_tsdb)
    receiver.expose(network, "global-0")
    client = RemoteWriteClient(
        clock, network, leaf, receiver.url, "leaf-0",
        max_frame_samples=max_frame_samples,
        queue_max_frames=queue_max_frames,
        max_retries=max_retries,
        rng=DeterministicRng(3),
    )
    return clock, network, leaf, global_tsdb, receiver, client


def _fill(tsdb, count, now_ns, metric="m_total"):
    for i in range(count):
        tsdb.append_sample(metric, now_ns - count + 1 + i, float(i),
                           job="sgx", instance="n0")


def test_flush_ships_everything_in_order():
    clock, _net, leaf, global_tsdb, receiver, client = _rig(
        max_frame_samples=10)
    clock.advance(seconds(1))
    _fill(leaf, 25, clock.now_ns)
    shipped = client.flush()
    assert shipped == 25
    assert client.frames_acked == 3  # 10 + 10 + 5
    assert client.acked_seq == 3
    assert client.watermark_ns == clock.now_ns
    assert client.queue_depth == 0
    assert receiver.samples_applied == 25
    assert receiver.samples_deduped == 0
    got = global_tsdb.select_metric("m_total", 0, clock.now_ns + 1)
    assert sum(len(s.samples) for s in got) == 25


def test_flush_collects_only_past_watermark():
    clock, _net, leaf, _gt, receiver, client = _rig()
    clock.advance(seconds(1))
    _fill(leaf, 10, clock.now_ns)
    assert client.flush() == 10
    # Nothing new since the watermark: the next flush ships nothing.
    assert client.flush() == 0
    assert receiver.samples_applied == 10
    clock.advance(seconds(1))
    _fill(leaf, 5, clock.now_ns, metric="n_total")
    assert client.flush() == 5
    assert receiver.samples_applied == 15


def test_replayed_frame_is_acked_without_reappending():
    clock, _net, _leaf, global_tsdb, receiver, _client = _rig()
    clock.advance(seconds(1))
    body = encode_frame("leaf-0", 0, 1, _entries(4))
    assert receiver.handle(body).startswith("ack 1 applied=4")
    assert receiver.handle(body) == "ack 1 replayed=4"
    assert receiver.frames_replayed == 1
    assert receiver.replay_dedup_hits == 4
    got = global_tsdb.select_metric("m_total", 0, clock.now_ns)
    assert sum(len(s.samples) for s in got) == 4


def test_duplicate_samples_within_forward_frame_are_deduped():
    # Two senders shipping the same scrape (the HA-pair shape): the
    # second copy is rejected sample-by-sample, not frame-by-frame.
    clock, _net, _leaf, global_tsdb, receiver, _client = _rig()
    entries = _entries(6)
    receiver.handle(encode_frame("replica-0", 0, 1, entries))
    ack = receiver.handle(encode_frame("replica-1", 0, 1, entries))
    assert ack == "ack 1 applied=0 deduped=6"
    assert receiver.samples_applied == 6
    assert receiver.samples_deduped == 6
    got = global_tsdb.select_metric("m_total", 0, 100)
    assert sum(len(s.samples) for s in got) == 6


def test_new_epoch_applies_reused_sequence_numbers():
    # A recovered incarnation may reuse sequence numbers the dead one
    # sent past its last durable ack.  The fresh epoch makes those
    # frames forward progress — NOT replays — so their (new) content is
    # stored instead of silently acked away.
    clock, _net, _leaf, global_tsdb, receiver, _client = _rig()
    old = _entries(3, start_ns=1)
    receiver.handle(encode_frame("leaf-0", 0, 1, old))
    receiver.handle(encode_frame("leaf-0", 0, 2, _entries(3, start_ns=10)))
    assert receiver.last_sequence("leaf-0") == 2
    # New incarnation (later epoch) reuses seq 2 for brand-new samples.
    fresh = _entries(3, start_ns=20, metric="n_total")
    ack = receiver.handle(encode_frame("leaf-0", 5, 2, fresh))
    assert ack == "ack 2 applied=3 deduped=0"
    assert receiver.frames_replayed == 0
    assert receiver.last_epoch("leaf-0") == 5
    got = global_tsdb.select_metric("n_total", 0, 100)
    assert sum(len(s.samples) for s in got) == 3
    # Within the new epoch, sequence replay detection still works...
    assert receiver.handle(
        encode_frame("leaf-0", 5, 2, fresh)) == "ack 2 replayed=3"
    # ...and a straggler from the dead epoch is a replay too.
    assert receiver.handle(
        encode_frame("leaf-0", 0, 3, old)) == "ack 3 replayed=3"


def test_outage_spills_then_drains_without_loss():
    clock, network, leaf, global_tsdb, receiver, client = _rig(
        max_frame_samples=10, max_retries=1)
    clock.advance(seconds(1))
    _fill(leaf, 10, clock.now_ns)
    client.flush()
    assert client.frames_acked == 1

    # Receiver goes away: flushes spill, the retry burst is bounded.
    receiver.withdraw(network, "global-0")
    clock.advance(seconds(1))
    _fill(leaf, 10, clock.now_ns)
    client.flush()
    clock.advance(seconds(30))  # let the retry timer fire and give up
    assert client.send_failures == 1
    assert client.queue_depth == 1
    assert client.queued_samples == 10

    # Heal: the next flush drains the spill plus anything new.
    receiver.expose(network, "global-0")
    clock.advance(seconds(1))
    _fill(leaf, 5, clock.now_ns, metric="n_total")
    client.flush()
    assert client.queue_depth == 0
    assert client.samples_shipped == 25
    assert receiver.samples_applied == 25
    assert receiver.samples_deduped == 0
    got = global_tsdb.select_metric("m_total", 0, clock.now_ns)
    assert sum(len(s.samples) for s in got) == 20


def test_watermark_trails_undelivered_chunks_of_one_collect():
    # One collect window chunked into several frames: an ack of an early
    # chunk must only advance the watermark over the samples *that
    # chunk* carries.  Were it to claim the whole window, a crash before
    # the later chunks deliver would durably skip their samples —
    # silent, unaccounted loss.
    clock, network, leaf, global_tsdb, receiver, client = _rig(
        max_frame_samples=10, max_retries=0)
    clock.advance(seconds(1))
    _fill(leaf, 25, clock.now_ns)  # timestamps now-24 .. now

    endpoint = network.register("fail-after-1", 1, "/w", lambda: "")
    calls = {"n": 0}

    def flaky(body):
        calls["n"] += 1
        if calls["n"] > 1:
            raise RuntimeError("injected outage")  # transport turns into 500
        return receiver.handle(body)

    endpoint.post_handler = flaky
    client.url = endpoint.url
    client.flush()
    assert client.frames_acked == 1
    assert client.queue_depth == 2
    # The durable watermark covers exactly the first chunk's 10 samples.
    assert client.watermark_ns == clock.now_ns - 24 + 9
    assert client.watermark_ns < clock.now_ns

    # A client seeded from that cursor (the crash-recovery path)
    # re-collects everything past it: the 15 undelivered samples.
    recovered = RemoteWriteClient(
        clock, network, leaf, receiver.url, "leaf-0",
        max_frame_samples=10, rng=DeterministicRng(3),
    )
    recovered.seed(client.watermark_ns, client.acked_seq)
    assert recovered.flush() == 15
    got = global_tsdb.select_metric("m_total", 0, clock.now_ns + 1)
    assert sum(len(s.samples) for s in got) == 25

    # The original client drains too once the fault clears; only the
    # recovered incarnation's overlap dedupes, nothing is lost.
    endpoint.post_handler = receiver.handle
    client.flush()
    assert client.queue_depth == 0
    assert client.watermark_ns == clock.now_ns


def test_recovered_client_is_not_mistaken_for_a_replay():
    # The dead incarnation delivered a frame whose ack was lost (so the
    # durable cursor never advanced).  The recovered incarnation reuses
    # that sequence number for NEW samples; its fresh epoch must make
    # the receiver apply them rather than ack-without-applying.
    clock, network, leaf, global_tsdb, receiver, client = _rig(
        max_frame_samples=100)
    clock.advance(seconds(1))
    _fill(leaf, 5, clock.now_ns)
    client.flush()
    assert client.acked_seq == 1

    # Frame seq 2 reaches the receiver but its ack is lost in transit:
    # deliver it behind the client's back, as the doomed incarnation did.
    lost = _entries(4, start_ns=clock.now_ns + 1, metric="lost_total")
    receiver.handle(encode_frame("leaf-0", client.epoch, 2, lost))
    assert receiver.last_sequence("leaf-0") == 2

    # Crash + recover: a new client seeds from the durable cursor
    # (acked_seq == 1) and collects fresh post-crash samples.
    clock.advance(seconds(1))
    recovered = RemoteWriteClient(
        clock, network, leaf, receiver.url, "leaf-0",
        max_frame_samples=100, rng=DeterministicRng(3),
    )
    recovered.seed(client.watermark_ns, client.acked_seq)
    assert recovered.epoch > client.epoch
    _fill(leaf, 5, clock.now_ns, metric="fresh_total")
    assert recovered.flush() == 5
    # Seq 2 was reused — and applied, because the epoch is new.
    assert recovered.acked_seq == 2
    assert receiver.frames_replayed == 0
    got = global_tsdb.select_metric("fresh_total", 0, clock.now_ns + 1)
    assert sum(len(s.samples) for s in got) == 5


def test_bounded_queue_drops_oldest_and_counts():
    clock, network, leaf, _gt, receiver, client = _rig(
        max_frame_samples=5, queue_max_frames=2, max_retries=0)
    receiver.withdraw(network, "global-0")
    for round_no in range(4):
        clock.advance(seconds(1))
        _fill(leaf, 5, clock.now_ns, metric=f"m{round_no}_total")
        client.flush()
    assert client.queue_depth == 2
    assert client.frames_dropped == 2
    assert client.samples_dropped == 10


def test_stagger_offset_follows_priority():
    clock, network, leaf, _gt, _receiver, _client = _rig()
    low = RemoteWriteClient(clock, network, leaf, "http://g:9009/w", "a",
                            priority=0)
    high = RemoteWriteClient(clock, network, leaf, "http://g:9009/w", "b",
                             priority=3)
    assert low.stagger_offset_ns == 0
    assert high.stagger_offset_ns == 3_000_000


def test_stagger_offset_puts_relay_tiers_after_replicas():
    # A relay (tier 1) must collect after every replica of the tier
    # below delivered at a shared instant: 2ms/tier > any priority
    # stagger, and tiers compose additively.
    clock, network, leaf, _gt, _receiver, _client = _rig()
    relay = RemoteWriteClient(clock, network, leaf, "http://g:9009/w", "r",
                              tier=1)
    deep = RemoteWriteClient(clock, network, leaf, "http://g:9009/w", "d",
                             tier=2, priority=1)
    assert relay.stagger_offset_ns == 2_000_000
    assert deep.stagger_offset_ns == 5_000_000


def test_spill_queue_overflow_with_single_slot_drops_oldest_exactly():
    # queue_max_frames=1: every flush under an outage evicts the one
    # queued frame.  Drop accounting must match exactly — oldest-first,
    # one frame and its samples per round past the first.
    clock, network, leaf, _gt, receiver, client = _rig(
        max_frame_samples=5, queue_max_frames=1, max_retries=0)
    receiver.withdraw(network, "global-0")
    for round_no in range(4):
        clock.advance(seconds(1))
        _fill(leaf, 5, clock.now_ns, metric=f"q{round_no}_total")
        client.flush()
    assert client.queue_depth == 1
    assert client.frames_dropped == 3
    assert client.samples_dropped == 15
    # The survivor is the *newest* frame: heal and drain, and only the
    # last round's metric arrives.
    receiver.expose(network, "global-0")
    client.flush()
    assert client.queue_depth == 0
    assert receiver.samples_applied == 5
    assert receiver.stats()["samples_applied"] == 5
    got = receiver._tsdb.select_metric("q3_total", 0, clock.now_ns + 1)
    assert sum(len(s.samples) for s in got) == 5


def test_epoch_tie_with_interleaved_old_incarnation_frames():
    # After a recovery, stragglers from the dead incarnation (older
    # epoch) interleave with the new incarnation's frames — including
    # sequence numbers *beyond* anything the new epoch has used.  The
    # epoch must dominate: old-epoch frames are replays no matter their
    # sequence, while same-epoch (tie) frames follow sequence order.
    clock, _net, _leaf, global_tsdb, receiver, _client = _rig()
    old_epoch, new_epoch = 3, 7
    receiver.handle(encode_frame("leaf-0", old_epoch, 1, _entries(2)))
    # Recovery: the new incarnation starts shipping.
    receiver.handle(encode_frame(
        "leaf-0", new_epoch, 1, _entries(2, start_ns=10)))
    # Straggler from the dead incarnation, seq far beyond the new one's.
    stale = _entries(2, start_ns=50, metric="stale_total")
    assert receiver.handle(
        encode_frame("leaf-0", old_epoch, 9, stale)) == "ack 9 replayed=2"
    assert not global_tsdb.select_metric("stale_total", 0, 1000)
    # Epoch tie, lower-or-equal seq: replay.  Higher seq: applied.
    assert receiver.handle(encode_frame(
        "leaf-0", new_epoch, 1, _entries(2, start_ns=10),
    )) == "ack 1 replayed=2"
    ack = receiver.handle(encode_frame(
        "leaf-0", new_epoch, 2, _entries(2, start_ns=20)))
    assert ack == "ack 2 applied=2 deduped=0"
    assert receiver.last_epoch("leaf-0") == new_epoch
    assert receiver.frames_replayed == 2
    # Ledger: applied + replay hits == everything shipped at it.
    assert receiver.samples_applied + receiver.replay_dedup_hits == 10


def test_receiver_rejects_frames_claiming_its_own_identity():
    # The runtime half of the federation loop guard: a frame stamped
    # with the receiver's own sender identity can only be this relay's
    # output reflected back — fail it loudly instead of re-ingesting.
    clock = VirtualClock()
    network = HttpNetwork()
    receiver = RemoteWriteReceiver(Tsdb(), identity="region-0")
    receiver.expose(network, "region-0")
    assert receiver.handle(
        encode_frame("leaf-0", 0, 1, _entries(2))).startswith("ack 1")
    with pytest.raises(WalError):
        receiver.handle(encode_frame("region-0", 0, 1, _entries(2)))
    assert receiver.frames_rejected == 1
    assert receiver.samples_applied == 2


def test_note_late_arrival_regresses_watermark_and_clamps_queue():
    # The relay feed: samples landing *behind* the collected watermark
    # (a healed downstream spill) must regress the collect window, clamp
    # queued frames' durable watermarks, and be re-shipped on the next
    # flush — nothing may hide in the watermark's shadow.
    clock, network, leaf, global_tsdb, receiver, client = _rig(
        max_frame_samples=10, max_retries=0)
    clock.advance(seconds(10))
    _fill(leaf, 5, clock.now_ns)
    client.flush()
    assert client.watermark_ns == clock.now_ns

    # Queue a frame under an outage, then a late window lands in the
    # leaf TSDB (timestamps far behind the watermark).
    receiver.withdraw(network, "global-0")
    clock.advance(seconds(1))
    _fill(leaf, 5, clock.now_ns, metric="n_total")
    client.flush()
    assert client.queue_depth == 1
    late_start = seconds(2)
    for i in range(3):
        leaf.append_sample("late_total", late_start + i, float(i),
                           job="sgx", instance="n9")
    client.note_late_arrival(late_start)
    assert client.late_arrivals == 1
    assert client.watermark_ns == late_start - 1
    # The queued frame's ack must not persist a cursor past the late
    # window either.
    assert all(f.end_ns == late_start - 1 for f in client._queue)

    # Heal and flush: the spill drains, then the regressed window
    # re-collects — late samples ship, overlap dedupes upstream.
    receiver.expose(network, "global-0")
    clock.advance(seconds(1))
    client.flush()
    assert client.queue_depth == 0
    got = global_tsdb.select_metric("late_total", 0, clock.now_ns + 1)
    assert sum(len(s.samples) for s in got) == 3
    assert client.watermark_ns == clock.now_ns
    # A later arrival past the watermark is a no-op.
    client.note_late_arrival(clock.now_ns + seconds(5))
    assert client.late_arrivals == 1


def test_ship_filter_aggregate_mode_selects_rules_and_allowlist():
    assert build_ship_filter("raw") is None
    ship = build_ship_filter("aggregate", ("up", "teemon_*"))

    def labels_for(name):
        return Labels({"__name__": name, "job": "sgx", "instance": "n0"})

    assert ship(labels_for("job:syscalls:rate1m"))     # rule output
    assert ship(labels_for("up"))                      # exact allowlist
    assert ship(labels_for("teemon_scrape_duration"))  # prefix allowlist
    assert not ship(labels_for("ebpf_syscalls_total"))
    assert not ship(labels_for("sgx_epc_pages_evicted_total"))
    with pytest.raises(Exception):
        build_ship_filter("bogus")


def test_aggregate_client_ships_only_filtered_series():
    clock, network, leaf, global_tsdb, receiver, _unused = _rig()
    client = RemoteWriteClient(
        clock, network, leaf, receiver.url, "leaf-agg",
        rng=DeterministicRng(3),
        ship_filter=build_ship_filter("aggregate", ("up",)),
    )
    clock.advance(seconds(1))
    now = clock.now_ns
    leaf.append_sample("job:epc_evictions:rate1m", now, 4.0, job="sgx")
    leaf.append_sample("up", now, 1.0, job="sgx", instance="n0")
    leaf.append_sample("ebpf_syscalls_total", now, 900.0, job="sgx",
                       instance="n0")
    assert client.flush() == 2  # the raw series stayed home
    assert receiver.samples_applied == 2
    assert global_tsdb.select_metric("job:epc_evictions:rate1m", 0, now + 1)
    assert not global_tsdb.select_metric("ebpf_syscalls_total", 0, now + 1)


def test_sharded_receiver_ledger_matches_flat_ingest():
    # The same frames applied to a sharded engine (fingerprint-routed
    # blocks) and a monolith must accept/reject identically, so the
    # dedup ledger reconciles regardless of layout.
    entries = (
        _entries(40, job="sgx", instance="n0")
        + _entries(40, start_ns=1, metric="other_total", job="sgx",
                   instance="n1")
    )
    frames = [
        encode_frame("leaf-0", 0, seq + 1, entries[start:start + 25])
        for seq, start in enumerate(range(0, len(entries), 25))
    ]
    duplicate = encode_frame("replica-1", 0, 1, entries[:30])
    flat, sharded = RemoteWriteReceiver(Tsdb()), RemoteWriteReceiver(
        ShardedTsdb(shards=4))
    for receiver in (flat, sharded):
        for body in frames:
            receiver.handle(body)
        receiver.handle(duplicate)
    assert flat.stats() == sharded.stats()
    assert sharded.samples_applied == len(entries)
    assert sharded.samples_deduped == 30
    # Ledger: applied + deduped + replay == total shipped samples.
    shipped = len(entries) + 30
    assert (sharded.samples_applied + sharded.samples_deduped
            + sharded.replay_dedup_hits) == shipped


# ---------------------------------------------------------------------------
# Deployment wiring + crash recovery
# ---------------------------------------------------------------------------
def _federated_pair(seed=2, leaf_wal=True):
    clock = VirtualClock()
    network = HttpNetwork()
    global_kernel = Kernel(seed=seed + 100, hostname="global-0", clock=clock)
    global_dep = deploy(global_kernel, TeemonConfig(
        enable_exporters=False, enable_recording_rules=False,
        enable_anomaly_detection=False, enable_alerting=False,
        remote_write_receiver=True,
    ), network=network)
    from repro.sgx.driver import SgxDriver
    leaf_kernel = Kernel(seed=seed, hostname="leaf-0", clock=clock)
    leaf_kernel.load_module(SgxDriver())
    leaf_dep = deploy(leaf_kernel, TeemonConfig(
        enable_wal=leaf_wal,
        remote_write_url=global_dep.remote_write_receiver.url,
    ), network=network)
    return clock, network, leaf_dep, global_dep


def test_deployed_leaf_ships_to_global_tier():
    clock, _net, leaf_dep, global_dep = _federated_pair()
    clock.advance(seconds(60))
    leaf_dep.stop()  # graceful stop flushes the tail
    stats = leaf_dep.session.remote_write_stats()["client"]
    assert stats["samples_shipped"] > 0
    assert stats["queue_frames"] == 0
    # The leaf's series are queryable at the global tier.
    vector = global_dep.session.query('up{instance="leaf-0"}')
    assert vector and vector[0][1] == 1.0
    # Self-telemetry for the uplink landed in both TSDBs.
    assert global_dep.session.query(
        "teemon_remote_write_samples_applied_total")
    global_dep.stop()


def test_remote_write_stats_raises_when_unconfigured():
    kernel = Kernel(seed=1)
    from repro.sgx.driver import SgxDriver
    kernel.load_module(SgxDriver())
    deployment = deploy(kernel, TeemonConfig())
    with pytest.raises(DeploymentError):
        deployment.session.remote_write_stats()
    deployment.stop()


def test_leaf_crash_recovery_resumes_from_acked_cursor():
    clock, _net, leaf_dep, global_dep = _federated_pair(seed=4)
    supervisor = MonitorSupervisor(leaf_dep)
    clock.advance(seconds(40))
    acked_before = leaf_dep.remote_write_client.acked_seq
    assert acked_before > 0
    supervisor.crash()
    clock.advance(seconds(2))
    supervisor.recover()
    client = leaf_dep.remote_write_client
    # The resurrected client resumed from the durable cursor, not zero.
    # The cursor may trail the pre-crash position by the unflushed WAL
    # tail; the receiver dedups whatever that overlap re-sends.
    assert 0 < client.acked_seq <= acked_before
    assert client.watermark_ns > 0
    clock.advance(seconds(60))
    leaf_dep.stop()
    # Whatever overlap the dead incarnation re-sent was deduplicated:
    # every global series stays strictly monotonic with no duplicates.
    for series in global_dep.tsdb.select([], 0, clock.now_ns + 1):
        stamps = [s.time_ns for s in series.samples]
        assert stamps == sorted(set(stamps))
    global_dep.stop()


def test_intern_table_is_bounded_by_series_and_dies_with_the_receiver():
    # 100 fleet nodes -> leaf -> WAL relay -> global.  The relay's table
    # holds one entry per series the leaf ever shipped — it does not grow
    # with frames — and a crashed-and-rebuilt receiver starts empty.
    clock = VirtualClock()
    network = HttpNetwork()
    fleet = NodeFleet(Cluster(clock=clock), network, DeterministicRng(5))
    fleet.add_nodes(100)
    quiet = TeemonConfig(
        enable_exporters=False, enable_recording_rules=False,
        enable_anomaly_detection=False, enable_alerting=False,
    )
    receiving = replace(
        quiet, enable_self_telemetry=False, remote_write_receiver=True)
    topo = FederationTopology(clock, network)
    topo.add("global", receiving)
    topo.add("region-0", replace(receiving, enable_wal=True),
             uplink="global")
    topo.add("leaf-0", quiet, uplink="region-0")
    nodes = topo.build()
    leaf, relay = nodes["leaf-0"], nodes["region-0"]
    leaf.add_discovery(fleet.discovery())

    clock.advance(seconds(20))
    receiver = relay.remote_write_receiver
    table = receiver._interned  # noqa: SLF001
    size, frames = len(table), receiver.frames_applied
    assert size >= 100
    clock.advance(seconds(20))
    assert receiver.frames_applied > frames
    assert len(table) == size  # steady state: no growth per frame
    shipped = {
        labels for labels, _t, _v in leaf.tsdb.select_arrays(
            [], 0, leaf.remote_write_client.watermark_ns)
    }
    assert {entry[2] for entry in table.values()} == shipped
    # Storage holds the interned objects themselves, not equal copies.
    stored = {id(labels) for labels, _storage in relay.tsdb.series_items()}
    assert all(id(entry[2]) in stored for entry in table.values())

    topo.crash("region-0")
    clock.advance(seconds(2))
    topo.recover("region-0")
    rebuilt = relay.remote_write_receiver
    assert rebuilt is not receiver
    assert rebuilt._interned == {}  # noqa: SLF001
    clock.advance(seconds(20))
    assert 0 < len(rebuilt._interned) <= len(shipped) + 8  # noqa: SLF001
    for deployment in nodes.values():
        deployment.stop()
