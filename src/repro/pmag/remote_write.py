"""Federation: remote-write between monitor tiers.

The paper's §5.4 deployment is one monitor scraping one exporter per
node.  A fleet needs a *tier*: leaf monitors scrape their local targets
and ship everything upstream, where a global monitor holds the
fleet-wide view (the Prometheus remote-write / Thanos receive shape).
This module is that uplink, hardened the same way the scrape path is:

* :class:`RemoteWriteClient` — runs inside a leaf monitor.  Each flush
  tick it *collects* every sample the leaf TSDB accepted since its
  watermark, packs them into compressed shard-partitioned frames (one
  CRC-guarded block per series, fingerprinted with the same CRC32 the
  sharded engine routes on), and *pumps* the frame queue to the receiver
  with jittered-exponential retry/backoff on the virtual clock.  The
  queue is bounded: while the uplink is down the leaf keeps serving
  local queries and spills frames to the queue; past ``queue_max_frames``
  the oldest frames are dropped and counted (graceful degradation, never
  memory growth).  With ``federation_mode: aggregate`` the collect ships
  only recording-rule outputs plus a raw allowlist — the leaf-side
  pushdown that keeps region uplinks cheap.
* :class:`RemoteWriteReceiver` — runs inside the global (or a region)
  monitor.  Frames carry a per-incarnation *epoch* and per-sender
  monotonic sequence numbers: within one epoch, a frame whose sequence
  is not beyond the sender's last applied one is a *replay* (a retry of
  a delivery whose ack was lost) and is acknowledged without being
  applied — exactly-once at frame granularity.  A frame with a *newer*
  epoch is a recovered incarnation of the sender: its sequence numbering
  restarts, so frames it sends are never mistaken for replays of the
  dead incarnation's deliveries.  Within an applied frame, the TSDB's
  per-series monotonic-append check rejects any sample whose (series
  fingerprint, timestamp) already landed — exactly-once at sample
  granularity, which is also what deduplicates an HA *pair* of leaves
  shipping the same scrape (see :mod:`repro.teemon.ha`) and absorbs the
  overlap a recovered incarnation re-ships under its fresh epoch.  The
  per-series blocks land through the engine's ``append_fingerprinted``:
  one ``append_batch``, routed by labels on a sharded engine.
* *Relays* — a monitor that is both receiver and client forwards
  everything it ingests upstream under its **own** sender identity,
  epoch and sequence numbering (re-stamping is automatic: the relay's
  client collects from the relay's TSDB by time window, so upstream
  tiers see one well-ordered sender per relay, never the leaves'
  numbering).  Frames that arrive carrying samples *older* than the
  relay's collected watermark (a healed leaf partition draining its
  spill) regress the collect window via :meth:`RemoteWriteClient.
  note_late_arrival` so the next flush re-ships them; the upstream
  receiver's dedup absorbs any overlap the regression re-sends.  A
  receiver built with its own ``identity`` rejects frames claiming to
  come from itself — the loop guard for mis-wired topologies.
* Durability — the client's watermark and last-acked sequence persist as
  WAL cursor frames (the same channel the rule evaluator uses), so a
  crashed-and-recovered leaf resumes shipping from its last acked
  position: anything re-sent is deduplicated by the receiver, anything
  in the WAL loss window is accounted by ``samples_lost``, and nothing
  is double-counted.  Each frame's durable watermark is the highest
  sample timestamp *that frame* actually carries (collection sorts by
  timestamp before chunking), so a crash between the chunks of one
  collect window can never advance the cursor past samples whose
  delivery was still pending.

Self-telemetry lands in the local TSDB as ``teemon_remote_write_*``
series (queue depth, frames in flight, retries, dropped frames, dedup
hits) and, on the receiving side, per-sender
``teemon_federation_lag_seconds`` — so the federation tier is observable
with the same PromQL as everything else, and the ``pmv`` federation
timeline renders the lag per sender.
"""

from __future__ import annotations

import base64
import struct
import zlib
from collections import deque
from itertools import repeat
from operator import itemgetter
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import TsdbError, WalError
from repro.net.http import HttpNetwork
from repro.pmag.model import Labels, METRIC_NAME_LABEL
from repro.pmag.rules import is_recorded_output
from repro.pmag.storage import series_fingerprint
from repro.pmag.tsdb import StorageEngine
from repro.pmag.wal import MAX_RECORD_BYTES, pack_labels, unpack_labels
from repro.simkernel.clock import NANOS_PER_SEC, VirtualClock
from repro.simkernel.rng import DeterministicRng

#: Port/path convention for the receiving endpoint (Prometheus uses
#: ``/api/v1/write`` on its own port; 9009 is the Cortex/Mimir habit).
REMOTE_WRITE_PORT = 9009
REMOTE_WRITE_PATH = "/api/v1/write"

#: Wire-format version tag, first token of every frame.  Version 2
#: added the sender-incarnation epoch to the header; version 3 replaced
#: the flat record stream with shard-partitioned per-series blocks
#: (fingerprint + one label block + packed samples, CRC32 per block).
FRAME_MAGIC = "teemon-rw/3"

#: Identity labels of the client's self-series in the *local* TSDB.
#: ``record_self_series`` adds a ``source`` label so the series of
#: different senders never collide when they meet at an upper tier.
CLIENT_IDENTITY = {"job": "pmag", "instance": "remote_write"}
#: Identity labels of the receiver's self-series in the ingesting TSDB.
#: ``record_self_series`` adds a ``host`` label so a relay's receiver
#: series stay distinct from the global receiver's after forwarding.
RECEIVER_IDENTITY = {"job": "pmag", "instance": "remote_write_receiver"}


#: WAL cursor keys persisting the client's durable uplink position.
#: ``:`` keeps them out of the rule evaluator's ``group/record`` space
#: (unknown keys are ignored there anyway).
def watermark_cursor_key(source: str) -> str:
    """Cursor key holding the highest acked sample timestamp."""
    return f"remote-write:wm:{source}"


def sequence_cursor_key(source: str) -> str:
    """Cursor key holding the last acked frame sequence number."""
    return f"remote-write:seq:{source}"


#: Raw metrics an aggregate-mode uplink still ships: target liveness and
#: the monitor's own telemetry, so global-tier alerting on leaf health
#: keeps working.
AGGREGATE_RAW_ALLOWLIST = ("up", "teemon_*")


def is_wire_safe(token: str) -> bool:
    """Whether ``token`` can sit in a space-separated frame header."""
    return bool(token) and " " not in token and "\n" not in token


def build_ship_filter(
    mode: str, allowlist: Sequence[str] = AGGREGATE_RAW_ALLOWLIST,
) -> Optional[Callable[[Labels], bool]]:
    """The collect-side series filter a ``federation_mode`` asks for.

    ``"raw"`` returns None (ship everything — the flat-tier default).
    ``"aggregate"`` ships only recording-rule outputs (colon-namespaced
    metric names) plus metrics matching the ``allowlist``: exact names,
    or prefixes written with a trailing ``*`` (``"teemon_*"``).
    """
    if mode == "raw":
        return None
    if mode != "aggregate":
        raise TsdbError(f"unknown federation mode: {mode!r}")
    exact = frozenset(name for name in allowlist if not name.endswith("*"))
    prefixes = tuple(name[:-1] for name in allowlist if name.endswith("*"))

    def ship(labels: Labels) -> bool:
        name = labels.get(METRIC_NAME_LABEL) or ""
        if is_recorded_output(name) or name in exact:
            return True
        return bool(prefixes) and name.startswith(prefixes)

    return ship


def encode_frame(
    sender: str, epoch: int, seq: int,
    entries: List[Tuple[Labels, int, float]],
    headers: Optional[Dict[Labels, bytes]] = None,
) -> str:
    """One batched, compressed, shard-partitioned frame as an HTTP body.

    Header line ``teemon-rw/3 <sender> <epoch> <seq> <count>``, then the
    base64 of the zlib-compressed concatenation of per-series blocks::

        u32 len | u32 crc32(block) | block
        block = u32 fingerprint | u32 label_count
                (u16-len key | u16-len value)*     -- sorted by key
                u32 sample_count | (i64 time_ns | f64 value)*

    Each series' label set is encoded **once** per frame and stamped
    with the same CRC32 fingerprint :func:`series_fingerprint` computes,
    so a sharded receiver routes whole blocks to their shards without
    re-deriving the fingerprint per sample.  Per-block CRC32 keeps the
    on-the-wire integrity story of the on-disk log.  ``epoch``
    identifies the sender *incarnation* (a recovered monitor gets a
    fresh, strictly larger one), ``seq`` orders frames within it.
    ``headers`` is an optional cross-frame memo of each series' block
    header (all before ``sample_count``): a client serialises a label
    set once, and one that fails a check is never memoised.
    """
    if not is_wire_safe(sender):
        raise WalError(f"sender not wire-safe: {sender!r}")
    if headers is None:
        headers = {}
    # Grouped by header bytes, not by label set: a header names exactly
    # one series, and hashing bytes never re-enters Python.
    groups: Dict[bytes, list] = {}
    for labels, time_ns, value in entries:
        header = headers.get(labels)
        if header is None:
            header = headers[labels] = struct.pack(
                "<II", series_fingerprint(labels), len(labels.items())
            ) + pack_labels(labels)
        flat = groups.get(header)
        if flat is None:
            groups[header] = [time_ns, value]
        else:
            flat += (time_ns, value)
    pieces: List[bytes] = []
    for header, flat in groups.items():
        count = len(flat) // 2
        block = header + struct.pack("<I" + "qd" * count, count, *flat)
        if len(block) > MAX_RECORD_BYTES:
            raise WalError(f"series block too large: {len(block)} bytes")
        pieces.append(struct.pack("<II", len(block), zlib.crc32(block)))
        pieces.append(block)
    body = base64.b64encode(zlib.compress(b"".join(pieces), 6)).decode("ascii")
    return f"{FRAME_MAGIC} {sender} {epoch} {seq} {len(entries)}\n{body}"


def decode_frame_blocks(
    text: str, interned: Optional[Dict[bytes, tuple]] = None,
) -> Tuple[str, int, int, List[Tuple[int, Labels, List[Tuple[int, float]]]]]:
    """Inverse of :func:`encode_frame`, keeping the per-series shape.

    Returns ``(sender, epoch, seq, blocks)`` where each block is
    ``(fingerprint, labels, [(time_ns, value), ...])`` — the unit the
    sharded ingest path routes.  Raises :class:`WalError` on any
    framing, CRC, count or compression damage.

    ``interned`` is a receiver's table of headers already parsed:
    ``block[:8] -> (header, fingerprint, labels)``.  A header is
    self-delimiting, so a block that *starts with* a known one parses to
    the same labels and end offset as walking it would — a hit skips the
    walk, never a check, and yields the one interned ``Labels`` object.
    A miss parses in full and verifies the stamp; new headers are
    committed only once the whole frame has decoded.
    """
    header, sep, body = text.partition("\n")
    pieces = header.split()
    if len(pieces) != 5 or pieces[0] != FRAME_MAGIC or not sep:
        raise WalError(f"malformed remote-write frame header: {header!r}")
    sender = pieces[1]
    try:
        epoch = int(pieces[2])
        seq = int(pieces[3])
        count = int(pieces[4])
    except ValueError:
        raise WalError(f"bad frame epoch/sequence/count: {header!r}") from None
    try:
        payload = zlib.decompress(base64.b64decode(body.encode("ascii")))
    except Exception as exc:  # noqa: BLE001 - any transport damage
        raise WalError(f"undecodable frame payload: {exc}") from exc
    if interned is None:
        interned = {}
    fresh: Dict[bytes, tuple] = {}
    blocks: List[Tuple[int, Labels, List[Tuple[int, float]]]] = []
    total = 0
    pos = 0
    size = len(payload)
    while pos < size:
        if size - pos < 8:
            raise WalError("truncated block frame in remote-write payload")
        length, crc = struct.unpack_from("<II", payload, pos)
        if not 0 < length <= MAX_RECORD_BYTES:
            raise WalError(f"implausible block length: {length}")
        block = payload[pos + 8:pos + 8 + length]
        if len(block) != length:
            raise WalError("truncated block in remote-write payload")
        if zlib.crc32(block) != crc:
            raise WalError("block CRC mismatch in remote-write frame")
        try:
            known = interned.get(block[:8])
            if known is not None and block.startswith(known[0]):
                offset = len(known[0])
            else:
                fingerprint, label_count = struct.unpack_from("<II", block, 0)
                labels, offset = unpack_labels(block, 8, label_count)
                if series_fingerprint(labels) != fingerprint:
                    raise WalError(
                        f"block fingerprint {fingerprint} is not {labels!r}'s")
                known = (block[:offset], fingerprint, labels)
                fresh[block[:8]] = known
            (sample_count,) = struct.unpack_from("<I", block, offset)
            offset += 4
            if offset + 16 * sample_count != length:
                raise WalError("block sample region length mismatch")
            samples = list(struct.iter_unpack("<qd", block[offset:]))
        except (struct.error, UnicodeDecodeError) as exc:
            raise WalError(f"malformed series block: {exc}") from exc
        blocks.append((known[1], known[2], samples))
        total += sample_count
        pos += 8 + length
    if total != count:
        raise WalError(
            f"frame count mismatch: header {count}, payload {total}"
        )
    interned.update(fresh)
    return sender, epoch, seq, blocks


def decode_frame(
    text: str,
) -> Tuple[str, int, int, List[Tuple[Labels, int, float]]]:
    """Inverse of :func:`encode_frame`, flattened to (labels, ts, value).

    Entries come back grouped by series (block order), each series in
    its shipped sample order.
    """
    sender, epoch, seq, blocks = decode_frame_blocks(text)
    entries = [
        (labels, time_ns, value)
        for _fingerprint, labels, samples in blocks
        for time_ns, value in samples
    ]
    return sender, epoch, seq, entries


class RemoteWriteReceiver:
    """Ingests remote-write frames into the local monitor's TSDB.

    Dedup happens at two granularities:

    * **frame replays** — a frame whose (epoch, sequence) is ≤ the
      sender's last applied one was already ingested (the client retried
      because the ack was lost in transit); it is acknowledged again and
      its samples are counted as :attr:`replay_dedup_hits` without
      touching storage.  A frame with a *larger* epoch is a recovered
      incarnation of the sender whose sequence numbering restarts: it is
      always treated as forward progress, never as a replay, because the
      dead incarnation may have delivered frames whose acks were lost —
      sequence numbers alone cannot distinguish "you already sent me
      this" from "a previous you sent me something else under this
      number";
    * **sample duplicates** — within an applied frame, the storage
      engine's per-series monotonic-append check rejects every sample
      whose (series fingerprint, timestamp) is already present, counted
      as :attr:`samples_deduped`.  This is what collapses an HA pair of
      leaves shipping the same scrape into exactly one stored copy: the
      replica whose frame arrives first wins, and
      :class:`~repro.teemon.ha.HAMonitorPair` staggers replica flush
      ticks by priority so "first" is deterministically the
      lower-priority-number replica.

    Shard routing: the frame's per-series blocks go to the engine's
    ``append_fingerprinted`` whole and flatten into one ``append_batch``;
    a sharded engine splits that into per-shard batches by labels.  The
    decoder has already checked every block's fingerprint against its
    labels.  Accept/reject outcomes are identical on every layout, so
    the dedup ledger reconciles exactly.

    Relays: :meth:`attach_relay` couples this receiver to the
    co-resident :class:`RemoteWriteClient` of a relay deployment.  Every
    applied frame notifies the client of the oldest timestamp it landed,
    so samples arriving *behind* the relay's collected watermark (a
    healed downstream partition draining) are re-collected and shipped
    upstream instead of falling into the watermark's shadow.  A receiver
    given its own ``identity`` rejects frames claiming that identity —
    a relay loop would otherwise replay its own output forever.

    (Epoch, sequence) state is per *sender* and lives in monitor memory:
    after a receiving-monitor crash the map is empty, so the receiver
    accepts any epoch/sequence and relies on sample-granularity dedup
    for the overlap a resuming client re-sends.
    """

    def __init__(self, tsdb: StorageEngine,
                 identity: Optional[str] = None) -> None:
        self._tsdb = tsdb
        self._identity = identity
        #: sender -> (epoch, seq) of the last applied frame.
        self._last_applied: Dict[str, Tuple[int, int]] = {}
        #: sender -> newest sample timestamp applied (feeds the
        #: ``teemon_federation_lag_seconds`` gauge).
        self._newest_applied: Dict[str, int] = {}
        self._relay_clients: List["RemoteWriteClient"] = []
        #: Block headers already parsed (:func:`decode_frame_blocks`):
        #: one entry per series shipped here, gone with this incarnation.
        self._interned: Dict[bytes, tuple] = {}
        self._endpoint = None
        self._host: Optional[str] = None
        self.frames_received = 0
        self.frames_applied = 0
        self.frames_replayed = 0
        self.frames_rejected = 0
        self.samples_applied = 0
        self.samples_deduped = 0
        self.replay_dedup_hits = 0

    # ------------------------------------------------------------------
    def expose(self, network: HttpNetwork, host: str,
               port: int = REMOTE_WRITE_PORT,
               path: str = REMOTE_WRITE_PATH):
        """Register the write endpoint on the simulated network."""
        endpoint = network.register(host, port, path, self._status_body)
        endpoint.post_handler = self.handle
        self._endpoint = endpoint
        self._host = host
        return endpoint

    def withdraw(self, network: HttpNetwork, host: str,
                 port: int = REMOTE_WRITE_PORT,
                 path: str = REMOTE_WRITE_PATH) -> None:
        """Remove the write endpoint (the receiving process died)."""
        network.unregister(host, port, path)
        self._endpoint = None

    @property
    def url(self) -> str:
        """Endpoint URL once exposed."""
        if self._endpoint is None:
            raise TsdbError("remote-write receiver not exposed yet")
        return self._endpoint.url

    def attach_relay(self, client: "RemoteWriteClient") -> None:
        """Couple a co-resident uplink client (this monitor is a relay).

        Applied frames notify the client of late arrivals so nothing
        lands in the shadow of its collected watermark.
        """
        self._relay_clients.append(client)

    def _status_body(self) -> str:
        return (
            f"remote_write_frames_received_total {self.frames_received}\n"
            f"remote_write_samples_applied_total {self.samples_applied}\n"
        )

    # ------------------------------------------------------------------
    def handle(self, body: str) -> str:
        """Apply one frame; returns the ack line the client parses.

        A malformed frame — or one claiming this receiver's own sender
        identity, the federation-loop guard — raises (the transport
        turns that into a 500; a loop frame failing forever is the
        correct outcome, the topology is mis-wired).
        """
        self.frames_received += 1
        try:
            sender, epoch, seq, blocks = decode_frame_blocks(
                body, self._interned)
        except WalError:
            self.frames_rejected += 1
            raise
        if self._identity is not None and sender == self._identity:
            self.frames_rejected += 1
            raise WalError(
                f"federation loop: frame sender {sender!r} is this "
                f"receiver's own identity"
            )
        total = 0
        lows: List[int] = []
        highs: List[int] = []
        for _fp, _labels, samples in blocks:
            if samples:  # (t, v) tuples order by t
                total += len(samples)
                lows.append(min(samples)[0])
                highs.append(max(samples)[0])
        last_epoch, last_seq = self._last_applied.get(sender, (-1, 0))
        if epoch < last_epoch or (epoch == last_epoch and seq <= last_seq):
            self.frames_replayed += 1
            self.replay_dedup_hits += total
            return f"ack {seq} replayed={total}"
        rejected = self._tsdb.append_fingerprinted(blocks) if total else 0
        applied = total - rejected
        self.samples_applied += applied
        self.samples_deduped += rejected
        self.frames_applied += 1
        self._last_applied[sender] = (epoch, seq)
        if applied:
            self._newest_applied[sender] = max(
                self._newest_applied.get(sender, 0), *highs)
            for client in self._relay_clients:
                client.note_late_arrival(min(lows))
        return f"ack {seq} applied={applied} deduped={rejected}"

    # ------------------------------------------------------------------
    def last_sequence(self, sender: str) -> int:
        """Last applied frame sequence for one sender (0 = none)."""
        return self._last_applied.get(sender, (-1, 0))[1]

    def last_epoch(self, sender: str) -> int:
        """Epoch of the sender's last applied frame (-1 = none)."""
        return self._last_applied.get(sender, (-1, 0))[0]

    def lag_seconds(self, now_ns: int) -> Dict[str, float]:
        """Per-sender federation lag: virtual now minus the newest
        applied sample timestamp (0 before a sender's first apply)."""
        return {
            sender: max(0.0, (now_ns - newest) / NANOS_PER_SEC)
            for sender, newest in sorted(self._newest_applied.items())
        }

    def stats(self) -> Dict[str, int]:
        """Receiver counters as a plain mapping."""
        return {
            "frames_received": self.frames_received,
            "frames_applied": self.frames_applied,
            "frames_replayed": self.frames_replayed,
            "frames_rejected": self.frames_rejected,
            "samples_applied": self.samples_applied,
            "samples_deduped": self.samples_deduped,
            "replay_dedup_hits": self.replay_dedup_hits,
        }

    def record_self_series(self, now_ns: int) -> None:
        """Append the receiver's counters into the receiving TSDB.

        The ``host`` label keeps a relay's receiver series distinct from
        the next tier's own once they are forwarded upstream; the
        per-sender lag gauge is what the ``pmv`` federation timeline
        renders.
        """
        identity = dict(RECEIVER_IDENTITY)
        if self._host is not None:
            identity["host"] = self._host
        counters = (
            ("teemon_remote_write_frames_received_total", self.frames_received),
            ("teemon_remote_write_frames_replayed_total", self.frames_replayed),
            ("teemon_remote_write_samples_applied_total", self.samples_applied),
            ("teemon_remote_write_samples_deduped_total", self.samples_deduped),
            ("teemon_remote_write_replay_dedup_hits_total",
             self.replay_dedup_hits),
        )
        entries = [
            (Labels.of(metric, **identity), now_ns, float(value))
            for metric, value in counters
        ]
        entries.extend(
            (Labels.of("teemon_federation_lag_seconds", sender=sender,
                       **identity), now_ns, lag_s)
            for sender, lag_s in self.lag_seconds(now_ns).items()
        )
        # One commit; at a repeated instant the duplicates are dropped.
        self._tsdb.append_batch(entries)


class _Frame:
    """One queued frame: samples collected but not yet acknowledged.

    ``end_ns`` is the watermark this frame's ack justifies: every
    collected sample with a timestamp ≤ ``end_ns`` sits in this frame or
    an earlier one (delivery is strictly in order), so persisting it on
    ack can never skip samples whose delivery is still pending.  A
    late-arrival regression clamps it downward (see
    :meth:`RemoteWriteClient.note_late_arrival`).
    """

    __slots__ = ("seq", "entries", "end_ns", "attempts")

    def __init__(self, seq: int, entries: List[Tuple[Labels, int, float]],
                 end_ns: int) -> None:
        self.seq = seq
        self.entries = entries
        self.end_ns = end_ns
        self.attempts = 0


class RemoteWriteClient:
    """Ships the local TSDB's samples upstream in sequence-numbered frames.

    ``flush()`` (the deployment runs it on a virtual-clock cadence,
    staggered by ``priority`` so HA replicas never deliver at the same
    instant in ambiguous order, and by ``tier`` so a relay collects only
    after the tier below has delivered at a shared instant) does two
    things: *collect* — snapshot every sample in ``(collected watermark,
    now]`` that passes the ship filter into frames of at most
    ``max_frame_samples`` — and *pump* — deliver queued frames in
    sequence order, one in flight at a time, with jittered-exponential
    retry on the virtual clock.  Delivery failures leave the frame at the
    head of the queue; after ``max_retries`` failed attempts the pump
    goes idle until the next flush tick, so a dead uplink costs one
    bounded retry burst per cadence, not an unbounded timer storm.

    Durability: when a WAL is attached, each acked frame persists the new
    watermark and sequence as cursor frames (keyed by ``cursor_name``,
    which defaults to ``source`` — mirror clients shipping the same TSDB
    to a second receiver use a distinct name so the cursors never
    collide).  A crashed leaf seeds both from recovery (:meth:`seed`)
    and resumes from the acked position — the receiver's dedup absorbs
    any overlap.
    """

    def __init__(
        self,
        clock: VirtualClock,
        network: HttpNetwork,
        tsdb: StorageEngine,
        url: str,
        source: str,
        wal=None,
        max_frame_samples: int = 500,
        queue_max_frames: int = 64,
        timeout_budget_s: float = 1.0,
        max_retries: int = 2,
        backoff_base_s: float = 0.25,
        backoff_jitter: float = 0.5,
        rng: Optional[DeterministicRng] = None,
        priority: int = 0,
        stagger_ns: int = 1_000_000,
        tier: int = 0,
        ship_filter: Optional[Callable[[Labels], bool]] = None,
        cursor_name: Optional[str] = None,
    ) -> None:
        if max_frame_samples < 1:
            raise TsdbError(f"max_frame_samples must be >= 1: {max_frame_samples}")
        if queue_max_frames < 1:
            raise TsdbError(f"queue_max_frames must be >= 1: {queue_max_frames}")
        if timeout_budget_s <= 0:
            raise TsdbError(f"timeout budget must be positive: {timeout_budget_s}")
        if max_retries < 0:
            raise TsdbError(f"negative retry count: {max_retries}")
        if backoff_base_s <= 0:
            raise TsdbError(f"backoff base must be positive: {backoff_base_s}")
        if not 0.0 <= backoff_jitter < 1.0:
            raise TsdbError(f"backoff jitter must be in [0, 1): {backoff_jitter}")
        if priority < 0:
            raise TsdbError(f"priority cannot be negative: {priority}")
        if tier < 0:
            raise TsdbError(f"tier cannot be negative: {tier}")
        self._clock = clock
        self._network = network
        self._tsdb = tsdb
        self.url = url
        self.source = source
        self._wal = wal
        self.max_frame_samples = max_frame_samples
        self.queue_max_frames = queue_max_frames
        self.timeout_budget_s = timeout_budget_s
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_jitter = backoff_jitter
        self.priority = priority
        self.tier = tier
        #: Flush-tick offset: replica priority staggers HA pairs apart
        #: (1 ms steps), tier staggers a relay's collect *after* the
        #: deliveries of the tier below at a shared virtual instant
        #: (2 ms per tier — strictly beyond any replica stagger), so in
        #: steady state a relay never collects a window that downstream
        #: frames are still about to land in.
        self.stagger_offset_ns = (priority + 2 * tier) * stagger_ns
        self.ship_filter = ship_filter
        self.cursor_name = cursor_name if cursor_name is not None else source
        self._rng = (rng or DeterministicRng(0)).fork("remote-write")
        #: Incarnation stamp carried by every frame.  Construction time
        #: on the virtual clock is strictly increasing across the
        #: incarnations of one sender (a recovered monitor rebuilds its
        #: client after the crash it recovers from), so the receiver can
        #: tell "the same incarnation retried seq N" from "a new
        #: incarnation reused seq N for different content".
        self.epoch = clock.now_ns
        self._queue: Deque[_Frame] = deque()
        self._retry_timer = None
        self._stopped = False
        #: Highest sample timestamp *collected* into a frame (in-memory).
        self._collected_ns = 0
        #: Highest sample timestamp *acknowledged* upstream (durable).
        self.watermark_ns = 0
        #: Sequence of the last frame built / last frame acked.
        self._seq = 0
        self.acked_seq = 0
        #: Cross-frame block-header memo for the v3 encoder.
        self._headers: Dict[Labels, bytes] = {}
        self.frames_sent = 0
        self.frames_acked = 0
        self.frames_dropped = 0
        self.retries_total = 0
        self.send_failures = 0
        self.samples_shipped = 0
        self.samples_dropped = 0
        self.bytes_shipped = 0
        self.late_arrivals = 0

    # ------------------------------------------------------------------
    # Recovery seeding
    # ------------------------------------------------------------------
    def seed(self, watermark_ns: Optional[int],
             acked_seq: Optional[int]) -> None:
        """Restore the durable uplink position after a crash.

        The queue restarts empty: everything past the acked watermark is
        still in the recovered TSDB and will be re-collected on the next
        flush; the receiver deduplicates whatever the dead incarnation
        already delivered without managing to persist the cursor.

        Sequence numbering resumes from the durable cursor, which may
        *reuse* numbers the dead incarnation sent past its last durable
        ack — safe because this incarnation's :attr:`epoch` is fresh, so
        the receiver treats every frame it sends as forward progress
        (never as a replay of the dead incarnation's deliveries) and
        sample-level dedup absorbs any actual overlap.
        """
        self.epoch = self._clock.now_ns
        if watermark_ns is not None:
            self._collected_ns = self.watermark_ns = watermark_ns
        if acked_seq is not None:
            self._seq = self.acked_seq = acked_seq

    def stop(self) -> None:
        """Cancel the retry timer (the leaf monitor is stopping/dying)."""
        self._stopped = True
        if self._retry_timer is not None:
            self._retry_timer.cancel()
            self._retry_timer = None

    # ------------------------------------------------------------------
    # Relay feed
    # ------------------------------------------------------------------
    def note_late_arrival(self, min_time_ns: int) -> None:
        """Samples at/after ``min_time_ns`` just landed *behind* the
        collected watermark (a relay's receiver applied a healed
        downstream spill).  Regress the collect window so the next flush
        re-collects from just before them, clamp every queued frame's
        durable watermark to the regression point (an ack of a
        pre-regression frame must not persist a cursor past samples that
        are no longer covered), and persist the regressed watermark so a
        crash before the re-ship still resumes behind the late window.
        The upstream receiver's sample dedup absorbs whatever the
        re-collect re-ships.
        """
        point = min_time_ns - 1
        if point >= self._collected_ns:
            return
        self.late_arrivals += 1
        self._collected_ns = point
        for frame in self._queue:
            if frame.end_ns > point:
                frame.end_ns = point
        if self.watermark_ns > point:
            self.watermark_ns = point
            if self._wal is not None:
                self._wal.append_cursor(
                    watermark_cursor_key(self.cursor_name), point
                )

    # ------------------------------------------------------------------
    # Collect + pump
    # ------------------------------------------------------------------
    def flush(self, now_ns: Optional[int] = None) -> int:
        """Collect new samples into frames and pump the queue.

        Returns the number of samples newly collected this call.
        """
        self._stopped = False
        now = self._clock.now_ns if now_ns is None else now_ns
        collected = self._collect(now)
        if self._retry_timer is None:
            self._pump()
        return collected

    def _collect(self, now_ns: int) -> int:
        if now_ns <= self._collected_ns:
            return 0
        entries: List[Tuple[Labels, int, float]] = []
        # Window is (collected, now]: select is inclusive on both ends,
        # so the left edge is nudged one ns past the last collected stamp.
        ship = self.ship_filter
        for labels, times, values in self._tsdb.select_arrays(
                [], self._collected_ns + 1, now_ns):
            if ship is None or ship(labels):
                entries.extend(zip(repeat(labels), times, values))
        self._collected_ns = now_ns
        if not entries:
            return 0
        # Chunk in timestamp order (stable, so per-series order is kept)
        # and give each frame the watermark its own ack justifies: the
        # newest timestamp fully covered by it and its predecessors.
        # Only the final frame may claim the whole window end — an ack
        # of an earlier chunk must not durably skip samples still queued
        # behind it (they would be silently lost across a crash).
        entries.sort(key=itemgetter(1))
        for start in range(0, len(entries), self.max_frame_samples):
            chunk = entries[start:start + self.max_frame_samples]
            nxt = start + self.max_frame_samples
            if nxt >= len(entries):
                end_ns = now_ns
            elif entries[nxt][1] == chunk[-1][1]:
                # The boundary splits a timestamp: samples at it are
                # still pending in the next chunk, so the watermark this
                # ack justifies stops just short of it.
                end_ns = chunk[-1][1] - 1
            else:
                end_ns = chunk[-1][1]
            self._seq += 1
            self._queue.append(_Frame(self._seq, chunk, end_ns))
        while len(self._queue) > self.queue_max_frames:
            dropped = self._queue.popleft()
            self.frames_dropped += 1
            self.samples_dropped += len(dropped.entries)
        return len(entries)

    def _pump(self) -> None:
        """Deliver queued frames in order until one fails or none remain."""
        while self._queue and not self._stopped:
            frame = self._queue[0]
            if not self._attempt(frame):
                return
            self._acknowledge(frame)

    def _attempt(self, frame: _Frame) -> bool:
        """One delivery try; schedules a retry (or gives up) on failure."""
        frame.attempts += 1
        self.frames_sent += 1
        body = encode_frame(self.source, self.epoch, frame.seq, frame.entries,
                            self._headers)
        response = self._network.post_url(self.url, body)
        latency_s = getattr(response, "latency_s", 0.0)
        ok = (
            response.ok
            and latency_s <= self.timeout_budget_s
            and response.body.startswith(f"ack {frame.seq}")
        )
        if ok:
            self.bytes_shipped += len(body)
            return True
        if frame.attempts <= self.max_retries:
            delay_s = self.backoff_base_s * (2 ** (frame.attempts - 1))
            if self.backoff_jitter:
                delay_s *= 1.0 + self.backoff_jitter * (
                    2.0 * self._rng.random() - 1.0
                )
            self._retry_timer = self._clock.call_later(
                int(delay_s * NANOS_PER_SEC), self._retry
            )
        else:
            # Out of retries this cadence: leave the frame queued (the
            # next flush pumps again) — spill, don't spin.
            self.send_failures += 1
        return False

    def _retry(self) -> None:
        self._retry_timer = None
        if self._stopped:
            return
        self.retries_total += 1
        self._pump()

    def _acknowledge(self, frame: _Frame) -> None:
        self._queue.popleft()
        self.frames_acked += 1
        self.samples_shipped += len(frame.entries)
        self.acked_seq = frame.seq
        # Assignment, not max(): frames ack strictly in order, and a
        # late-arrival regression legitimately *lowers* the watermark a
        # clamped frame justifies — max() would resurrect the higher
        # pre-regression cursor and shadow the late window across a crash.
        self.watermark_ns = frame.end_ns
        if self._wal is not None:
            self._wal.append_cursor(
                watermark_cursor_key(self.cursor_name), self.watermark_ns
            )
            self._wal.append_cursor(
                sequence_cursor_key(self.cursor_name), self.acked_seq
            )

    # ------------------------------------------------------------------
    # Introspection / self-telemetry
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Frames currently spilled to the send queue."""
        return len(self._queue)

    @property
    def queued_samples(self) -> int:
        """Samples inside queued frames."""
        return sum(len(frame.entries) for frame in self._queue)

    @property
    def frames_inflight(self) -> int:
        """Queued frames with at least one delivery attempt outstanding."""
        return sum(1 for frame in self._queue if frame.attempts)

    def stats(self) -> Dict[str, int]:
        """Client counters as a plain mapping."""
        return {
            "queue_frames": self.queue_depth,
            "queue_samples": self.queued_samples,
            "frames_inflight": self.frames_inflight,
            "frames_sent": self.frames_sent,
            "frames_acked": self.frames_acked,
            "frames_dropped": self.frames_dropped,
            "retries_total": self.retries_total,
            "send_failures": self.send_failures,
            "samples_shipped": self.samples_shipped,
            "samples_dropped": self.samples_dropped,
            "bytes_shipped": self.bytes_shipped,
            "late_arrivals": self.late_arrivals,
            "watermark_ns": self.watermark_ns,
            "acked_seq": self.acked_seq,
        }

    def record_self_series(self, now_ns: int) -> None:
        """Append the client's counters into the *local* TSDB.

        They ride the next collect upstream like every other series, so
        the global tier can alert on a leaf's queue growth.  The
        ``source`` label keeps each sender's series distinct once many
        of them meet in one upstream TSDB.
        """
        identity = dict(CLIENT_IDENTITY)
        identity["source"] = self.source
        counters = (
            ("teemon_remote_write_queue_depth", self.queue_depth),
            ("teemon_remote_write_queue_frames", self.queue_depth),
            ("teemon_remote_write_queue_samples", self.queued_samples),
            ("teemon_remote_write_frames_inflight", self.frames_inflight),
            ("teemon_remote_write_frames_sent_total", self.frames_sent),
            ("teemon_remote_write_frames_acked_total", self.frames_acked),
            ("teemon_remote_write_frames_dropped_total", self.frames_dropped),
            ("teemon_remote_write_retries_total", self.retries_total),
            ("teemon_remote_write_samples_shipped_total", self.samples_shipped),
            ("teemon_remote_write_samples_dropped_total", self.samples_dropped),
            ("teemon_remote_write_bytes_shipped_total", self.bytes_shipped),
        )
        # One commit; at a repeated instant the duplicates are dropped.
        self._tsdb.append_batch([
            (Labels.of(metric, **identity), now_ns, float(value))
            for metric, value in counters
        ])
