"""Federation: remote-write between monitor tiers.

The paper's §5.4 deployment is one monitor scraping one exporter per
node.  A fleet needs a *tier*: leaf monitors scrape their local targets
and ship everything upstream, where a global monitor holds the
fleet-wide view (the Prometheus remote-write / Thanos receive shape).
This module is that uplink, hardened the same way the scrape path is:

* :class:`RemoteWriteClient` — runs inside a leaf monitor.  Each flush
  tick it *collects* every sample the leaf TSDB accepted since its
  watermark — drained from an arrival feed the store pushes each
  commit into, so the cost follows new samples, not the store's size —
  packs them into compressed, CRC-guarded frames (a ref, a time and a
  value column for the frame's samples, behind the definitions of
  whatever refs the receiver has not yet confirmed: each series is named
  once per sender epoch, fingerprinted with the same CRC32 the WAL
  partitions route on), and *pumps* the frame queue to the receiver
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
  receiver keeps, per sender, the ref table of its current epoch; a
  frame's refs resolve through it and land through the store's
  ``append_fingerprinted``: one ``append_batch``.  A frame naming refs
  the receiver does not know (it restarted) is refused with an ack
  line, and the client re-sends it with every definition.
* *Relays* — a monitor that is both receiver and client forwards
  everything it ingests upstream under its **own** sender identity,
  epoch and sequence numbering (re-stamping is automatic: the relay's
  client collects what landed in the relay's TSDB, by time window, so
  upstream tiers see one well-ordered sender per relay, never the
  leaves' numbering).  Frames that arrive carrying samples *older*
  than the relay's collected watermark (a healed leaf partition
  draining its spill) regress the collect window via
  :meth:`RemoteWriteClient.note_late_arrival` so the next flush
  re-ships them; the upstream receiver's dedup absorbs any overlap the
  regression re-sends.  A receiver built with its own ``identity``
  rejects frames claiming to come from itself — the loop guard for
  mis-wired topologies.
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

Both ends keep plain counters (:meth:`RemoteWriteClient.stats`,
:meth:`RemoteWriteReceiver.stats`, per-sender
:meth:`RemoteWriteReceiver.lag_seconds`) that the ``teemon_self`` target
serves as ``teemon_remote_write_*`` and ``teemon_federation_lag_seconds``
— so the federation tier is observable with the same PromQL as
everything else, and the ``pmv`` federation timeline renders the lag
per sender.
"""

from __future__ import annotations

import base64
import struct
import zlib
from array import array
from bisect import bisect_right
from collections import deque
from itertools import repeat
from operator import itemgetter
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import TsdbError, WalError
from repro.net.http import HttpNetwork
from repro.pmag.codec import (
    SAMPLE_RUN, pack_column, pack_labels, unpack_labels, unpack_run)
from repro.pmag.model import Labels, METRIC_NAME_LABEL
from repro.pmag.rules import is_recorded_output
from repro.pmag.storage import series_fingerprint
from repro.pmag.tsdb import ArrivalFeed, Tsdb
from repro.simkernel.clock import NANOS_PER_SEC, VirtualClock
from repro.simkernel.rng import DeterministicRng

#: Port/path convention for the receiving endpoint (Prometheus uses
#: ``/api/v1/write`` on its own port; 9009 is the Cortex/Mimir habit).
REMOTE_WRITE_PORT = 9009
REMOTE_WRITE_PATH = "/api/v1/write"

#: Wire-format version tag, first token of every frame; a frame tagged
#: with any other version is rejected.
FRAME_MAGIC = "teemon-rw/6"

_U32 = struct.Struct("<I")
#: ``u32 first | u32 D``: which refs a frame defines.
_DEFINED = struct.Struct("<II")
#: ``u32 crc32 | u32 first | u32 D``: a frame payload's first twelve bytes.
_HEAD = struct.Struct("<III")


#: WAL cursor keys persisting the client's durable uplink position.
#: ``:`` keeps them out of the rule evaluator's ``group/record`` space
#: (unknown keys are ignored there anyway).
def watermark_cursor_key(source: str) -> str:
    """Cursor key holding the highest acked sample timestamp."""
    return f"remote-write:wm:{source}"


def sequence_cursor_key(source: str) -> str:
    """Cursor key holding the last acked frame sequence number."""
    return f"remote-write:seq:{source}"


#: The newest int64 timestamp: a catch-up reads the store up to here.
_END_OF_TIME_NS = (1 << 63) - 1


def _series_key(entry: Tuple[Labels, int, float]) -> tuple:
    return entry[0].items()


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


class SeriesRefs:
    """One sender incarnation's refs, as one receiver knows them.

    The sender numbers each series ``0, 1, 2, …`` the first time a frame
    it encodes carries it and keeps the number for the epoch:
    ``ids[labels]`` is the ref, ``series[ref]`` the labels.  Refs below
    ``confirmed`` are known to the receiver: an ack of a frame that
    defined them.  Every frame defines the rest, so the receiver's view
    is always a prefix of ``series``.  The client confirms on an ack
    (nothing encodes between an attempt and its ack: one frame is in
    flight) and clears ``confirmed`` when a receiver refuses a frame
    for refs it does not know.
    """

    __slots__ = ("ids", "series", "confirmed")

    def __init__(self) -> None:
        self.ids: Dict[Labels, int] = {}
        self.series: List[Labels] = []
        self.confirmed = 0

    def confirm(self) -> None:
        """The receiver acked a frame that defined every ref so far."""
        self.confirmed = len(self.series)


def encode_frame(
    sender: str, epoch: int, seq: int,
    entries: List[Tuple[Labels, int, float]],
    refs: Optional[SeriesRefs] = None,
) -> str:
    """One batched, compressed frame as an HTTP body.

    Header line ``teemon-rw/6 <sender> <epoch> <seq> <count>``, then the
    base64 of the zlib-compressed (level 1) payload::

        u32 crc32(rest) | rest
        rest = u32 first | u32 D | D * (u32 fingerprint | label block)
               | SAMPLE_RUN column run (u32 n | refs u32 * n
               | times i64 * n | values f64 * n)

    in the encodings of :mod:`repro.pmag.codec`, the WAL's too.  Refs
    are the sender's own numbers for this ``epoch`` (``refs``, see
    :class:`SeriesRefs`); the *definitions* name refs ``first`` to
    ``first + D - 1``: every ref the receiver has not confirmed, each
    stamped with the CRC32 fingerprint :func:`series_fingerprint`
    computes, which the receiver checks against the labels.  Sample
    ``i`` is ``(series[refs[i]], times[i], values[i])``, in the order of
    ``entries``.  One CRC32 covers the frame, the on-the-wire integrity
    story of the on-disk log.  ``epoch`` identifies the sender
    *incarnation* (a recovered monitor gets a fresh, strictly larger
    one), ``seq`` orders frames within it.  Without ``refs`` the frame
    stands alone: it numbers its series in order of first appearance
    and defines them all.  A series that fails a check raises before it
    is numbered, so it raises every time.  Level 1, not 6: a
    steady-state frame is refs, times and values, which level 6 packs
    only about 5 % tighter for about six times the deflate CPU.
    """
    if not is_wire_safe(sender):
        raise WalError(f"sender not wire-safe: {sender!r}")
    if refs is None:
        refs = SeriesRefs()
    labels, times, values = tuple(zip(*entries)) or ((), (), ())
    ids, numbered = refs.ids, refs.series
    try:
        column = array("I", map(ids.__getitem__, labels))
        fresh: List[Labels] = []
    except KeyError:
        column = None
        fresh = [series for series in dict.fromkeys(labels)
                 if series not in ids]
    first = refs.confirmed
    defined = numbered[first:] + fresh
    pieces = [_DEFINED.pack(first, len(defined))]
    for series in defined:
        pieces.append(_U32.pack(series_fingerprint(series)))
        pieces.append(pack_labels(series))
    if column is None:
        for series in fresh:
            ids[series] = len(numbered)
            numbered.append(series)
        column = array("I", map(ids.__getitem__, labels))
    pieces += [_U32.pack(len(entries)), pack_column(column),
               pack_column(array("q", times)), pack_column(array("d", values))]
    rest = b"".join(pieces)
    payload = _U32.pack(zlib.crc32(rest)) + rest
    body = base64.b64encode(zlib.compress(payload, 1)).decode("ascii")
    return f"{FRAME_MAGIC} {sender} {epoch} {seq} {len(entries)}\n{body}"


def decode_frame_blocks(
    text: str,
) -> Tuple[str, int, int, Tuple[int, List[Labels], array, array, array]]:
    """Inverse of :func:`encode_frame`, keeping the frame's shape.

    Returns ``(sender, epoch, seq, (first, defined, refs, times,
    values))``: ``defined`` holds the labels of refs ``first``,
    ``first + 1``, …, and ``refs``/``times``/``values`` are the frame's
    sample columns (``array('I')``/``array('q')``/``array('d')``), each
    read with one ``frombytes``.  The refs are not resolved here: that
    needs the receiver's table for the sender and epoch
    (:func:`resolve_refs`).  Raises :class:`WalError` on any framing,
    CRC, count, definition or compression damage: a stamp that is not
    its labels' fingerprint, a non-canonical label block, a series
    defined twice, a sample count other than the header's, a byte past
    the last column, any other version tag.
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
    # Strictly: a lenient decode skips non-base64 characters, and
    # ``zlib.decompress`` ignores bytes past the end of the stream.
    inflate = zlib.decompressobj()
    try:
        payload = inflate.decompress(
            base64.b64decode(body.encode("ascii"), validate=True))
    except Exception as exc:  # noqa: BLE001 - any transport damage
        raise WalError(f"undecodable frame payload: {exc}") from exc
    if not inflate.eof or inflate.unused_data:
        raise WalError(
            "undecodable frame payload: not exactly one deflate stream")
    if len(payload) < 12:
        raise WalError("truncated remote-write payload")
    crc, first, size = _HEAD.unpack_from(payload)
    if zlib.crc32(memoryview(payload)[4:]) != crc:
        raise WalError("frame CRC mismatch in remote-write payload")
    # A definition takes at least 8 bytes: a hostile D cannot spin the walk.
    if size > (len(payload) - 12) // 8:
        raise WalError(f"{size} definitions run past the payload")
    defined: List[Labels] = []
    pos = _HEAD.size
    for _ in range(size):
        labels, end = unpack_labels(payload, pos + 4)
        fingerprint = int.from_bytes(payload[pos:pos + 4], "little")
        if series_fingerprint(labels) != fingerprint:
            raise WalError(
                f"definition fingerprint {fingerprint} is not {labels!r}'s")
        defined.append(labels)
        pos = end
    # Two refs for one series: its samples could land under either.
    if len(set(defined)) != size:
        raise WalError("a series defined twice in one frame")
    refs, times, values = unpack_run(SAMPLE_RUN, payload, pos)
    if len(times) != count:
        raise WalError(
            f"frame count mismatch: header {count}, payload {len(times)}"
        )
    return sender, epoch, seq, (first, defined, refs, times, values)


def resolve_refs(
    known: List[Labels], first: int, defined: List[Labels], refs: array,
) -> Optional[List[Labels]]:
    """``known`` — a receiver's table for one sender and epoch — with a
    frame's definitions of refs ``first``, … committed, or None when
    the frame may name refs the table lacks: its definitions start past
    ``known`` (the receiver lost its table; the sender re-sends every
    definition).  Raises :class:`WalError`, leaving ``known`` as it
    was, for a ref defined again with other labels or a ref past the
    definitions."""
    if first > len(known):
        return None
    overlap = known[first:first + len(defined)]
    if overlap != defined[:len(overlap)]:
        raise WalError("a ref defined again with other labels")
    size = max(len(known), first + len(defined))
    if refs and max(refs) >= size:
        raise WalError(f"a ref past the {size} defined")
    known.extend(defined[len(overlap):])
    return known


def decode_frame(
    text: str,
) -> Tuple[str, int, int, List[Tuple[Labels, int, float]]]:
    """Inverse of :func:`encode_frame` for a frame that defines every
    ref it names, flattened to (labels, ts, value) in shipped order."""
    sender, epoch, seq, (first, defined, refs, times, values) = (
        decode_frame_blocks(text))
    table = resolve_refs([], first, defined, refs)
    if table is None:
        raise WalError(f"frame names refs from {first} it does not define")
    return sender, epoch, seq, list(zip(
        map(table.__getitem__, refs), times, values))


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

    Ingest: the decoded frame's definitions join the sender's ref table
    for its epoch (a newer epoch starts a new table), and the three
    sample columns go with that table to the store's
    ``append_fingerprinted`` whole and land as one ``append_batch``.
    The decoder has already checked every definition's fingerprint
    against its labels.  A frame whose definitions start past the table
    is *refused* (``refuse <seq>``; the client re-sends it with every
    definition); a replay is acknowledged before any ref is resolved.

    Relays: :meth:`attach_relay` couples this receiver to the
    co-resident :class:`RemoteWriteClient` of a relay deployment.  Every
    applied frame notifies the client of the oldest timestamp it landed,
    so samples arriving *behind* the relay's collected watermark (a
    healed downstream partition draining) are re-collected and shipped
    upstream instead of falling into the watermark's shadow.  A receiver
    given its own ``identity`` rejects frames claiming that identity —
    a relay loop would otherwise replay its own output forever.

    Newly defined refs resolve to the receiver's one ``Labels`` object
    for their series, whichever sender defined it first, so the store's
    lookups take the identity fast path for every sender.

    (Epoch, sequence) state and ref tables are per *sender* and live in
    monitor memory: after a receiving-monitor crash every map is empty,
    so the receiver accepts any epoch/sequence, refuses each sender's
    first frame once, and relies on sample-granularity dedup for the
    overlap a resuming client re-sends.
    """

    def __init__(self, tsdb: Tsdb,
                 identity: Optional[str] = None) -> None:
        self._tsdb = tsdb
        self._identity = identity
        #: sender -> (epoch, seq) of the last applied frame.
        self._last_applied: Dict[str, Tuple[int, int]] = {}
        #: sender -> newest sample timestamp applied (feeds the
        #: ``teemon_federation_lag_seconds`` gauge).
        self._newest_applied: Dict[str, int] = {}
        self._relay_clients: List["RemoteWriteClient"] = []
        #: sender -> ref -> labels, for the epoch of the sender's last
        #: applied frame (:func:`resolve_refs`); gone with this
        #: incarnation.
        self._refs: Dict[str, List[Labels]] = {}
        #: labels -> the one equal object every sender's table holds:
        #: an HA pair shipping one series shares its Labels.
        self._labels: Dict[Labels, Labels] = {}
        self._endpoint = None
        self.frames_received = 0
        self.frames_applied = 0
        self.frames_replayed = 0
        self.frames_rejected = 0
        self.frames_refused = 0
        self.samples_applied = 0
        self.samples_deduped = 0
        self.replay_dedup_hits = 0

    # ------------------------------------------------------------------
    def expose(self, network: HttpNetwork, host: str,
               port: int = REMOTE_WRITE_PORT,
               path: str = REMOTE_WRITE_PATH):
        """Register the write endpoint (POST only) on the simulated
        network."""
        endpoint = network.register(host, port, path, None)
        endpoint.post_handler = self.handle
        self._endpoint = endpoint
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

    # ------------------------------------------------------------------
    def handle(self, body: str) -> str:
        """Apply one frame; returns the ack line the client parses.

        ``ack <seq> …`` for an applied or replayed frame, ``refuse <seq>
        known=<refs>`` for one naming refs this receiver has no table
        for (the sender re-sends it with every definition).  A damaged
        frame — or one claiming this receiver's own sender identity,
        the federation-loop guard — raises (the transport turns that
        into a 500; a loop frame failing forever is the correct
        outcome, the topology is mis-wired).
        """
        self.frames_received += 1
        try:
            sender, epoch, seq, frame = decode_frame_blocks(body)
        except WalError:
            self.frames_rejected += 1
            raise
        if self._identity is not None and sender == self._identity:
            self.frames_rejected += 1
            raise WalError(
                f"federation loop: frame sender {sender!r} is this "
                f"receiver's own identity"
            )
        first, defined, refs, stamps, values = frame
        total = len(stamps)
        last_epoch, last_seq = self._last_applied.get(sender, (-1, 0))
        if epoch < last_epoch or (epoch == last_epoch and seq <= last_seq):
            self.frames_replayed += 1
            self.replay_dedup_hits += total
            return f"ack {seq} replayed={total}"
        # A newer epoch is a new incarnation: its refs start afresh.
        known = self._refs[sender] if epoch == last_epoch else []
        size = len(known)
        try:
            table = resolve_refs(known, first, defined, refs)
        except WalError:
            self.frames_rejected += 1
            raise
        if table is None:
            self.frames_refused += 1
            return f"refuse {seq} known={size}"
        if len(table) > size:
            share = self._labels.setdefault
            table[size:] = [share(labels, labels) for labels in table[size:]]
        self._refs[sender] = table
        rejected = (self._tsdb.append_fingerprinted((table, refs, stamps,
                                                     values))
                    if total else 0)
        applied = total - rejected
        self.samples_applied += applied
        self.samples_deduped += rejected
        self.frames_applied += 1
        self._last_applied[sender] = (epoch, seq)
        if applied:
            self._newest_applied[sender] = max(
                self._newest_applied.get(sender, 0), max(stamps))
            for client in self._relay_clients:
                client.note_late_arrival(min(stamps))
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
            "frames_refused": self.frames_refused,
            "samples_applied": self.samples_applied,
            "samples_deduped": self.samples_deduped,
            "replay_dedup_hits": self.replay_dedup_hits,
        }


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
    things: *collect* — every stored sample in ``(collected watermark,
    now]`` that passes the ship filter, ordered by timestamp and then by
    series labels, cut into frames of at most ``max_frame_samples`` —
    and *pump* — deliver queued frames in sequence order, one in flight
    at a time, with jittered-exponential retry on the virtual clock.  Delivery failures leave the frame at the
    head of the queue; after ``max_retries`` failed attempts the pump
    goes idle until the next flush tick, so a dead uplink costs one
    bounded retry burst per cadence, not an unbounded timer storm.

    Collect reads an :class:`~repro.pmag.tsdb.ArrivalFeed` attached to
    the engine: each commit's accepted entries, so a flush costs what
    landed since the last one.  Where the feed cannot vouch for the
    window — the first collect, the first after :meth:`seed`,
    :meth:`stop` or a late-arrival regression, or after the engine
    removed samples the window reaches — one ``select_arrays`` reads
    it from the store instead (``collect_catchups`` counts these).
    Either way the frames are the same bytes.  A stopped client has
    detached its feed and holds nothing.

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
        tsdb: Tsdb,
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
        #: This incarnation's refs and how far the receiver confirmed
        #: them (:class:`SeriesRefs`).
        self._refs = SeriesRefs()
        #: What the engine accepted since the last collect; None until
        #: the next collect catches up from the store (:meth:`_window`).
        self._feed: Optional[ArrivalFeed] = None
        self.collect_catchups = 0
        self.frames_sent = 0
        self.frames_acked = 0
        self.frames_dropped = 0
        self.frames_refused = 0
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
        if self._clock.now_ns != self.epoch:
            self.epoch = self._clock.now_ns
            self._refs = SeriesRefs()
        if watermark_ns is not None:
            self._collected_ns = self.watermark_ns = watermark_ns
        if acked_seq is not None:
            self._seq = self.acked_seq = acked_seq
        self._drop_feed()

    def stop(self) -> None:
        """Cancel the retry timer (the leaf monitor is stopping/dying)
        and detach the arrival feed: a dead uplink holds no samples."""
        self._stopped = True
        if self._retry_timer is not None:
            self._retry_timer.cancel()
            self._retry_timer = None
        self._drop_feed()

    def _drop_feed(self) -> None:
        """Detach the feed; the next collect catches up from the store."""
        if self._feed is not None:
            self._tsdb.detach_feed(self._feed)
            self._feed = None

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
        # The feed has already handed over what lies behind the old
        # watermark: the regressed window is read from the store.
        self._drop_feed()
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
        entries = self._window(now_ns)
        self._collected_ns = now_ns
        if not entries:
            return 0
        # Chunk in timestamp order and give each frame the watermark its
        # own ack justifies: the newest timestamp fully covered by it
        # and its predecessors.  Only the final frame may claim the
        # whole window end — an ack of an earlier chunk must not durably
        # skip samples still queued behind it (they would be silently
        # lost across a crash).
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

    def _window(self, now_ns: int) -> List[Tuple[Labels, int, float]]:
        """Every stored sample in ``(collected, now]`` the ship filter
        passes, ordered by timestamp and then by ``labels.items()``.

        Steady state drains the arrival feed: what the engine accepted
        since the last collect.  Arrivals past ``now`` wait in the feed
        for a later window; arrivals at or behind the watermark are
        discarded, as a store read of the window would not see them.
        """
        low = self._collected_ns
        feed = self._feed
        if feed is None or feed.unsure_below_ns > low + 1:
            return self._catch_up(now_ns)
        ship = self.ship_filter
        entries: List[Tuple[Labels, int, float]] = []
        later: List[Tuple[Labels, int, float]] = []
        for batch in feed.batches:
            for entry in batch:
                time_ns = entry[1]
                if time_ns > now_ns:
                    later.append(entry)
                elif time_ns > low and (ship is None or ship(entry[0])):
                    entries.append(entry)
        feed.batches = [later] if later else []
        # A series holds one sample per timestamp, so this is the order
        # the store read gives: series by labels, then stably by time.
        entries.sort(key=_series_key)
        entries.sort(key=itemgetter(1))
        return entries

    def _catch_up(self, now_ns: int) -> List[Tuple[Labels, int, float]]:
        """The window read from the store, for when the feed cannot
        vouch for it.  One ``select_arrays`` from the watermark on: what
        lies past ``now`` restarts the feed, so it again holds every
        stored sample newer than the watermark.
        """
        self.collect_catchups += 1
        feed = self._feed
        if feed is None:
            feed = self._feed = ArrivalFeed()
            self._tsdb.attach_feed(feed)
        ship = self.ship_filter
        entries: List[Tuple[Labels, int, float]] = []
        later: List[Tuple[Labels, int, float]] = []
        # select is inclusive on both ends, so the left edge is nudged
        # one ns past the last collected stamp.
        for labels, times, values, _reset_free in self._tsdb.select_arrays(
                [], self._collected_ns + 1, _END_OF_TIME_NS):
            cut = bisect_right(times, now_ns)
            if cut < len(times):
                later.extend(zip(repeat(labels), times[cut:], values[cut:]))
                times, values = times[:cut], values[:cut]
            if times and (ship is None or ship(labels)):
                entries.extend(zip(repeat(labels), times, values))
        feed.batches = [later] if later else []
        feed.unsure_below_ns = 0
        entries.sort(key=itemgetter(1))  # stable: series order kept
        return entries

    def _pump(self) -> None:
        """Deliver queued frames in order until one fails or none remain."""
        while self._queue and not self._stopped:
            frame = self._queue[0]
            if not self._attempt(frame):
                return
            self._acknowledge(frame)

    def _attempt(self, frame: _Frame) -> bool:
        """One delivery try; schedules a retry (or gives up) on failure.

        A receiver that refuses the frame for refs it does not know (it
        restarted, or it is another replica) gets it again at once with
        every definition — a frame that cannot be refused.  The refused
        post and its re-send are one attempt: one ``frames_sent``.
        """
        frame.attempts += 1
        self.frames_sent += 1
        refs = self._refs
        while True:
            body = encode_frame(self.source, self.epoch, frame.seq,
                                frame.entries, refs)
            response = self._network.post_url(self.url, body)
            latency_s = getattr(response, "latency_s", 0.0)
            if not response.ok or latency_s > self.timeout_budget_s:
                break
            if response.body.startswith(f"ack {frame.seq}"):
                refs.confirm()
                self.bytes_shipped += len(body)
                return True
            if not (refs.confirmed and response.body.startswith(
                    f"refuse {frame.seq}")):
                break
            self.frames_refused += 1
            refs.confirmed = 0
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
    # Introspection
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
            "frames_refused": self.frames_refused,
            "retries_total": self.retries_total,
            "send_failures": self.send_failures,
            "samples_shipped": self.samples_shipped,
            "samples_dropped": self.samples_dropped,
            "bytes_shipped": self.bytes_shipped,
            "late_arrivals": self.late_arrivals,
            "collect_catchups": self.collect_catchups,
            "watermark_ns": self.watermark_ns,
            "acked_seq": self.acked_seq,
        }
