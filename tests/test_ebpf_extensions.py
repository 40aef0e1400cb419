"""Tests for the eBPF extensions: LRU map, ring buffer."""

import pytest

from repro.ebpf.attach import EbpfRuntime
from repro.ebpf.instructions import Helper, Reg
from repro.ebpf.maps import LruHashMap, RingBufferMap
from repro.ebpf.program import ProgramBuilder
from repro.errors import MapError


# ---------------------------------------------------------------------------
# LRU hash map
# ---------------------------------------------------------------------------
def test_lru_never_rejects_at_capacity():
    m = LruHashMap("lru", max_entries=2)
    m.update(1, 10)
    m.update(2, 20)
    m.update(3, 30)  # evicts 1
    assert m.evictions == 1
    assert m.lookup(1) is None
    assert m.lookup(3) == 30


def test_lru_lookup_refreshes_recency():
    m = LruHashMap("lru", max_entries=2)
    m.update(1, 10)
    m.update(2, 20)
    m.lookup(1)       # 1 becomes most recent
    m.update(3, 30)   # evicts 2
    assert m.lookup(1) == 10
    assert m.lookup(2) is None


def test_lru_add_and_items():
    m = LruHashMap("lru", max_entries=8)
    m.add(5, 3)
    m.add(5, 4)
    assert m.lookup(5) == 7
    assert (5, 7) in list(m.items())


# ---------------------------------------------------------------------------
# Ring buffer
# ---------------------------------------------------------------------------
def test_ringbuf_commit_and_consume_in_order():
    rb = RingBufferMap("events", max_entries=8)
    for value in (10, 20, 30):
        rb.add(0, value)
    records = rb.consume()
    assert [v for _, v in records] == [10, 20, 30]
    assert [s for s, _ in records] == [0, 1, 2]
    assert rb.consume() == []


def test_ringbuf_drops_when_full():
    rb = RingBufferMap("events", max_entries=2)
    assert rb.add(0, 1) == 0
    assert rb.add(0, 2) == 1
    assert rb.add(0, 3) == -1
    assert rb.dropped == 1
    rb.consume(limit=1)
    assert rb.add(0, 4) >= 0  # room again


def test_ringbuf_rejects_update_and_delete():
    rb = RingBufferMap("events")
    with pytest.raises(MapError):
        rb.update(0, 1)
    with pytest.raises(MapError):
        rb.delete(0)


def test_ringbuf_program_streams_events(kernel):
    """A program that submits each firing's pid into a ring buffer."""
    runtime = EbpfRuntime(kernel)
    fd = runtime.create_map(RingBufferMap("stream"))
    program = (
        ProgramBuilder("pid_stream").uses_map(fd)
        .ld_ctx(Reg.R2, "pid")
        .mov_reg(Reg.R3, Reg.R2)
        .mov_imm(Reg.R2, 0)
        .mov_imm(Reg.R1, fd)
        .call(Helper.MAP_ADD)
        .exit(0)
        .build()
    )
    runtime.load_and_attach(program, "sched:sched_switches")
    kernel.scheduler.account_switches(111, 1)
    kernel.scheduler.account_switches(222, 1)
    records = runtime.maps.get(fd).consume()
    assert [v for _, v in records] == [111, 222]
