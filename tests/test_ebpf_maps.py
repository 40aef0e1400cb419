"""BPF map unit tests."""

import pytest

from repro.ebpf.maps import HashMap, MapRegistry
from repro.errors import MapError


# ---------------------------------------------------------------------------
# HashMap
# ---------------------------------------------------------------------------
def test_hash_update_lookup_delete():
    m = HashMap("h")
    m.update(1, 100)
    assert m.lookup(1) == 100
    m.delete(1)
    assert m.lookup(1) is None


def test_hash_delete_missing_raises():
    with pytest.raises(MapError):
        HashMap("h").delete(5)


def test_hash_add_starts_from_zero():
    m = HashMap("h")
    assert m.add(3, 7) == 7
    assert m.add(3, 7) == 14


def test_hash_capacity_enforced():
    m = HashMap("h", max_entries=2)
    m.update(1, 1)
    m.update(2, 2)
    with pytest.raises(MapError, match="full"):
        m.update(3, 3)
    # Updating an existing key is still allowed at capacity.
    m.update(1, 10)
    assert m.lookup(1) == 10


def test_hash_add_respects_capacity():
    m = HashMap("h", max_entries=1)
    m.add(1, 1)
    with pytest.raises(MapError):
        m.add(2, 1)


def test_hash_items_sorted():
    m = HashMap("h")
    m.update(3, 30)
    m.update(1, 10)
    assert list(m.items()) == [(1, 10), (3, 30)]


def test_hash_clear_and_len():
    m = HashMap("h")
    m.update(1, 1)
    m.update(2, 2)
    assert len(list(m.items())) == 2
    m.clear()
    assert list(m.items()) == []


def test_zero_capacity_rejected():
    with pytest.raises(MapError):
        HashMap("h", max_entries=0)


# ---------------------------------------------------------------------------
# MapRegistry
# ---------------------------------------------------------------------------
def test_registry_assigns_increasing_fds():
    registry = MapRegistry()
    a = registry.create(HashMap("a"))
    b = registry.create(HashMap("b"))
    assert b == a + 1
    assert registry.get(a).name == "a"


def test_registry_bad_fd():
    with pytest.raises(MapError):
        MapRegistry().get(99)

