"""BPF maps: the kernel/user-space data plane.

Programs running in the VM may only communicate through maps, exactly like
real eBPF.  One map type covers everything TEEMon's programs need:
:class:`HashMap` — ``BPF_MAP_TYPE_HASH``, a bounded key/value store.  The
exporter's counters key on syscall number, PID, fault class or
latency-histogram bucket; a single counter is key 0.

Maps are allocated from a :class:`MapRegistry` which hands out integer
file descriptors, mirroring ``bpf(BPF_MAP_CREATE)``.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.errors import MapError


class HashMap:
    """Bounded hash map (BPF_MAP_TYPE_HASH)."""

    def __init__(self, name: str, max_entries: int = 1024) -> None:
        if max_entries <= 0:
            raise MapError(f"map {name!r}: max_entries must be positive")
        self.name = name
        self.max_entries = max_entries
        self.fd: int = -1  # assigned by the registry
        self._data: Dict[int, int] = {}

    def lookup(self, key: int) -> Optional[int]:
        """Return the value at ``key`` or None."""
        return self._data.get(key)

    def update(self, key: int, value: int) -> None:
        """Set ``key`` to ``value``."""
        if key not in self._data and len(self._data) >= self.max_entries:
            raise MapError(f"map {self.name!r} is full ({self.max_entries} entries)")
        self._data[key] = value

    def add(self, key: int, delta: int) -> int:
        """Atomically add ``delta`` at ``key`` (missing keys start at 0)."""
        if key not in self._data and len(self._data) >= self.max_entries:
            raise MapError(f"map {self.name!r} is full ({self.max_entries} entries)")
        value = self._data.get(key, 0) + delta
        self._data[key] = value
        return value

    def delete(self, key: int) -> None:
        """Remove ``key``."""
        if key not in self._data:
            raise MapError(f"map {self.name!r}: no such key {key}")
        del self._data[key]

    def items(self) -> Iterator[Tuple[int, int]]:
        """Iterate (key, value) pairs in key order — the user-space read path."""
        return iter(sorted(self._data.items()))

    def clear(self) -> None:
        """Drop all entries."""
        self._data.clear()


class MapRegistry:
    """Hands out map file descriptors, mirroring bpf(BPF_MAP_CREATE)."""

    def __init__(self) -> None:
        self._maps: Dict[int, HashMap] = {}
        self._next_fd = 3  # 0..2 are stdio, for flavour

    def create(self, bpf_map: HashMap) -> int:
        """Register a map and return its fd."""
        fd = self._next_fd
        self._next_fd += 1
        bpf_map.fd = fd
        self._maps[fd] = bpf_map
        return fd

    def get(self, fd: int) -> HashMap:
        """Resolve an fd to its map."""
        try:
            return self._maps[fd]
        except KeyError:
            raise MapError(f"bad map fd: {fd}") from None
