"""A simulated durable medium with explicit sync and crash semantics.

The crash-recovery work needs a storage device whose failure modes can be
*modelled*, not merely stubbed: data handed to the device is not durable
until it has been synced, a crash discards the unsynced suffix of every
file (optionally leaving a *torn* prefix of it behind, as a real platter
does for a write in flight), and fault hooks can corrupt payloads on the
way down (bit rot).  Everything is deterministic: the only randomness
comes from injectors the caller attaches, which draw from their own
seeded substreams.

The model is flat — named files, append or whole-file replace, no
directories (path-like names such as ``wal/segment-00000001.wal`` are
just names with slashes in them).  Two operations matter for crash
semantics:

* :meth:`SimDisk.sync` — marks a file's current length durable, like
  ``fsync``;
* :meth:`SimDisk.crash` — the power-loss event: every file is truncated
  back to its synced length, except that a crash hook may retain a torn
  prefix of the unsynced tail.  The returned :class:`DiskCrashReport`
  captures exactly what the medium discarded — the chaos layer's loss
  oracle, which lets recovery report data loss *exactly* instead of
  guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import StorageError

#: A write-path fault hook: may return mutated bytes for the write.
WriteFault = Callable[[str, bytes], bytes]
#: A crash-path fault hook: given the unsynced tail of one file, returns
#: how many bytes of it survive as a torn prefix (0 = clean truncation).
CrashFault = Callable[[str, bytes], int]


@dataclass(frozen=True)
class LostTail:
    """The unsynced suffix of one file at the moment of a crash."""

    #: Byte offset where the tail began (the synced length pre-crash).
    offset: int
    #: The full unsynced suffix as it stood on the medium.
    data: bytes
    #: How many leading bytes of ``data`` survived as a torn prefix.
    retained: int

    @property
    def discarded(self) -> bytes:
        """The bytes the crash actually destroyed."""
        return self.data[self.retained:]


@dataclass
class DiskCrashReport:
    """What one :meth:`SimDisk.crash` destroyed, per file."""

    tails: Dict[str, LostTail] = field(default_factory=dict)

    @property
    def files_affected(self) -> int:
        """Files that lost at least one byte."""
        return sum(1 for t in self.tails.values() if t.discarded)

    @property
    def bytes_discarded(self) -> int:
        """Total bytes destroyed across all files."""
        return sum(len(t.discarded) for t in self.tails.values())


class SimDisk:
    """Named durable files with sync/crash semantics and fault hooks."""

    def __init__(self) -> None:
        self._files: Dict[str, bytearray] = {}
        #: Durable length per file (bytes guaranteed to survive a crash).
        self._synced: Dict[str, int] = {}
        self._write_faults: List[WriteFault] = []
        self._crash_faults: List[CrashFault] = []
        self.writes = 0
        self.syncs = 0
        self.crashes = 0
        self.bytes_written = 0

    # ------------------------------------------------------------------
    # Fault hooks
    # ------------------------------------------------------------------
    def add_write_fault(self, hook: WriteFault) -> None:
        """Install a hook that may mutate payloads as they are written."""
        self._write_faults.append(hook)

    def add_crash_fault(self, hook: CrashFault) -> None:
        """Install a hook deciding how much of an unsynced tail tears."""
        self._crash_faults.append(hook)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _mutate(self, name: str, data: bytes) -> bytes:
        for hook in self._write_faults:
            data = hook(name, data)
        return data

    def append(self, name: str, data: bytes) -> None:
        """Append bytes to a file (created empty on first touch)."""
        if not isinstance(data, (bytes, bytearray)):
            raise StorageError(f"disk writes take bytes, got {type(data).__name__}")
        if self._write_faults:
            data = self._mutate(name, bytes(data))
        try:
            self._files[name].extend(data)
        except KeyError:
            self._files[name] = bytearray(data)
            self._synced[name] = 0
        self.writes += 1
        self.bytes_written += len(data)

    def write(self, name: str, data: bytes) -> None:
        """Replace a file's contents entirely (durable only after sync).

        A ``bytearray`` is handed over, not copied: it becomes the file
        (unless a write-fault hook is installed, which sees ``bytes`` as
        ever), so a checkpoint is not held twice while it is written.
        """
        if not isinstance(data, (bytes, bytearray)):
            raise StorageError(f"disk writes take bytes, got {type(data).__name__}")
        if self._write_faults or type(data) is not bytearray:
            data = bytearray(self._mutate(name, bytes(data)))
        self._files[name] = data
        self._synced[name] = 0
        self.writes += 1
        self.bytes_written += len(data)

    def sync(self, name: str) -> None:
        """Make a file's current contents durable (``fsync``)."""
        if name not in self._files:
            raise StorageError(f"cannot sync unknown file: {name}")
        self._synced[name] = len(self._files[name])
        self.syncs += 1

    def delete(self, name: str) -> None:
        """Remove a file; deletion is immediately durable (a modelling
        simplification — callers order deletes after the syncs that make
        them safe, which is what the WAL does)."""
        if name not in self._files:
            raise StorageError(f"cannot delete unknown file: {name}")
        del self._files[name]
        del self._synced[name]

    # ------------------------------------------------------------------
    # Reads and introspection
    # ------------------------------------------------------------------
    def read(self, name: str) -> bytes:
        """Whole-file contents."""
        try:
            return bytes(self._files[name])
        except KeyError:
            raise StorageError(f"no such file: {name}") from None

    def exists(self, name: str) -> bool:
        """Whether a file exists."""
        return name in self._files

    def size(self, name: str) -> int:
        """Current length of a file in bytes."""
        try:
            return len(self._files[name])
        except KeyError:
            raise StorageError(f"no such file: {name}") from None

    def synced_size(self, name: str) -> int:
        """Durable length of a file in bytes."""
        if name not in self._files:
            raise StorageError(f"no such file: {name}")
        return self._synced[name]

    def list_files(self, prefix: str = "") -> List[str]:
        """File names with the given prefix, sorted (deterministic)."""
        return sorted(name for name in self._files if name.startswith(prefix))

    # ------------------------------------------------------------------
    # The crash event
    # ------------------------------------------------------------------
    def crash(self) -> DiskCrashReport:
        """Discard every unsynced suffix; return what was destroyed.

        For each file with unsynced bytes the installed crash hooks are
        consulted in order; the first hook returning a positive count
        decides the torn prefix retained on the medium.  The retained
        prefix becomes durable (it is on the platter now), everything
        past it is gone.
        """
        report = DiskCrashReport()
        self.crashes += 1
        for name in sorted(self._files):
            data = self._files[name]
            synced = self._synced[name]
            if len(data) <= synced:
                continue
            tail = bytes(data[synced:])
            retained = 0
            for hook in self._crash_faults:
                kept = hook(name, tail)
                if kept:
                    retained = max(0, min(len(tail), int(kept)))
                    break
            del data[synced + retained:]
            self._synced[name] = len(data)
            report.tails[name] = LostTail(offset=synced, data=tail,
                                          retained=retained)
        return report
