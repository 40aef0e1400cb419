"""A tiny ``/proc`` + ``/sys`` virtual filesystem.

Two TEEMon exporters read pseudo-files rather than hooks: the node-exporter
consumes ``/proc/stat`` and ``/proc/meminfo``-style data, and the SGX
exporter reads the driver's module parameters from
``/sys/module/isgx/parameters/<metric>``.  This module provides the
in-simulation equivalent: a path-keyed store whose entries can be plain
values or callables evaluated at read time (like real procfs, where reads
materialise current kernel state).
"""

from __future__ import annotations

from typing import Callable, Dict, Union

from repro.errors import SimulationError

Content = Union[str, Callable[[], str]]


class VirtualFs:
    """Path-keyed pseudo-filesystem with lazy (callable) entries."""

    def __init__(self) -> None:
        self._entries: Dict[str, Content] = {}

    @staticmethod
    def _normalise(path: str) -> str:
        if not path.startswith("/"):
            raise SimulationError(f"paths must be absolute: {path!r}")
        while "//" in path:
            path = path.replace("//", "/")
        return path.rstrip("/") if len(path) > 1 else path

    def publish(self, path: str, content: Content) -> None:
        """Create or replace a pseudo-file.

        ``content`` may be a string or a zero-argument callable returning a
        string; callables are evaluated on every read.
        """
        self._entries[self._normalise(path)] = content

    def exists(self, path: str) -> bool:
        """Whether a pseudo-file exists at ``path``."""
        return self._normalise(path) in self._entries

    def read(self, path: str) -> str:
        """Read a pseudo-file, evaluating lazy content."""
        path = self._normalise(path)
        try:
            content = self._entries[path]
        except KeyError:
            raise SimulationError(f"no such file: {path}") from None
        return content() if callable(content) else content

