"""A Redis-like in-memory key-value store.

The store is a **synthetic population**: the paper pre-populates 720 000
keys, which would be wasteful to materialise for every benchmark
configuration, so :meth:`RedisLikeServer.populate_synthetic` records the
key count and value size and the store answers the size queries the load
generators ask (key count, database bytes, RESP response bytes) from that
metadata.  The load itself is aggregate: the framework models replay a
slice's worth of GETs as syscall, fault, cache and EPC events.

The paper's database sizes (§6.5: values of 32/64/96 bytes giving 78, 105
and 127 MB) are reproduced by :func:`db_bytes_for`.
"""

from __future__ import annotations

from repro.errors import ReproError

MIB = 1024 * 1024

#: The paper's exact (value size -> database size) mapping for 720 000 keys.
PAPER_DB_SIZES = {32: 78 * MIB, 64: 105 * MIB, 96: 127 * MIB}

#: Per-key overhead (key string, dict entry, robj header) when the paper
#: mapping does not apply.
PER_KEY_OVERHEAD_BYTES = 81

#: RESP framing overhead per GET response, amortised over a pipeline.
RESP_OVERHEAD_BYTES = 12


def db_bytes_for(keys: int, value_size: int) -> int:
    """Database size for a population (paper mapping when it applies)."""
    if keys == 720_000 and value_size in PAPER_DB_SIZES:
        return PAPER_DB_SIZES[value_size]
    return keys * (value_size + PER_KEY_OVERHEAD_BYTES)


class RedisLikeServer:
    """The store itself (no networking; the benchmark models transport)."""

    def __init__(self, name: str = "redis-server") -> None:
        self.name = name
        self._synthetic_keys = 0
        self._synthetic_value_size = 0

    # ------------------------------------------------------------------
    # Synthetic population
    # ------------------------------------------------------------------
    def populate_synthetic(self, keys: int, value_size: int) -> None:
        """Pre-populate ``keys`` synthetic keys of ``value_size`` bytes."""
        if keys < 0 or value_size <= 0:
            raise ReproError(
                f"bad population: keys={keys}, value_size={value_size}"
            )
        self._synthetic_keys = keys
        self._synthetic_value_size = value_size

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------
    @property
    def key_count(self) -> int:
        """Keys in the population."""
        return self._synthetic_keys

    @property
    def db_bytes(self) -> int:
        """Approximate memory footprint of the dataset."""
        return db_bytes_for(self._synthetic_keys, self._synthetic_value_size)

    @property
    def value_size(self) -> int:
        """Synthetic value size (0 when not populated)."""
        return self._synthetic_value_size

    def get_response_bytes(self) -> int:
        """Wire bytes of one GET response (RESP framing included)."""
        return self._synthetic_value_size + RESP_OVERHEAD_BYTES
