"""Bandwidth-capped network links.

A :class:`Link` models a full-duplex pipe with a fixed capacity and a base
propagation latency.  The benchmark harness uses it in *rate* terms: given
an offered load in bytes/second, :meth:`Link.queueing_delay_s` gives the
M/M/1-style queueing delay at that utilisation — enough to reproduce the
latency growth as client connections push the link toward saturation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NetworkError

GBIT = 1_000_000_000


@dataclass
class Link:
    """A full-duplex link with finite capacity."""

    bandwidth_bits_per_s: float = 1 * GBIT
    base_latency_s: float = 0.000_1  # one switched hop
    #: Fraction of raw bandwidth usable by payload (Ethernet + IP + TCP
    #: framing overhead).
    protocol_efficiency: float = 0.94

    def __post_init__(self) -> None:
        if self.bandwidth_bits_per_s <= 0:
            raise NetworkError("link bandwidth must be positive")
        if self.base_latency_s < 0:
            raise NetworkError("link latency cannot be negative")
        if not 0 < self.protocol_efficiency <= 1:
            raise NetworkError("protocol efficiency must be in (0, 1]")

    @property
    def payload_bytes_per_s(self) -> float:
        """Usable payload bandwidth in bytes/second."""
        return self.bandwidth_bits_per_s / 8.0 * self.protocol_efficiency

    def utilisation(self, offered_bytes_per_s: float) -> float:
        """Offered load as a fraction of capacity (may exceed 1)."""
        if offered_bytes_per_s < 0:
            raise NetworkError(f"negative offered load: {offered_bytes_per_s}")
        return offered_bytes_per_s / self.payload_bytes_per_s

    def queueing_delay_s(self, offered_bytes_per_s: float, packet_bytes: float = 1500.0) -> float:
        """M/M/1 queueing delay at the given offered load.

        Saturated links return a large-but-finite delay (clamped at 100 ms)
        rather than infinity so latency plots stay plottable, matching how a
        real benchmark observes a saturated switch: losses and retransmits
        bound the measured latency.
        """
        if packet_bytes <= 0:
            raise NetworkError(f"packet size must be positive: {packet_bytes}")
        rho = self.utilisation(offered_bytes_per_s)
        service_s = packet_bytes / self.payload_bytes_per_s
        if rho >= 0.999:
            return 0.1
        return min(0.1, service_s * rho / (1.0 - rho))

    def transfer_time_s(self, payload_bytes: float, offered_bytes_per_s: float = 0.0) -> float:
        """End-to-end time to move ``payload_bytes`` at current load."""
        if payload_bytes < 0:
            raise NetworkError(f"negative payload: {payload_bytes}")
        return (
            self.base_latency_s
            + payload_bytes / self.payload_bytes_per_s
            + self.queueing_delay_s(offered_bytes_per_s)
        )
