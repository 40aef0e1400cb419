"""Property tests (hypothesis) for the link model's delay functions.

For arbitrary bandwidth/latency/efficiency configurations:
``queueing_delay_s`` and ``transfer_time_s`` are monotone in offered
load, clamp at saturation, and never go negative — the guarantees the
fault layer's :class:`~repro.faults.injectors.SlowLinkInjector` and the
benchmark harness both lean on.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.net.network import Link

links = st.builds(
    Link,
    bandwidth_bits_per_s=st.floats(min_value=1e3, max_value=1e12),
    base_latency_s=st.floats(min_value=0.0, max_value=1.0),
    protocol_efficiency=st.floats(min_value=0.01, max_value=1.0),
)

#: Offered load expressed as a fraction of payload capacity, spanning
#: idle through deep saturation.
load_fractions = st.floats(min_value=0.0, max_value=16.0)


@given(links, load_fractions, st.floats(min_value=1.0, max_value=65535.0))
def test_queueing_delay_never_negative_and_bounded(link, fraction, packet):
    delay = link.queueing_delay_s(fraction * link.payload_bytes_per_s, packet)
    assert 0.0 <= delay <= 0.1


@given(links, load_fractions, load_fractions)
def test_queueing_delay_monotone_in_load(link, f_a, f_b):
    low, high = sorted((f_a, f_b))
    capacity = link.payload_bytes_per_s
    assert (link.queueing_delay_s(low * capacity)
            <= link.queueing_delay_s(high * capacity))


@given(links, st.floats(min_value=1.0, max_value=16.0))
def test_queueing_delay_clamped_at_saturation(link, fraction):
    delay = link.queueing_delay_s(fraction * link.payload_bytes_per_s)
    assert delay == 0.1


@given(links, st.floats(min_value=0.0, max_value=1e9), load_fractions)
def test_transfer_time_never_below_base_latency(link, payload, fraction):
    time_s = link.transfer_time_s(payload, fraction * link.payload_bytes_per_s)
    assert time_s >= link.base_latency_s >= 0.0


@given(links, st.floats(min_value=0.0, max_value=1e9),
       st.floats(min_value=0.0, max_value=1e9), load_fractions)
def test_transfer_time_monotone_in_payload(link, p_a, p_b, fraction):
    small, large = sorted((p_a, p_b))
    offered = fraction * link.payload_bytes_per_s
    assert (link.transfer_time_s(small, offered)
            <= link.transfer_time_s(large, offered))


@given(links, st.floats(min_value=0.0, max_value=1e9), load_fractions,
       load_fractions)
def test_transfer_time_monotone_in_load(link, payload, f_a, f_b):
    low, high = sorted((f_a, f_b))
    capacity = link.payload_bytes_per_s
    assert (link.transfer_time_s(payload, low * capacity)
            <= link.transfer_time_s(payload, high * capacity))


@given(links)
def test_negative_load_rejected_everywhere(link):
    with pytest.raises(NetworkError):
        link.queueing_delay_s(-1.0)
    with pytest.raises(NetworkError):
        link.utilisation(-0.5)


def test_invalid_link_configs_rejected():
    with pytest.raises(NetworkError):
        Link(base_latency_s=-0.001)
    with pytest.raises(NetworkError):
        Link().queueing_delay_s(0.0, packet_bytes=0.0)
