"""FederationTopology: tiered relays, loop guards, HA at any tier."""

from dataclasses import replace

import pytest

from repro.errors import DeploymentError
from repro.net.http import HttpNetwork
from repro.orchestration.fleet import NodeFleet
from repro.orchestration.kubernetes import Cluster
from repro.simkernel.clock import VirtualClock, seconds
from repro.simkernel.rng import DeterministicRng
from repro.teemon import FederationTopology, HAMonitorPair, TeemonConfig

#: Monitor-only knobs: no exporters (self-telemetry still generates
#: real scrape traffic), no rules/alerting noise.
LEAF = TeemonConfig(
    enable_exporters=False, enable_recording_rules=False,
    enable_anomaly_detection=False, enable_alerting=False,
)
RELAY = TeemonConfig(
    enable_exporters=False, enable_recording_rules=False,
    enable_anomaly_detection=False, enable_alerting=False,
    enable_self_telemetry=False, remote_write_receiver=True,
)
GLOBAL = RELAY


def _chain(depth_leaves=1, global_config=GLOBAL):
    clock = VirtualClock()
    topo = FederationTopology(clock, HttpNetwork())
    topo.add("global", global_config)
    topo.add("region-0", RELAY, uplink="global")
    for index in range(depth_leaves):
        topo.add(f"leaf-{index}", LEAF, uplink="region-0")
    nodes = topo.build()
    return clock, topo, nodes


# ---------------------------------------------------------------------------
# Structural guards
# ---------------------------------------------------------------------------
def test_uplink_must_be_declared_first_and_acyclic():
    topo = FederationTopology(VirtualClock())
    with pytest.raises(DeploymentError):
        topo.add("leaf", LEAF, uplink="leaf")        # self-uplink
    with pytest.raises(DeploymentError):
        topo.add("leaf", LEAF, uplink="nowhere")     # unknown parent
    topo.add("global", GLOBAL)
    with pytest.raises(DeploymentError):
        topo.add("global", GLOBAL)                   # duplicate name
    with pytest.raises(DeploymentError):
        topo.add("leaf", LEAF, uplink="leaf2")       # still undeclared
    with pytest.raises(DeploymentError):
        # Parents must actually receive.
        topo.add("dead-end", LEAF)
        topo.add("leaf", LEAF, uplink="dead-end")
    with pytest.raises(DeploymentError):
        # Edges are declared via uplink=, never by hand-set URL.
        topo.add("manual", TeemonConfig(
            enable_exporters=False, remote_write_url="http://g:9009/w",
        ), uplink="global")


def test_tiers_follow_height_above_leaves():
    clock, topo, nodes = _chain(depth_leaves=2)
    assert nodes["leaf-0"].config.remote_write_tier == 0
    assert nodes["leaf-1"].config.remote_write_tier == 0
    assert nodes["region-0"].config.remote_write_tier == 1
    # Derived wiring: each child ships to its parent's receiver.
    region_url = nodes["region-0"].remote_write_receiver.url
    assert nodes["leaf-0"].remote_write_client.url == region_url
    assert (nodes["region-0"].remote_write_client.url
            == nodes["global"].remote_write_receiver.url)
    # Sender identity is the node name; receivers carry it (loop guard).
    assert nodes["region-0"].remote_write_client.source == "region-0"
    for deployment in nodes.values():
        deployment.stop()


# ---------------------------------------------------------------------------
# Relay behaviour: re-stamping, zero duplicates, lag observability
# ---------------------------------------------------------------------------
def test_two_tier_chain_produces_zero_duplicate_applies():
    # The loop-guard regression: in a steady leaf -> region -> global
    # chain, nothing is ever applied twice at either tier — no sample
    # dedup hits, no frame replays, and the relay never re-ships a frame
    # it already forwarded (disjoint collect windows ship-once).
    clock, topo, nodes = _chain()
    clock.advance(seconds(60))
    for name in ("leaf-0", "region-0", "global"):
        nodes[name].stop()
    region = nodes["region-0"].remote_write_receiver
    top = nodes["global"].remote_write_receiver
    assert region.samples_applied > 0
    assert top.samples_applied > 0
    for receiver in (region, top):
        assert receiver.samples_deduped == 0
        assert receiver.replay_dedup_hits == 0
        assert receiver.frames_rejected == 0
    # Re-stamping: the global tier sees exactly one sender — the relay.
    assert top.last_sequence("region-0") > 0
    assert top.last_sequence("leaf-0") == 0
    # The leaf's series crossed both tiers exactly once.
    for series in nodes["global"].tsdb.select([], 0, clock.now_ns + 1):
        stamps = [s.time_ns for s in series.samples]
        assert stamps == sorted(set(stamps)), series.labels
    vector = nodes["global"].session.query('up{instance="leaf-0"}')
    assert vector and vector[0][1] == 1.0


def test_ledger_reconciles_at_every_tier():
    clock, topo, nodes = _chain(depth_leaves=2)
    clock.advance(seconds(45))
    for name in ("leaf-0", "leaf-1", "region-0", "global"):
        nodes[name].stop()
    region = nodes["region-0"].remote_write_receiver
    top = nodes["global"].remote_write_receiver
    shipped_to_region = sum(
        nodes[f"leaf-{i}"].remote_write_client.samples_shipped
        for i in range(2)
    )
    assert (region.samples_applied + region.samples_deduped
            + region.replay_dedup_hits) == shipped_to_region
    relay_shipped = nodes["region-0"].remote_write_client.samples_shipped
    assert (top.samples_applied + top.samples_deduped
            + top.replay_dedup_hits) == relay_shipped


def test_federation_lag_gauge_and_timeline():
    clock, topo, nodes = _chain(
        global_config=replace(GLOBAL, enable_self_telemetry=True))
    clock.advance(seconds(60))
    lag = nodes["global"].session.federation_lag()
    assert set(lag) == {"region-0"}
    # Lag is bounded by roughly one flush interval per hop.
    assert 0.0 <= lag["region-0"] < 15.0
    timeline = nodes["global"].session.render_federation_timeline(
        window_s=60.0)
    assert "region-0" in timeline
    assert "legend:" in timeline
    # Leaves run no receiver: the session says so instead of guessing.
    with pytest.raises(DeploymentError):
        nodes["leaf-0"].session.federation_lag()
    # The relay's receiver keeps lag, but with self-telemetry off no
    # series holds it: the timeline refuses like other disabled views.
    assert nodes["region-0"].session.federation_lag()
    with pytest.raises(DeploymentError):
        nodes["region-0"].session.render_federation_timeline()
    for deployment in nodes.values():
        deployment.stop()


def test_self_telemetry_off_means_no_self_series():
    # Fleet -> leaf -> relay -> global, every monitor with self-telemetry
    # off: the relay stores the fleet's series and none of its own (no
    # scraper counters, no uplink or receiver counters, no query cache).
    clock = VirtualClock()
    network = HttpNetwork()
    fleet = NodeFleet(Cluster(clock=clock), network, DeterministicRng(3))
    fleet.add_nodes(4)
    topo = FederationTopology(clock, network)
    topo.add("global", GLOBAL)
    topo.add("region-0", replace(RELAY, enable_wal=True), uplink="global")
    topo.add("leaf-0", replace(LEAF, enable_self_telemetry=False),
             uplink="region-0")
    nodes = topo.build()
    nodes["leaf-0"].add_discovery(fleet.discovery())
    clock.advance(seconds(60))
    relay = nodes["region-0"]
    stored = relay.tsdb.select([], 0, clock.now_ns + 1)
    assert relay.tsdb.latest("up", instance="node-0") is not None
    jobs = {series.labels.get("job") for series in stored}
    assert not jobs & {"pmag", "prometheus", "teemon_self"}, jobs
    for deployment in nodes.values():
        deployment.stop()


def test_every_uplink_of_an_ha_parent_lands_its_own_series():
    # A relay shipping to an HA parent runs two clients (primary and
    # mirror).  Each is its own teemon_self row, so neither's counters
    # collide with the other's at the relay or at either parent replica.
    clock = VirtualClock()
    topo = FederationTopology(clock, HttpNetwork())
    topo.add("global", GLOBAL, ha=True)
    topo.add("region-0", replace(RELAY, enable_self_telemetry=True),
             uplink="global")
    topo.add("leaf-0", LEAF, uplink="region-0")
    nodes = topo.build()
    clock.advance(seconds(60))
    relay = nodes["region-0"]
    clients = [relay.remote_write_client] + relay.remote_write_mirrors
    uplinks = sorted(client.cursor_name for client in clients)
    assert len(uplinks) == 2
    for tsdb in [relay.tsdb] + [r.tsdb for r in nodes["global"].replicas]:
        series = [
            one for one in tsdb.select_metric(
                "teemon_remote_write_frames_sent_total", 0, clock.now_ns + 1)
            if one.labels.get("instance") == "region-0"
        ]
        assert sorted(s.labels.get("uplink") for s in series) == uplinks
        for one in series:
            assert one.samples[-1].value > 0
    for deployment in [nodes["leaf-0"], relay] + nodes["global"].replicas:
        deployment.stop()


def test_relay_crash_and_recover_through_topology():
    clock = VirtualClock()
    topo = FederationTopology(clock, HttpNetwork())
    topo.add("global", GLOBAL)
    topo.add("region-0", TeemonConfig(
        enable_exporters=False, enable_recording_rules=False,
        enable_anomaly_detection=False, enable_alerting=False,
        enable_self_telemetry=False, remote_write_receiver=True,
        enable_wal=True, wal_flush_records=1,
    ), uplink="global")
    topo.add("leaf-0", LEAF, uplink="region-0")
    nodes = topo.build()
    assert "region-0" in topo.supervisors
    clock.advance(seconds(30))
    topo.crash("region-0")
    clock.advance(seconds(10))     # leaf spills to its bounded queue
    topo.recover("region-0")
    clock.advance(seconds(30))
    for name in ("leaf-0", "region-0", "global"):
        nodes[name].stop()
    # The global view heals: no duplicates, and the leaf's liveness
    # series kept progressing across the relay outage.
    up = nodes["global"].tsdb.select_metric(
        "up", 0, clock.now_ns + 1)
    leaf_up = [s for s in up if s.labels.get("instance") == "leaf-0"]
    assert leaf_up
    stamps = [s.time_ns for series in leaf_up for s in series.samples]
    assert stamps == sorted(set(stamps))
    assert max(stamps) > seconds(60)  # post-recovery samples arrived
    for series in nodes["global"].tsdb.select([], 0, clock.now_ns + 1):
        got = [s.time_ns for s in series.samples]
        assert got == sorted(set(got)), series.labels


# ---------------------------------------------------------------------------
# HA pairs at a relay tier
# ---------------------------------------------------------------------------
def test_ha_pair_works_at_the_region_tier():
    clock = VirtualClock()
    topo = FederationTopology(clock, HttpNetwork())
    topo.add("global", GLOBAL)
    topo.add("region-0", RELAY, uplink="global", ha=True)
    topo.add("leaf-0", LEAF, uplink="region-0")
    nodes = topo.build()
    pair = nodes["region-0"]
    assert isinstance(pair, HAMonitorPair)
    leaf = nodes["leaf-0"]
    # The leaf ships to both replicas: primary = priority-0, one mirror.
    assert leaf.remote_write_client.url == pair.receiver_urls[0]
    assert [m.url for m in leaf.remote_write_mirrors] == pair.receiver_urls[1:]

    clock.advance(seconds(30))
    pair.crash(0)                  # the primary region replica dies
    clock.advance(seconds(20))     # the mirror keeps relaying
    pair.recover(0)
    clock.advance(seconds(30))
    leaf.stop()
    for replica in pair.replicas:
        replica.stop()
    nodes["global"].stop()

    top = nodes["global"].remote_write_receiver
    # Both replicas relayed under their own identities; the surviving
    # one covered the outage, so the global stream has no gap and the
    # duplicate copies were rejected sample-by-sample.
    assert top.last_sequence("region-0-0") > 0
    assert top.last_sequence("region-0-1") > 0
    assert top.samples_deduped > 0
    up_stamps = []
    for series in nodes["global"].tsdb.select([], 0, clock.now_ns + 1):
        stamps = [s.time_ns for s in series.samples]
        assert stamps == sorted(set(stamps)), series.labels
        if (series.labels.get("__name__") == "up"
                and series.labels.get("instance") == "leaf-0"):
            up_stamps = stamps
    # Liveness samples kept flowing through the whole replica outage
    # (scrapes every 5s: no two consecutive arrivals further apart than
    # one interval plus the relay hop).
    assert up_stamps
    gaps = [b - a for a, b in zip(up_stamps, up_stamps[1:])]
    assert max(gaps) <= seconds(10)
