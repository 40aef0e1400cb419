"""Federation/HA chaos soak: the PR's consistency acceptance criteria.

Excluded from the tier-1 suite (see ci.yml); run by the
``federation-chaos`` soak step.  Proves, for one seed:

* killing either HA leaf replica leaves the global tier's fleet-visible
  query results identical to an uninterrupted same-seed control;
* partitioning-then-healing a leaf uplink likewise — the spill queue
  drains without loss once the partition heals;
* zero duplicate samples are stored, and the receiver's dedup counters
  reconcile exactly against what the clients shipped;
* fault journals are byte-identical across same-seed reruns.
"""

from types import SimpleNamespace

import pytest

from repro.faults import FaultPlan, FaultyHttpNetwork, PartitionInjector
from repro.net.http import HttpNetwork
from repro.orchestration.fleet import NodeFleet
from repro.orchestration.kubernetes import Cluster
from repro.simkernel.clock import VirtualClock, seconds
from repro.simkernel.kernel import Kernel
from repro.simkernel.rng import DeterministicRng
from repro.teemon import (
    FederationTopology,
    TeemonConfig,
    deploy,
    deploy_ha_pair,
)

T_END_S = 180
FLEET_NODES = 3

#: Monitor-tier config: no local exporters, no derived series — the
#: global TSDB holds exactly what the fleet exposes plus self-telemetry,
#: so dedup counters reconcile sample for sample.
MONITOR_KNOBS = dict(
    enable_exporters=False,
    enable_recording_rules=False,
    enable_anomaly_detection=False,
    enable_alerting=False,
)


def build_world(seed, partition_url_window=None):
    """Fleet + HA leaf pair + global receiver on one clock/network.

    ``partition_url_window`` = (start_s, end_s) partitions the global
    receiver's URL for that window of virtual time.
    """
    clock = VirtualClock()
    rng = DeterministicRng(seed)
    plan = FaultPlan(clock, rng.fork("plan"))
    network = HttpNetwork()

    cluster = Cluster(clock=clock)
    fleet = NodeFleet(cluster, network, rng, plan=plan)
    fleet.add_nodes(FLEET_NODES)

    global_kernel = Kernel(seed=seed + 50, hostname="global-0", clock=clock)
    global_dep = deploy(global_kernel, TeemonConfig(
        remote_write_receiver=True, **MONITOR_KNOBS,
    ), network=network)
    uplink_url = global_dep.remote_write_receiver.url

    leaf_network = network
    if partition_url_window is not None:
        start_s, end_s = partition_url_window
        injector = PartitionInjector(rng.fork("partition"), plan=plan)
        injector.partition(uplink_url, seconds(start_s), seconds(end_s))
        leaf_network = FaultyHttpNetwork(network, plan)
        plan.add(injector, urls=[uplink_url])

    kernels = [
        Kernel(seed=seed + index, hostname=f"leaf-{index}", clock=clock)
        for index in range(2)
    ]
    pair = deploy_ha_pair(kernels, TeemonConfig(
        remote_write_url=uplink_url, **MONITOR_KNOBS,
    ), network=leaf_network, plan=plan)
    discovery = fleet.discovery()
    for replica in pair.replicas:
        replica.add_discovery(discovery)

    return SimpleNamespace(
        clock=clock, plan=plan, network=network, fleet=fleet,
        global_dep=global_dep, pair=pair,
    )


def finish(world):
    for replica in world.pair.replicas:
        if not replica.crashed:
            replica.stop()
    world.pair.stop()
    world.global_dep.stop()


def fleet_sample_set(tsdb, end_ns):
    """Fleet-visible (series, time, value) triples in the global TSDB.

    Restricted to the fleet exporters' job label: replica self-telemetry
    legitimately differs between a chaos run and its control (the killed
    replica's own counters reset), the monitored data must not.
    """
    out = set()
    for series in tsdb.select([], 0, end_ns):
        if series.labels.get("job") != "sgx":
            continue
        key = series.labels.items()
        out.update((key, s.time_ns, s.value) for s in series.samples)
    return out


def assert_no_duplicates(tsdb, end_ns):
    for series in tsdb.select([], 0, end_ns):
        stamps = [s.time_ns for s in series.samples]
        assert stamps == sorted(set(stamps)), series.labels.items()


def assert_dedup_reconciles(world, shipped_by_dead_incarnations=0):
    """Receiver dedup counters account for every shipped sample.

    Client counters reset when a crashed replica is resurrected, so a
    kill scenario passes the dead incarnation's acked-sample count
    (snapshotted at crash time) explicitly.
    """
    receiver = world.global_dep.remote_write_receiver
    shipped = shipped_by_dead_incarnations + sum(
        replica.remote_write_client.samples_shipped
        for replica in world.pair.replicas
    )
    stats = receiver.stats()
    assert (stats["samples_applied"] + stats["samples_deduped"]
            + stats["replay_dedup_hits"]) == shipped
    assert stats["frames_rejected"] == 0
    assert stats["frames_received"] == (
        stats["frames_applied"] + stats["frames_replayed"]
        + stats["frames_refused"]
    )


def run_control(seed):
    world = build_world(seed)
    world.clock.advance(seconds(T_END_S))
    finish(world)
    return world


# ---------------------------------------------------------------------------
# Replica kill
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("victim", [0, 1])
def test_killing_either_replica_leaves_global_results_intact(victim):
    seed = 23
    control = run_control(seed)
    end_ns = seconds(T_END_S)
    expected = fleet_sample_set(control.global_dep.tsdb, end_ns)
    assert expected

    world = build_world(seed)
    # Kill mid-scrape-cycle; recover on the scrape grid (t=55, next tick
    # t=60) so the resurrected replica's scrapes land on the same
    # instants as the survivor's and dedup to zero extra samples.  An
    # off-grid restart is also safe — it just adds extra (valid)
    # observation instants instead of byte-identical results.
    dead_shipped = []

    def crash():
        client = world.pair.replicas[victim].remote_write_client
        dead_shipped.append(client.samples_shipped)
        world.pair.crash(victim)

    world.clock.call_at(seconds(43), crash)
    world.clock.call_at(seconds(55), lambda: world.pair.recover(victim))
    world.clock.advance(seconds(T_END_S))
    finish(world)

    # The survivor shipped the same deterministic scrape of the same
    # pure expositions: the global fleet view is *identical* — the kill
    # cost nothing at the global tier, not even a samples_lost window.
    got = fleet_sample_set(world.global_dep.tsdb, end_ns)
    assert got == expected
    assert_no_duplicates(world.global_dep.tsdb, end_ns)
    assert_dedup_reconciles(world,
                            shipped_by_dead_incarnations=dead_shipped[0])

    # The kill/recover and lease movement are all in one journal.
    journal = world.plan.journal_text()
    assert f"PROC teemon-ha/replica-{victim} crash" in journal
    assert f"PROC teemon-ha/replica-{victim} recover" in journal
    if victim == 0:
        assert "failover" in journal and "failback" in journal
    # The replica's own loss is WAL-accounted.
    report = world.pair.supervisors[victim].reports[0]
    assert report.samples_lost >= 0


def test_queries_route_around_a_dead_active_replica():
    world = build_world(31)
    world.clock.advance(seconds(30))
    assert world.pair.active_index == 0
    world.pair.crash(0)
    world.clock.advance(seconds(5))
    assert world.pair.active_index == 1
    # The lease holder answers with the fleet view.
    assert world.pair.query("sum(up)")
    world.pair.recover(0)
    world.clock.advance(seconds(5))
    assert world.pair.active_index == 0  # failback to priority 0
    assert world.pair.failovers >= 2
    finish(world)


# ---------------------------------------------------------------------------
# Uplink partition + heal
# ---------------------------------------------------------------------------
def test_partition_heal_drains_spill_without_loss():
    seed = 29
    control = run_control(seed)
    end_ns = seconds(T_END_S)
    expected = fleet_sample_set(control.global_dep.tsdb, end_ns)

    world = build_world(seed, partition_url_window=(60, 95))
    world.clock.advance(seconds(T_END_S))
    finish(world)

    clients = [r.remote_write_client for r in world.pair.replicas]
    # The partition really bit: both uplinks spilled and retried...
    assert all(c.send_failures > 0 for c in clients)
    assert sum(c.retries_total for c in clients) > 0
    # ...and nothing overflowed the bounded queues.
    assert all(c.samples_dropped == 0 for c in clients)
    assert all(c.queue_depth == 0 for c in clients)

    # Post-heal the global fleet view converged to the control's.
    got = fleet_sample_set(world.global_dep.tsdb, end_ns)
    assert got == expected
    assert_no_duplicates(world.global_dep.tsdb, end_ns)
    assert_dedup_reconciles(world)
    journal = world.plan.journal_text()
    assert "partition-begin" in journal and "partition-heal" in journal


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------
def test_same_seed_chaos_runs_are_byte_identical():
    def run(seed):
        world = build_world(seed, partition_url_window=(60, 95))
        world.clock.call_at(seconds(43), lambda: world.pair.crash(0))
        world.clock.call_at(seconds(58), lambda: world.pair.recover(0))
        world.clock.advance(seconds(T_END_S))
        finish(world)
        digest = sorted(fleet_sample_set(world.global_dep.tsdb,
                                         seconds(T_END_S)))
        return world.plan.journal_text(), digest, (
            world.global_dep.remote_write_receiver.stats()
        )

    first = run(37)
    second = run(37)
    assert first == second
    assert run(38)[0] != first[0]


# ---------------------------------------------------------------------------
# Hierarchical federation: 3 regions x N leaves vs a same-seed flat control
# ---------------------------------------------------------------------------
REGIONS = 3
LEAVES_PER_REGION = 2

#: Region relays persist their TSDB so a crashed relay recovers its
#: landed-but-not-yet-forwarded window from the WAL; per-record flushes
#: make every *acked* downstream sample durable before the ack.
RELAY_KNOBS = dict(
    enable_self_telemetry=False, remote_write_receiver=True,
    enable_wal=True, wal_flush_records=1, **MONITOR_KNOBS,
)


def build_hierarchy(seed, flat=False, chaos=False):
    """3 regions x ``LEAVES_PER_REGION`` leaves, each region a fleet.

    ``flat=True`` keeps the same leaves (same names, same derived
    kernel seeds, same scrape jitter) but points every uplink straight
    at the global receiver — the control topology the relay tier must
    be indistinguishable from.  ``chaos=True`` additionally partitions
    ``leaf-1-0``'s uplink for t in [60, 95); the region-relay crash is
    scheduled by the caller so it can snapshot ledgers first.
    """
    clock = VirtualClock()
    rng = DeterministicRng(seed)
    plan = FaultPlan(clock, rng.fork("plan"))
    network = HttpNetwork()

    # One cluster per region: discovery is cluster-wide, and each leaf
    # must only see its own region's exporters.
    fleets = []
    for region in range(REGIONS):
        cluster = Cluster(clock=clock)
        fleet = NodeFleet(
            cluster, network, rng.fork(f"fleet-{region}"), plan=plan,
            node_prefix=f"r{region}-node",
        )
        fleet.add_nodes(2)
        fleets.append(fleet)

    victim_network = FaultyHttpNetwork(network, plan) if chaos else None
    topo = FederationTopology(clock, network, plan=plan)
    topo.add("global", TeemonConfig(
        remote_write_receiver=True, **MONITOR_KNOBS,
    ))
    if not flat:
        for region in range(REGIONS):
            topo.add(f"region-{region}", TeemonConfig(**RELAY_KNOBS),
                     uplink="global")
    for region in range(REGIONS):
        for leaf in range(LEAVES_PER_REGION):
            name = f"leaf-{region}-{leaf}"
            topo.add(
                name, TeemonConfig(**MONITOR_KNOBS),
                uplink="global" if flat else f"region-{region}",
                network=victim_network if name == "leaf-1-0" else None,
            )
    nodes = topo.build()
    for region in range(REGIONS):
        for leaf in range(LEAVES_PER_REGION):
            nodes[f"leaf-{region}-{leaf}"].add_discovery(
                fleets[region].discovery()
            )
    if chaos:
        injector = PartitionInjector(rng.fork("partition"), plan=plan)
        uplink_url = nodes["region-1"].remote_write_receiver.url
        injector.partition(uplink_url, seconds(60), seconds(95))
        plan.add(injector, urls=[uplink_url])
    return SimpleNamespace(
        clock=clock, plan=plan, topo=topo, nodes=nodes, fleets=fleets,
    )


def finish_hierarchy(world, flat=False):
    """Stop tier by tier, leaves first, so final flushes drain upward."""
    for region in range(REGIONS):
        for leaf in range(LEAVES_PER_REGION):
            world.nodes[f"leaf-{region}-{leaf}"].stop()
    if not flat:
        for region in range(REGIONS):
            world.nodes[f"region-{region}"].stop()
    world.nodes["global"].stop()


def leaf_clients(world, region):
    return [
        world.nodes[f"leaf-{region}-{leaf}"].remote_write_client
        for leaf in range(LEAVES_PER_REGION)
    ]


def receiver_ledger_sum(stats):
    return (stats["samples_applied"] + stats["samples_deduped"]
            + stats["replay_dedup_hits"])


def test_three_region_chaos_global_view_matches_flat_control():
    seed = 41
    end_ns = seconds(T_END_S)

    control = build_hierarchy(seed, flat=True)
    control.clock.advance(seconds(T_END_S))
    finish_hierarchy(control, flat=True)
    expected = fleet_sample_set(control.nodes["global"].tsdb, end_ns)
    assert expected

    world = build_hierarchy(seed, chaos=True)
    snapshots = {}

    def crash_region_1():
        # Ledger snapshot first: resurrection resets both the region's
        # receiver counters and its relay client's shipped count.
        deployment = world.nodes["region-1"]
        snapshots["receiver"] = receiver_ledger_sum(
            deployment.remote_write_receiver.stats()
        )
        snapshots["relay_shipped"] = (
            deployment.remote_write_client.samples_shipped
        )
        world.topo.crash("region-1")

    world.clock.call_at(seconds(43), crash_region_1)
    world.clock.call_at(seconds(55), lambda: world.topo.recover("region-1"))
    world.clock.advance(seconds(T_END_S))
    finish_hierarchy(world)

    # The global view is *identical* to the flat control's: the relay
    # tier, its crash, and the leaf partition were all invisible.
    top = world.nodes["global"]
    got = fleet_sample_set(top.tsdb, end_ns)
    assert got == expected
    assert_no_duplicates(top.tsdb, end_ns)

    # The partition and the crash really happened.
    victim = world.nodes["leaf-1-0"].remote_write_client
    assert victim.send_failures > 0 and victim.retries_total > 0
    assert victim.samples_dropped == 0 and victim.queue_depth == 0
    journal = world.plan.journal_text()
    assert "teemon-fed/region-1 crash" in journal
    assert "teemon-fed/region-1 recover" in journal
    assert "partition-begin" in journal and "partition-heal" in journal

    # Ledgers reconcile at every tier.  Healthy regions: counters are
    # cumulative.  The crashed region: pre-crash receiver ledger is the
    # snapshot, the fresh incarnation accounts for everything after.
    for region in (0, 2):
        receiver = world.nodes[f"region-{region}"].remote_write_receiver
        shipped = sum(c.samples_shipped for c in leaf_clients(world, region))
        assert receiver_ledger_sum(receiver.stats()) == shipped
    crashed = world.nodes["region-1"].remote_write_receiver
    shipped = sum(c.samples_shipped for c in leaf_clients(world, 1))
    assert (snapshots["receiver"]
            + receiver_ledger_sum(crashed.stats())) == shipped
    # Global tier: relay clients shipped under two region-1 incarnations.
    relay_shipped = snapshots["relay_shipped"] + sum(
        world.nodes[f"region-{r}"].remote_write_client.samples_shipped
        for r in range(REGIONS)
    )
    top_stats = top.remote_write_receiver.stats()
    assert receiver_ledger_sum(top_stats) == relay_shipped
    assert top_stats["frames_rejected"] == 0

    # Re-stamping: the global tier only ever saw the three relays.
    for region in range(REGIONS):
        assert top.remote_write_receiver.last_sequence(f"region-{region}") > 0
    assert top.remote_write_receiver.last_sequence("leaf-1-0") == 0


def test_same_seed_hierarchy_runs_are_byte_identical():
    # Topology kernel seeds derive from node *names* and fleet
    # expositions are pure functions of (hostname, time), so the chaos
    # schedule is the only seed-sensitive input — derive the crash
    # instant from it to prove the journal tracks the schedule while
    # same-schedule reruns stay byte-identical.
    def run(seed):
        crash_s = 41 + seed % 7
        world = build_hierarchy(seed, chaos=True)
        world.clock.call_at(seconds(crash_s),
                            lambda: world.topo.crash("region-1"))
        world.clock.call_at(seconds(crash_s + 12),
                            lambda: world.topo.recover("region-1"))
        world.clock.advance(seconds(T_END_S))
        finish_hierarchy(world)
        digest = sorted(fleet_sample_set(
            world.nodes["global"].tsdb, seconds(T_END_S)
        ))
        return world.plan.journal_text(), digest, (
            world.nodes["global"].remote_write_receiver.stats()
        )

    first = run(43)
    assert first == run(43)
    assert run(44)[0] != first[0]
    # The global fleet view itself is schedule-independent: chaos moved,
    # the data did not.
    assert run(44)[1] == first[1]
