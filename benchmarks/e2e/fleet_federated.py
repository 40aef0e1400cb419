"""``fleet_federated``: the canonical write path, end to end.

The ``examples/federated_fleet.py`` topology without the chaos: two
regions of fleet nodes, each scraped by two leaf monitors (sharded
discovery), each with a relay (receiver + uplink, WAL on), feeding an HA
global pair that runs recording rules, alerting and anomaly detection.
Raw mode, 500-sample frames.  One step is one 5 s scrape interval.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from repro.net.http import HttpNetwork
from repro.orchestration.fleet import NodeFleet
from repro.orchestration.kubernetes import Cluster
from repro.simkernel.clock import VirtualClock, seconds
from repro.simkernel.rng import DeterministicRng
from repro.teemon import FederationTopology, TeemonConfig

from benchmarks.e2e import layers
from benchmarks.e2e.harness import Workload
from benchmarks.e2e.sink import close, sink_digest

REGIONS = 2
LEAVES_PER_REGION = 2
INTERVAL_S = 5.0
WARMUP_S = 30.0
#: ``FleetExporter``'s default per-node syscall rate.
SYSCALLS_PER_NODE_S = 400.0

_BASE = TeemonConfig(
    enable_exporters=False, enable_recording_rules=False,
    enable_anomaly_detection=False, enable_alerting=False,
    storage_shards=1, storage_executor_workers=0,
    remote_write_frame_samples=500, federation_mode="raw",
)
LEAF_CFG = replace(_BASE, enable_wal=False)
RELAY_CFG = replace(
    _BASE, enable_self_telemetry=False, remote_write_receiver=True,
    enable_wal=True,
)
GLOBAL_CFG = replace(
    _BASE, remote_write_receiver=True, enable_wal=True,
    enable_recording_rules=True, enable_anomaly_detection=True,
    enable_alerting=True,
)

DIGEST_QUERIES = (
    'sum(up{job="sgx"})',
    "sum(rate(ebpf_syscalls_total[1m]))",
    "sum by (instance) (sgx_epc_pages_evicted_total)",
    "avg(node_cpu_utilization)",
    "count(job:epc_evictions:rate1m)",
)


def _shard_discovery(fleet: NodeFleet, shard: int):
    """A leaf's view of its region: nodes whose index matches mod 2."""
    base = fleet.discovery()

    def discover():
        return [
            target for target in base()
            if (int(target.instance.rsplit("-", 1)[1])
                % LEAVES_PER_REGION == shard)
        ]

    return discover


class FleetFederated(Workload):
    STEPS = (120, 12)

    def __init__(self, seed: int, quick: bool) -> None:
        self.nodes_per_region = 6 if quick else 50
        self.clock = VirtualClock()
        rng = DeterministicRng(seed)
        network = HttpNetwork()
        fleets = []
        for region in range(REGIONS):
            fleet = NodeFleet(Cluster(clock=self.clock), network,
                              rng.fork(f"fleet-{region}"),
                              node_prefix=f"r{region}-node")
            fleet.add_nodes(self.nodes_per_region)
            fleets.append(fleet)

        topo = FederationTopology(self.clock, network)
        topo.add("global", GLOBAL_CFG, ha=True, seed=seed)
        for region in range(REGIONS):
            topo.add(f"region-{region}", RELAY_CFG, uplink="global",
                     seed=seed + 10 + region)
        for region in range(REGIONS):
            for leaf in range(LEAVES_PER_REGION):
                topo.add(f"leaf-{region}-{leaf}", LEAF_CFG,
                         uplink=f"region-{region}",
                         seed=seed + 100 + 10 * region + leaf)
        nodes = topo.build()
        for region in range(REGIONS):
            for leaf in range(LEAVES_PER_REGION):
                nodes[f"leaf-{region}-{leaf}"].add_discovery(
                    _shard_discovery(fleets[region], leaf)
                )
        self.pair = nodes["global"]
        self.relays = [nodes[f"region-{r}"] for r in range(REGIONS)]
        self.leaves = [
            nodes[f"leaf-{r}-{l}"]
            for r in range(REGIONS) for l in range(LEAVES_PER_REGION)
        ]
        self.monitors = self.leaves + self.relays + list(self.pair.replicas)
        self.root_lag_s_max = 0.0
        self.queue_depth_max = 0
        self.clock.advance(seconds(WARMUP_S))

    def step(self, index: int) -> None:
        self.clock.advance(seconds(INTERVAL_S))
        root = self.pair.active.remote_write_receiver
        lag = root.lag_seconds(self.clock.now_ns)
        self.root_lag_s_max = max(self.root_lag_s_max, *lag.values())
        self.queue_depth_max = max(
            self.queue_depth_max, layers.queue_depth(self.monitors)
        )

    def work(self) -> float:
        return self.pair.active.tsdb.sample_count()

    def counters(self) -> Dict[str, float]:
        out = layers.deployment_counters(self.monitors)
        out["remote_write.queue_depth_max"] = self.queue_depth_max
        return out

    def finish(self) -> dict:
        fleet_size = REGIONS * self.nodes_per_region
        replicas: List = list(self.pair.replicas)
        clients = [c for m in self.monitors for c in layers.uplinks(m)]
        receivers = [m.remote_write_receiver
                     for m in self.relays + replicas]
        checks = {
            "no_dropped_frames": all(
                c.frames_dropped == 0 and c.samples_dropped == 0
                and c.queue_depth == 0 for c in clients
            ),
        }
        # Each root replica is fed by one client of every relay: the
        # primary uplinks land on replica 0, the mirrors on replica 1.
        feeds = (
            [relay.remote_write_client for relay in self.relays],
            [relay.remote_write_mirrors[0] for relay in self.relays],
        )
        for index, replica in enumerate(replicas):
            stats = replica.remote_write_receiver.stats()
            shipped = sum(c.samples_shipped for c in feeds[index])
            checks[f"root{index}_applied_is_shipped_minus_deduped"] = (
                stats["samples_applied"]
                == shipped - stats["samples_deduped"]
            )
        up = self.pair.query('sum(up{job="sgx"})')
        checks["all_targets_up_at_root"] = (
            len(up) == 1 and up[0][1] == fleet_size
        )
        rate = self.pair.query("sum(rate(ebpf_syscalls_total[1m]))")
        checks["syscall_rate_closed_form"] = (
            len(rate) == 1
            and close(rate[0][1], fleet_size * SYSCALLS_PER_NODE_S)
        )
        digests = [
            sink_digest(r.tsdb, r.engine, self.clock.now_ns, DIGEST_QUERIES)
            for r in replicas
        ]
        checks["root_replicas_agree"] = digests[0] == digests[1]

        attempted = (
            sum(layers.scrape_attempts(leaf) for leaf in self.leaves)
            + sum(c.frames_sent for c in clients)
        )
        failed = (
            sum(layers.scrape_failures(leaf) for leaf in self.leaves)
            + sum(c.frames_dropped + c.send_failures
                  + (c.frames_sent - c.frames_acked) for c in clients)
            + sum(r.frames_rejected for r in receivers)
        )
        return {
            "attempted": attempted,
            "failed": failed,
            "checks": checks,
            "digest": digests[self.pair.active_index],
            "level": {"root_lag_s_max": self.root_lag_s_max},
        }
