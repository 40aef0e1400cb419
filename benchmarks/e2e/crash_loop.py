"""``crash_loop``: sharded ingest, sharded WAL, crash, replay, repeat.

One monitor (no local exporters, 4 storage shards, WAL on with 15 s
timed flushes and 300 s checkpoints, alerting on) scrapes a fleet and is
crashed every 150 virtual seconds, 2 s past a scrape, stays down 3 s and
is recovered from its WAL.  One step is one 5 s scrape interval; every
30th step carries the crash and the recovery.  After each recovery the
sample count must equal the pre-crash count minus exactly what the
simulated disk reports destroyed.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List

from repro.net.http import HttpNetwork
from repro.orchestration.fleet import NodeFleet
from repro.orchestration.kubernetes import Cluster
from repro.simkernel.clock import VirtualClock, seconds
from repro.simkernel.kernel import Kernel
from repro.simkernel.rng import DeterministicRng
from repro.teemon import TeemonConfig, deploy
from repro.teemon.supervisor import MonitorSupervisor

from benchmarks.e2e import layers
from benchmarks.e2e.harness import Workload
from benchmarks.e2e.sink import sink_digest

INTERVAL_S = 5.0
WARMUP_S = 30.0
CRASH_AFTER_SCRAPE_S = 2.0
DOWNTIME_S = 3.0

CONFIG = TeemonConfig(
    enable_exporters=False, storage_shards=4, storage_executor_workers=0,
    enable_wal=True, wal_flush_every_s=15.0, checkpoint_every_s=300.0,
    enable_alerting=True,
)

DIGEST_QUERIES = (
    'sum(up{job="sgx"})',
    "sum(rate(ebpf_syscalls_total[1m]))",
    "sum by (instance) (sgx_aexs_total)",
    "count(ALERTS)",
)


class CrashLoop(Workload):
    STEPS = (360, 24)

    def __init__(self, seed: int, quick: bool) -> None:
        self.fleet_size = 8 if quick else 60
        self.crash_every = 8 if quick else 30
        self.clock = VirtualClock()
        rng = DeterministicRng(seed)
        network = HttpNetwork()
        fleet = NodeFleet(Cluster(clock=self.clock), network,
                          rng.fork("fleet"))
        fleet.add_nodes(self.fleet_size)
        kernel = Kernel(seed=seed, hostname="monitor", clock=self.clock)
        self.deployment = deploy(kernel, CONFIG, network=network)
        self.deployment.add_discovery(fleet.discovery())
        self.supervisor = MonitorSupervisor(self.deployment)
        #: Incarnation counters of monitors that have since died.
        self.carried: Dict[str, float] = {}
        self.scrapes_carried = 0
        self.recovery_s: List[float] = []
        self.lost = 0
        self.unaccounted = 0
        self.clock.advance(seconds(WARMUP_S))
        self.samples_at_start = self.deployment.tsdb.sample_count()
        self.bytes_at_start = self.deployment.disk.bytes_written

    def step(self, index: int) -> None:
        if index % self.crash_every != self.crash_every - 1:
            self.clock.advance(seconds(INTERVAL_S))
            return
        deployment = self.deployment
        self.clock.advance(seconds(CRASH_AFTER_SCRAPE_S))
        before = deployment.tsdb.sample_count()
        layers.add_into(self.carried, layers.incarnation_counters(deployment))
        self.scrapes_carried += layers.scrape_attempts(deployment)
        self.supervisor.crash()
        self.clock.advance(seconds(DOWNTIME_S))
        began = time.perf_counter()
        report = self.supervisor.recover()
        self.recovery_s.append(time.perf_counter() - began)
        self.lost += report.samples_lost
        after = deployment.tsdb.sample_count()
        self.unaccounted += abs(before - report.samples_lost - after)

    def work(self) -> float:
        """Samples the monitor accepted since warm-up, destroyed or not."""
        return (self.deployment.tsdb.sample_count() - self.samples_at_start
                + self.lost)

    def counters(self) -> Dict[str, float]:
        out = layers.deployment_counters([self.deployment])
        layers.add_into(out, self.carried)
        return out

    def finish(self) -> dict:
        deployment = self.deployment
        recoveries = len(self.recovery_s)
        up = deployment.session.query('sum(up{job="sgx"})')
        checks = {
            "count_after_recovery_is_before_minus_oracle_loss":
                self.unaccounted == 0,
            "samples_lost_matches_reports": (
                self.lost == self.supervisor.total_samples_lost()
                == deployment.recovery_stats["samples_lost"]
            ),
            "every_crash_recovered":
                recoveries == self.supervisor.crashes > 0,
            "all_targets_up": len(up) == 1 and up[0][1] == self.fleet_size,
        }
        failures = (
            self.carried.get("scrape.failures", 0)
            + layers.scrape_failures(deployment)
        )
        written = deployment.disk.bytes_written - self.bytes_at_start
        return {
            "attempted": (self.scrapes_carried
                          + layers.scrape_attempts(deployment) + recoveries),
            "failed": failures + self.unaccounted,
            "checks": checks,
            "digest": sink_digest(deployment.tsdb, deployment.engine,
                                  self.clock.now_ns, DIGEST_QUERIES),
            "level": {
                "recovery_ms_p50":
                    statistics.median(self.recovery_s) * 1e3,
                "wal_bytes_per_sample": written / self.work(),
            },
        }
