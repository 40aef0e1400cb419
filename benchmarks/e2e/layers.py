"""Counts read from the layers' public stats.

Two groups, because a monitor that crashes and is resurrected rebuilds
its in-memory objects: *incarnation* counters restart at zero with every
resurrection (the crash workload carries the dead incarnation's values
forward), *durable* ones live on the substrate and only ever grow.
"""

from __future__ import annotations

from typing import Dict, Iterable

#: Keys whose window value is the reading at the window's end, not the
#: difference between its two ends.
GAUGES = ("tsdb.series", "tsdb.samples", "tsdb.memory_bytes",
          "remote_write.queue_depth_max")


def uplinks(deployment) -> list:
    """A monitor's remote-write clients: the primary, then the mirrors."""
    if deployment.remote_write_client is None:
        return []
    return [deployment.remote_write_client] + deployment.remote_write_mirrors


def add_into(total: Dict[str, float], part: Dict[str, float]) -> None:
    """``total += part`` key by key."""
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def scrape_attempts(deployment) -> int:
    """Scrape attempts of the live incarnation (retries included)."""
    manager = deployment.scrape_manager
    return sum(manager.health(target).scrapes
               for target in manager.current_targets())


def scrape_failures(deployment) -> int:
    """Failed scrape attempts of the live incarnation."""
    manager = deployment.scrape_manager
    return sum(manager.health(target).failures
               for target in manager.current_targets())


def incarnation_counters(deployment) -> Dict[str, float]:
    """Counters that restart when the monitor is resurrected."""
    out: Dict[str, float] = {
        "scrape.samples_ingested": deployment.scrape_manager.samples_ingested,
        "scrape.failures": scrape_failures(deployment),
        "rules.samples_written": deployment.rule_evaluator.samples_recorded,
    }
    cache = deployment.engine.cache_stats()
    out["query.plan_cache_hits"] = cache.hits
    out["query.plan_cache_misses"] = cache.misses
    wal = deployment.wal
    if wal is not None:
        out["wal.records"] = wal.records_total
        out["wal.flushes"] = wal.flushes_total
        out["wal.checkpoints"] = wal.checkpoints_total
    clients = uplinks(deployment)
    if clients:
        out["remote_write.frames"] = sum(c.frames_sent for c in clients)
        out["remote_write.bytes"] = sum(c.bytes_shipped for c in clients)
        out["remote_write.samples_shipped"] = sum(
            c.samples_shipped for c in clients
        )
        out["remote_write.send_failures"] = sum(
            c.send_failures for c in clients
        )
    receiver = deployment.remote_write_receiver
    if receiver is not None:
        out["remote_write.samples_deduped"] = receiver.samples_deduped
    router = deployment.notification_router
    if router is not None:
        out["alerting.notifications"] = sum(router.counters.values())
    return out


def durable_counters(deployment) -> Dict[str, float]:
    """Counters and gauges that survive a monitor crash."""
    tsdb = deployment.tsdb
    out: Dict[str, float] = {
        "tsdb.series": tsdb.series_count(),
        "tsdb.samples": tsdb.sample_count(),
        "tsdb.memory_bytes": tsdb.memory_bytes(),
        "wal.records_replayed": deployment.recovery_stats["records_replayed"],
        "wal.samples_lost": deployment.recovery_stats["samples_lost"],
    }
    if deployment.disk is not None:
        out["wal.bytes_written"] = deployment.disk.bytes_written
    hooks = deployment.kernel.hooks
    out["hooks.fires"] = sum(
        hooks.fire_count(name) for name in hooks.catalogue()
    )
    ebpf = deployment.exporters.get("ebpf")
    if ebpf is not None:
        out["ebpf.programs_run"] = ebpf.runtime.vm.total_runs
    return out


def deployment_counters(deployments: Iterable) -> Dict[str, float]:
    """Both groups, summed over the monitors of a workload."""
    total: Dict[str, float] = {}
    for deployment in deployments:
        add_into(total, incarnation_counters(deployment))
        add_into(total, durable_counters(deployment))
    return total


def queue_depth(deployments: Iterable) -> int:
    """Frames spilled across every uplink right now."""
    return sum(
        client.queue_depth
        for deployment in deployments
        for client in uplinks(deployment)
    )
