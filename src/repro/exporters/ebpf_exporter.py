"""The eBPF exporter (System Metrics Exporter core).

Modelled on Cloudflare's ebpf_exporter (§5.1): a configuration declares
which program groups to load; each group is real bytecode from
:mod:`repro.ebpf.stdlib` attached to the Table-2 hooks, counting into BPF
maps; at scrape time the exporter reads the maps and renders OpenMetrics
families.

Program groups and their metrics:

* ``syscalls`` — ``raw_syscalls:sys_enter`` → ``ebpf_syscalls_total{name}``
* ``context_switches`` — perf event + ``sched:sched_switches`` →
  ``ebpf_context_switches_total`` (host-wide) and
  ``ebpf_context_switches_pid_total{pid}``
* ``page_faults`` — exception tracepoints + perf event →
  ``ebpf_page_faults_user_total{kind}``, ``ebpf_page_faults_user_pid_total{pid}``,
  ``ebpf_page_faults_kernel_total``, ``ebpf_page_faults_total``
* ``cache`` — HW perf events + page-cache kprobes →
  ``ebpf_llc_references_total``, ``ebpf_llc_misses_total``,
  ``ebpf_llc_misses_pid_total{pid}``, ``ebpf_page_cache_ops_total{op}``

The paper notes overhead knobs: a PID-filter macro and per-group disable
flags; both are fields of :class:`EbpfExporterConfig` (the macro is
``pid_filter``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ebpf.attach import EbpfRuntime
from repro.ebpf.maps import HashMap
from repro.ebpf.stdlib import (
    counter_program,
    log2_histogram_program,
    pid_attributed_counter_program,
)
from repro.exporters.base import Exporter, ExporterFootprint, MIB
from repro.simkernel.kernel import Kernel
from repro.simkernel.memory import FAULT_KIND_BY_CODE
from repro.simkernel.syscalls import SYSCALL_NAMES

PAGE_CACHE_HOOKS = (
    "add_to_page_cache_lru",
    "mark_page_accessed",
    "account_page_dirtied",
    "mark_buffer_dirty",
)


@dataclass(frozen=True)
class EbpfExporterConfig:
    """Which program groups to load, and the PID-filter macro."""

    syscalls: bool = True
    context_switches: bool = True
    page_faults: bool = True
    cache: bool = True
    #: When set, syscall and context-switch programs only count this PID
    #: (the paper's overhead-reduction macro, §6.3).
    pid_filter: Optional[int] = None


class EbpfExporter(Exporter):
    """Loads eBPF programs and exports their maps."""

    FOOTPRINT = ExporterFootprint(cpu_fraction=0.008, memory_bytes=45 * MIB)
    PORT = 9102
    PROCESS_NAME = "ebpf-exporter"
    JOB = "ebpf"

    def __init__(
        self,
        kernel: Kernel,
        config: Optional[EbpfExporterConfig] = None,
        container_id: Optional[str] = None,
    ) -> None:
        super().__init__(kernel, container_id=container_id)
        self.config = config or EbpfExporterConfig()
        self.runtime = EbpfRuntime(kernel)
        self._map_fds: Dict[str, int] = {}
        self._install_programs()
        self._build_families()
        self.registry.on_collect(self._refresh)

    # ------------------------------------------------------------------
    def _new_map(self, name: str, max_entries: int = 4096) -> int:
        fd = self.runtime.create_map(HashMap(name, max_entries=max_entries))
        self._map_fds[name] = fd
        return fd

    def _install_programs(self) -> None:
        cfg = self.config
        if cfg.syscalls:
            fd = self._new_map("syscall_counts")
            self.runtime.load_and_attach(
                counter_program(
                    "count_syscalls", fd, key_field="syscall_nr",
                    pid_filter=cfg.pid_filter,
                ),
                "raw_syscalls:sys_enter",
            )
            exit_fd = self._new_map("syscall_exits")
            self.runtime.load_and_attach(
                counter_program(
                    "count_syscall_exits", exit_fd, key_field="syscall_nr",
                    pid_filter=cfg.pid_filter,
                ),
                "raw_syscalls:sys_exit",
            )
            hist_fd = self._new_map("syscall_latency_hist", max_entries=64)
            self.runtime.load_and_attach(
                log2_histogram_program(
                    "syscall_latency_hist", hist_fd, "latency_us"
                ),
                "raw_syscalls:sys_exit",
            )
        if cfg.context_switches:
            total_fd = self._new_map("ctx_total")
            self.runtime.load_and_attach(
                counter_program(
                    "count_ctx_switches", total_fd, fixed_key=0,
                ),
                "PERF_COUNT_SW_CONTEXT_SWITCHES",
            )
            pid_fd = self._new_map("ctx_by_pid")
            self.runtime.load_and_attach(
                pid_attributed_counter_program("ctx_by_pid", pid_fd),
                "sched:sched_switches",
            )
        if cfg.page_faults:
            kind_fd = self._new_map("faults_by_kind", max_entries=8)
            self.runtime.load_and_attach(
                counter_program("faults_by_kind", kind_fd, key_field="fault_kind_code"),
                "exceptions:page_fault_user",
            )
            user_pid_fd = self._new_map("user_faults_by_pid")
            self.runtime.load_and_attach(
                pid_attributed_counter_program("user_faults_by_pid", user_pid_fd),
                "exceptions:page_fault_user",
            )
            kernel_fd = self._new_map("kernel_faults", max_entries=2)
            self.runtime.load_and_attach(
                counter_program("kernel_faults", kernel_fd, fixed_key=0),
                "exceptions:page_fault_kernel",
            )
            total_fd = self._new_map("faults_total", max_entries=2)
            self.runtime.load_and_attach(
                counter_program("faults_total", total_fd, fixed_key=0),
                "PERF_COUNT_SW_PAGE_FAULTS",
            )
        if cfg.cache:
            refs_fd = self._new_map("llc_refs", max_entries=2)
            self.runtime.load_and_attach(
                counter_program("llc_refs", refs_fd, fixed_key=0),
                "PERF_COUNT_HW_CACHE_REFERENCES",
            )
            miss_fd = self._new_map("llc_misses", max_entries=2)
            self.runtime.load_and_attach(
                counter_program("llc_misses", miss_fd, fixed_key=0),
                "PERF_COUNT_HW_CACHE_MISSES",
            )
            miss_pid_fd = self._new_map("llc_misses_by_pid")
            self.runtime.load_and_attach(
                pid_attributed_counter_program("llc_misses_by_pid", miss_pid_fd),
                "PERF_COUNT_HW_CACHE_MISSES",
            )
            for hook in PAGE_CACHE_HOOKS:
                fd = self._new_map(f"pagecache_{hook}", max_entries=2)
                self.runtime.load_and_attach(
                    counter_program(f"pagecache_{hook}", fd, fixed_key=0), hook
                )

    # ------------------------------------------------------------------
    def _build_families(self) -> None:
        reg = self.registry
        cfg = self.config
        if cfg.syscalls:
            self._syscalls_family = reg.counter(
                "ebpf_syscalls_total", "System calls by name", ["name"]
            )
            self._latency_family = reg.counter(
                "ebpf_syscall_latency_us_bucket",
                "Syscall service latency, log2 buckets (cumulative, "
                "histogram_quantile-compatible)",
                ["le"],
            )
        if cfg.context_switches:
            self._ctx_total_family = reg.counter(
                "ebpf_context_switches_total", "Host-wide context switches"
            )
            self._ctx_pid_family = reg.counter(
                "ebpf_context_switches_pid_total", "Context switches by PID", ["pid"]
            )
        if cfg.page_faults:
            self._faults_kind_family = reg.counter(
                "ebpf_page_faults_user_total", "User page faults by kind", ["kind"]
            )
            self._faults_pid_family = reg.counter(
                "ebpf_page_faults_user_pid_total", "User page faults by PID", ["pid"]
            )
            self._faults_kernel_family = reg.counter(
                "ebpf_page_faults_kernel_total", "Kernel page faults"
            )
            self._faults_total_family = reg.counter(
                "ebpf_page_faults_total", "All page faults (SW perf event)"
            )
        if cfg.cache:
            self._llc_refs_family = reg.counter(
                "ebpf_llc_references_total", "LLC references"
            )
            self._llc_miss_family = reg.counter(
                "ebpf_llc_misses_total", "LLC misses"
            )
            self._llc_miss_pid_family = reg.counter(
                "ebpf_llc_misses_pid_total", "LLC misses by PID", ["pid"]
            )
            self._pagecache_family = reg.counter(
                "ebpf_page_cache_ops_total", "Page-cache kprobe hits", ["op"]
            )

    def _map_items(self, name: str) -> List[Tuple[int, int]]:
        return list(self.runtime.maps.get(self._map_fds[name]).items())

    def _single_value(self, name: str) -> int:
        value = self.runtime.maps.get(self._map_fds[name]).lookup(0)
        return 0 if value is None else value

    def _refresh(self) -> None:
        """Copy map contents into the metric families (scrape time)."""
        cfg = self.config
        if cfg.syscalls:
            for nr, count in self._map_items("syscall_counts"):
                name = SYSCALL_NAMES.get(nr, f"nr_{nr}")
                self._syscalls_family.labels(name).set_to(count)
            # Log2 buckets -> cumulative `le` buckets for histogram_quantile.
            buckets = dict(self._map_items("syscall_latency_hist"))
            cumulative = 0
            for bucket in sorted(buckets):
                cumulative += buckets[bucket]
                upper = 2 ** (bucket + 1)  # bucket b holds values [2^b, 2^(b+1))
                self._latency_family.labels(str(upper)).set_to(cumulative)
            self._latency_family.labels("+Inf").set_to(cumulative)
        if cfg.context_switches:
            self._ctx_total_family.labels().set_to(self._single_value("ctx_total"))
            for pid, count in self._map_items("ctx_by_pid"):
                self._ctx_pid_family.labels(str(pid)).set_to(count)
        if cfg.page_faults:
            for code, count in self._map_items("faults_by_kind"):
                kind = FAULT_KIND_BY_CODE.get(code)
                label = kind.value if kind is not None else f"code_{code}"
                self._faults_kind_family.labels(label).set_to(count)
            for pid, count in self._map_items("user_faults_by_pid"):
                self._faults_pid_family.labels(str(pid)).set_to(count)
            self._faults_kernel_family.labels().set_to(self._single_value("kernel_faults"))
            self._faults_total_family.labels().set_to(self._single_value("faults_total"))
        if cfg.cache:
            self._llc_refs_family.labels().set_to(self._single_value("llc_refs"))
            self._llc_miss_family.labels().set_to(self._single_value("llc_misses"))
            for pid, count in self._map_items("llc_misses_by_pid"):
                self._llc_miss_pid_family.labels(str(pid)).set_to(count)
            for hook in PAGE_CACHE_HOOKS:
                self._pagecache_family.labels(hook).set_to(
                    self._single_value(f"pagecache_{hook}")
                )

    def shutdown(self) -> None:
        """Detach all programs and stop the process (monitoring OFF)."""
        self.runtime.detach_all()
        super().shutdown()
