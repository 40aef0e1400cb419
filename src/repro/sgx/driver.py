"""The simulated ``isgx`` kernel driver.

This is the component the paper instruments (42 lines of additions to the
Intel driver, §5.1).  The model reproduces the *instrumented* driver:

* it manages the EPC and enclave lifecycle (create / init / remove),
* it exposes every counter the TEE Metrics Exporter reads as a module
  parameter file under ``/sys/module/isgx/parameters/<name>``, and
* it registers kprobe-able driver hooks (``isgx:*``) so the eBPF layer
  *could* also attach there, matching the paper's note that the TME
  "connects to specific hooks (e.g., sgx_nr_free_pages, sgx_nr_enclaves,
  or sgx_nr_evicted) in the TEE driver".

The driver also owns the demand-paging path used by the framework models:
:meth:`SgxDriver.page_in` commits pages (waking ``ksgxswapd`` under
pressure) and :meth:`SgxDriver.fault_working_set` converts a batch of
enclave memory accesses into paging work, user-visible page faults and
AEX transitions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import SgxError
from repro.sgx.enclave import Enclave, EnclaveState, TransitionCosts
from repro.sgx.epc import EPC_PAGE_SIZE, EpcRegion
from repro.sgx.swapd import Ksgxswapd
from repro.simkernel.hooks import HookKind
from repro.simkernel.kernel import Kernel, KernelModule
from repro.simkernel.memory import FaultKind
from repro.simkernel.process import Process

MODULE_NAME = "isgx"
PARAMS_DIR = f"/sys/module/{MODULE_NAME}/parameters"

#: Driver-internal hooks registered as kprobe points.
DRIVER_HOOKS = (
    "isgx:sgx_encl_create",
    "isgx:sgx_encl_init",
    "isgx:sgx_encl_release",
    "isgx:sgx_eadd",
    "isgx:sgx_ewb",
    "isgx:sgx_eldu",
    "isgx:sgx_fault",
)


@dataclass
class PagingOutcome:
    """Result of a batch of enclave memory accesses."""

    cost_ns: int = 0
    pages_evicted: int = 0
    pages_reclaimed: int = 0
    user_faults: int = 0
    aex_count: int = 0


class SgxDriver(KernelModule):
    """Loadable module providing SGX services and instrumented counters."""

    name = MODULE_NAME

    #: EADD + EEXTEND (4x per page) measurement cost during enclave build.
    BUILD_COST_PER_PAGE_NS = 4_300

    def __init__(
        self,
        epc: Optional[EpcRegion] = None,
        costs: Optional[TransitionCosts] = None,
        sgx2: bool = True,
    ) -> None:
        self.epc = epc or EpcRegion()
        self.costs = costs or TransitionCosts()
        #: SGX2 (EDMM): heap pages are EAUGed on demand after EINIT, so
        #: enclave startup is fast and only touched memory occupies EPC.
        #: SGX1: the whole heap is EADDed and measured at build time — the
        #: classic slow-startup behaviour (a 1 GB enclave takes ~1 s to
        #: build and immediately churns the EPC).
        self.sgx2 = sgx2
        self._kernel: Optional[Kernel] = None
        self.swapd: Optional[Ksgxswapd] = None
        self._enclaves: Dict[int, Enclave] = {}
        self._eid_counter = itertools.count(start=1)
        # Enclave lifecycle counters (TME "enclave metrics").
        self.enclaves_initialized = 0
        self.enclaves_removed = 0

    # ------------------------------------------------------------------
    # Module lifecycle
    # ------------------------------------------------------------------
    def on_load(self, kernel: Kernel) -> None:
        """Install hooks, module parameters, and start ksgxswapd."""
        self._kernel = kernel
        for hook in DRIVER_HOOKS:
            kernel.hooks.register(hook, HookKind.KPROBE)
        self.swapd = Ksgxswapd(kernel, self.epc)
        self._publish_parameters(kernel)

    def on_unload(self, kernel: Kernel) -> None:
        """Tear down ksgxswapd; live enclaves are destroyed."""
        for enclave in list(self._enclaves.values()):
            if enclave.state is not EnclaveState.REMOVED:
                self.remove_enclave(enclave)
        if self.swapd is not None and not self.swapd.process.exited:
            kernel.exit_process(self.swapd.process)
        self.swapd = None

    def _require_kernel(self) -> Kernel:
        if self._kernel is None:
            raise SgxError("driver not loaded into a kernel")
        return self._kernel

    def _publish_parameters(self, kernel: Kernel) -> None:
        params = {
            "sgx_nr_total_epc_pages": lambda: str(self.epc.total_pages),
            "sgx_nr_free_pages": lambda: str(self.epc.free_pages),
            "sgx_nr_low_pages": lambda: str(self.swapd.low_watermark_pages if self.swapd else 0),
            "sgx_nr_high_pages": lambda: str(self.swapd.high_watermark_pages if self.swapd else 0),
            "sgx_nr_marked_old": lambda: str(self.epc.counters.pages_marked_old),
            "sgx_nr_evicted": lambda: str(self.epc.counters.pages_evicted),
            "sgx_nr_added_pages": lambda: str(self.epc.counters.pages_added),
            "sgx_nr_reclaimed": lambda: str(self.epc.counters.pages_reclaimed),
            "sgx_nr_enclaves": lambda: str(self.active_enclaves),
            "sgx_init_enclaves": lambda: str(self.enclaves_initialized),
            "sgx_nr_removed_enclaves": lambda: str(self.enclaves_removed),
            # Removed enclaves stay in the table, so this is cumulative
            # since driver load — counter semantics for the exporter.
            "sgx_nr_aexs": lambda: str(
                sum(e.stats.aexs for e in self._enclaves.values())
            ),
        }
        for param, render in params.items():
            kernel.vfs.publish(f"{PARAMS_DIR}/{param}", render)

    # ------------------------------------------------------------------
    # Enclave lifecycle
    # ------------------------------------------------------------------
    @property
    def active_enclaves(self) -> int:
        """Enclaves created and not yet removed."""
        return sum(
            1 for e in self._enclaves.values() if e.state is not EnclaveState.REMOVED
        )

    def create_enclave(self, owner: Process, heap_bytes: int) -> Enclave:
        """ECREATE: allocate an enclave for ``owner``."""
        kernel = self._require_kernel()
        enclave_id = next(self._eid_counter)
        enclave = Enclave(
            enclave_id=enclave_id,
            owner_pid=owner.pid,
            epc=self.epc,
            heap_bytes=heap_bytes,
            costs=self.costs,
        )
        self._enclaves[enclave_id] = enclave
        kernel.hooks.fire("isgx:sgx_encl_create", kernel.clock.now_ns, pid=owner.pid)
        return enclave

    def init_enclave(self, enclave: Enclave) -> int:
        """EINIT: finish construction; returns the build cost in ns.

        Under SGX1 the entire heap is committed and measured first (the
        cost that made SGX1 enclave startup famously slow); under SGX2
        (EDMM) only EINIT itself runs and memory arrives later via EAUG.
        """
        kernel = self._require_kernel()
        build_cost = 50_000  # EINIT + launch-token handling
        if not self.sgx2:
            enclave.initialize()  # transitions state so paging may proceed
            self.enclaves_initialized += 1
            outcome = self.fault_working_set(enclave, enclave.heap_bytes, 0)
            build_cost += outcome.cost_ns
            build_cost += enclave.heap_pages * self.BUILD_COST_PER_PAGE_NS
            kernel.hooks.fire(
                "isgx:sgx_encl_init", kernel.clock.now_ns, pid=enclave.owner_pid
            )
            return build_cost
        enclave.initialize()
        self.enclaves_initialized += 1
        kernel.hooks.fire(
            "isgx:sgx_encl_init", kernel.clock.now_ns, pid=enclave.owner_pid
        )
        return build_cost

    def remove_enclave(self, enclave: Enclave) -> None:
        """EREMOVE: destroy, releasing EPC pages."""
        kernel = self._require_kernel()
        enclave.remove()
        self.enclaves_removed += 1
        kernel.hooks.fire(
            "isgx:sgx_encl_release", kernel.clock.now_ns, pid=enclave.owner_pid
        )

    # ------------------------------------------------------------------
    # Paging
    # ------------------------------------------------------------------
    def page_in(self, enclave: Enclave, pages: int) -> int:
        """Commit ``pages`` new pages (EADD/EAUG); returns cost in ns.

        Wakes ``ksgxswapd`` when the EPC cannot satisfy the allocation.
        """
        if pages <= 0:
            return 0
        if pages > self.epc.total_pages:
            raise SgxError(
                f"enclave wants {pages} pages, EPC has only {self.epc.total_pages}"
            )
        kernel = self._require_kernel()
        swapd = self.swapd
        if swapd is None:
            raise SgxError("driver not loaded")
        if pages > self.epc.free_pages:
            swapd.reclaim(want_pages=pages)
        self.epc.add_pages(enclave.enclave_id, pages)
        kernel.hooks.fire(
            "isgx:sgx_eadd", kernel.clock.now_ns, count=pages, pid=enclave.owner_pid
        )
        # ~1.5 us per EADD + measurement extend.
        return 1_500 * pages

    def churn_pages(self, enclave: Enclave, pages: int) -> int:
        """Steady-state paging churn: evict and reclaim ``pages`` pages.

        Models the EWB/ELD cycling of a working set larger than the EPC
        under load: residency stays constant, cumulative eviction/reclaim
        counters advance, ``ksgxswapd`` is charged the eviction work, and
        the enclave takes one AEX per reclaimed page.  Returns the cost in
        nanoseconds charged to the request path (AEX + ELD; EWB happens on
        the daemon's core).
        """
        if pages <= 0:
            return 0
        kernel = self._require_kernel()
        swapd = self.swapd
        if swapd is None:
            raise SgxError("driver not loaded")
        account = self.epc.account(enclave.enclave_id)
        if account.resident_pages <= 0:
            return 0
        # The churn may exceed the resident set within one slice: the same
        # pages cycle out and back repeatedly.  Work in resident-sized
        # chunks so EPC accounting stays consistent at every step.
        remaining = pages
        evicted_total = 0
        while remaining > 0:
            chunk = min(remaining, account.resident_pages)
            if chunk <= 0:
                break
            self.epc.mark_old(enclave.enclave_id, chunk)
            self.epc.evict_pages(enclave.enclave_id, chunk)
            self.epc.reclaim_pages(enclave.enclave_id, chunk)
            evicted_total += chunk
            remaining -= chunk
        if evicted_total <= 0:
            return 0
        swapd.stats.pages_evicted += evicted_total
        kernel.scheduler.account_cpu_time(
            swapd._thread, 3_000 * evicted_total  # noqa: SLF001 - daemon-internal
        )
        now = kernel.clock.now_ns
        kernel.hooks.fire("isgx:sgx_ewb", now, count=evicted_total, pid=enclave.owner_pid)
        kernel.hooks.fire("isgx:sgx_eldu", now, count=evicted_total, pid=enclave.owner_pid)
        return enclave.aex(evicted_total) + self.costs.eld_per_page_ns * evicted_total

    def fault_working_set(
        self,
        enclave: Enclave,
        working_set_bytes: int,
        accesses: int,
        locality: float = 0.999,
        fault_visibility: float = 1.0,
    ) -> PagingOutcome:
        """Convert a batch of enclave accesses into paging work.

        ``locality`` is the fraction of accesses absorbed by the hot,
        resident part of the working set (Redis GET traffic is highly
        skewed onto hot pages); ``fault_visibility`` scales how many paging
        events surface as *user-visible* page faults (frameworks that
        handle EPC faults with their own handlers surface fewer).

        Mechanism: when the working set exceeds the enclave's resident
        pages, the non-absorbed accesses miss, each miss triggering an AEX,
        an ELD reclaim and — with the EPC full — an EWB eviction via
        ksgxswapd.
        """
        outcome = PagingOutcome()
        kernel = self._require_kernel()
        ws_pages = max(1, (working_set_bytes + EPC_PAGE_SIZE - 1) // EPC_PAGE_SIZE)

        # Demand-commit the working set on first touch.  What fits stays
        # resident (leaving the swapd watermark free); the overflow is
        # committed and immediately churned out to main memory.
        demand = min(ws_pages, enclave.heap_pages) - enclave.committed_pages
        if demand > 0:
            swapd = self.swapd
            if swapd is None:
                raise SgxError("driver not loaded")
            headroom = self.epc.free_pages - swapd.low_watermark_pages
            resident_take = max(0, min(demand, headroom))
            if resident_take:
                outcome.cost_ns += self.page_in(enclave, resident_take)
            overflow = demand - resident_take
            if overflow > 0:
                self.epc.add_swapped_pages(enclave.enclave_id, overflow)
                outcome.cost_ns += (
                    1_500 + self.costs.ewb_per_page_ns
                ) * overflow
                kernel.hooks.fire(
                    "isgx:sgx_eadd", kernel.clock.now_ns, count=overflow,
                    pid=enclave.owner_pid,
                )
                kernel.hooks.fire(
                    "isgx:sgx_ewb", kernel.clock.now_ns, count=overflow,
                    pid=enclave.owner_pid,
                )

        if accesses <= 0:
            return outcome
        resident = enclave.resident_pages
        if ws_pages <= resident:
            return outcome

        uncovered = 1.0 - (resident / ws_pages)
        miss_probability = uncovered * (1.0 - locality)
        misses = kernel.rng.fork("sgx-paging").binomial(accesses, miss_probability)
        if misses <= 0:
            return outcome

        swapd = self.swapd
        assert swapd is not None  # loaded drivers always have a swapd
        # Steady state: each reclaim displaces another page.
        evicted = swapd.reclaim(want_pages=misses) if self.epc.free_pages < misses else 0
        evicted += self.epc.evict_pages(enclave.enclave_id, max(0, misses - evicted))
        reclaimed = self.epc.reclaim_pages(enclave.enclave_id, min(misses, enclave.swapped_pages))

        outcome.pages_evicted = evicted
        outcome.pages_reclaimed = reclaimed
        outcome.aex_count = misses
        outcome.user_faults = int(round(misses * fault_visibility))
        outcome.cost_ns += (
            enclave.aex(misses)
            + self.costs.eld_per_page_ns * reclaimed
            + self.costs.ewb_per_page_ns * evicted
        )
        if outcome.user_faults:
            kernel.memory.account_faults(
                enclave.owner_pid, outcome.user_faults, kind=FaultKind.NO_PAGE_FOUND
            )
        if misses:
            kernel.hooks.fire(
                "isgx:sgx_fault", kernel.clock.now_ns, count=misses,
                pid=enclave.owner_pid,
            )
            kernel.hooks.fire(
                "isgx:sgx_eldu", kernel.clock.now_ns, count=reclaimed,
                pid=enclave.owner_pid,
            )
            kernel.hooks.fire(
                "isgx:sgx_ewb", kernel.clock.now_ns, count=evicted,
                pid=enclave.owner_pid,
            )
        return outcome
