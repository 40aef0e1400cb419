"""The TEE Metrics Exporter (SGX exporter).

Mirrors the paper's §5.1 implementation: a small Python/Flask service that
reads the instrumented driver's module parameters from
``/sys/module/isgx/parameters/<metric>`` and re-exposes them in the
OpenMetrics format.  The exporter is deliberately dumb — all intelligence
lives in the driver counters — which is what lets it work unchanged across
SGX frameworks.

Metric classes follow §4: *enclave metrics* (initialized, active, removed)
and *EPC metrics* (total pages, free pages, marked old, evicted, added,
reclaimed).
"""

from __future__ import annotations

from repro.exporters.base import ExporterFootprint, MIB, ModuleParamsExporter
from repro.sgx import driver as sgx_driver


class TeeMetricsExporter(ModuleParamsExporter):
    """Per-host SGX metrics exporter (one instance per machine, §4)."""

    FOOTPRINT = ExporterFootprint(cpu_fraction=0.002, memory_bytes=20 * MIB)
    PORT = 9101
    PROCESS_NAME = "sgx-exporter"
    JOB = "sgx"
    MODULE = sgx_driver.MODULE_NAME
    PARAMS_DIR = sgx_driver.PARAMS_DIR
    PARAMS = (
        ("sgx_enclaves_active", "sgx_nr_enclaves", "Enclaves currently active", False),
        ("sgx_enclaves_initialized_total", "sgx_init_enclaves", "Enclaves initialized since driver load", True),
        ("sgx_enclaves_removed_total", "sgx_nr_removed_enclaves", "Enclaves removed since driver load", True),
        ("sgx_epc_total_pages", "sgx_nr_total_epc_pages", "Usable EPC pages", False),
        ("sgx_epc_free_pages", "sgx_nr_free_pages", "Free EPC pages", False),
        ("sgx_epc_pages_marked_old_total", "sgx_nr_marked_old", "EPC pages marked old (aging)", True),
        ("sgx_epc_pages_evicted_total", "sgx_nr_evicted", "EPC pages evicted to main memory (EWB)", True),
        ("sgx_epc_pages_added_total", "sgx_nr_added_pages", "Pages added to enclaves (EADD/EAUG)", True),
        ("sgx_epc_pages_reclaimed_total", "sgx_nr_reclaimed", "Pages reclaimed from main memory (ELD)", True),
        ("sgx_aexs_total", "sgx_nr_aexs", "Asynchronous enclave exits since driver load", True),
    )
