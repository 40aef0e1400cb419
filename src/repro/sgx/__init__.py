"""Intel SGX model: enclaves, the EPC, transitions, and the driver.

The reproduction has no SGX hardware, so this package models the pieces of
SGX that produce the phenomena TEEMon monitors:

* the Enclave Page Cache (:mod:`repro.sgx.epc`) — ~128 MB reserved, ~94 MB
  usable, page-granular, with eviction (EWB) to main memory and reload
  (ELD), and the "marked old" aging step that precedes eviction;
* enclaves (:mod:`repro.sgx.enclave`) — lifecycle, ECALL/OCALL/AEX
  transitions with Skylake-era costs, and working-set access that drives
  EPC paging;
* the Memory Encryption Engine cost model (:mod:`repro.sgx.mee`);
* the ``isgx`` driver (:mod:`repro.sgx.driver`) — a loadable kernel module
  exposing the paper's counters as module parameters under
  ``/sys/module/isgx/parameters`` and as kprobe-able driver hooks;
* the ``ksgxswapd`` kernel thread (:mod:`repro.sgx.swapd`) that performs
  background eviction and shows up in host-wide context switches
  (Figure 11(f)).
"""

from repro.sgx.driver import SgxDriver
from repro.sgx.enclave import Enclave, EnclaveState, TransitionCosts
from repro.sgx.epc import EpcRegion, EPC_PAGE_SIZE

__all__ = [
    "EpcRegion",
    "EPC_PAGE_SIZE",
    "Enclave",
    "EnclaveState",
    "TransitionCosts",
    "SgxDriver",
]
