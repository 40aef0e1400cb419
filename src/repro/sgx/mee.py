"""Memory Encryption Engine cost model.

The MEE transparently encrypts cache lines written to the EPC and decrypts
them on read (§3.1).  Its performance effect, as measured in the SGX
literature the paper builds on, is twofold:

* every LLC miss that lands in the EPC pays an encryption/decryption
  latency on top of DRAM access, and
* the integrity-tree walk causes additional memory traffic, which shows up
  as an *elevated LLC miss ratio* for enclave workloads (Figure 11(c)
  shows all SGX frameworks well above native).

The model exposes both as simple, calibrated parameters.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MeeModel:
    """Calibrated MEE costs.

    ``extra_latency_ns`` is added per EPC-resident LLC miss;
    ``extra_miss_ratio`` is added to the workload's LLC miss ratio while
    executing inside an enclave (integrity-tree traffic evicts lines).
    """

    extra_latency_ns: float = 110.0
    extra_miss_ratio: float = 0.01
    bandwidth_penalty: float = 0.35  # fraction of DRAM bandwidth lost

