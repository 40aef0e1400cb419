"""A TEE-Perf model: method-level software counters.

TEE-Perf (Bailleu et al., DSN '19) instruments *every function call* with
software-counter reads, which makes it platform-independent (no PMU, no
kernel support) and expensive: the paper cites an average slowdown of
1.9x over native SGX execution and up to 5.7x versus Linux perf — the
reason it suits development, not production.

The model instruments the workload at method granularity (the paper's
Table 1 lists TEE-Perf's granularity as "function"): callers wrap their
request processing in :meth:`TeePerf.profile_calls`, which accounts the
per-call counter cost and maintains a call-count table from which the
flame-graph-style report is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import ReproError

#: Cost of the injected counter code per function call, ns (the software
#: counter read and store run *inside* the enclave).  Chosen so the Redis
#: call profile (~9 instrumented calls per request) over SCONE's ~3 us
#: request lands at the paper's ~1.9x average slowdown.
PER_CALL_COST_NS = 300

#: The method call tree of one Redis GET (depth-first, calls per request).
REDIS_GET_CALL_PROFILE: Tuple[Tuple[str, float], ...] = (
    ("main;aeProcessEvents", 0.125),
    ("main;aeProcessEvents;readQueryFromClient", 1.0),
    ("main;aeProcessEvents;readQueryFromClient;processInputBuffer", 1.0),
    ("main;aeProcessEvents;readQueryFromClient;processCommand", 1.0),
    ("main;aeProcessEvents;readQueryFromClient;processCommand;getCommand", 1.0),
    ("main;aeProcessEvents;readQueryFromClient;processCommand;getCommand;lookupKeyRead", 1.0),
    ("main;aeProcessEvents;readQueryFromClient;processCommand;getCommand;lookupKeyRead;dictFind", 1.2),
    ("main;aeProcessEvents;readQueryFromClient;processCommand;getCommand;addReplyBulk", 1.0),
    ("main;aeProcessEvents;writeToClient", 1.0),
    ("main;aeProcessEvents;writeToClient;sdsfree", 0.8),
)


@dataclass
class TeePerfReport:
    """Method-level profile with flame-graph text output."""

    duration_ns: int
    call_counts: Dict[str, int]
    instrumented_calls: int
    overhead_ns: int

    def hottest(self, limit: int = 5) -> List[Tuple[str, int]]:
        """Most-called methods."""
        ordered = sorted(self.call_counts.items(), key=lambda kv: -kv[1])
        return ordered[:limit]

    def folded_stacks(self) -> str:
        """Brendan-Gregg folded-stack format (flamegraph.pl input)."""
        lines = [
            f"{stack} {count}"
            for stack, count in sorted(self.call_counts.items())
        ]
        return "\n".join(lines)

    def slowdown_factor(self, useful_ns: int) -> float:
        """Run-time inflation from the injected counters."""
        if useful_ns <= 0:
            return 1.0
        return (useful_ns + self.overhead_ns) / useful_ns


class TeePerf:
    """Method-level profiler accumulating call counts."""

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}
        self._calls = 0
        self._overhead_ns = 0
        self._running = False
        self._start_ns = 0

    def start(self, now_ns: int) -> None:
        """Begin a profile."""
        if self._running:
            raise ReproError("TEE-Perf already profiling")
        self._running = True
        self._start_ns = now_ns
        self._counts.clear()
        self._calls = 0
        self._overhead_ns = 0

    def profile_calls(
        self,
        requests: int,
        call_profile: Sequence[Tuple[str, float]] = REDIS_GET_CALL_PROFILE,
    ) -> int:
        """Record ``requests`` worth of method calls; returns overhead ns.

        The returned overhead is the injected-counter cost the application
        pays — the caller charges it to the workload, which is how the
        ~1.9x slowdown arises.
        """
        if not self._running:
            raise ReproError("TEE-Perf is not profiling")
        if requests <= 0:
            return 0
        overhead = 0
        for stack, per_request in call_profile:
            calls = int(per_request * requests)
            if calls <= 0:
                continue
            self._counts[stack] = self._counts.get(stack, 0) + calls
            self._calls += calls
            overhead += calls * PER_CALL_COST_NS
        self._overhead_ns += overhead
        return overhead

    def stop(self, now_ns: int) -> TeePerfReport:
        """Finish and produce the report."""
        if not self._running:
            raise ReproError("TEE-Perf is not profiling")
        self._running = False
        return TeePerfReport(
            duration_ns=now_ns - self._start_ns,
            call_counts=dict(self._counts),
            instrumented_calls=self._calls,
            overhead_ns=self._overhead_ns,
        )
