"""Deterministic, forkable randomness.

Every stochastic decision in the simulation draws from a
:class:`DeterministicRng`.  Components never share a raw stream; instead
they :meth:`~DeterministicRng.fork` a named substream, so adding a new
consumer of randomness in one component cannot perturb another component's
sequence.  This is what makes the reproduction's metric streams
bit-reproducible across runs and refactorings.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Sequence, TypeVar

T = TypeVar("T")


class DeterministicRng:
    """A seeded random stream that can derive independent named substreams."""

    def __init__(self, seed: int, path: str = "root") -> None:
        self._seed = seed
        self._path = path
        digest = hashlib.sha256(f"{seed}:{path}".encode("utf-8")).digest()
        self._random = random.Random(int.from_bytes(digest[:8], "big"))

    @property
    def path(self) -> str:
        """Derivation path of this stream (for debugging)."""
        return self._path

    def fork(self, name: str) -> "DeterministicRng":
        """Derive an independent substream identified by ``name``."""
        return DeterministicRng(self._seed, f"{self._path}/{name}")

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high)``."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        return self._random.randint(low, high)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._random.random()

    def getrandbits(self, bits: int) -> int:
        """Uniform integer with ``bits`` random bits.

        Much cheaper than :meth:`randint` for wide ranges (no rejection
        loop) — the tracer draws 128-bit ids on its hot path through this.
        """
        return self._random.getrandbits(bits)

    def chance(self, probability: float) -> bool:
        """Return True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._random.random() < probability

    def exponential(self, mean: float) -> float:
        """Exponential sample with the given mean."""
        return self._random.expovariate(1.0 / mean) if mean > 0 else 0.0

    def choice(self, items: Sequence[T]) -> T:
        """Pick one item uniformly."""
        return self._random.choice(items)

    def shuffle(self, items: List[T]) -> None:
        """Shuffle ``items`` in place."""
        self._random.shuffle(items)

    def binomial(self, n: int, p: float) -> int:
        """Binomial sample; exact for small n, normal approximation for large n.

        The approximation keeps batch-level event sampling cheap: workloads
        fire hooks with multiplicities in the millions, and an exact
        Bernoulli loop would dominate runtime without changing any result
        that the monitoring pipeline can observe.
        """
        if n <= 0 or p <= 0.0:
            return 0
        if p >= 1.0:
            return n
        if n <= 64:
            return sum(1 for _ in range(n) if self._random.random() < p)
        mean = n * p
        stddev = (n * p * (1.0 - p)) ** 0.5
        sample = int(round(self._random.gauss(mean, stddev)))
        return max(0, min(n, sample))

    def poisson(self, mean: float) -> int:
        """Poisson sample; exact (Knuth) for small means, normal approx above."""
        if mean <= 0:
            return 0
        if mean < 30.0:
            limit = 2.718281828459045 ** (-mean)
            count = 0
            product = self._random.random()
            while product > limit:
                count += 1
                product *= self._random.random()
            return count
        return max(0, int(round(self._random.gauss(mean, mean ** 0.5))))
