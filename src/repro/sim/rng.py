"""Deterministic random-number streams for experiments.

Every stochastic component draws from a named stream derived from a single
root seed, so adding a new component never perturbs the draws seen by
existing ones — experiment results stay reproducible and comparable.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Dict, Iterable, List, Optional


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a child seed for ``name`` from ``root_seed``, stably."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class JitterStream:
    """Precomputed multiplicative lognormal jitter for one component.

    Hot paths (the executor applies jitter to *every* dispatched node)
    draw multipliers from a refilled batch instead of paying a named
    stream lookup plus ``lognormvariate``'s rejection sampling per call.
    Each stream owns an independent :class:`random.Random`, so the draws
    a component sees depend only on its own name — never on how other
    components interleave with it.

    The generator is seeded at the first refill, not here: the executor
    builds one stream per node of every device replica, and most
    replicas never run. A Mersenne Twister state is about 2.5 KB; an
    unseeded stream is its slots, its seed and an empty buffer. Seeding
    later is exact, because a stream's draws depend only on its seed.
    """

    __slots__ = ("sigma", "_seed", "_rng", "_buffer", "_batch", "_size")

    def __init__(self, seed: int, sigma: float, batch: int = 256) -> None:
        if sigma < 0:
            raise ValueError("jitter sigma cannot be negative")
        self.sigma = sigma
        self._seed = seed
        self._rng: Optional[random.Random] = None
        self._batch = batch
        # Refills grow geometrically up to ``batch``: components with
        # many streams but few draws per stream (the executor keeps one
        # per graph node) would otherwise pay for hundreds of unused
        # draws each. Batch size never changes the value sequence —
        # ``Random.gauss`` keeps its Box–Muller pair cache on the
        # instance, so draws depend only on their position.
        self._size = 8
        self._buffer: List[float] = []

    def _refill(self) -> None:
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self._seed)
        count = self._size
        if count < self._batch:
            self._size = min(count * 4, self._batch)
        gauss = rng.gauss
        sigma = self.sigma
        exp = math.exp
        self._buffer = [exp(sigma * gauss(0.0, 1.0))
                        for _ in range(count)]
        # Draws are consumed with pop() (O(1)); reverse so consumption
        # order matches generation order and stays reproducible.
        self._buffer.reverse()

    def next(self) -> float:
        """The next multiplier (mean ~1.0, spread ``sigma`` in log space)."""
        if not self._buffer:
            self._refill()
        return self._buffer.pop()


class RngRegistry:
    """Factory of named, independent :class:`random.Random` streams."""

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating if needed) the stream for ``name``."""
        stream = self._streams.get(name)
        if stream is None:
            stream = self._streams[name] = random.Random(
                derive_seed(self.root_seed, name))
        return stream

    def jitter_stream(self, name: str, sigma: float) -> JitterStream:
        """An independent precomputed jitter stream for ``name``."""
        return JitterStream(derive_seed(self.root_seed, name), sigma)

    def jitter_streams(self, prefix: str, keys: Iterable,
                       sigma: float) -> Dict:
        """Batch-derive one jitter stream per key (``{prefix}:{key}``).

        Components with many jittered entities (the executor keeps one
        stream per graph node) derive them all once at construction
        instead of re-deriving named streams on every draw.
        """
        return {key: self.jitter_stream(f"{prefix}:{key}", sigma)
                for key in keys}

    def exponential(self, name: str, mean: float) -> float:
        """One draw from an exponential distribution with the given mean."""
        if mean <= 0:
            raise ValueError("exponential mean must be positive")
        return self.stream(name).expovariate(1.0 / mean)

    def uniform(self, name: str, low: float, high: float) -> float:
        return self.stream(name).uniform(low, high)
