"""Deterministic random-number streams and the mixing hash.

Every stochastic component (workload synthesis, branch behaviours, data
address generation) draws from a named sub-stream derived from a single
master seed, so a simulation is exactly reproducible from
``(profile, seed)`` and independent components do not perturb each other's
sequences when the code changes.  Random-access values (branch outcomes,
data addresses, Bloom-filter probes, the backend's load dependences) come
from :func:`mix64` instead, which the C kernels port (``kernels.h``).
"""

from __future__ import annotations

import hashlib
import random

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a fast, well-distributed 64-bit mixing hash."""
    x = (x + GOLDEN) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a stable 64-bit seed for sub-stream ``name`` from the master seed."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def substream(master_seed: int, name: str) -> random.Random:
    """Return a ``random.Random`` seeded deterministically for ``name``."""
    return random.Random(derive_seed(master_seed, name))


class RngPool:
    """A pool of named deterministic RNG streams sharing one master seed."""

    def __init__(self, master_seed: int) -> None:
        self.master_seed = master_seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the stream for ``name``."""
        rng = self._streams.get(name)
        if rng is None:
            rng = substream(self.master_seed, name)
            self._streams[name] = rng
        return rng

    def fork(self, name: str) -> "RngPool":
        """Return a new pool whose master seed is derived from ``name``."""
        return RngPool(derive_seed(self.master_seed, name))
