"""Synthetic data-address streams for loads and stores.

Each static memory instruction is assigned (by a hash of its PC) to one of
three access classes from the workload's :class:`~repro.workloads.profiles.DataProfile`:

* **stack** — a small always-resident region; models register spills and
  locals (L1D hits).
* **stream** — strided walks through per-PC heap regions; exercised by the
  stream data prefetcher (Table II's data prefetcher).
* **random** — uniform over the data footprint; models pointer chasing and
  hash-table probes (L2/LLC/DRAM misses).

Addresses are deterministic functions of ``(pc, per-pc occurrence)``; the
generator keeps per-PC occurrence counters, so wrong-path executions of a
load perturb the stream slightly — mirroring the paper's note that replayed
wrong-path loads reuse prior addresses with <1% IPC effect.  The compiled
cycle driver's counters are :class:`repro.backend.core.DataAddressGeneratorC`.
"""

from __future__ import annotations

from array import array

from repro.common.packed import Stateful
from repro.common.rng import mix64
from repro.workloads.profiles import DataProfile

_STACK_BASE = 0x7F_F000_0000
_STACK_SPAN = 16 * 1024
_HEAP_BASE = 0x10_0000_0000
_STREAM_REGION = 256 * 1024
_NUM_STREAMS = 64
_RANDOM_BASE = 0x20_0000_0000


class DataAddressGenerator(Stateful):
    """Produces the data address for each dynamic load/store."""

    def __init__(self, profile: DataProfile, seed: int) -> None:
        self.profile = profile
        self.seed = seed
        self._occurrences: dict[int, int] = {}

    def classify(self, pc: int) -> str:
        """Access class ("stack" | "stream" | "random") of the static PC."""
        u = mix64(self.seed ^ pc) / float(1 << 64)
        if u < self.profile.stack_frac:
            return "stack"
        if u < self.profile.stack_frac + self.profile.stream_frac:
            return "stream"
        return "random"

    def next_address(self, pc: int) -> int:
        """Generate the next data address for the instruction at ``pc``."""
        occurrence = self._occurrences.get(pc, 0)
        self._occurrences[pc] = occurrence + 1
        kind = self.classify(pc)
        if kind == "stack":
            offset = mix64(self.seed ^ (pc * 3)) % _STACK_SPAN
            return _STACK_BASE + (offset & ~7)
        if kind == "stream":
            stream_id = mix64(self.seed ^ (pc * 5)) % _NUM_STREAMS
            base = _HEAP_BASE + stream_id * _STREAM_REGION
            offset = (occurrence * self.profile.stride_bytes) % _STREAM_REGION
            return base + offset
        span = max(self.profile.data_footprint_bytes, 64)
        offset = mix64(self.seed ^ pc ^ (occurrence * 0x51_7CC1)) % span
        return _RANDOM_BASE + (offset & ~7)

    def reset(self) -> None:
        """Forget all occurrence counters (fresh run)."""
        self._occurrences.clear()

    # -- state protocol (repro.common.packed) --------------------------------

    def state(self) -> dict[str, bytes]:
        """The occurrence counters as packed ``int64`` arrays, pcs ascending.

        Two parallel ``bytes`` buffers, so pickling a checkpoint costs a
        memcpy instead of one tuple per touched pc; the same bytes as
        :meth:`repro.backend.core.DataAddressGeneratorC.state`.
        """
        occurrences = self._occurrences
        pcs = sorted(occurrences)
        return {
            "pcs": array("q", pcs).tobytes(),
            "counts": array("q", [occurrences[pc] for pc in pcs]).tobytes(),
        }

    def load_state(self, state: dict[str, bytes]) -> None:
        """Restore :meth:`state` output (validated first)."""
        pcs, counts = (memoryview(state[key]).cast("B") for key in ("pcs", "counts"))
        if len(pcs) != len(counts) or len(pcs) % 8:
            raise ValueError("occurrence state arrays disagree in length")
        self._occurrences = dict(zip(pcs.cast("q").tolist(), counts.cast("q").tolist()))
