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
wrong-path loads reuse prior addresses with <1% IPC effect.
"""

from __future__ import annotations

from array import array

from repro.common.packed import address, view, zeros
from repro.workloads.behavior import mix64
from repro.workloads.profiles import DataProfile

_STACK_BASE = 0x7F_F000_0000
_STACK_SPAN = 16 * 1024
_HEAP_BASE = 0x10_0000_0000
_STREAM_REGION = 256 * 1024
_NUM_STREAMS = 64
_RANDOM_BASE = 0x20_0000_0000


class DataAddressGenerator:
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

    # -- layout-neutral state (warm fast-forward checkpoints) ---------------

    def occurrences_dict(self) -> dict[int, int]:
        """Per-PC occurrence counters as a plain ``{pc: count}`` dict.

        The layout-neutral form stored in warm-fast-forward checkpoints
        (:mod:`repro.sim.checkpoint`): a snapshot captured by an interpreted
        generator restores into a compiled one and vice versa.
        """
        return dict(self._occurrences)

    def load_occurrences(self, occurrences: dict[int, int]) -> None:
        """Replace all occurrence counters with a checkpointed dict."""
        self._occurrences.clear()
        self._occurrences.update(occurrences)

    def occurrences_state(self) -> dict[str, bytes]:
        """The occurrence counters as packed int64 arrays (checkpoint form).

        Semantically identical to :meth:`occurrences_dict`, but serialized
        as two parallel ``bytes`` buffers so pickling a checkpoint costs a
        memcpy instead of building one tuple per touched PC — interval
        sampling captures and restores this state once per interval, so the
        dict form was a measurable share of sampled wall-clock.
        """
        occ = self._occurrences
        return {
            "pcs": array("q", occ.keys()).tobytes(),
            "counts": array("q", occ.values()).tobytes(),
        }

    def load_occurrences_state(self, state: dict[str, bytes]) -> None:
        """Restore counters from :meth:`occurrences_state` output."""
        pcs, counts = (memoryview(state[key]).cast("B") for key in ("pcs", "counts"))
        if len(pcs) != len(counts) or len(pcs) % 8:
            raise ValueError("occurrence state arrays disagree in length")
        self.load_occurrences(dict(zip(pcs.cast("q").tolist(), counts.cast("q").tolist())))


class DataAddressGeneratorC(DataAddressGenerator):
    """Compiled-kernel generator: occurrence counters in a flat int64 array.

    The descriptor is embedded in the backend's dispatch kernel, so a
    compiled dispatch computes load/store addresses without re-entering
    Python.  Needs ``code_end`` up front to size the per-PC occurrence
    array (the dict is keyed by pc; instruction pcs are 4-byte aligned, so
    index ``pc >> 2`` is unique per instruction).  The class-probability
    boundary ``stack_frac + stream_frac`` is pre-summed here with the same
    IEEE addition the interpreted path performs per call.
    """

    def __init__(self, profile: DataProfile, seed: int, code_end: int) -> None:
        from repro.common import cc

        kernels = cc.kernels()
        if kernels is None:  # pragma: no cover - factory guards this
            raise RuntimeError("compiled kernels unavailable")
        super().__init__(profile, seed)
        self._occurrences = None  # state lives in the array; fail loudly
        n_pcs = max(code_end >> 2, 1)
        self._occ_arr = zeros(n_pcs)
        di = zeros(7)
        di[0] = address(self._occ_arr)
        di[1] = n_pcs
        view(di, "Q")[2] = seed & 0xFFFF_FFFF_FFFF_FFFF
        floats = view(di, "d")
        floats[3] = profile.stack_frac
        floats[4] = profile.stack_frac + profile.stream_frac
        di[5] = profile.stride_bytes
        di[6] = max(profile.data_footprint_bytes, 64)
        self._di = di
        self._desc = address(di)
        self._k_next = kernels.data_next
        self._k_export = kernels.pc_counts_export
        self._k_import = kernels.pc_counts_import

    def next_address(self, pc: int) -> int:
        """Generate the next data address for the instruction at ``pc``."""
        return self._k_next(self._desc, pc)

    def reset(self) -> None:
        """Forget all occurrence counters (fresh run)."""
        self._k_import(address(self._occ_arr), len(self._occ_arr), b"", b"")

    def occurrences_dict(self) -> dict[int, int]:
        """Per-PC occurrence counters as a plain ``{pc: count}`` dict."""
        state = self.occurrences_state()
        return dict(
            zip(*(memoryview(state[key]).cast("q").tolist() for key in ("pcs", "counts")))
        )

    def load_occurrences(self, occurrences: dict[int, int]) -> None:
        """Replace all occurrence counters with a checkpointed dict."""
        self.load_occurrences_state({
            "pcs": array("q", occurrences.keys()).tobytes(),
            "counts": array("q", occurrences.values()).tobytes(),
        })

    def occurrences_state(self) -> dict[str, bytes]:
        """The occurrence counters as packed int64 arrays (checkpoint form)."""
        pcs, counts = self._k_export(address(self._occ_arr), len(self._occ_arr))
        return {"pcs": pcs, "counts": counts}

    def load_occurrences_state(self, state: dict[str, bytes]) -> None:
        """Restore counters from :meth:`occurrences_state` output."""
        self._k_import(address(self._occ_arr), len(self._occ_arr), state["pcs"], state["counts"])
