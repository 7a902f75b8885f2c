"""The frontend's state on a compiled simulator: what the cycle driver syncs.

The compiled cycle driver (:mod:`repro.sim.driver`) keeps the pipeline
contents -- FTQ entries, MSHRs, in-flight resteers -- in buffers of its own,
so a compiled simulator holds of its frontend only the scalars the driver
imports at its first run and writes back at every exit, under the object
twins' attribute names: the FTQ's depth and occupancy
(:class:`~repro.frontend.ftq.FetchTargetQueue`), the walker's pc, sequence
number and divergence flag (:class:`~repro.frontend.bpu.DecoupledFrontend`)
and FDIP's enablement and scan pointer
(:class:`~repro.frontend.fdip.FDIPEngine`).  The MSHR file's capacity is the
configuration's.  Reading any other pipeline state on a compiled simulator
is an ``AttributeError``: the driver never writes it back.

The object FTQ extends :class:`FetchTargetQueueC` with its entries, so the
depth clamp and the occupancy average are written once for both modes.  The
walker and FDIP holders intern their twins' hot counters
(:data:`WALKER_COUNTERS`, :data:`FDIP_COUNTERS`) at the same point of
``Simulator.__init__``, so the counters' slot order, which a checkpoint's
counter state and a result's counter order follow, does not depend on
which side is built.
"""

from __future__ import annotations

from repro.common.counters import Counters

# The counters the walker (DecoupledFrontend) and FDIP (FDIPEngine) intern,
# in their order (Counters.incrementer).
WALKER_COUNTERS = (
    "ftq_full_cycles_blocks",
    "ftq_blocks_on_path",
    "ftq_blocks_off_path",
    "btb_gen_hits",
    "btb_gen_misses",
)
FDIP_COUNTERS = (
    "fdip_probe_resident",
    "fdip_probe_inflight",
    "fdip_candidates",
    "fdip_candidates_on_path",
    "fdip_candidates_off_path",
    "prefetches_emitted",
    "prefetches_emitted_on_path",
    "prefetches_emitted_off_path",
)


class FetchTargetQueueC:
    """The FTQ's logical depth and occupancy integration (Fig 8).

    The depth is clamped to ``[1, max_physical]`` (UFTQ resizes it within a
    physically larger structure).
    """

    __slots__ = ("max_physical", "_depth", "occupancy_sum", "occupancy_samples")

    def __init__(self, depth: int, max_physical: int) -> None:
        self.max_physical = max_physical
        self._depth = min(depth, max_physical)
        self.occupancy_sum = 0
        self.occupancy_samples = 0

    @property
    def depth(self) -> int:
        """The current logical depth."""
        return self._depth

    @depth.setter
    def depth(self, value: int) -> None:
        self._depth = max(1, min(value, self.max_physical))

    @property
    def average_occupancy(self) -> float:
        if self.occupancy_samples == 0:
            return 0.0
        return self.occupancy_sum / self.occupancy_samples


class DecoupledFrontendC:
    """The run-ahead walker's speculative pc, next FTQ sequence number and
    divergence flag."""

    __slots__ = ("spec_pc", "next_seq", "diverged")

    def __init__(self, entry: int, counters: Counters) -> None:
        self.spec_pc = entry
        self.next_seq = 0
        self.diverged = False
        counters.intern(WALKER_COUNTERS)


class FDIPEngineC:
    """FDIP's enablement and the sequence number its scan resumes at."""

    __slots__ = ("enabled", "next_scan_seq")

    def __init__(self, enabled: bool, counters: Counters) -> None:
        self.enabled = enabled
        self.next_scan_seq = 0
        counters.intern(FDIP_COUNTERS)
