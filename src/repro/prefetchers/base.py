"""Interface for stand-alone instruction prefetchers (non-FDIP comparators).

Stand-alone prefetchers observe the L1I *demand* access stream — unlike
FDIP they have no view of the FTQ — and return line addresses to prefetch.
The simulator issues those through the same MSHR/fill path as FDIP
prefetches, so utility and timeliness accounting is identical across
techniques.

Techniques that declare extra capabilities in the registry (see
:mod:`repro.prefetchers.registry`) receive a :class:`FrontendHooks` bundle
at build time: the static program image (for predecode-style techniques),
the shared counter sink, and — when the capability is declared — callables
into the BTB.  Hooks for undeclared capabilities are ``None``, so a
technique can only touch what it registered for.

Both the Python stepper and the compiled cycle driver call these methods
at the same points (docs/techniques.md, "Driver contract").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.common.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.common.counters import Counters
    from repro.workloads.program import BranchKind, Program

# Prefetch lines are 64-bit line addresses: non-negative, below this bound.
LINE_LIMIT = 1 << 63


@dataclass
class FrontendHooks:
    """Capability-gated handles a technique may receive at build time.

    ``btb_fill``/``btb_contains`` are only non-``None`` for techniques that
    registered ``hooks_btb``.  Both BTB callables late-bind through the BPU
    facade, so they stay valid across a warmup-checkpoint restore (which
    swaps the BTB object wholesale).
    """

    program: "Program"
    counters: "Counters"
    btb_fill: Callable[[int, "BranchKind", int], None] | None = None
    btb_contains: Callable[[int], bool] | None = None


def reject_prefetch_line(kind: str, line) -> None:
    """Raise :class:`SimulationError` for a bad line from technique ``kind``.

    The Python stepper and the compiled cycle driver both call this for a
    line ``on_demand_access`` returned that is not an ``int`` in
    ``[0, LINE_LIMIT)`` aligned to 64 bytes.
    """
    raise SimulationError(
        f"technique {kind!r} returned an invalid prefetch line {line!r}: "
        "expected a non-negative, 64-byte-aligned int"
    )


class InstructionPrefetcher:
    """Base class: observes demand accesses, proposes prefetches."""

    name = "none"

    def on_demand_access(self, line_addr: int, hit: bool, on_path: bool) -> list[int]:
        """Observe one L1I demand access; return lines to prefetch."""
        raise NotImplementedError

    def on_line_filled(self, line_addr: int) -> None:
        """Observe one L1I fill completing (demand or prefetch).

        Only called for techniques that registered ``observes_fills``;
        the default is a no-op so access-stream prefetchers stay oblivious.
        """

    def storage_bytes(self) -> int:
        """Metadata storage consumed (for ISO-storage comparisons)."""
        return 0


class NullPrefetcher(InstructionPrefetcher):
    """No instruction prefetching (the "none" configuration)."""

    name = "none"

    def on_demand_access(self, line_addr: int, hit: bool, on_path: bool) -> list[int]:
        return []
