"""The fetch target queue (FTQ).

The FTQ decouples branch prediction from instruction fetch: the walker
pushes fetch blocks at the tail, the fetch stage consumes them at the head,
and FDIP scans the window in between.  Its *logical* depth bounds how far
the frontend may run ahead — the central knob of the paper (fixed at 32 in
the baseline, swept in Section III, adapted dynamically by UFTQ).

The logical depth can be changed at any time (UFTQ); shrinking below the
current occupancy never drops entries — generation simply pauses until the
queue drains below the new bound, matching the paper's description of
resizing a physically larger structure.
"""

from __future__ import annotations

from collections import deque

from repro.frontend.compiled import FetchTargetQueueC
from repro.frontend.fetch_block import FTQEntry


class FetchTargetQueue(FetchTargetQueueC):
    """A bounded FIFO of fetch blocks with occupancy statistics.

    The depth control (UFTQ) and the occupancy integration (Fig 8) are the
    compiled simulator's :class:`FetchTargetQueueC`; this adds the entries.
    """

    __slots__ = ("_entries",)

    def __init__(self, depth: int, max_physical: int) -> None:
        super().__init__(depth, max_physical)
        self._entries: deque[FTQEntry] = deque()

    # -- queue operations ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def has_space(self) -> bool:
        return len(self._entries) < self._depth

    def push(self, entry: FTQEntry) -> None:
        if entry.end <= entry.start:
            raise ValueError(
                f"malformed fetch block [{entry.start:#x}, {entry.end:#x})"
            )
        self._entries.append(entry)

    def head(self) -> FTQEntry | None:
        return self._entries[0] if self._entries else None

    def pop(self) -> FTQEntry:
        return self._entries.popleft()

    def entry_at(self, index: int) -> FTQEntry | None:
        """Random access for the FDIP scan window (index 0 = head)."""
        if 0 <= index < len(self._entries):
            return self._entries[index]
        return None

    def flush(self) -> int:
        """Drop every entry (resteer); returns how many were dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        return dropped

    def sample_occupancy(self, cycles: int = 1) -> None:
        """Record the current occupancy for ``cycles`` cycles.

        Called once per simulated cycle; the idle-cycle fast-forward passes
        ``cycles > 1`` to account for a run of skipped stall cycles during
        which the occupancy provably cannot change.
        """
        self.occupancy_sum += len(self._entries) * cycles
        self.occupancy_samples += cycles

    def __iter__(self):
        return iter(self._entries)
