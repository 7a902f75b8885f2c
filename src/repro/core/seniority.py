"""The Seniority-FTQ (Section IV-B).

Off-path prefetch *candidates* leave the FTQ quickly (the frontend consumes
it), but whether they were useful is only known when the backend later
retires an on-path instruction touching the same line.  The Seniority-FTQ
bridges that gap: a small FIFO of candidate fetch-block line addresses,
matched against the line address of every retired instruction.  A match
proves the candidate useful (an *on-path* demand consumed it) and promotes
it into the useful-set.

It is much smaller than the ROB because it holds coarse fetch blocks and
only those that were prefetch candidates.  Matching against retirement (not
against any demand hit) is what prevents learning candidates that are only
ever consumed on the wrong path.
"""

from __future__ import annotations

from collections import OrderedDict


class SeniorityFTQ:
    """Bounded FIFO of candidate line addresses with O(1) match."""

    def __init__(self, capacity: int = 128) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[int, None] = OrderedDict()  # oldest first
        self.inserted = 0
        self.matched = 0
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._entries)

    def insert(self, line_addr: int) -> None:
        """Record an off-path prefetch candidate block."""
        if line_addr in self._entries:
            self._entries.move_to_end(line_addr)
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evicted += 1
        self._entries[line_addr] = None
        self.inserted += 1

    def match(self, line_addr: int) -> bool:
        """True (and consume the entry) if a retired line proves a candidate useful."""
        if line_addr in self._entries:
            del self._entries[line_addr]
            self.matched += 1
            return True
        return False

    def contains(self, line_addr: int) -> bool:
        return line_addr in self._entries

    def clear(self) -> None:
        self._entries.clear()
