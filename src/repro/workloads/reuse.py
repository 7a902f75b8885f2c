"""Code reuse-distance analysis.

The reuse distance of an icache-line access (the number of *distinct* lines
touched since the previous access to the same line) determines whether it
hits in an LRU cache of a given capacity: an access hits a C-line cache iff
its reuse distance is < C.  The histogram over a workload's true-path line
stream therefore predicts its L1I hit rate at any capacity — the tool used
to validate that the synthetic suite produces the icache pressure its
profiles claim, and to reason about the Fig 13 "40K icache" comparator
analytically.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.workloads.oracle import OracleCursor
from repro.workloads.program import Program


@dataclass
class ReuseProfile:
    """Reuse-distance histogram of a line-access stream."""

    # histogram[d] = number of accesses with reuse distance exactly d;
    # cold (first-touch) accesses counted separately.
    histogram: dict[int, int] = field(default_factory=dict)
    cold_accesses: int = 0
    total_accesses: int = 0

    def record(self, distance: int | None) -> None:
        self.total_accesses += 1
        if distance is None:
            self.cold_accesses += 1
        else:
            self.histogram[distance] = self.histogram.get(distance, 0) + 1

    def hit_rate_at(self, capacity_lines: int) -> float:
        """Predicted LRU hit rate for a fully-associative cache of that size."""
        if self.total_accesses == 0:
            return 0.0
        hits = sum(
            count for distance, count in self.histogram.items()
            if distance < capacity_lines
        )
        return hits / self.total_accesses

    def miss_curve(self, capacities: list[int]) -> list[tuple[int, float]]:
        """(capacity, predicted miss rate) points — the classic MRC."""
        return [(c, 1.0 - self.hit_rate_at(c)) for c in capacities]

    @property
    def median_distance(self) -> int | None:
        """Median reuse distance over non-cold accesses."""
        reuses = self.total_accesses - self.cold_accesses
        if reuses == 0:
            return None
        seen = 0
        for distance in sorted(self.histogram):
            seen += self.histogram[distance]
            if seen * 2 >= reuses:
                return distance
        return None


class _LruStack:
    """An LRU stack returning exact reuse distances in O(stack) per access.

    An OrderedDict keeps lines in recency order; the distance of an access
    is its index from the MRU end.  Quadratic worst case, fine at the
    few-thousand-line scale this tool targets.
    """

    def __init__(self) -> None:
        self._stack: OrderedDict[int, None] = OrderedDict()

    def access(self, line: int) -> int | None:
        if line not in self._stack:
            self._stack[line] = None
            return None
        distance = 0
        for key in reversed(self._stack):
            if key == line:
                break
            distance += 1
        self._stack.move_to_end(line)
        return distance


def code_reuse_profile(program: Program, num_blocks: int = 10_000) -> ReuseProfile:
    """Reuse-distance profile of the true-path icache-line stream."""
    cursor = OracleCursor(program)
    stack = _LruStack()
    profile = ReuseProfile()
    last_line = -1
    for _ in range(num_blocks):
        transition = cursor.step()
        block = transition.block
        for line in range(block.addr >> 6, ((block.end_addr - 1) >> 6) + 1):
            if line == last_line:
                continue  # sequential same-line touches are one access
            last_line = line
            profile.record(stack.access(line))
    return profile
