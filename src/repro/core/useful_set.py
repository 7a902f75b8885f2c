"""The UDP useful-set: learned useful prefetch candidates (Section IV-B).

Three Bloom filters hold useful candidates at three granularities — single
lines (16k bits), 2-line super-blocks (1k bits), and 4-line super-blocks
(1k bits), six hash functions each, ~1% FPR.  A query probes all three; a
hit in the k-block filter licenses emitting all k lines of the super-block
(improving timeliness beyond what a single-line hit would).

Flush policy: when a filter is full (its insert count exceeds the 1%-FPR
capacity) *and* the observed unuseful-prefetch ratio has reached the
configured threshold (0.75), that filter is cleared — stale utility
knowledge is evicted wholesale rather than entry by entry (Bloom filters
cannot delete).

``infinite_storage`` replaces everything with an exact unbounded set — the
paper's "Infinite Storage" upper bound of Fig 13.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.common.config import UDPConfig
from repro.common.counters import Counters
from repro.core.bloom import BloomFilter
from repro.core.superline import CoalescingBuffer, superline_base, superline_lines


class UsefulSet:
    """The learned set of useful prefetch candidate lines.

    ``code_lines`` are the line addresses the infinite-storage exact set
    can hold, a simulator's code lines (the compiled driver keeps the set
    as a byte map over them); None accepts any.
    """

    def __init__(
        self,
        config: UDPConfig,
        counters: Counters | None = None,
        code_lines: range | None = None,
    ) -> None:
        self.config = config
        self.counters = counters if counters is not None else Counters()
        self.infinite = config.infinite_storage
        self.code_lines = code_lines
        self._exact: set[int] = set()
        self.filters = {
            1: BloomFilter(config.bloom_bits_1, config.bloom_hashes, seed=11),
            2: BloomFilter(config.bloom_bits_2, config.bloom_hashes, seed=22),
            4: BloomFilter(config.bloom_bits_4, config.bloom_hashes, seed=33),
        }
        self.coalescer = CoalescingBuffer(
            config.coalesce_buffer, enable_superlines=config.use_superlines
        )
        # Unuseful-ratio window for the flush policy.
        self._window_unuseful = 0
        self._window_total = 0

    # -- training ------------------------------------------------------------

    def insert(self, line_addr: int) -> None:
        """Learn one useful candidate line."""
        if self.infinite:
            self._exact.add(line_addr)
            return
        for size, base in self.coalescer.insert(line_addr):
            self.filters[size].insert(base)
            self.counters.bump(f"useful_set_insert_{size}")

    # -- query -----------------------------------------------------------------

    def query(self, line_addr: int) -> list[int]:
        """Lines licensed for prefetch by a candidate at ``line_addr``.

        Empty when the candidate is unknown; otherwise the union of lines
        covered by every filter hit (largest span wins for ordering).
        """
        if self.infinite:
            return [line_addr] if line_addr in self._exact else []
        lines: list[int] = []
        seen: set[int] = set()
        for size in (4, 2, 1):
            base = superline_base(line_addr, size)
            if self.filters[size].contains(base):
                self.counters.bump(f"useful_set_hit_{size}")
                for line in superline_lines(base, size):
                    if line not in seen:
                        seen.add(line)
                        lines.append(line)
        if lines and line_addr in seen:
            # Put the candidate itself first: it is the demand-critical line.
            lines.sort(key=lambda line: (line != line_addr, line))
            return lines
        if lines:
            return lines
        return []

    def contains(self, line_addr: int) -> bool:
        """Convenience membership check at any granularity."""
        return bool(self.query(line_addr))

    # -- flush policy ---------------------------------------------------------

    def on_prefetch_outcome(self, useful: bool) -> None:
        """Observe a prefetch outcome (useful hit / useless eviction)."""
        self._window_total += 1
        if not useful:
            self._window_unuseful += 1
        if self._window_total >= 256:
            self._maybe_flush()

    def _maybe_flush(self) -> None:
        ratio = self._window_unuseful / self._window_total
        if ratio >= self.config.flush_unuseful_ratio:
            for size, bloom in self.filters.items():
                if bloom.full:
                    bloom.clear()
                    self.counters.bump(f"useful_set_flush_{size}")
        self._window_total = 0
        self._window_unuseful = 0

    # -- state protocol (repro.common.packed) --------------------------------

    def state(self) -> dict:
        """The exact set (ascending), each Bloom filter's bits and insert
        count, the coalescer's lines (oldest first) and the flush window."""
        return {
            "exact": sorted(self._exact),
            "filters": {
                size: (bytes(bloom._array), bloom.inserted)
                for size, bloom in self.filters.items()
            },
            "coalescer": list(self.coalescer._lines),
            "window": (self._window_unuseful, self._window_total),
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state` output in place, validated first.

        The Bloom bits are copied into this set's own bytearrays, never
        swapped: the compiled cycle driver points into them, and copies the
        coalescer into a buffer of its capacity.
        """
        exact, filters, lines = state["exact"], state["filters"], state["coalescer"]
        unuseful, total = state["window"]
        capacity = self.coalescer.capacity
        if self.code_lines is not None and not all(line in self.code_lines for line in exact):
            raise ValueError("useful-set line outside the code region")
        if filters.keys() != self.filters.keys() or any(
            len(filters[size][0]) != len(bloom._array) for size, bloom in self.filters.items()
        ):
            raise ValueError("bloom filter geometry mismatch")
        inserted = [count for _, count in filters.values()]
        if len(lines) > capacity or not all(
            type(value) is int for value in (*exact, *lines, *inserted, unuseful, total)
        ):
            raise ValueError(f"useful-set state is not integers, {capacity} or fewer buffered")
        self._exact = set(exact)
        for size, bloom in self.filters.items():
            bits, bloom.inserted = filters[size]
            bloom._array[:] = bits
        self.coalescer._lines = OrderedDict.fromkeys(lines)
        self._window_unuseful, self._window_total = unuseful, total

    def copy_from(self, other: "UsefulSet") -> None:
        """Take a same-configuration set's state in place, by direct copy."""
        self._exact = set(other._exact)
        for size, bloom in self.filters.items():
            source = other.filters[size]
            bloom._array[:] = source._array
            bloom.inserted = source.inserted
        self.coalescer._lines = OrderedDict(other.coalescer._lines)
        self._window_unuseful = other._window_unuseful
        self._window_total = other._window_total

    @property
    def storage_bits(self) -> int:
        """Total Bloom storage in bits (8KB budget check)."""
        return sum(f.bits for f in self.filters.values())
