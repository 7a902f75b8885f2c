"""Bloom filters for the UDP useful-set.

The paper stores useful prefetch candidates in three Bloom filters (16k bits
for single lines, 1k bits each for 2-line and 4-line super-blocks) with six
hash functions, targeting a ~1% false-positive rate — parameters they derive
with the "Open Bloom Filter" generator.  We derive the same parameters
analytically: for ``m`` bits and ``n`` items the optimal hash count is
``k = (m/n)·ln2``, and at 1% FPR the required density is ~9.6 bits/item, so
a filter's nominal *capacity* is ``m / 9.6`` items — used by the flush
policy's "filter is full" condition.
"""

from __future__ import annotations

import math

from repro.common.rng import mix64

# Bits per item for a 1% false-positive rate: m/n = -ln(p) / (ln 2)^2.
BITS_PER_ITEM_1PCT = -math.log(0.01) / (math.log(2.0) ** 2)


def optimal_num_hashes(bits: int, capacity: int) -> int:
    """The FPR-optimal number of hash functions for ``capacity`` items."""
    if capacity <= 0:
        return 1
    return max(1, round(bits / capacity * math.log(2.0)))


def capacity_for_fpr(bits: int, fpr: float = 0.01) -> int:
    """How many items ``bits`` can hold at the target false-positive rate."""
    bits_per_item = -math.log(fpr) / (math.log(2.0) ** 2)
    return max(1, int(bits / bits_per_item))


class BloomFilter:
    """A classic Bloom filter over integer keys.

    Guarantees no false negatives; the false-positive rate follows the
    standard analysis.  ``inserted`` counts insert calls since the last
    clear and drives the useful-set's "filter full" flush condition.
    """

    def __init__(self, bits: int, num_hashes: int, seed: int = 0) -> None:
        if bits <= 0 or bits & (bits - 1):
            raise ValueError("bloom filter size must be a positive power of two")
        if num_hashes <= 0:
            raise ValueError("need at least one hash function")
        self.bits = bits
        self.num_hashes = num_hashes
        self.seed = seed
        self._array = bytearray(bits // 8)
        self._mask = bits - 1
        # One precomputed XOR seed per hash function, so probing is a flat
        # loop of mix64 calls (no generator frame per probe).
        self._seeds = tuple(seed + i * 0x9E3779B9 for i in range(num_hashes))
        self.inserted = 0

    @property
    def capacity(self) -> int:
        """Nominal capacity at ~1% FPR."""
        return capacity_for_fpr(self.bits)

    @property
    def full(self) -> bool:
        return self.inserted >= self.capacity

    def insert(self, key: int) -> None:
        """Add ``key`` to the set."""
        array = self._array
        mask = self._mask
        for s in self._seeds:
            position = mix64(key ^ s) & mask
            array[position >> 3] |= 1 << (position & 7)
        self.inserted += 1

    def contains(self, key: int) -> bool:
        """Membership test (no false negatives, ~1% false positives)."""
        array = self._array
        mask = self._mask
        for s in self._seeds:
            position = mix64(key ^ s) & mask
            if not (array[position >> 3] >> (position & 7)) & 1:
                return False
        return True

    def clear(self) -> None:
        """Reset to empty."""
        self._array[:] = bytes(len(self._array))
        self.inserted = 0

    @property
    def fill_ratio(self) -> float:
        """Fraction of bits set (diagnostic)."""
        return int.from_bytes(self._array, "little").bit_count() / self.bits

    def estimated_fpr(self) -> float:
        """Theoretical FPR at the current fill level."""
        return self.fill_ratio ** self.num_hashes
