"""Set-associative cache with per-line prefetch metadata.

The L1 instruction cache carries a *prefetch bit* per line (set when a
prefetched line is installed, cleared on the first demand hit) plus the
path tag of the emitting prefetch — the bookkeeping both UFTQ (utility
ratio measurement) and UDP (useful-set training) rely on.  The paper notes
most architectures already implement these bits, so they are not counted as
technique-specific overhead.

Timing lives in :mod:`repro.memory.hierarchy`; this class models contents
and replacement only.

Replacement is true LRU, kept *intrusively* in each set's dict: Python
dicts preserve insertion order, so a touch re-inserts the line at the end
and the victim is always the first key — O(1) instead of the old
O(assoc) ``min()`` scan over timestamps on every install.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable

from repro.common.cc import resolve_compiled
from repro.common.config import CacheConfig
from repro.common.packed import address, export_ways, import_ways, unpack, zeros


@dataclass(slots=True)
class CacheLine:
    """Metadata for one resident line."""

    line_addr: int
    prefetch_bit: bool = False
    prefetch_off_path: bool = False  # path tag of the emitting prefetch
    prefetch_udp_candidate: bool = False  # emitted under UDP's off-path belief
    dirty: bool = False


class SetAssocCache:
    """A set-associative cache with true-LRU replacement."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        self.line_shift = config.line_bytes.bit_length() - 1
        self._set_mask = self.num_sets - 1
        # Each set is a dict ordered LRU -> MRU (insertion order).
        self._sets: list[dict[int, CacheLine]] = [dict() for _ in range(self.num_sets)]
        # Called with the victim CacheLine on every eviction (utility tracking).
        self.eviction_hook: Callable[[CacheLine], None] | None = None

    def _set_index(self, line_addr: int) -> int:
        return (line_addr >> self.line_shift) & self._set_mask

    def lookup(self, line_addr: int, touch: bool = True) -> CacheLine | None:
        """Return the resident line or None; refreshes LRU when ``touch``."""
        way_set = self._sets[(line_addr >> self.line_shift) & self._set_mask]
        line = way_set.get(line_addr)
        if line is not None and touch:
            # Move to MRU position (end of the insertion order).
            del way_set[line_addr]
            way_set[line_addr] = line
        return line

    def contains(self, line_addr: int) -> bool:
        """Presence check that does not perturb LRU."""
        return line_addr in self._sets[(line_addr >> self.line_shift) & self._set_mask]

    def install(
        self,
        line_addr: int,
        prefetch: bool = False,
        prefetch_off_path: bool = False,
        prefetch_udp_candidate: bool = False,
        dirty: bool = False,
    ) -> CacheLine:
        """Install a line, evicting LRU if the set is full.

        Re-installing a resident line refreshes it in place (and never marks
        a demand-fetched line back as prefetched).
        """
        way_set = self._sets[(line_addr >> self.line_shift) & self._set_mask]
        line = way_set.get(line_addr)
        if line is not None:
            del way_set[line_addr]
            way_set[line_addr] = line
            line.dirty = line.dirty or dirty
            return line
        if len(way_set) >= self.assoc:
            victim_addr = next(iter(way_set))
            victim = way_set.pop(victim_addr)
            if self.eviction_hook is not None:
                self.eviction_hook(victim)
        line = CacheLine(
            line_addr,
            prefetch_bit=prefetch,
            prefetch_off_path=prefetch_off_path,
            prefetch_udp_candidate=prefetch_udp_candidate,
            dirty=dirty,
        )
        way_set[line_addr] = line
        return line

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line (no eviction hook); True if it was resident."""
        way_set = self._sets[(line_addr >> self.line_shift) & self._set_mask]
        return way_set.pop(line_addr, None) is not None

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def resident_lines(self) -> list[int]:
        """All resident line addresses (test/diagnostic helper)."""
        out: list[int] = []
        for way_set in self._sets:
            out.extend(way_set.keys())
        return out

    # -- layout-neutral (de)serialization -------------------------------------

    def state_lines(self) -> list[list[tuple[int, bool, bool, bool, bool]]]:
        """Per-set resident lines in LRU->MRU order (checkpoint format)."""
        return [
            [
                (
                    line.line_addr,
                    line.prefetch_bit,
                    line.prefetch_off_path,
                    line.prefetch_udp_candidate,
                    line.dirty,
                )
                for line in way_set.values()
            ]
            for way_set in self._sets
        ]

    def load_lines(self, sets: list[list[tuple[int, bool, bool, bool, bool]]]) -> None:
        """Restore contents from :meth:`state_lines` output, in place."""
        if len(sets) != self.num_sets:
            raise ValueError("cache geometry mismatch")
        for way_set, lines in zip(self._sets, sets):
            way_set.clear()
            for addr, pf, off_path, udp, dirty in lines:
                way_set[addr] = CacheLine(
                    addr,
                    prefetch_bit=pf,
                    prefetch_off_path=off_path,
                    prefetch_udp_candidate=udp,
                    dirty=dirty,
                )

    def state_packed(self) -> dict[str, bytes]:
        """Contents as three packed arrays (the checkpoint wire form).

        Same information as :meth:`state_lines` — per-set resident lines in
        LRU->MRU order — but flattened into :mod:`repro.common.packed`
        buffers: a ``uint16`` line count per set, then ``int64`` addresses
        and ``uint8`` metadata flags in set-major order.
        """
        sets = self.state_lines()
        flat = [line for lines in sets for line in lines]
        return {
            "counts": array("H", [len(lines) for lines in sets]).tobytes(),
            "addrs": array("q", [t[0] for t in flat]).tobytes(),
            "flags": bytes(
                (_PREFETCH if t[1] else 0)
                | (_OFF_PATH if t[2] else 0)
                | (_UDP if t[3] else 0)
                | (_DIRTY if t[4] else 0)
                for t in flat
            ),
        }

    def load_packed(self, state: dict[str, bytes]) -> None:
        """Restore contents from :meth:`state_packed` output, in place."""
        counts, (addrs, flags) = unpack(
            state, _PLANES, self.num_sets, self.assoc, "cache"
        )
        addrs = addrs.tolist()
        flags = flags.tolist()
        sets = []
        pos = 0
        for n in counts.tolist():
            sets.append(
                [
                    (
                        addrs[i],
                        bool(flags[i] & _PREFETCH),
                        bool(flags[i] & _OFF_PATH),
                        bool(flags[i] & _UDP),
                        bool(flags[i] & _DIRTY),
                    )
                    for i in range(pos, pos + n)
                ]
            )
            pos += n
        self.load_lines(sets)


# Bit positions of the packed per-line metadata (checkpoint flags buffer
# and SetAssocCacheC._flags).
_PREFETCH = 1
_OFF_PATH = 2
_UDP = 4
_DIRTY = 8

# The planes of the packed checkpoint form, with their array typecodes.
_PLANES = {"addrs": "q", "flags": "B"}


class _CLineRef:
    """A reusable write-through view of one way in a :class:`SetAssocCacheC`.

    Every ``lookup``/``install`` call site in the tree uses the returned line
    transiently (reads or flips flags before the next cache call), so a
    single proxy per cache is re-pointed at the probed way instead of
    allocating a :class:`CacheLine` per access.  It is addressed by the
    *flat* way index the C kernels return (``set_idx * assoc + way``) over a
    memoryview of the flags array, and these reads sit on the L1I demand-hit
    path.
    """

    __slots__ = ("_flags", "_gidx", "line_addr")

    def __init__(self, flags: memoryview) -> None:
        self._flags = flags
        self._gidx = 0
        self.line_addr = 0

    def _bind(self, gidx: int, line_addr: int) -> "_CLineRef":
        self._gidx = gidx
        self.line_addr = line_addr
        return self

    def _get(self, bit: int) -> bool:
        return bool(self._flags[self._gidx] & bit)

    def _put(self, bit: int, value: bool) -> None:
        if value:
            self._flags[self._gidx] |= bit
        else:
            self._flags[self._gidx] &= ~bit

    @property
    def prefetch_bit(self) -> bool:
        return self._get(_PREFETCH)

    @prefetch_bit.setter
    def prefetch_bit(self, value: bool) -> None:
        self._put(_PREFETCH, value)

    @property
    def prefetch_off_path(self) -> bool:
        return self._get(_OFF_PATH)

    @prefetch_off_path.setter
    def prefetch_off_path(self, value: bool) -> None:
        self._put(_OFF_PATH, value)

    @property
    def prefetch_udp_candidate(self) -> bool:
        return self._get(_UDP)

    @prefetch_udp_candidate.setter
    def prefetch_udp_candidate(self, value: bool) -> None:
        self._put(_UDP, value)

    @property
    def dirty(self) -> bool:
        return self._get(_DIRTY)

    @dirty.setter
    def dirty(self, value: bool) -> None:
        self._put(_DIRTY, value)


class SetAssocCacheC(SetAssocCache):
    """Compiled-kernel variant: probes run in C over structure-of-arrays ways.

    Line addresses and packed metadata flags live in two preallocated flat
    ``int64`` arrays of ``num_sets * assoc`` ways.  Replacement uses
    monotonic LRU stamps, which select the same victim as the object cache's
    insertion-ordered dicts (every dict touch is a move-to-end, so "first
    key" == "minimum stamp"); which way a new line lands in is invisible to
    behaviour and to the stamp-ordered serialization.  The descriptor
    layout is ``CacheDesc`` in ``repro/common/kernels/kernels.h``.
    """

    def __init__(self, config: CacheConfig) -> None:
        from repro.common import cc

        super().__init__(config)
        kernels = cc.kernels()
        if kernels is None:  # pragma: no cover - factory guards this
            raise RuntimeError("compiled kernels unavailable")
        self._sets = None  # lines live in the arrays; fail loudly
        ways = self.num_sets * self.assoc
        self._addrs = zeros(ways, fill=-1)
        self._flags = zeros(ways)
        self._stamps = zeros(ways)
        di = zeros(11)
        di[0] = address(self._addrs)
        di[1] = address(self._flags)
        di[2] = address(self._stamps)
        di[3] = self.num_sets
        di[4] = self.assoc
        di[5] = self._set_mask
        di[6] = self.line_shift
        di[9] = -1  # evict_addr: none yet
        self._dmv = memoryview(di)
        self._desc = address(di)
        self._k_lookup = kernels.cache_lookup
        self._k_contains = kernels.cache_contains
        self._k_install = kernels.cache_install
        self._k_invalidate = kernels.cache_invalidate
        self._k_export = kernels.ways_export
        self._k_import = kernels.ways_import
        self._ref = _CLineRef(memoryview(self._flags))

    def lookup(self, line_addr: int, touch: bool = True) -> _CLineRef | None:
        gidx = self._k_lookup(self._desc, line_addr, 1 if touch else 0)
        if gidx < 0:
            return None
        return self._ref._bind(gidx, line_addr)

    def contains(self, line_addr: int) -> bool:
        return bool(self._k_contains(self._desc, line_addr))

    def install(
        self,
        line_addr: int,
        prefetch: bool = False,
        prefetch_off_path: bool = False,
        prefetch_udp_candidate: bool = False,
        dirty: bool = False,
    ) -> _CLineRef:
        flags = (
            (_PREFETCH if prefetch else 0)
            | (_OFF_PATH if prefetch_off_path else 0)
            | (_UDP if prefetch_udp_candidate else 0)
            | (_DIRTY if dirty else 0)
        )
        gidx = self._k_install(self._desc, line_addr, flags)
        if self.eviction_hook is not None:
            victim_addr = self._dmv[9]
            if victim_addr >= 0:
                victim_flags = self._dmv[10]
                # Fired after the install rather than before it, which is
                # equivalent: the hook only touches counters/UDP state, never
                # the cache (see Simulator._on_l1i_eviction).
                self.eviction_hook(
                    CacheLine(
                        victim_addr,
                        prefetch_bit=bool(victim_flags & _PREFETCH),
                        prefetch_off_path=bool(victim_flags & _OFF_PATH),
                        prefetch_udp_candidate=bool(victim_flags & _UDP),
                        dirty=bool(victim_flags & _DIRTY),
                    )
                )
        return self._ref._bind(gidx, line_addr)

    def invalidate(self, line_addr: int) -> bool:
        return bool(self._k_invalidate(self._desc, line_addr))

    @property
    def occupancy(self) -> int:
        return int(self._dmv[8])

    def _iter_sets(self):
        """Per set, the resident flat way indices in LRU->MRU (stamp) order."""
        addrs = self._addrs
        stamps = self._stamps
        assoc = self.assoc
        for base in range(0, self.num_sets * assoc, assoc):
            yield [
                gidx
                for _, gidx in sorted(
                    (stamps[base + w], base + w)
                    for w in range(assoc)
                    if addrs[base + w] != -1
                )
            ]

    def resident_lines(self) -> list[int]:
        addrs = self._addrs
        out: list[int] = []
        for ways in self._iter_sets():
            out.extend(addrs[g] for g in ways)
        return out

    def state_lines(self) -> list[list[tuple[int, bool, bool, bool, bool]]]:
        addrs = self._addrs
        flags = self._flags
        return [
            [
                (
                    addrs[g],
                    bool(flags[g] & _PREFETCH),
                    bool(flags[g] & _OFF_PATH),
                    bool(flags[g] & _UDP),
                    bool(flags[g] & _DIRTY),
                )
                for g in ways
            ]
            for ways in self._iter_sets()
        ]

    def state_packed(self) -> dict[str, bytes]:
        counts, addrs, flags = export_ways(
            self._k_export, self._stamps, self.assoc, (self._addrs, 8), (self._flags, 1)
        )
        return {"counts": counts, "addrs": addrs, "flags": flags}

    def load_packed(self, state: dict[str, bytes]) -> None:
        unpack(state, _PLANES, self.num_sets, self.assoc, "cache")
        dmv = self._dmv
        total = import_ways(
            self._k_import, self._stamps, self.assoc, dmv[7], state,
            (self._addrs, 8, "addrs"), (self._flags, 1, "flags"),
        )
        dmv[7] += total
        dmv[8] = total
        dmv[9] = -1


def make_cache(config: CacheConfig, compiled: bool | None = None) -> SetAssocCache:
    """Build the compiled-kernel cache when ``compiled`` resolves on (see
    :mod:`repro.common.cc`), else the object cache."""
    if resolve_compiled(compiled):
        return SetAssocCacheC(config)
    return SetAssocCache(config)
