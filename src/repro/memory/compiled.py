"""The memory structures' state in flat arrays, for the compiled cycle driver.

Each class here is the compiled twin of an object structure: the cache
(:mod:`repro.memory.cache`), the stream prefetcher
(:mod:`repro.memory.stream`) and the hierarchy that holds them
(:mod:`repro.memory.hierarchy`).  The driver probes, fills and trains them
in C (``repro/common/kernels/cache.c``); Python builds their descriptors and
runs the state protocol, whose formats the object twins share (the caches'
packed planes and the stream-state check live here for both), so a
compiled run imports no object structure.
"""

from __future__ import annotations

from repro.common.addr import LINE_BYTES
from repro.common.config import CacheConfig, MemoryConfig
from repro.common.packed import (
    address, copy_buffers, export_ways, import_ways, unpack, zeros
)

# The planes of a cache's packed checkpoint form, with their array
# typecodes (repro.common.packed).
CACHE_PLANES = {"addrs": "q", "flags": "B"}


def checked_streams(state: dict, max_streams: int) -> tuple:
    """``(streams, stamp, issued)`` of a stream-table state: ValueError
    unless it holds at most ``max_streams`` streams of four integers."""
    streams, stamp, issued = state["streams"], state["stamp"], state["issued"]
    values = [value for stream in streams for value in stream]
    if len(streams) > max_streams or len(values) != 4 * len(streams) or not all(
        type(value) is int for value in (*values, stamp, issued)
    ):
        raise ValueError(f"stream state is not {max_streams} or fewer streams of four integers")
    return streams, stamp, issued


class SetAssocCacheC:
    """A cache's state in flat arrays, for the compiled cycle driver.

    Line addresses, packed metadata flags and LRU stamps live in three
    preallocated flat ``int64`` arrays of ``num_sets * assoc`` ways, which
    the driver probes and fills in C (``CacheDesc`` in
    ``repro/common/kernels/kernels.h``); Python only exports, imports and
    copies them.  Replacement uses monotonic LRU stamps, which select the
    same victim as :class:`~repro.memory.cache.SetAssocCache`'s
    insertion-ordered dicts (every dict touch is a move-to-end, so "first
    key" == "minimum stamp"); which way a new line lands in is invisible to
    behaviour and to the stamp-ordered serialization.
    """

    def __init__(self, config: CacheConfig) -> None:
        from repro.common import cc

        kernels = cc.kernels()
        if kernels is None:  # pragma: no cover - the simulator guards this
            raise RuntimeError("compiled kernels unavailable")
        self.config = config
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        self.line_shift = LINE_BYTES.bit_length() - 1
        ways = self.num_sets * self.assoc
        self._addrs = zeros(ways, fill=-1)
        self._flags = zeros(ways)
        self._stamps = zeros(ways)
        self._ways = (self._addrs, self._flags, self._stamps)
        di = zeros(11)
        di[0] = address(self._addrs)
        di[1] = address(self._flags)
        di[2] = address(self._stamps)
        di[3] = self.num_sets
        di[4] = self.assoc
        di[5] = self.num_sets - 1
        di[6] = self.line_shift
        di[9] = -1  # evict_addr: none yet
        self._dmv = memoryview(di)
        self._desc = address(di)
        self._k_export = kernels.ways_export
        self._k_import = kernels.ways_import

    @property
    def occupancy(self) -> int:
        return int(self._dmv[8])

    def state(self) -> dict[str, bytes]:
        """Same packed format as :meth:`~repro.memory.cache.SetAssocCache.state`."""
        counts, addrs, flags = export_ways(
            self._k_export, self._stamps, self.assoc, (self._addrs, 8), (self._flags, 1)
        )
        return {"counts": counts, "addrs": addrs, "flags": flags}

    def load_state(self, state: dict[str, bytes]) -> None:
        """Restore :meth:`state` output in place (validated first)."""
        unpack(state, CACHE_PLANES, self.num_sets, self.assoc, "cache")
        dmv = self._dmv
        total = import_ways(
            self._k_import, self._stamps, self.assoc, dmv[7], state,
            (self._addrs, 8, "addrs"), (self._flags, 1, "flags"),
        )
        dmv[7] += total
        dmv[8] = total
        dmv[9] = -1

    def copy_from(self, other: "SetAssocCacheC") -> None:
        """Copy a same-geometry compiled cache's ways, clock and occupancy
        in place."""
        copy_buffers(self._ways, other._ways, self._dmv, other._dmv, (7, 8))
        self._dmv[9] = -1


class StreamPrefetcherC:
    """The stream table in SoA arrays, for the compiled cycle driver.

    Stream state lives in four preallocated int64 arrays described by
    ``StreamDesc`` (see ``repro/common/kernels/kernels.h``), embedded in
    the hierarchy's descriptor, so a compiled load miss trains the
    prefetcher in C (``stream_on_miss_impl``, which ports
    :meth:`~repro.memory.stream.StreamPrefetcher.on_miss` with its
    first-minimum-LRU victim and list compaction order).  Python only
    exports, imports and copies it.
    """

    def __init__(self, max_streams: int = 16, degree: int = 2, train_threshold: int = 2) -> None:
        if degree > 16:
            # The fused load path (hier_load_impl) buffers prefetches on the stack.
            raise ValueError("compiled stream prefetcher supports degree <= 16")
        self.max_streams = max_streams
        self.degree = degree
        self.train_threshold = train_threshold
        self._table = tuple(zeros(max_streams) for _ in range(4))
        self._last_line, self._direction, self._confidence, self._lru = self._table
        di = zeros(10)
        for i, column in enumerate(self._table):
            di[i] = address(column)
        # di[4]=count, di[5]=stamp
        di[6] = max_streams
        di[7] = degree
        di[8] = train_threshold
        # di[9]=issued
        self._di = di
        self._desc = address(di)

    def state(self) -> dict:
        """Same format as :meth:`~repro.memory.stream.StreamPrefetcher.state`."""
        count = self._di[4]
        return {
            "streams": list(zip(*(column[:count].tolist() for column in self._table))),
            "stamp": self._di[5],
            "issued": self._di[9],
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state` output in place (validated first)."""
        streams, stamp, issued = checked_streams(state, self.max_streams)
        for column in self._table:
            column[:] = zeros(self.max_streams)
        for i, (last, direction, confidence, lru) in enumerate(streams):
            self._last_line[i] = last
            self._direction[i] = direction
            self._confidence[i] = confidence
            self._lru[i] = lru
        self._di[4] = len(streams)
        self._di[5] = stamp
        self._di[9] = issued

    def copy_from(self, other: "StreamPrefetcherC") -> None:
        """Copy a same-size compiled stream table and its count, stamp and
        issued total in place."""
        copy_buffers(self._table, other._table, self._di, other._di, (4, 5, 9))


class MemoryHierarchyC:
    """The hierarchy's state for the compiled cycle driver: the L1D, L2 and
    LLC as :class:`SetAssocCacheC` arrays and the
    stream prefetcher's table, under one ``HierDesc`` descriptor.

    The driver walks the fused miss paths (``hier_load_impl``,
    ``hier_store_impl`` and ``hier_imiss_impl`` in
    ``repro/common/kernels/cache.c``) in C and counts their events itself,
    so this class holds state only: the checkpoint and hand-off code reach
    the caches and the stream table through it.
    """

    def __init__(self, config: MemoryConfig) -> None:
        self.config = config
        self.l1d = SetAssocCacheC(config.l1d)
        self.l2 = SetAssocCacheC(config.l2)
        self.llc = SetAssocCacheC(config.llc)
        self.stream = StreamPrefetcherC() if config.stream_prefetcher else None
        hi = zeros(13)
        hi[0] = self.l1d._desc
        hi[1] = self.l2._desc
        hi[2] = self.llc._desc
        hi[3] = self.stream._desc if self.stream is not None else 0
        hi[4] = config.l1d.hit_latency
        hi[5] = config.l2.hit_latency
        hi[6] = config.llc.hit_latency
        hi[7] = config.dram_latency
        # hi[8..12]: n_l1d_hit, n_l2_data, n_llc_data, n_dram_data, n_stream_pf
        self._hi = hi
        self._hdesc = address(hi)
