"""The uncore: L1D, L2, LLC, DRAM and their latencies (Table II).

The L1 *instruction* cache is owned by the frontend (fetch engine + FDIP +
MSHR file in :mod:`repro.frontend.fetch`); the hierarchy provides the miss
path below it — :meth:`instruction_miss_latency` probes L2/LLC, fills them
inclusively, and returns the latency an L1I fill will take.

The data side is self-contained: :meth:`load_latency` / :meth:`store_access`
model L1D/L2/LLC/DRAM with the stream prefetcher of Table II training on
L1D misses.  Data timing is intentionally simpler than instruction timing
(no D-side MSHR occupancy modelling): the paper's mechanisms live on the
I-side, and the D-side only needs to impose a realistic load-latency mix on
the backend.  The compiled cycle driver's twin is
:class:`~repro.memory.compiled.MemoryHierarchyC`.
"""

from __future__ import annotations

from repro.common.addr import line_of
from repro.common.config import MemoryConfig
from repro.common.counters import Counters
from repro.memory.cache import SetAssocCache
from repro.memory.stream import StreamPrefetcher


class MemoryHierarchy:
    """Shared L2/LLC/DRAM plus the private L1D."""

    def __init__(self, config: MemoryConfig, counters: Counters | None = None) -> None:
        self.config = config
        self.counters = counters if counters is not None else Counters()
        self.l1d = SetAssocCache(config.l1d)
        self.l2 = SetAssocCache(config.l2)
        self.llc = SetAssocCache(config.llc)
        self.stream = StreamPrefetcher() if config.stream_prefetcher else None
        # Interned fast-path counter slots (see Counters.incrementer).
        counters = self.counters
        self._c_l2_ifetch_hits = counters.incrementer("l2_ifetch_hits")
        self._c_llc_ifetch_hits = counters.incrementer("llc_ifetch_hits")
        self._c_dram_ifetch_fills = counters.incrementer("dram_ifetch_fills")
        self._c_l1d_accesses = counters.incrementer("l1d_accesses")
        self._c_l1d_hits = counters.incrementer("l1d_hits")
        self._c_l1d_misses = counters.incrementer("l1d_misses")
        self._c_l1d_stores = counters.incrementer("l1d_stores")
        self._c_l2_data_hits = counters.incrementer("l2_data_hits")
        self._c_llc_data_hits = counters.incrementer("llc_data_hits")
        self._c_dram_data_fills = counters.incrementer("dram_data_fills")
        self._c_stream_prefetches = counters.incrementer("stream_prefetches")

    # -- instruction-side miss path -------------------------------------------

    def instruction_miss_latency(self, line_addr: int) -> tuple[int, str]:
        """Latency and serving level for an L1I miss on ``line_addr``.

        Probes L2 then LLC, filling both inclusively on the way back.  The
        returned latency is the *total* delay from the L1I miss, so the MSHR
        entry's ready time is ``now + latency``.
        """
        if self.l2.lookup(line_addr) is not None:
            self._c_l2_ifetch_hits()
            return self.config.l2.hit_latency, "l2"
        if self.llc.lookup(line_addr) is not None:
            self._c_llc_ifetch_hits()
            self.l2.install(line_addr)
            return self.config.llc.hit_latency, "llc"
        self._c_dram_ifetch_fills()
        self.llc.install(line_addr)
        self.l2.install(line_addr)
        return self.config.dram_latency, "dram"

    # -- data side ---------------------------------------------------------------

    def load_latency(self, addr: int) -> int:
        """Latency of a demand load at byte address ``addr``."""
        line_addr = line_of(addr)
        self._c_l1d_accesses()
        if self.l1d.lookup(line_addr) is not None:
            self._c_l1d_hits()
            return self.config.l1d.hit_latency
        self._c_l1d_misses()
        latency = self._fill_data_line(line_addr)
        if self.stream is not None:
            for prefetch_line in self.stream.on_miss(line_addr):
                if self.l1d.lookup(prefetch_line, touch=False) is None:
                    self._fill_data_line(prefetch_line)
                    self._c_stream_prefetches()
        return self.config.l1d.hit_latency + latency

    def store_access(self, addr: int) -> None:
        """A store: write-allocate into L1D, marking the line dirty."""
        line_addr = line_of(addr)
        self._c_l1d_stores()
        line = self.l1d.lookup(line_addr)
        if line is not None:
            line.dirty = True
            return
        self._fill_data_line(line_addr)
        installed = self.l1d.lookup(line_addr, touch=False)
        if installed is not None:
            installed.dirty = True

    def _fill_data_line(self, line_addr: int) -> int:
        """Bring a data line into L1D (+inclusive L2/LLC); return miss latency."""
        if self.l2.lookup(line_addr) is not None:
            self._c_l2_data_hits()
            latency = self.config.l2.hit_latency
        elif self.llc.lookup(line_addr) is not None:
            self._c_llc_data_hits()
            self.l2.install(line_addr)
            latency = self.config.llc.hit_latency
        else:
            self._c_dram_data_fills()
            self.llc.install(line_addr)
            self.l2.install(line_addr)
            latency = self.config.dram_latency
        self.l1d.install(line_addr)
        return latency
