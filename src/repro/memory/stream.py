"""Stream data prefetcher (Table II's "Data Prefetcher: Stream").

A classic multi-stream next-line prefetcher for the data side: it watches
L1D miss addresses, detects monotonic line streams, and prefetches a small
degree ahead.  It exists so that the backend's load-latency profile (which
the frontend mechanisms are measured against) is realistic — strided heap
traffic mostly hits, random traffic mostly misses.  The compiled cycle
driver's twin is :class:`~repro.memory.compiled.StreamPrefetcherC`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.addr import LINE_BYTES
from repro.common.packed import Stateful
from repro.memory.compiled import checked_streams


@dataclass
class _Stream:
    """One tracked stream: last line and confidence."""

    last_line: int
    direction: int = 1
    confidence: int = 0
    lru: int = 0


class StreamPrefetcher(Stateful):
    """Detects up to ``max_streams`` monotonic miss streams."""

    def __init__(self, max_streams: int = 16, degree: int = 2, train_threshold: int = 2) -> None:
        self.max_streams = max_streams
        self.degree = degree
        self.train_threshold = train_threshold
        self._streams: list[_Stream] = []
        self._stamp = 0
        self.issued = 0

    def on_miss(self, line_addr: int) -> list[int]:
        """Observe an L1D demand miss; return line addresses to prefetch."""
        self._stamp += 1
        for stream in self._streams:
            delta = line_addr - stream.last_line
            if delta == stream.direction * LINE_BYTES:
                stream.last_line = line_addr
                stream.lru = self._stamp
                if stream.confidence < self.train_threshold:
                    stream.confidence += 1
                    return []
                out = [
                    line_addr + stream.direction * LINE_BYTES * (i + 1)
                    for i in range(self.degree)
                ]
                self.issued += len(out)
                return out
            if delta == -stream.direction * LINE_BYTES:
                # Same region, opposite motion: flip the tracked direction.
                stream.direction = -stream.direction
                stream.last_line = line_addr
                stream.confidence = 1
                stream.lru = self._stamp
                return []
        self._allocate(line_addr)
        return []

    def _allocate(self, line_addr: int) -> None:
        if len(self._streams) >= self.max_streams:
            victim = min(range(len(self._streams)), key=lambda i: self._streams[i].lru)
            del self._streams[victim]
        self._streams.append(_Stream(last_line=line_addr, lru=self._stamp))

    @property
    def active_streams(self) -> int:
        return len(self._streams)

    # -- state protocol (repro.common.packed) --------------------------------

    def state(self) -> dict:
        """Logical stream-table state, independent of physical layout.

        Streams are listed in table order — victim selection scans for the
        first LRU minimum and compacts the list, so ordering is part of the
        state, exactly like the LRU order within a cache set.
        """
        return {
            "streams": [
                (s.last_line, s.direction, s.confidence, s.lru)
                for s in self._streams
            ],
            "stamp": self._stamp,
            "issued": self.issued,
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state` output (validated first)."""
        streams, stamp, issued = checked_streams(state, self.max_streams)
        self._streams = [_Stream(*stream) for stream in streams]
        self._stamp = stamp
        self.issued = issued
