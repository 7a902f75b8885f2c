"""Stream data prefetcher (Table II's "Data Prefetcher: Stream").

A classic multi-stream next-line prefetcher for the data side: it watches
L1D miss addresses, detects monotonic line streams, and prefetches a small
degree ahead.  It exists so that the backend's load-latency profile (which
the frontend mechanisms are measured against) is realistic — strided heap
traffic mostly hits, random traffic mostly misses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.addr import LINE_BYTES
from repro.common.packed import Stateful, address, copy_buffers, zeros


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
        streams, stamp, issued = _checked_streams(state, self.max_streams)
        self._streams = [_Stream(*stream) for stream in streams]
        self._stamp = stamp
        self.issued = issued


class StreamPrefetcherC:
    """The stream table in SoA arrays, for the compiled cycle driver.

    Stream state lives in four preallocated int64 arrays described by
    ``StreamDesc`` (see ``repro/common/kernels/kernels.h``), embedded in
    the hierarchy's descriptor, so a compiled load miss trains the
    prefetcher in C (``stream_on_miss_impl``, which ports
    :meth:`StreamPrefetcher.on_miss` with its first-minimum-LRU victim and
    list compaction order).  Python only exports, imports and copies it.
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
        """Same format as :meth:`StreamPrefetcher.state`."""
        count = self._di[4]
        return {
            "streams": list(zip(*(column[:count].tolist() for column in self._table))),
            "stamp": self._di[5],
            "issued": self._di[9],
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state` output in place (validated first)."""
        streams, stamp, issued = _checked_streams(state, self.max_streams)
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


def _checked_streams(state: dict, max_streams: int) -> tuple:
    """``(streams, stamp, issued)`` of a stream-table state: ValueError
    unless it holds at most ``max_streams`` streams of four integers."""
    streams, stamp, issued = state["streams"], state["stamp"], state["issued"]
    values = [value for stream in streams for value in stream]
    if len(streams) > max_streams or len(values) != 4 * len(streams) or not all(
        type(value) is int for value in (*values, stamp, issued)
    ):
        raise ValueError(f"stream state is not {max_streams} or fewer streams of four integers")
    return streams, stamp, issued
