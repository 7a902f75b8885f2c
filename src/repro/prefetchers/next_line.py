"""Next-line instruction prefetcher.

The simplest sequential prefetcher: every demand miss triggers a prefetch
of the following line.  Included as a sanity baseline — it captures the
straight-line component of instruction streams and nothing else.
"""

from __future__ import annotations

from repro.common.addr import LINE_BYTES
from repro.prefetchers.base import FrontendHooks, InstructionPrefetcher
from repro.prefetchers.registry import NextLineParams
from repro.workloads.program import Program


def build_next_line(
    params: NextLineParams, program: Program, hooks: FrontendHooks
) -> "NextLinePrefetcher":
    """Registry factory for the next-line sanity baseline."""
    return NextLinePrefetcher(degree=params.degree)


class NextLinePrefetcher(InstructionPrefetcher):
    """Prefetch ``degree`` sequential lines on every demand miss."""

    name = "next-line"

    def __init__(self, degree: int = 1) -> None:
        self.degree = degree

    def on_demand_access(self, line_addr: int, hit: bool, on_path: bool) -> list[int]:
        if hit:
            return []
        return [line_addr + LINE_BYTES * (i + 1) for i in range(self.degree)]
