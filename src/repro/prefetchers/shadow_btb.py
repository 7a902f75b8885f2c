"""Shadow-branch BTB prefill (Pepi et al., "Exposing Shadow Branches").

The paper's observation (arXiv 2408.12592): cache lines arrive at the L1I
carrying more instruction bytes than the fetch stream actually consumes,
and those unused bytes frequently contain *shadow branches* — branches the
core has not yet decoded, so the BTB does not know them.  A predecoder
sitting on the fill path can scan each arriving line, recognise direct
branches (their targets are encoded in the instruction bytes; indirect
targets are unknowable before execute), and prefill the BTB early.  The
win is fewer BTB-miss resteers on first-touch code — the frontend walker
follows branches it would otherwise have walked straight past.

Here the "predecode" consults the static program image (our instruction
bytes), scanning exactly the one line that filled: a bisect over the
program's block-address column, then its kind, size and target columns
(:mod:`repro.workloads.tables`), so predecoding never builds the block
view.  The technique layers on top of FDIP and emits no prefetches of its
own: it registers the ``hooks_btb`` + ``observes_fills`` capabilities,
receiving the BPU fill / tag-probe callables and per-fill callbacks from
the simulator.  RET branches are installed with target 0, matching the
decode-time discovery path (returns take their target from the RAS).

This class is the object oracle: a compiled simulator's cycle driver runs
the predecoder itself, at every fill (its twin,
:class:`repro.prefetchers.compiled.ShadowBTBC`, carries the budget).  Its
params class lives in the registry, so a config names it without importing
this module.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.common.addr import INSTR_BYTES, LINE_BYTES
from repro.common.errors import ConfigError
from repro.prefetchers.base import FrontendHooks, InstructionPrefetcher
from repro.prefetchers.registry import ShadowBTBParams
from repro.workloads.program import BranchKind, Program

_INDIRECT = (BranchKind.INDIRECT, BranchKind.INDIRECT_CALL)


class ShadowBranchPrefiller(InstructionPrefetcher):
    """Predecode filled L1I lines; prefill the BTB with direct branches."""

    name = "shadow-btb"

    def __init__(self, params: ShadowBTBParams, hooks: FrontendHooks) -> None:
        if hooks.btb_fill is None or hooks.btb_contains is None:
            raise ConfigError("shadow-btb requires the BTB capability hooks")
        self.params = params
        self.program = hooks.program
        self.counters = hooks.counters
        self._btb_fill = hooks.btb_fill
        self._btb_contains = hooks.btb_contains

    def on_demand_access(self, line_addr: int, hit: bool, on_path: bool) -> list[int]:
        return []  # line prefetching stays FDIP's job

    def state(self) -> dict:
        """Nothing: the predecoder keeps no tables (the BTB holds its work)."""
        return {}

    def on_line_filled(self, line_addr: int) -> None:
        """Predecode one arriving line for not-yet-seen direct branches."""
        program = self.program
        start = max(line_addr, program.code_start)
        end = min(line_addr + LINE_BYTES, program.code_end)
        if start >= end:
            return  # line outside the code image: nothing to predecode
        counters = self.counters
        counters.bump("shadow_btb_lines_scanned")
        budget = self.params.max_prefills_per_fill
        columns = program.columns
        starts, kinds = columns.addr, columns.kind
        block = bisect_right(starts, start) - 1
        addr = start
        while addr < end:
            block_end = starts[block] + columns.ninstr[block] * INSTR_BYTES
            kind = kinds[block]
            pc = block_end - INSTR_BYTES
            if kind >= 0 and addr <= pc < end and kind not in _INDIRECT:
                counters.bump("shadow_btb_branches_found")
                if not self._btb_contains(pc):
                    target = 0 if kind == BranchKind.RET else columns.target[block]
                    self._btb_fill(pc, BranchKind(kind), target)
                    counters.bump("shadow_btb_prefills")
                    budget -= 1
                    if budget == 0:
                        return
            addr = block_end
            block += 1


def build_shadow_btb(
    params: ShadowBTBParams, program: Program, hooks: FrontendHooks
) -> ShadowBranchPrefiller:
    """Registry factory for the shadow-branch BTB prefiller."""
    return ShadowBranchPrefiller(params, hooks)
