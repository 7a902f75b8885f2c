"""Trace export/import: materialized oracle traces on disk.

The paper's Java/multi-process workloads run Scarab in *trace* mode from
DynamoRIO / Intel-PT captures.  This module provides the equivalent
round-trip for our synthetic oracle: record the true dynamic basic-block
stream to a compact JSONL file and replay it for offline analysis (branch
mix, working-set curves, reuse distances) without re-walking behaviours.

Note the cycle simulator itself always needs the *static* program (wrong
path walking requires static code around the trace); trace files serve the
analysis tooling and external consumers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.workloads.oracle import OracleCursor
from repro.workloads.program import Program


@dataclass
class TraceRecord:
    """One dynamic basic block of the true path."""

    addr: int
    num_instrs: int
    branch_pc: int  # -1 when the block falls through
    taken: bool
    next_pc: int


def record_trace(program: Program, num_blocks: int, path: str | Path) -> int:
    """Walk the oracle and write ``num_blocks`` records; returns instructions."""
    cursor = OracleCursor(program)
    instructions = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "format": "repro-trace-v1",
            "entry": program.entry,
            "code_start": program.code_start,
            "code_end": program.code_end,
        }) + "\n")
        for _ in range(num_blocks):
            t = cursor.step()
            instructions += t.block.num_instrs
            fh.write(json.dumps([
                t.block.addr,
                t.block.num_instrs,
                t.branch.pc if t.branch is not None else -1,
                int(t.taken),
                t.next_pc,
            ]) + "\n")
    return instructions


def read_trace(path: str | Path) -> tuple[dict, list[TraceRecord]]:
    """Load a trace file; returns (header, records)."""
    records: list[TraceRecord] = []
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if header.get("format") != "repro-trace-v1":
            raise ValueError(f"not a repro trace file: {path}")
        for line in fh:
            addr, num_instrs, branch_pc, taken, next_pc = json.loads(line)
            records.append(
                TraceRecord(addr, num_instrs, branch_pc, bool(taken), next_pc)
            )
    return header, records


def trace_working_set_curve(
    records: list[TraceRecord], window_instrs: int = 5_000
) -> list[tuple[int, int]]:
    """(instruction index, unique 64B lines touched in the trailing window).

    The working-set curve is the standard way to compare a synthetic
    workload's icache pressure against the L1I capacity (512 lines).
    """
    curve: list[tuple[int, int]] = []
    window: list[tuple[int, set[int]]] = []
    instrs = 0
    for record in records:
        lines = set(range(record.addr >> 6, ((record.addr + record.num_instrs * 4 - 1) >> 6) + 1))
        window.append((instrs, lines))
        instrs += record.num_instrs
        while window and window[0][0] < instrs - window_instrs:
            window.pop(0)
        if len(curve) == 0 or instrs - curve[-1][0] >= window_instrs // 5:
            unique: set[int] = set()
            for _, ls in window:
                unique |= ls
            curve.append((instrs, len(unique)))
    return curve


def trace_branch_mix(records: list[TraceRecord]) -> dict[str, float]:
    """Dynamic branch statistics of a recorded trace."""
    branches = [r for r in records if r.branch_pc >= 0]
    if not records:
        return {"blocks": 0, "branch_fraction": 0.0, "taken_rate": 0.0}
    taken = sum(r.taken for r in branches)
    return {
        "blocks": len(records),
        "instructions": sum(r.num_instrs for r in records),
        "branch_fraction": len(branches) / len(records),
        "taken_rate": taken / max(len(branches), 1),
        "unique_blocks": len({r.addr for r in records}),
    }
