"""Workload characterization (the paper's Table I role).

The paper's Table I describes its 10 datacenter applications.  For a
synthetic suite the equivalent due diligence is *measuring* that each
generated workload exhibits the characteristics its profile claims:
footprint, dynamic working set vs the L1I, branch misprediction rate,
BTB pressure, and resteer frequency.  ``characterize_suite`` produces that
table, and ``validate_characteristics`` asserts the qualitative orderings
the whole reproduction depends on (used by tests and the Table I bench).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.tables import format_table
from repro.sim.engine import run_batch, spec_for
from repro.sim.metrics import SimResult
from repro.sim.presets import baseline_config
from repro.workloads.profiles import SUITE
from repro.workloads.program import Program
from repro.workloads.store import program_for
from repro.workloads.trace import trace_statistics


@dataclass
class WorkloadCharacter:
    """Measured characteristics of one synthetic workload."""

    name: str
    footprint_kib: float
    touched_kib: float  # dynamic code touched in the sampled window
    branch_mpki: float
    btb_hit_rate: float
    resteers_per_kinstr: float
    icache_mpki: float
    ipc: float

    @classmethod
    def from_run(cls, program: Program, result: SimResult) -> "WorkloadCharacter":
        """Static traits from the program, dynamic ones from its baseline run."""
        stats = trace_statistics(program, 6_000)
        return cls(
            name=result.workload,
            footprint_kib=program.footprint_bytes / 1024.0,
            touched_kib=stats["touched_kib"],
            branch_mpki=result.branch_mpki,
            btb_hit_rate=result.btb_gen_hit_rate,
            resteers_per_kinstr=result.resteers_per_kilo_instruction,
            icache_mpki=result.icache_mpki,
            ipc=result.ipc,
        )


def characterize_suite(
    workloads: list[str] | None = None, instructions: int = 15_000, seed: int = 1
) -> dict[str, WorkloadCharacter]:
    """Measure every suite workload: one baseline run each, as one batch."""
    names = workloads if workloads is not None else [p.name for p in SUITE]
    results = run_batch(
        [
            spec_for(name, baseline_config(instructions, seed), seed, "characterize")
            for name in names
        ]
    )
    return {
        name: WorkloadCharacter.from_run(program_for(name, seed), result)
        for name, result in zip(names, results)
    }


def characterization_table(characters: dict[str, WorkloadCharacter]) -> str:
    """Render the Table-I-style characterization."""
    rows = [
        [
            c.name,
            round(c.footprint_kib),
            round(c.touched_kib),
            round(c.branch_mpki, 1),
            round(c.btb_hit_rate, 2),
            round(c.resteers_per_kinstr, 1),
            round(c.icache_mpki, 1),
            round(c.ipc, 3),
        ]
        for c in characters.values()
    ]
    return format_table(
        ["workload", "foot KiB", "touched KiB", "br MPKI", "BTB hit",
         "resteer/ki", "L1I MPKI", "IPC"],
        rows,
        title="Table I (reproduction): measured workload characteristics",
    )


def validate_characteristics(
    characters: dict[str, WorkloadCharacter],
) -> list[str]:
    """Check the orderings the reproduction depends on; return violations."""
    problems: list[str] = []

    def need(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    c = characters
    if "verilator" in c:
        biggest = max(c.values(), key=lambda x: x.footprint_kib)
        need(biggest.name == "verilator", "verilator should have the largest footprint")
    if "xgboost" in c:
        branchiest = max(c.values(), key=lambda x: x.branch_mpki)
        need(branchiest.name == "xgboost", "xgboost should mispredict the most")
        most_bound = max(c.values(), key=lambda x: x.icache_mpki)
        need(
            most_bound.name in ("xgboost", "verilator"),
            "xgboost/verilator should be the most frontend-bound",
        )
    if "mediawiki" in c and "gcc" in c:
        need(
            c["mediawiki"].footprint_kib < c["gcc"].footprint_kib,
            "mediawiki should be smaller than gcc",
        )
    for character in c.values():
        need(
            character.footprint_kib > 32,
            f"{character.name}: footprint must exceed the 32KiB L1I",
        )
        need(0 < character.ipc < 6, f"{character.name}: implausible IPC")
    return problems
