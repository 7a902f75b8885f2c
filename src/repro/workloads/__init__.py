"""Synthetic workloads: static programs, branch behaviours, oracle traces.

The public names resolve on first use (``repro._lazy``): a process that
only hydrates stored programs never loads the synthesis pipeline.
"""

from repro._lazy import exports as _exports

__all__, __getattr__, __dir__ = _exports(
    __name__,
    ("repro.workloads.behavior", (
        "AlwaysTaken",
        "BiasedBehavior",
        "DirectionBehavior",
        "FixedTarget",
        "LoopBehavior",
        "PatternBehavior",
        "PhasedBehavior",
        "RotatingTargets",
        "TargetBehavior",
        "WeightedTargets",
        "ZipfTargets",
    )),
    ("repro.workloads.blocks", ("BasicBlock", "Branch")),
    ("repro.workloads.builder", ("Label", "ProgramBuilder")),
    ("repro.workloads.data", ("DataAddressGenerator",)),
    ("repro.workloads.profiles", (
        "PAPER_TABLE3",
        "SUITE",
        "SUITE_BY_NAME",
        "DataProfile",
        "WorkloadProfile",
        "get_profile",
    )),
    ("repro.workloads.program", ("BranchKind", "Program")),
    ("repro.workloads.phases", ("make_phased_program", "phase_summary")),
    ("repro.workloads.synth", ("footprint_report",)),
    ("repro.workloads.tracefile", (
        "TraceRecord",
        "read_trace",
        "record_trace",
        "trace_branch_mix",
        "trace_working_set_curve",
    )),
    ("repro.workloads.synth", ("synthesize",)),
    ("repro.workloads.oracle", (
        "OracleCursor",
        "OracleTransition",
        "run_trace",
        "trace_statistics",
    )),
)
