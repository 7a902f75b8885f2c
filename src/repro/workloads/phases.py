"""Phase-shifting workloads (Section IV-A's "always-on" motivation).

UFTQ is kept always-on "to adapt to future application phase changes that
may alter the ATR or AUR".  This module synthesizes programs whose branch
behaviour flips between two regimes every ``phase_length`` dynamic
occurrences — e.g. a predictable compiler-like phase followed by an
xgboost-like unpredictable phase — so the controllers' re-adaptation can be
observed and tested.
"""

from __future__ import annotations

from repro.common.rng import RngPool, derive_seed
from repro.workloads.behavior import BiasedBehavior, PhasedBehavior
from repro.workloads.blocks import BasicBlock, Branch
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.program import BranchKind, Program
from repro.workloads.synth import synthesize


def make_phased_program(
    base: WorkloadProfile,
    seed: int = 1,
    phase_length: int = 400,
    unstable_p_taken: float = 0.5,
    affected_fraction: float = 0.6,
) -> Program:
    """Synthesize ``base`` and wrap conditional behaviours in phase flips.

    During even phases a branch follows its original behaviour; during odd
    phases an ``affected_fraction`` of conditionals become coin flips —
    modelling a program phase with data-dependent control flow.  The
    rewrite preserves the static CFG exactly (same blocks, same targets),
    only the dynamic outcome functions change, so frontend structures warm
    identically across phases.
    """
    program = synthesize(base, seed)
    pool = RngPool(derive_seed(seed, f"phases:{base.name}"))
    pick = pool.stream("pick")
    blocks: list[BasicBlock] = []
    for block in program.blocks:
        branch = block.branch
        if (
            branch is not None
            and branch.kind == BranchKind.COND
            and branch.direction is not None
            and pick.random() < affected_fraction
        ):
            noisy = BiasedBehavior(
                derive_seed(seed, f"phase-noise:{branch.pc}"), unstable_p_taken
            )
            phased = PhasedBehavior(branch.direction, noisy, phase_length)
            branch = Branch(
                branch.pc,
                branch.kind,
                target=branch.target,
                direction=phased,
                targets=branch.targets,
                target_behavior=branch.target_behavior,
            )
        blocks.append(BasicBlock(block.addr, block.num_instrs, branch, block.ops))
    return Program(blocks, entry=program.entry)


def phase_summary(program: Program) -> dict[str, int]:
    """Count how many conditionals were wrapped in phase behaviour."""
    phased = 0
    plain = 0
    for block in program.blocks:
        branch = block.branch
        if branch is None or branch.kind != BranchKind.COND:
            continue
        if isinstance(branch.direction, PhasedBehavior):
            phased += 1
        else:
            plain += 1
    return {"phased_conditionals": phased, "plain_conditionals": plain}
