"""Shadow-branch BTB prefill: fill-path predecode of direct branches."""

import pytest

from repro.common.counters import Counters
from repro.common.errors import ConfigError
from repro.prefetchers.base import FrontendHooks
from repro.prefetchers.shadow_btb import ShadowBTBParams, ShadowBranchPrefiller
from repro.workloads.behavior import BiasedBehavior, RotatingTargets
from repro.workloads.blocks import BasicBlock, Branch
from repro.workloads.program import BranchKind, Program


def make_program():
    """Four two-instruction blocks in one 64B line starting at 0x1000."""
    blocks = [
        BasicBlock(0x1000, 2, Branch(0x1004, BranchKind.JUMP, target=0x1010)),
        BasicBlock(
            0x1008,
            2,
            Branch(
                0x100C,
                BranchKind.COND,
                target=0x1000,
                direction=BiasedBehavior(1, 0.5),
            ),
        ),
        BasicBlock(
            0x1010,
            2,
            Branch(
                0x1014,
                BranchKind.INDIRECT,
                targets=(0x1000,),
                target_behavior=RotatingTargets(),
            ),
        ),
        BasicBlock(0x1018, 2, Branch(0x101C, BranchKind.RET)),
    ]
    return Program(blocks)


def make_prefiller(program=None, **params):
    program = program or make_program()
    btb = {}
    hooks = FrontendHooks(
        program=program,
        counters=Counters(),
        btb_fill=lambda pc, kind, target: btb.__setitem__(pc, (kind, target)),
        btb_contains=lambda pc: pc in btb,
    )
    prefiller = ShadowBranchPrefiller(ShadowBTBParams(**params), hooks)
    return prefiller, btb, hooks.counters


def test_requires_btb_hooks():
    hooks = FrontendHooks(program=make_program(), counters=Counters())
    with pytest.raises(ConfigError):
        ShadowBranchPrefiller(ShadowBTBParams(), hooks)


def test_emits_no_line_prefetches():
    prefiller, _, _ = make_prefiller()
    assert prefiller.on_demand_access(0x1000, hit=False, on_path=True) == []


def test_prefills_direct_branches_skips_indirect():
    prefiller, btb, counters = make_prefiller()
    prefiller.on_line_filled(0x1000)
    assert 0x1004 in btb and 0x100C in btb  # JUMP and COND prefilled
    assert 0x1014 not in btb  # indirect: target unknowable at predecode
    assert btb[0x101C] == (BranchKind.RET, 0)  # RET targets come from the RAS
    assert counters["shadow_btb_prefills"] == 3
    assert counters["shadow_btb_branches_found"] == 3
    assert counters["shadow_btb_lines_scanned"] == 1


def test_known_branches_not_refilled():
    prefiller, btb, counters = make_prefiller()
    btb[0x1004] = "pre-existing"
    prefiller.on_line_filled(0x1000)
    assert btb[0x1004] == "pre-existing"
    assert counters["shadow_btb_branches_found"] == 3
    assert counters["shadow_btb_prefills"] == 2


def test_prefill_budget_respected():
    prefiller, btb, counters = make_prefiller(max_prefills_per_fill=1)
    prefiller.on_line_filled(0x1000)
    assert counters["shadow_btb_prefills"] == 1
    assert list(btb) == [0x1004]  # scan stops at the budget


def test_lines_outside_image_ignored():
    prefiller, btb, counters = make_prefiller()
    prefiller.on_line_filled(0x8000)
    assert not btb
    assert counters["shadow_btb_lines_scanned"] == 0


def test_scan_clamped_to_one_line():
    # A line covering only the tail blocks must not rediscover earlier ones.
    blocks = [
        BasicBlock(0x1000, 16, Branch(0x103C, BranchKind.JUMP, target=0x1040)),
        BasicBlock(0x1040, 16, Branch(0x107C, BranchKind.JUMP, target=0x1000)),
    ]
    prefiller, btb, _ = make_prefiller(program=Program(blocks))
    prefiller.on_line_filled(0x1040)
    assert list(btb) == [0x107C]


def test_params_validate_rejects_zero_budget():
    with pytest.raises(ConfigError):
        ShadowBTBParams(max_prefills_per_fill=0).validate()
