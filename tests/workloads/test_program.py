"""Static program model: validation and address mapping."""

import pytest

from repro.common.errors import ProgramError
from repro.workloads.behavior import AlwaysTaken, BiasedBehavior
from repro.workloads.blocks import BasicBlock, Branch
from repro.workloads.program import BranchKind, Program


def _block(addr, n, branch=None, ops=b""):
    return BasicBlock(addr, n, branch, ops)


def _cond(pc, target):
    return Branch(pc, BranchKind.COND, target=target, direction=BiasedBehavior(1, 0.5))


def test_simple_program_validates():
    blocks = [
        _block(0x1000, 4, Branch(0x100C, BranchKind.JUMP, target=0x1000)),
    ]
    program = Program(blocks)
    assert program.code_start == 0x1000
    assert program.code_end == 0x1010
    assert program.entry == 0x1000


def test_rejects_empty_program():
    with pytest.raises(ProgramError):
        Program([])


def test_rejects_empty_block():
    with pytest.raises(ProgramError):
        Program([_block(0x1000, 0)])


def test_rejects_gap_between_blocks():
    a = _block(0x1000, 4, Branch(0x100C, BranchKind.JUMP, target=0x1000))
    b = _block(0x1020, 4, Branch(0x102C, BranchKind.JUMP, target=0x1000))
    with pytest.raises(ProgramError):
        Program([a, b])


def test_rejects_branch_not_at_block_end():
    bad = Branch(0x1004, BranchKind.JUMP, target=0x1000)
    with pytest.raises(ProgramError):
        Program([_block(0x1000, 4, bad)])


def test_rejects_target_outside_code():
    blocks = [_block(0x1000, 4, Branch(0x100C, BranchKind.JUMP, target=0x9000))]
    with pytest.raises(ProgramError):
        Program(blocks)


def test_rejects_target_not_at_block_start():
    blocks = [
        _block(0x1000, 4, Branch(0x100C, BranchKind.JUMP, target=0x1004)),
    ]
    with pytest.raises(ProgramError):
        Program(blocks)


def test_rejects_ops_length_mismatch():
    with pytest.raises(ProgramError):
        Program([_block(0x1000, 4, None, ops=b"\x00\x00")])


def test_rejects_indirect_without_targets():
    branch = Branch(0x100C, BranchKind.INDIRECT)
    with pytest.raises(ProgramError):
        Program([_block(0x1000, 4, branch)])


def test_block_at_maps_interior_addresses():
    a = _block(0x1000, 4)
    b = _block(0x1010, 4, Branch(0x101C, BranchKind.JUMP, target=0x1000))
    program = Program([a, b])
    assert program.block_at(0x1000) is a
    assert program.block_at(0x100C) is a
    assert program.block_at(0x1010) is b
    assert program.block_at(0x101F) is b


def test_block_at_wraps_outside_code():
    a = _block(0x1000, 8, Branch(0x101C, BranchKind.JUMP, target=0x1000))
    program = Program([a])
    # One byte past the end wraps to the start.
    assert program.block_at(0x1020) is a
    assert program.wrap(0x1020) == 0x1000
    assert program.wrap(0x1024) == 0x1004


def test_branch_between():
    a = _block(0x1000, 4)
    b = _block(0x1010, 4, _cond(0x101C, 0x1000))
    program = Program([a, b])
    assert program.branch_between(0x1000, 0x1010) is None
    found = program.branch_between(0x1010, 0x1020)
    assert found is not None and found.pc == 0x101C


def test_branch_fallthrough():
    branch = _cond(0x101C, 0x1000)
    assert branch.fallthrough == 0x1020


def test_true_taken_requires_direction_for_cond():
    branch = Branch(0x100C, BranchKind.JUMP, target=0x1000)
    assert branch.true_taken(0) is True


def test_ret_true_target_raises():
    branch = Branch(0x100C, BranchKind.RET)
    with pytest.raises(ProgramError):
        branch.true_target(0)


def test_kind_properties():
    assert BranchKind.CALL.is_call
    assert BranchKind.INDIRECT_CALL.is_call
    assert BranchKind.INDIRECT.is_indirect
    assert not BranchKind.COND.is_unconditional
    assert BranchKind.RET.is_unconditional


def test_branch_kind_histogram():
    blocks = [
        _block(0x1000, 4, _cond(0x100C, 0x1000)),
        _block(0x1010, 4, Branch(0x101C, BranchKind.JUMP, target=0x1000)),
    ]
    program = Program(blocks)
    hist = program.branch_kind_histogram()
    assert hist[BranchKind.COND] == 1
    assert hist[BranchKind.JUMP] == 1


def test_footprint_and_counts():
    blocks = [
        _block(0x1000, 4),
        _block(0x1010, 4, Branch(0x101C, BranchKind.JUMP, target=0x1000)),
    ]
    program = Program(blocks)
    assert program.footprint_bytes == 0x20
    assert program.num_blocks == 2
    assert program.num_branches == 1


def test_entry_must_be_inside_code():
    blocks = [_block(0x1000, 4, Branch(0x100C, BranchKind.JUMP, target=0x1000))]
    with pytest.raises(ProgramError):
        Program(blocks, entry=0x2000)


def test_block_op_at():
    block = _block(0x1000, 3, ops=bytes([0, 1, 2]))
    assert block.op_at(0x1000) == 0
    assert block.op_at(0x1004) == 1
    assert block.op_at(0x1008) == 2


def test_block_op_at_defaults_alu_without_ops():
    block = _block(0x1000, 3)
    assert block.op_at(0x1004) == 0
