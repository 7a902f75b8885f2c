"""FTQEntry bookkeeping."""

from repro.frontend.fetch_block import FTQEntry, SeenBranch
from repro.workloads.blocks import Branch
from repro.workloads.program import BranchKind


def test_num_instrs():
    entry = FTQEntry(seq=0, start=0x1000, end=0x1020, on_path=True)
    assert entry.num_instrs == 8


def test_line_addr():
    entry = FTQEntry(seq=0, start=0x1020, end=0x1040, on_path=True)
    assert entry.line_addr == 0x1000


def test_pc_at():
    entry = FTQEntry(seq=0, start=0x1000, end=0x1020, on_path=True)
    assert entry.pc_at(0) == 0x1000
    assert entry.pc_at(3) == 0x100C


def test_on_path_instrs_defaults_to_all():
    entry = FTQEntry(seq=0, start=0x1000, end=0x1020, on_path=True)
    assert entry.on_path_instrs == 8
    assert entry.instr_on_path(7)


def test_partial_on_path():
    entry = FTQEntry(
        seq=0, start=0x1000, end=0x1020, on_path=True, on_path_instrs=3
    )
    assert entry.instr_on_path(2)
    assert not entry.instr_on_path(3)


def test_off_path_entry():
    entry = FTQEntry(
        seq=0, start=0x1000, end=0x1020, on_path=False, on_path_instrs=0
    )
    assert not entry.instr_on_path(0)


def test_branch_at():
    branch = Branch(0x100C, BranchKind.JUMP, target=0x1000)
    seen = SeenBranch(branch, detected=True, predicted_taken=True,
                      predicted_target=0x1000)
    entry = FTQEntry(
        seq=0, start=0x1000, end=0x1010, on_path=True, branches=[seen]
    )
    assert entry.branch_at(0x100C) is seen
    assert entry.branch_at(0x1008) is None
