"""Oracle cursor semantics on handcrafted programs."""

import pytest

from repro.common.errors import SimulationError
from repro.workloads import micro
from repro.workloads.oracle import OracleCursor, run_trace, trace_statistics
from repro.workloads.program import BranchKind


def test_straight_loop_repeats_one_block():
    program = micro.straight_loop(body_instrs=8)
    steps = run_trace(program, 5)
    assert all(t.block.addr == program.entry for t in steps)
    assert all(t.taken for t in steps)


def test_counted_loop_outcomes():
    program = micro.counted_loop(trip_count=3)
    cursor = OracleCursor(program)
    taken_seq = []
    while len(taken_seq) < 6:
        t = cursor.step()
        if t.branch is not None and t.branch.kind == BranchKind.COND:
            taken_seq.append(t.taken)
    # LoopBehavior(3): taken, taken, not-taken repeating.
    assert taken_seq == [True, True, False, True, True, False]


def test_call_return_stack():
    program = micro.call_return()
    cursor = OracleCursor(program)
    # H(call F) -> F body -> F ret -> back after call.
    t1 = cursor.step()
    assert t1.branch.kind == BranchKind.CALL
    assert len(cursor.call_stack) == 1
    return_addr = cursor.call_stack[0]
    cursor.step()  # function body (falls through)
    t3 = cursor.step()  # ret
    assert t3.branch.kind == BranchKind.RET
    assert t3.next_pc == return_addr
    assert len(cursor.call_stack) == 0


def test_rotating_switch_targets():
    program = micro.rotating_switch(fanout=3)
    cursor = OracleCursor(program)
    targets = []
    for _ in range(6):
        t = cursor.step()  # switch
        targets.append(t.next_pc)
        cursor.step()  # case block jumps back
    assert targets[0] != targets[1] != targets[2]
    assert targets[:3] == targets[3:6]


def test_occurrence_counters_advance():
    program = micro.counted_loop(trip_count=4)
    cursor = OracleCursor(program)
    branch_pc = None
    for _ in range(6):
        t = cursor.step()
        if t.branch is not None and t.branch.kind == BranchKind.COND:
            branch_pc = t.branch.pc
    assert branch_pc is not None
    assert cursor.occurrence_of(branch_pc) >= 1


def test_transition_does_not_commit():
    program = micro.straight_loop()
    cursor = OracleCursor(program)
    pc_before = cursor.pc
    cursor.transition()
    assert cursor.pc == pc_before
    assert cursor.blocks_walked == 0


def test_mid_block_pc_raises():
    program = micro.straight_loop(body_instrs=8)
    cursor = OracleCursor(program)
    cursor.pc = program.entry + 4
    with pytest.raises(SimulationError):
        cursor.current_block()


def test_instrs_walked_accumulates():
    program = micro.straight_loop(body_instrs=8)
    cursor = OracleCursor(program)
    for _ in range(3):
        cursor.step()
    assert cursor.instrs_walked == 24
    assert cursor.blocks_walked == 3


def test_call_stack_bounded():
    program = micro.call_return()
    cursor = OracleCursor(program, max_stack=2)
    # Force-push beyond the bound via repeated call transitions.
    for _ in range(12):
        cursor.step()
    assert len(cursor.call_stack) <= 2


def test_run_trace_length():
    program = micro.diamond()
    assert len(run_trace(program, 17)) == 17


def test_trace_statistics_fields():
    program = micro.diamond(p_taken=0.5, seed=3)
    stats = trace_statistics(program, 200)
    assert stats["instructions"] > 0
    assert 0.0 <= stats["taken_rate"] <= 1.0
    assert stats["unique_lines"] >= 1
    assert stats["avg_block_instrs"] > 0


def test_diamond_both_arms_visited():
    program = micro.diamond(p_taken=0.5, seed=3)
    cursor = OracleCursor(program)
    next_pcs = set()
    for _ in range(40):
        t = cursor.step()
        if t.branch is not None and t.branch.kind == BranchKind.COND:
            next_pcs.add(t.next_pc)
    assert len(next_pcs) == 2  # both then- and else-side reached
