"""The handcrafted micro programs validate and behave as documented."""

import pytest

from repro.workloads import micro
from repro.workloads.oracle import OracleCursor
from repro.workloads.program import BranchKind


@pytest.mark.parametrize(
    "factory",
    [
        micro.straight_loop,
        micro.counted_loop.__get__ if False else (lambda: micro.counted_loop(4)),
        micro.diamond,
        lambda: micro.pattern_diamond(0b1010, 4),
        micro.call_return,
        micro.rotating_switch,
        micro.long_straight,
        micro.always_taken_chain,
        micro.mispredicting_loop,
    ],
)
def test_micro_programs_validate_and_walk(factory):
    program = factory()
    cursor = OracleCursor(program)
    for _ in range(50):
        cursor.step()
    assert cursor.blocks_walked == 50


def test_long_straight_shape():
    program = micro.long_straight(num_blocks=16, block_instrs=8)
    assert program.num_blocks == 16
    assert program.num_branches == 1  # only the final wrap-around jump


def test_always_taken_chain_hops():
    program = micro.always_taken_chain(num_hops=4)
    cursor = OracleCursor(program)
    visited = set()
    for _ in range(16):
        t = cursor.step()
        if t.branch is not None:
            visited.add(t.next_pc)
    assert len(visited) == 4


def test_pattern_diamond_follows_pattern():
    program = micro.pattern_diamond(0b0011, 4)
    cursor = OracleCursor(program)
    outcomes = []
    while len(outcomes) < 8:
        t = cursor.step()
        if t.branch is not None and t.branch.kind == BranchKind.COND:
            outcomes.append(t.taken)
    assert outcomes == [True, True, False, False] * 2


def test_diamond_entry_is_cond():
    program = micro.diamond()
    assert program.block_at(program.entry).branch.kind == BranchKind.COND
