"""Trace export/import round trip."""

import json

import pytest

from repro.workloads import micro
from repro.workloads.oracle import run_trace
from repro.workloads.tracefile import (
    read_trace,
    record_trace,
    trace_branch_mix,
    trace_working_set_curve,
)


def test_round_trip(tmp_path):
    program = micro.counted_loop(trip_count=4)
    path = tmp_path / "t.jsonl"
    instructions = record_trace(program, 50, path)
    header, records = read_trace(path)
    assert header["entry"] == program.entry
    assert len(records) == 50
    assert sum(r.num_instrs for r in records) == instructions


def test_trace_matches_oracle(tmp_path):
    program = micro.diamond(p_taken=0.3, seed=5)
    path = tmp_path / "t.jsonl"
    record_trace(program, 30, path)
    _, records = read_trace(path)
    truth = run_trace(program, 30)
    for record, t in zip(records, truth):
        assert record.addr == t.block.addr
        assert record.next_pc == t.next_pc
        assert record.taken == t.taken


def test_rejects_foreign_file(tmp_path):
    path = tmp_path / "bogus.jsonl"
    path.write_text(json.dumps({"format": "other"}) + "\n")
    with pytest.raises(ValueError):
        read_trace(path)


def test_branch_mix(tmp_path):
    program = micro.straight_loop()
    path = tmp_path / "t.jsonl"
    record_trace(program, 20, path)
    _, records = read_trace(path)
    mix = trace_branch_mix(records)
    assert mix["blocks"] == 20
    assert mix["branch_fraction"] == 1.0  # every block ends in the jump
    assert mix["taken_rate"] == 1.0
    assert mix["unique_blocks"] == 1


def test_branch_mix_empty():
    assert trace_branch_mix([])["blocks"] == 0


def test_working_set_curve(tmp_path):
    program = micro.long_straight(num_blocks=128, block_instrs=8)
    path = tmp_path / "t.jsonl"
    record_trace(program, 200, path)
    _, records = read_trace(path)
    curve = trace_working_set_curve(records, window_instrs=400)
    assert curve
    for _, unique_lines in curve:
        assert unique_lines > 0
    # The windowed working set can never exceed the program footprint.
    max_lines = (program.footprint_bytes // 64) + 2
    assert all(u <= max_lines for _, u in curve)
