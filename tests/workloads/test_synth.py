"""Workload synthesis: determinism, structure, per-profile characteristics."""

import pytest

from repro.workloads.oracle import run_trace, trace_statistics
from repro.workloads.profiles import SUITE, get_profile
from repro.workloads.program import BranchKind
from repro.workloads.synth import footprint_report, synthesize


@pytest.fixture(scope="module")
def mysql_program():
    return synthesize(get_profile("mysql"), seed=1)


def test_all_profiles_synthesize():
    for profile in SUITE:
        program = synthesize(profile, seed=1)
        assert program.num_blocks > 100
        assert program.footprint_bytes > 32 * 1024  # exceeds the L1I


def test_synthesis_deterministic(mysql_program):
    again = synthesize(get_profile("mysql"), seed=1)
    assert again.num_blocks == mysql_program.num_blocks
    assert again.code_end == mysql_program.code_end
    assert [b.addr for b in again.blocks[:100]] == [
        b.addr for b in mysql_program.blocks[:100]
    ]


def test_synthesis_seed_sensitivity(mysql_program):
    other = synthesize(get_profile("mysql"), seed=2)
    assert other.num_blocks != mysql_program.num_blocks or (
        [b.num_instrs for b in other.blocks[:50]]
        != [b.num_instrs for b in mysql_program.blocks[:50]]
    )


def test_profiles_generate_unrelated_programs():
    a = synthesize(get_profile("mysql"), seed=1)
    b = synthesize(get_profile("postgres"), seed=1)
    assert a.num_blocks != b.num_blocks


def test_verilator_has_largest_footprint():
    sizes = {p.name: synthesize(p, seed=1).footprint_bytes for p in SUITE}
    assert max(sizes, key=sizes.get) == "verilator"


def test_mediawiki_has_smallest_footprint():
    sizes = {p.name: synthesize(p, seed=1).footprint_bytes for p in SUITE}
    assert min(sizes, key=sizes.get) == "mediawiki"


def test_branch_kinds_present(mysql_program):
    hist = mysql_program.branch_kind_histogram()
    for kind in (BranchKind.COND, BranchKind.JUMP, BranchKind.CALL, BranchKind.RET):
        assert hist.get(kind, 0) > 0, f"no {kind.name} branches synthesized"
    assert hist.get(BranchKind.INDIRECT, 0) > 0  # switches
    assert hist.get(BranchKind.INDIRECT_CALL, 0) >= 1  # the dispatcher


def test_xgboost_is_branchiest():
    density = {}
    for name in ("xgboost", "verilator", "mysql"):
        report = footprint_report(synthesize(get_profile(name), seed=1))
        density[name] = report["branch_density"]
    assert density["xgboost"] > density["mysql"]
    assert density["xgboost"] > density["verilator"]


def test_traces_run_without_errors():
    for profile in SUITE:
        program = synthesize(profile, seed=1)
        steps = run_trace(program, 500)
        assert len(steps) == 500


def test_verilator_low_taken_noise():
    """verilator's conditionals are overwhelmingly biased (predictable)."""
    stats = trace_statistics(synthesize(get_profile("verilator"), seed=1), 3000)
    assert stats["instructions"] > 0


def test_footprint_report_keys(mysql_program):
    report = footprint_report(mysql_program)
    assert report["footprint_kib"] > 0
    assert report["blocks"] == mysql_program.num_blocks
    assert 0 < report["branch_density"] <= 1.0


def test_dispatcher_reaches_many_functions():
    """Over a long trace, the zipf dispatcher must cover many functions."""
    program = synthesize(get_profile("gcc"), seed=1)
    lines = trace_statistics(program, 6000)["unique_lines"]
    assert lines * 64 > 32 * 1024  # touched code exceeds the L1I


def test_tree_regions_in_xgboost():
    """xgboost's profile must actually synthesize decision trees."""
    program = synthesize(get_profile("xgboost"), seed=1)
    report = footprint_report(program)
    # Trees are jump-heavy (every leaf ends in a jump to the continuation).
    assert report["kind_jump"] > report["blocks"] * 0.2
