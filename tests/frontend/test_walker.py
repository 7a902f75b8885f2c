"""The decoupled frontend walker: oracle shadowing, divergence, recovery.

These tests drive the walker directly (no fetch/backend) against micro
programs whose true paths are known by construction.
"""

from repro.branch.unit import BranchPredictionUnit
from repro.common.config import BranchConfig, FrontendConfig
from repro.common.counters import Counters
from repro.frontend.bpu import DecoupledFrontend
from repro.frontend.fetch_block import RESTEER_AT_DECODE, RESTEER_AT_EXECUTE
from repro.frontend.ftq import FetchTargetQueue
from repro.workloads import micro
from repro.workloads.oracle import OracleCursor
from repro.workloads.program import BranchKind


def make_frontend(program, ftq_depth=16, warm_btb=True):
    bpu = BranchPredictionUnit(BranchConfig())
    ftq = FetchTargetQueue(ftq_depth, 128)
    oracle = OracleCursor(program)
    frontend = DecoupledFrontend(
        program, bpu, ftq, oracle, FrontendConfig(ftq_depth=ftq_depth), Counters()
    )
    if warm_btb:
        for block in program.blocks:
            branch = block.branch
            if branch is None:
                continue
            target = 0 if branch.kind == BranchKind.RET else (
                branch.targets[0] if branch.kind.is_indirect else branch.target
            )
            bpu.fill_btb(branch.pc, branch.kind, target)
    return frontend


def drain(frontend, blocks):
    """Generate entries, popping the FTQ so generation never stalls."""
    entries = []
    while len(entries) < blocks:
        produced = frontend.generate()
        if not produced:
            while len(frontend.ftq):
                frontend.ftq.pop()
            continue
        entries.extend(produced)
        while len(frontend.ftq):
            frontend.ftq.pop()
    return entries


def test_straight_loop_stays_on_path():
    program = micro.straight_loop(body_instrs=8)
    frontend = make_frontend(program)
    entries = drain(frontend, 20)
    assert all(e.on_path for e in entries)
    assert not frontend.diverged
    assert frontend.pending_resteer is None


def test_cold_btb_taken_jump_diverges_at_decode():
    program = micro.always_taken_chain(num_hops=4)
    frontend = make_frontend(program, warm_btb=False)
    entries = drain(frontend, 6)
    resteers = [e.resteer for e in entries if e.resteer is not None]
    assert resteers, "undetected taken jump must diverge"
    first = resteers[0]
    assert first.cause == "btb_miss"
    assert first.stage == RESTEER_AT_DECODE
    assert frontend.diverged


def test_divergence_resume_pc_is_true_target():
    program = micro.always_taken_chain(num_hops=4)
    frontend = make_frontend(program, warm_btb=False)
    entries = drain(frontend, 4)
    resteer = next(e.resteer for e in entries if e.resteer is not None)
    # The true target of the first hop is the second hop's label.
    branch = program.block_at(program.entry).branch
    assert resteer.resume_pc == branch.target


def test_untrained_cond_eventually_diverges():
    # 50/50 diamond: TAGE cannot be right forever.
    program = micro.diamond(p_taken=0.5, seed=99)
    frontend = make_frontend(program)
    entries = drain(frontend, 60)
    resteers = [e.resteer for e in entries if e.resteer is not None]
    assert resteers
    assert resteers[0].cause == "cond_mispredict"
    assert resteers[0].stage == RESTEER_AT_EXECUTE


def test_recovery_returns_on_path():
    program = micro.diamond(p_taken=0.5, seed=99)
    frontend = make_frontend(program)
    entries = drain(frontend, 60)
    resteer = next(e.resteer for e in entries if e.resteer is not None)
    frontend.recover(resteer)
    assert not frontend.diverged
    assert frontend.spec_pc == resteer.resume_pc
    assert frontend.pending_resteer is None
    # After recovery the walker keeps producing on-path entries until the
    # next genuine mispredict.
    produced = frontend.generate()
    assert produced and produced[0].on_path


def test_wrong_path_entries_marked_off_path():
    program = micro.diamond(p_taken=0.5, seed=99)
    frontend = make_frontend(program)
    entries = drain(frontend, 80)
    diverge_index = next(
        i for i, e in enumerate(entries) if e.resteer is not None
    )
    after = entries[diverge_index + 1]
    assert not after.on_path
    assert after.on_path_instrs == 0


def test_undetected_not_taken_cond_no_divergence():
    # Biased never-taken conditional: BTB-cold walker falls through, which
    # matches the truth, so nothing diverges.
    program = micro.diamond(p_taken=0.0, seed=5)
    frontend = make_frontend(program, warm_btb=False)
    entries = drain(frontend, 10)
    cond_divergences = [
        e.resteer for e in entries
        if e.resteer is not None and e.resteer.kind == BranchKind.COND
    ]
    assert not cond_divergences


def test_call_return_on_path_with_warm_state():
    program = micro.call_return()
    frontend = make_frontend(program)
    entries = drain(frontend, 30)
    # The RAS is empty initially, so the very first RET may diverge; after
    # recovery everything is predictable.
    resteer = next((e.resteer for e in entries if e.resteer is not None), None)
    if resteer is not None:
        frontend.recover(resteer)
        entries = drain(frontend, 20)
        assert all(e.on_path for e in entries)


def test_entries_respect_fetch_block_alignment():
    program = micro.long_straight(num_blocks=8, block_instrs=8)
    frontend = make_frontend(program)
    entries = drain(frontend, 12)
    for e in entries:
        assert e.end - e.start <= 32
        assert (e.start // 32) == ((e.end - 1) // 32), "entry crosses a region"


def test_predicted_taken_terminates_entry():
    program = micro.always_taken_chain(num_hops=4)
    frontend = make_frontend(program, warm_btb=True)
    entries = drain(frontend, 8)
    # Entries ending in a taken jump stop right after the branch.
    for e in entries:
        for seen in e.branches:
            if seen.predicted_taken:
                assert e.end == seen.branch.pc + 4


def test_ops_payload_matches_length():
    program = micro.straight_loop(body_instrs=8)
    frontend = make_frontend(program)
    entries = drain(frontend, 5)
    for e in entries:
        assert len(e.ops) == e.num_instrs


def test_seq_numbers_monotonic():
    program = micro.straight_loop()
    frontend = make_frontend(program)
    entries = drain(frontend, 10)
    seqs = [e.seq for e in entries]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)
