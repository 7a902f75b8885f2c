"""Walker edge cases: wrapping, UDP tagging, indirect/RAS divergences."""

from repro.branch.unit import BranchPredictionUnit
from repro.common.config import BranchConfig, FrontendConfig, UDPConfig
from repro.common.counters import Counters
from repro.core.confidence import ConfidenceEstimator
from repro.frontend.bpu import DecoupledFrontend
from repro.frontend.ftq import FetchTargetQueue
from repro.workloads import micro
from repro.workloads.behavior import RotatingTargets
from repro.workloads.builder import ProgramBuilder
from repro.workloads.oracle import OracleCursor
from repro.workloads.program import BranchKind


def make_frontend(program, warm_btb=True, estimator=None, ftq_depth=16):
    bpu = BranchPredictionUnit(BranchConfig())
    ftq = FetchTargetQueue(ftq_depth, 128)
    frontend = DecoupledFrontend(
        program, bpu, ftq, OracleCursor(program),
        FrontendConfig(ftq_depth=ftq_depth), Counters(),
        path_estimator=estimator,
    )
    if warm_btb:
        for block in program.blocks:
            branch = block.branch
            if branch is None:
                continue
            if branch.kind.is_indirect:
                bpu.train_indirect(branch.pc, branch.targets[0], branch.kind)
            else:
                target = 0 if branch.kind == BranchKind.RET else branch.target
                bpu.fill_btb(branch.pc, branch.kind, target)
    return frontend


def drain(frontend, blocks):
    entries = []
    while len(entries) < blocks:
        produced = frontend.generate()
        entries.extend(produced)
        while len(frontend.ftq):
            frontend.ftq.pop()
    return entries


def test_generation_respects_ftq_space():
    program = micro.straight_loop()
    frontend = make_frontend(program, ftq_depth=3)
    frontend.generate()
    frontend.generate()
    assert len(frontend.ftq) == 3  # capped at the logical depth
    assert frontend.counters["ftq_full_cycles_blocks"] > 0


def test_code_end_wrap_produces_valid_entries():
    """A program whose last block is walked past sequentially must wrap
    without producing inverted entries (regression test for the lost-resteer
    deadlock)."""
    b = ProgramBuilder(base=0x1_0000)
    head = b.label("head")
    b.place(head)
    b.set_entry()
    b.block(6)
    # A rarely-taken branch at the very end: undetected fall-through walks
    # off code_end.
    from repro.workloads.behavior import BiasedBehavior

    b.cond_branch(2, target=head, behavior=BiasedBehavior(3, 0.9))
    program = b.finish()
    frontend = make_frontend(program, warm_btb=False)
    entries = drain(frontend, 40)
    for entry in entries:
        assert entry.end > entry.start
        assert entry.num_instrs > 0


def test_indirect_mispredict_diverges_at_execute():
    program = micro.rotating_switch(fanout=3)
    frontend = make_frontend(program)  # iBTB warm with target[0] only
    entries = drain(frontend, 30)
    resteers = [e.resteer for e in entries if e.resteer is not None]
    assert resteers
    assert resteers[0].cause in ("indirect_mispredict", "btb_miss")
    assert resteers[0].stage == "execute" or resteers[0].cause == "btb_miss"


def test_ras_underflow_cold_start():
    """A RET with an empty RAS predicts fall-through and diverges."""
    program = micro.call_return()
    frontend = make_frontend(program, warm_btb=True)
    # Walk straight to the RET without the call being predicted (empty RAS):
    # force the walker to start inside the function.
    func_block = next(
        b for b in program.blocks if b.branch and b.branch.kind == BranchKind.RET
    )
    frontend.spec_pc = func_block.addr
    frontend.oracle.pc = func_block.addr
    entries = drain(frontend, 6)
    resteers = [e.resteer for e in entries if e.resteer is not None]
    assert resteers
    assert resteers[0].cause == "ras_mispredict"


def test_udp_estimator_tags_entries():
    estimator = ConfidenceEstimator(UDPConfig(enabled=True, confidence_threshold=0))
    program = micro.mispredicting_loop()
    frontend = make_frontend(program, estimator=estimator)
    # Threshold 0: the first low/medium-confidence prediction flips the
    # belief; subsequently generated entries carry the off-path tag.
    entries = drain(frontend, 40)
    assert any(e.assumed_off_path for e in entries)


def test_estimator_reset_on_recovery():
    estimator = ConfidenceEstimator(UDPConfig(enabled=True, confidence_threshold=0))
    program = micro.mispredicting_loop()
    frontend = make_frontend(program, estimator=estimator)
    entries = drain(frontend, 60)
    resteer = next(e.resteer for e in entries if e.resteer is not None)
    estimator.counter = 99
    frontend.recover(resteer)
    assert estimator.counter == 0


def test_wrong_path_redirect_keeps_divergence():
    program = micro.diamond(p_taken=0.5, seed=99)
    frontend = make_frontend(program)
    entries = drain(frontend, 60)
    assert frontend.diverged or any(e.resteer for e in entries)
    if frontend.diverged:
        pending = frontend.pending_resteer
        frontend.redirect_wrong_path(program.entry)
        assert frontend.diverged
        assert frontend.pending_resteer is pending
        assert frontend.spec_pc == program.entry
