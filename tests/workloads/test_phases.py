"""Phase-shifting workloads."""

from repro.workloads.oracle import OracleCursor
from repro.workloads.phases import make_phased_program, phase_summary
from repro.workloads.profiles import get_profile
from repro.workloads.program import BranchKind
from repro.workloads.synth import synthesize


def test_static_cfg_preserved():
    base = get_profile("mediawiki")
    original = synthesize(base, seed=1)
    phased = make_phased_program(base, seed=1)
    assert phased.num_blocks == original.num_blocks
    assert phased.code_end == original.code_end
    for a, b in zip(original.blocks, phased.blocks):
        assert a.addr == b.addr
        assert a.num_instrs == b.num_instrs
        if a.branch is not None:
            assert b.branch is not None
            assert a.branch.kind == b.branch.kind
            assert a.branch.target == b.branch.target


def test_affected_fraction_controls_wrapping():
    base = get_profile("mediawiki")
    none = make_phased_program(base, seed=1, affected_fraction=0.0)
    all_of_them = make_phased_program(base, seed=1, affected_fraction=1.0)
    assert phase_summary(none)["phased_conditionals"] == 0
    assert phase_summary(all_of_them)["plain_conditionals"] == 0


def test_phased_program_walks():
    program = make_phased_program(get_profile("mediawiki"), seed=1,
                                  phase_length=50)
    cursor = OracleCursor(program)
    for _ in range(500):
        cursor.step()
    assert cursor.blocks_walked == 500


def test_phase_changes_branch_statistics():
    """Odd phases are noisier: taken-rates of phased branches shift."""
    program = make_phased_program(
        get_profile("mediawiki"), seed=1, phase_length=100,
        unstable_p_taken=0.5, affected_fraction=1.0,
    )
    cursor = OracleCursor(program)
    outcomes = []
    while len(outcomes) < 4_000:
        t = cursor.step()
        if t.branch is not None and t.branch.kind == BranchKind.COND:
            occ = cursor.occurrence_of(t.branch.pc) - 1
            phase = (occ // 100) % 2
            outcomes.append((phase, t.taken))
    even = [taken for phase, taken in outcomes if phase == 0]
    odd = [taken for phase, taken in outcomes if phase == 1]
    if even and odd:
        even_rate = sum(even) / len(even)
        odd_rate = sum(odd) / len(odd)
        # Odd phases approach the 0.5 coin flip; even phases keep the
        # original (biased) behaviour.
        assert abs(odd_rate - 0.5) < abs(even_rate - 0.5) + 0.15
