"""Two-level BTB organization."""

import dataclasses

from repro.branch.btb import BranchTargetBuffer, btb_from_config
from repro.branch.two_level_btb import TwoLevelBTB
from repro.common.config import BranchConfig
from repro.workloads.program import BranchKind


def test_fill_installs_both_levels():
    btb = TwoLevelBTB(l1_entries=8, l1_assoc=2, l2_entries=64, l2_assoc=4)
    btb.fill(0x1000, BranchKind.JUMP, 0x2000)
    assert btb.l1.contains(0x1000)
    assert btb.l2.contains(0x1000)
    assert btb.probe(0x1000) is not None


def test_l2_hit_misses_then_promotes():
    btb = TwoLevelBTB(l1_entries=8, l1_assoc=2, l2_entries=64, l2_assoc=4)
    btb.l2.fill(0x1000, BranchKind.JUMP, 0x2000)  # only in L2
    assert btb.probe(0x1000) is None  # first probe misses (latency)
    assert btb.promotions == 1
    entry = btb.probe(0x1000)  # now promoted
    assert entry is not None and entry.target == 0x2000


def test_l1_capacity_pressure_backed_by_l2():
    btb = TwoLevelBTB(l1_entries=4, l1_assoc=2, l2_entries=64, l2_assoc=4)
    pcs = [0x1000 + i * 4 for i in range(16)]
    for pc in pcs:
        btb.fill(pc, BranchKind.JUMP, 0x1000)
    # L1 can hold only 4; L2 keeps everything.
    assert btb.l1.occupancy <= 4
    assert all(btb.l2.contains(pc) for pc in pcs)
    # A victimized entry comes back after one promoting miss.
    victim = next(pc for pc in pcs if not btb.l1.contains(pc))
    assert btb.probe(victim) is None
    assert btb.probe(victim) is not None


def test_contains_checks_both_levels():
    btb = TwoLevelBTB()
    btb.l2.fill(0x1000, BranchKind.RET, 0)
    assert btb.contains(0x1000)


def test_l2_coverage_metric():
    btb = TwoLevelBTB(l1_entries=4, l1_assoc=2)
    btb.l2.fill(0x1000, BranchKind.JUMP, 0x2000)
    btb.probe(0x1000)  # L1 miss, L2 hit
    btb.probe(0x9999)  # misses both
    assert 0.0 < btb.l2_coverage < 1.0


def test_config_selects_organization():
    mono = btb_from_config(BranchConfig())
    assert isinstance(mono, BranchTargetBuffer)
    two = btb_from_config(dataclasses.replace(BranchConfig(), btb_levels=2))
    assert isinstance(two, TwoLevelBTB)


def test_simulation_with_two_level_btb():
    from repro.sim.engine import run_batch, spec_for
    from repro.sim.presets import two_level_btb_config

    (result,) = run_batch(
        [spec_for("mediawiki", two_level_btb_config(3_000), label="2lvl")]
    )
    assert result.retired >= 3_000
    assert result["wrong_path_retired"] == 0
