"""BTB and indirect target buffer."""

import pytest

from repro.branch.btb import (
    BranchTargetBuffer,
    BranchTargetBufferC,
    IndirectTargetBuffer,
    IndirectTargetBufferC,
)
from repro.common import cc
from repro.workloads.program import BranchKind


def test_probe_miss_then_fill_then_hit():
    btb = BranchTargetBuffer(entries=64, assoc=4)
    assert btb.probe(0x1000) is None
    btb.fill(0x1000, BranchKind.JUMP, 0x2000)
    entry = btb.probe(0x1000)
    assert entry is not None
    assert entry.kind == BranchKind.JUMP
    assert entry.target == 0x2000


def test_fill_refreshes_existing():
    btb = BranchTargetBuffer(entries=64, assoc=4)
    btb.fill(0x1000, BranchKind.JUMP, 0x2000)
    btb.fill(0x1000, BranchKind.JUMP, 0x3000)
    assert btb.probe(0x1000).target == 0x3000
    assert btb.occupancy == 1


def test_lru_eviction_within_set():
    btb = BranchTargetBuffer(entries=8, assoc=2)  # 4 sets
    set_stride = 4 * 4  # pcs mapping to the same set: step num_sets*4
    pcs = [0x1000 + i * set_stride for i in range(3)]
    btb.fill(pcs[0], BranchKind.JUMP, 1 * 4)
    btb.fill(pcs[1], BranchKind.JUMP, 2 * 4)
    btb.probe(pcs[0])  # refresh pcs[0]
    btb.fill(pcs[2], BranchKind.JUMP, 3 * 4)  # evicts pcs[1] (LRU)
    assert btb.probe(pcs[0]) is not None
    assert btb.probe(pcs[1]) is None
    assert btb.probe(pcs[2]) is not None


def test_contains_does_not_touch_stats():
    btb = BranchTargetBuffer(entries=8, assoc=2)
    btb.fill(0x1000, BranchKind.RET, 0)
    hits_before = btb.hits
    assert btb.contains(0x1000)
    assert btb.hits == hits_before


def test_hit_miss_counters():
    btb = BranchTargetBuffer(entries=8, assoc=2)
    btb.probe(0x1000)
    btb.fill(0x1000, BranchKind.CALL, 0x5000)
    btb.probe(0x1000)
    assert btb.misses == 1
    assert btb.hits == 1


def test_occupancy_bounded_by_capacity():
    btb = BranchTargetBuffer(entries=16, assoc=4)
    for i in range(100):
        btb.fill(0x1000 + i * 4, BranchKind.JUMP, 0x1000)
    assert btb.occupancy <= 16


def test_ibtb_predict_miss_then_train():
    ibtb = IndirectTargetBuffer(entries=16, assoc=4)
    assert ibtb.predict(0x1000, history=0b1010) is None
    ibtb.train(0x1000, history=0b1010, target=0x7000)
    assert ibtb.predict(0x1000, history=0b1010) == 0x7000


def test_ibtb_history_disambiguates_targets():
    ibtb = IndirectTargetBuffer(entries=64, assoc=4)
    ibtb.train(0x1000, history=0b0001, target=0x7000)
    ibtb.train(0x1000, history=0b0010, target=0x8000)
    assert ibtb.predict(0x1000, history=0b0001) == 0x7000
    assert ibtb.predict(0x1000, history=0b0010) == 0x8000


def test_ibtb_retrain_overwrites():
    ibtb = IndirectTargetBuffer(entries=16, assoc=4)
    ibtb.train(0x1000, history=0, target=0x7000)
    ibtb.train(0x1000, history=0, target=0x9000)
    assert ibtb.predict(0x1000, history=0) == 0x9000


def test_ibtb_capacity_bounded():
    ibtb = IndirectTargetBuffer(entries=8, assoc=2)
    for i in range(50):
        ibtb.train(0x1000 + 4 * i, history=i, target=0x7000)
    total = sum(len(s) for s in ibtb._sets)
    assert total <= 8


@pytest.mark.parametrize(
    "cls",
    [BranchTargetBuffer, BranchTargetBufferC, IndirectTargetBuffer, IndirectTargetBufferC],
    ids=lambda cls: cls.__name__,
)
def test_load_state_rejects_overfull_set(cls):
    # A checkpoint set with more entries than ways must not be restored:
    # the C layout would spill into the next set, the dict layout would
    # silently exceed its associativity.
    if cls in (BranchTargetBufferC, IndirectTargetBufferC) and cc.kernels() is None:
        pytest.skip("no C compiler on this host")
    buf = cls(entries=16, assoc=4)
    state = buf.state_dict()
    if issubclass(cls, BranchTargetBuffer):
        entries = [(0x1000 + 16 * i, int(BranchKind.JUMP), 0x2000) for i in range(5)]
    else:
        entries = [(0x1000 + 16 * i, 0x2000) for i in range(5)]
    state["sets"][0] = entries
    with pytest.raises(ValueError):
        buf.load_state(state)
