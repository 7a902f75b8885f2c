"""TAGE: learning, confidence, allocation."""

import pytest

from repro.branch.history import GlobalHistory, GlobalHistoryC
from repro.branch.tage import (
    CONF_HIGH,
    CONF_LOW,
    TagePredictor,
    TagePredictorC,
    _geometric_lengths,
)
from repro.common import cc
from repro.common.config import BranchConfig


def make_tage(config: BranchConfig | None = None):
    config = config or BranchConfig()
    history = GlobalHistory(
        config.tage_max_hist, TagePredictor.expected_foldings(config)
    )
    return TagePredictor(config, history), history


def run_branch(tage, history, pc, outcomes):
    """Feed a ground-truth outcome sequence; return accuracy."""
    correct = 0
    for taken in outcomes:
        prediction = tage.predict(pc)
        correct += prediction.taken == taken
        tage.update(prediction, taken)
        history.push(taken)
    return correct / len(outcomes)


def test_geometric_lengths_strictly_increasing():
    lengths = _geometric_lengths(8, 4, 256)
    assert lengths[0] == 4
    assert lengths[-1] == 256
    assert all(b > a for a, b in zip(lengths, lengths[1:]))


def test_learns_biased_branch():
    tage, history = make_tage()
    accuracy = run_branch(tage, history, 0x1000, [True] * 200)
    assert accuracy > 0.95


def test_learns_alternating_pattern():
    tage, history = make_tage()
    pattern = [True, False] * 300
    accuracy = run_branch(tage, history, 0x1000, pattern)
    assert accuracy > 0.85  # history-predictable; bimodal alone would get 50%


def test_learns_loop_exit():
    tage, history = make_tage()
    # Loop trip 5: TTTTN repeating — needs >=5 bits of history.
    outcomes = ([True] * 4 + [False]) * 100
    accuracy = run_branch(tage, history, 0x1000, outcomes)
    assert accuracy > 0.85


def test_random_branch_unlearnable():
    import random

    rng = random.Random(42)
    tage, history = make_tage()
    outcomes = [rng.random() < 0.5 for _ in range(600)]
    accuracy = run_branch(tage, history, 0x1000, outcomes)
    assert accuracy < 0.65


def test_confidence_rises_with_training():
    tage, history = make_tage()
    first = tage.predict(0x1000)
    run_branch(tage, history, 0x1000, [True] * 100)
    trained = tage.predict(0x1000)
    assert trained.confidence >= first.confidence
    assert trained.confidence == CONF_HIGH


def test_confidence_low_on_random():
    import random

    rng = random.Random(7)
    tage, history = make_tage()
    low_seen = 0
    for _ in range(400):
        taken = rng.random() < 0.5
        prediction = tage.predict(0x2000)
        low_seen += prediction.confidence == CONF_LOW
        tage.update(prediction, taken)
        history.push(taken)
    assert low_seen > 50


def test_allocation_on_mispredict():
    tage, history = make_tage()
    # Drive mispredicts; tagged tables must gain entries.
    run_branch(tage, history, 0x3000, [True, False] * 100)
    occupied = sum(
        1 for table in tage.tables for tag in table.tags if tag != 0
    )
    assert occupied > 0


def test_distinct_pcs_do_not_interfere_much():
    tage, history = make_tage()
    acc_a = run_branch(tage, history, 0x1000, [True] * 100)
    acc_b = run_branch(tage, history, 0x8000, [False] * 100)
    assert acc_a > 0.9
    assert acc_b > 0.8


def test_prediction_object_carries_tables():
    tage, _ = make_tage()
    prediction = tage.predict(0x1234)
    assert len(prediction.indices) == len(tage.tables)
    assert len(prediction.tags) == len(tage.tables)


def test_expected_foldings_two_per_table():
    config = BranchConfig()
    foldings = TagePredictor.expected_foldings(config)
    assert len(foldings) == 2 * config.tage_tables


@pytest.mark.parametrize("compiled", [False, True], ids=["object", "compiled"])
def test_load_state_rejects_table_length_mismatch(compiled):
    # A short tags/ctrs/useful list must raise rather than shrink the table.
    if compiled and cc.kernels() is None:
        pytest.skip("no C compiler on this host")
    config = BranchConfig()
    foldings = TagePredictor.expected_foldings(config)
    if compiled:
        tage = TagePredictorC(config, GlobalHistoryC(config.tage_max_hist, foldings))
    else:
        tage = TagePredictor(config, GlobalHistory(config.tage_max_hist, foldings))
    good = tage.state_dict()
    for part in range(3):
        state = dict(good, tables=list(good["tables"]))
        table = list(state["tables"][0])
        table[part] = table[part][:-1]
        state["tables"][0] = tuple(table)
        with pytest.raises(ValueError):
            tage.load_state(state)
    assert tage.state_dict()["tables"] == good["tables"]
