"""Idle-cycle fast-forward: equivalence with the naive stepper, plus smoke.

The fast-forward path (``Simulator._try_fast_forward`` and its port in the
compiled cycle driver) must be a pure wall-clock optimization: for any
(workload, preset) pair the final cycle count and every measured counter
must be byte-identical to stepping one cycle at a time.  These tests are
the enforcement of that contract; the naive stepper stays in the tree
(``fast_forward_enabled = False`` on an object simulator) precisely so it
can serve as the oracle.
"""

import pytest

from repro.sim.presets import PRESET_BUILDERS
from repro.sim.profile import build_simulator

N = 4_000


def _run(workload: str, preset: str, n: int, fast: bool):
    # The naive stepper runs the object structures; a fast run takes the
    # compiled cycle driver wherever the kernels build.
    config = PRESET_BUILDERS[preset](n)
    simulator = build_simulator(workload, config, compiled=None if fast else False)
    simulator.fast_forward_enabled = fast
    simulator.run()
    return simulator


@pytest.mark.parametrize("preset", sorted(PRESET_BUILDERS))
def test_fastforward_counters_identical(preset):
    fast = _run("gcc", preset, N, fast=True)
    naive = _run("gcc", preset, N, fast=False)
    assert fast.cycle == naive.cycle
    assert fast.measured_counters() == naive.measured_counters()


@pytest.mark.parametrize("workload", ["verilator", "xgboost"])
def test_fastforward_counters_identical_stress_workloads(workload):
    # The two pathological frontends from the paper, on the preset built to
    # maximize skippable stall cycles.
    fast = _run(workload, "miss-heavy", N, fast=True)
    naive = _run(workload, "miss-heavy", N, fast=False)
    assert fast.cycle == naive.cycle
    assert fast.measured_counters() == naive.measured_counters()


def test_fastforward_skips_cycles_on_miss_heavy():
    """Deterministic perf smoke: count step() bodies, not wall-clock.

    On the DRAM-bound preset the overwhelming majority of cycles are pure
    icache-miss stalls, so the fast-forward stepper must reach the retire
    target in far fewer step() invocations than there are cycles.
    """
    fast = _run("verilator", "miss-heavy", N, fast=True)
    assert fast.ff_jumps > 0
    assert fast.ff_cycles_skipped > 0
    assert fast.steps_executed + fast.ff_cycles_skipped == fast.cycle
    # The structural win: most cycles were skipped, not stepped.
    assert fast.steps_executed < fast.cycle // 2


def test_naive_stepper_steps_every_cycle():
    naive = _run("verilator", "miss-heavy", N, fast=False)
    assert naive.ff_jumps == 0
    assert naive.ff_cycles_skipped == 0
    assert naive.steps_executed == naive.cycle
