"""The compiled simulator's frontend: the scalars the cycle driver syncs.

A compiled simulator keeps its pipeline contents in the driver, so its
``ftq``, ``frontend`` and ``fdip`` hold only what the driver writes back
(:mod:`repro.frontend.compiled`), and it has no MSHR file.  The object
twins keep the same names, and both sides register the walker's and
FDIP's counter slots in the same order, which checkpoints and results
record.
"""

import pytest

from repro.common import cc
from repro.frontend.compiled import FDIP_COUNTERS, WALKER_COUNTERS, FetchTargetQueueC
from repro.frontend.ftq import FetchTargetQueue
from repro.sim import presets
from repro.sim.simulator import Simulator
from repro.workloads import micro

needs_compiler = pytest.mark.skipif(
    not cc.compiled_enabled(), reason="no C compiler on this host"
)


@pytest.mark.parametrize("cls", [FetchTargetQueueC, FetchTargetQueue])
def test_ftq_depth_is_clamped_to_the_physical_size(cls):
    ftq = cls(depth=100, max_physical=48)
    assert ftq.depth == 48
    ftq.depth = 0
    assert ftq.depth == 1
    ftq.depth = 20
    assert ftq.depth == 20
    assert ftq.average_occupancy == 0.0
    ftq.occupancy_sum, ftq.occupancy_samples = 30, 4
    assert ftq.average_occupancy == 7.5


@needs_compiler
def test_compiled_simulator_holds_only_the_synced_scalars():
    sim = Simulator(micro.straight_loop(), presets.udp_config(2_000), compiled=True)
    sim.run()
    assert type(sim.ftq) is FetchTargetQueueC
    assert sim.ftq.occupancy_samples > 0 and sim.frontend.next_seq > 0
    assert sim.fdip.enabled and sim.fdip.next_scan_seq > 0
    # Pipeline state the driver never writes back does not exist here.
    for owner, name in (
        (sim, "mshr"),
        (sim.ftq, "head"),
        (sim.frontend, "generate"),
        (sim.frontend, "pending_resteer"),
        (sim.fdip, "scan"),
    ):
        with pytest.raises(AttributeError):
            getattr(owner, name)


@pytest.mark.parametrize(
    "compiled",
    [pytest.param(True, marks=needs_compiler), False],
    ids=["compiled", "object"],
)
def test_walker_and_fdip_counter_slots_keep_their_order(compiled):
    sim = Simulator(micro.straight_loop(), presets.udp_config(2_000), compiled=compiled)
    names = [*WALKER_COUNTERS, *FDIP_COUNTERS]
    slots = list(sim.counters.state())
    assert [name for name in slots if name in names] == names
    if compiled:  # nothing built before them registers a counter
        assert slots[: len(names)] == names
