"""Backend: dispatch/issue/retire, dependences, squash, resolution events."""

import dataclasses

from repro.backend.core import OP_BRANCH, BackendCore
from repro.common.config import CoreConfig, MemoryConfig
from repro.common.counters import Counters
from repro.frontend.fetch_block import RESTEER_AT_EXECUTE, PendingResteer
from repro.memory.hierarchy import MemoryHierarchy
from repro.workloads.data import DataAddressGenerator
from repro.workloads.profiles import DataProfile
from repro.workloads.program import OP_ALU, OP_LOAD, OP_STORE


def make_backend(**core_overrides):
    core = dataclasses.replace(CoreConfig(), **core_overrides)
    counters = Counters()
    hierarchy = MemoryHierarchy(MemoryConfig(), counters)
    data_gen = DataAddressGenerator(DataProfile(stack_frac=1.0, stream_frac=0.0), 1)
    return BackendCore(core, hierarchy, data_gen, counters)


def run_cycles(backend, start, count):
    for cycle in range(start, start + count):
        fired = backend.poll_resteer(cycle)
        backend.retire_and_issue(cycle)
    return start + count


def test_dispatch_tracks_rob_and_rs():
    backend = make_backend()
    backend.dispatch(0x1000, OP_ALU, True, cycle=1)
    assert backend.in_flight == 1
    assert len(backend.rs) == 1


def test_retire_width_bounded():
    backend = make_backend(decode_to_execute_latency=0)
    for i in range(20):
        backend.dispatch(0x1000 + 4 * i, OP_ALU, True, cycle=0)
    # Issue + complete everything.
    for cycle in range(1, 12):
        backend.retire_and_issue(cycle)
    assert backend.retired_instructions == 20
    # With retire width 6 and 4 ALUs, 20 instructions need >= 5 cycles.


def test_retired_counts_on_path_only():
    backend = make_backend(decode_to_execute_latency=0)
    backend.dispatch(0x1000, OP_ALU, True, cycle=0)
    backend.dispatch(0x1004, OP_ALU, False, cycle=0)
    for cycle in range(1, 6):
        backend.retire_and_issue(cycle)
    assert backend.retired_instructions == 1
    assert backend.retired_total == 2
    assert backend.counters["wrong_path_retired"] == 1


def test_decode_to_execute_latency_delays_issue():
    backend = make_backend(decode_to_execute_latency=5)
    backend.dispatch(0x1000, OP_ALU, True, cycle=0)
    for cycle in range(1, 5):
        backend.retire_and_issue(cycle)
    assert backend.retired_instructions == 0
    for cycle in range(5, 9):
        backend.retire_and_issue(cycle)
    assert backend.retired_instructions == 1


def test_load_latency_delays_retirement():
    backend = make_backend(decode_to_execute_latency=0)
    backend.dispatch(0x1000, OP_LOAD, True, cycle=0)
    backend.retire_and_issue(1)  # issues; completes after the miss latency
    backend.retire_and_issue(2)
    assert backend.retired_instructions == 0
    for cycle in range(3, 400):  # cold load goes to DRAM
        backend.retire_and_issue(cycle)
    assert backend.retired_instructions == 1


def test_dependent_instruction_waits_for_load():
    backend = make_backend(decode_to_execute_latency=0, load_dependence_fraction=1.0)
    load = backend.dispatch(0x1000, OP_LOAD, True, cycle=0)
    dependent = backend.dispatch(0x1004, OP_ALU, True, cycle=0)
    assert dependent.dep is load
    backend.retire_and_issue(1)
    assert load.issued
    assert not dependent.issued  # blocked on the load
    for cycle in range(2, 400):
        backend.retire_and_issue(cycle)
    assert dependent.issued
    assert dependent.complete_cycle > load.complete_cycle


def test_fu_limits_per_cycle():
    backend = make_backend(decode_to_execute_latency=0, num_alu=2)
    for i in range(6):
        backend.dispatch(0x1000 + 4 * i, OP_ALU, True, cycle=0)
    backend.retire_and_issue(1)
    issued = sum(1 for u in backend.rob if u.issued)
    assert issued == 2


def test_store_accesses_hierarchy():
    backend = make_backend(decode_to_execute_latency=0)
    backend.dispatch(0x1000, OP_STORE, True, cycle=0)
    backend.retire_and_issue(1)
    assert backend.counters["l1d_stores"] == 1


def test_resteer_event_fires_at_completion():
    backend = make_backend(decode_to_execute_latency=0)
    resteer = PendingResteer(0x1000, RESTEER_AT_EXECUTE, 0x2000, (), None, True, "test")
    backend.dispatch(0x1000, OP_BRANCH, True, cycle=0, resteer=resteer)
    assert backend.poll_resteer(1) is None
    backend.retire_and_issue(1)  # issues; completes at 2
    fired = backend.poll_resteer(2)
    assert fired is not None
    assert fired[0] is resteer


def test_squash_younger_removes_wrong_path():
    backend = make_backend(decode_to_execute_latency=0)
    branch = backend.dispatch(0x1000, OP_BRANCH, True, cycle=0)
    backend.dispatch(0x1004, OP_ALU, False, cycle=0)
    backend.dispatch(0x1008, OP_ALU, False, cycle=0)
    squashed = backend.squash_younger(branch.seq)
    assert squashed == 2
    assert backend.in_flight == 1
    for cycle in range(1, 6):
        backend.retire_and_issue(cycle)
    assert backend.retired_instructions == 1
    assert backend.counters["wrong_path_retired"] == 0


def test_squash_repairs_last_load_pointer():
    backend = make_backend(decode_to_execute_latency=0, load_dependence_fraction=1.0)
    anchor = backend.dispatch(0x1000, OP_ALU, True, cycle=0)
    backend.dispatch(0x1004, OP_LOAD, False, cycle=0)  # to be squashed
    backend.squash_younger(anchor.seq)
    follower = backend.dispatch(0x1008, OP_ALU, True, cycle=0)
    # Must not depend on the squashed load.
    assert follower.dep is None


def test_squash_clears_pending_resteer_of_younger_branch():
    backend = make_backend(decode_to_execute_latency=0)
    anchor = backend.dispatch(0x1000, OP_ALU, True, cycle=0)
    resteer = PendingResteer(0x1004, RESTEER_AT_EXECUTE, 0x2000, (), None, True, "t")
    backend.dispatch(0x1004, OP_BRANCH, False, cycle=0, resteer=resteer)
    backend.retire_and_issue(1)  # issue both; event armed for cycle 2
    backend.squash_younger(anchor.seq)
    assert backend.poll_resteer(2) is None


def test_can_dispatch_respects_rob_limit():
    backend = make_backend(rob_entries=4, rs_entries=4)
    for i in range(4):
        assert backend.can_dispatch
        backend.dispatch(0x1000 + 4 * i, OP_ALU, True, cycle=0)
    assert not backend.can_dispatch


def test_in_order_retirement():
    backend = make_backend(decode_to_execute_latency=0)
    slow = backend.dispatch(0x1000, OP_LOAD, True, cycle=0)
    fast = backend.dispatch(0x1004, OP_ALU, True, cycle=0)
    backend.retire_and_issue(1)
    backend.retire_and_issue(2)
    # The ALU op completed but must not retire before the older load.
    assert backend.retired_instructions == 0
    for cycle in range(3, 400):
        backend.retire_and_issue(cycle)
    assert backend.retired_instructions == 2


def test_dep_flags_built_once_per_program_seed_and_threshold():
    import numpy as np

    from repro.backend.core import dep_flags
    from repro.workloads import micro

    program = micro.straight_loop()
    backend = make_backend()
    threshold = backend._dep_threshold
    flags = dep_flags(program, 1, threshold)
    assert dep_flags(program, 1, threshold) is flags  # shared, not rebuilt
    assert not flags.flags.writeable
    assert dep_flags(program, 2, threshold) is not flags
    # Bit-identical to the per-PC hash the object backend evaluates.
    expected = [backend._depends_on_load(pc) for pc in range(0, program.code_end, 4)]
    assert np.array_equal(flags.astype(bool), np.array(expected))
