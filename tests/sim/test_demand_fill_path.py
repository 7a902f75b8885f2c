"""White-box tests of the simulator's L1I demand/fill state machine.

These drive the stepper's `_demand_access` and the simulator's
`_process_fills` directly with handcrafted FTQ entries, pinning down the
utility/timeliness bookkeeping that the paper's metrics (and UFTQ/UDP
training) depend on.
"""

import pytest

from repro.common.config import SimConfig, UDPConfig
from repro.frontend.fetch_block import FTQEntry
from repro.sim.simulator import Simulator
from repro.sim.stepper import _demand_access
from repro.workloads import micro


def make_sim(**kwargs):
    # The Python stepper's state machine: the object structures.
    config = SimConfig(max_instructions=100, functional_warmup_blocks=0, **kwargs)
    return Simulator(micro.straight_loop(), config, compiled=False)


def entry(start, on_path=True, assumed_off=False, seq=0):
    return FTQEntry(seq=seq, start=start, end=start + 32, on_path=on_path,
                    assumed_off_path=assumed_off)


LINE = 0x8000  # an address outside the tiny loop's code


def test_demand_miss_allocates_and_sets_ready():
    sim = make_sim()
    e = entry(LINE)
    _demand_access(sim, e, cycle=10)
    assert sim.counters["icache_demand_misses"] == 1
    assert e.ready_cycle > 10
    assert sim.mshr.lookup(LINE) is not None


def test_fill_installs_line():
    sim = make_sim()
    e = entry(LINE)
    _demand_access(sim, e, cycle=10)
    sim._process_fills(e.ready_cycle)
    assert sim.l1i.contains(LINE)
    assert sim.counters["l1i_fills"] == 1


def test_second_demand_merges_with_inflight():
    sim = make_sim()
    a = entry(LINE, seq=0)
    b = entry(LINE, seq=1)
    _demand_access(sim, a, cycle=10)
    _demand_access(sim, b, cycle=12)
    assert sim.counters["icache_demand_mshr_merges"] == 1
    assert b.ready_cycle == a.ready_cycle


def test_demand_merge_with_prefetch_counts_untimely():
    sim = make_sim()
    latency, level = sim.hierarchy.instruction_miss_latency(LINE)
    sim.mshr.allocate(LINE, ready_cycle=200, is_prefetch=True, off_path=True)
    _demand_access(sim, entry(LINE), cycle=10)
    assert sim.counters["atr_mshr_hits"] == 1
    assert sim.counters["prefetch_useful"] == 1
    assert sim.counters["prefetch_useful_off_path"] == 1


def test_merged_prefetch_fills_without_prefetch_bit():
    sim = make_sim()
    sim.mshr.allocate(LINE, ready_cycle=200, is_prefetch=True)
    _demand_access(sim, entry(LINE), cycle=10)  # on-path merge claims it
    sim._process_fills(200)
    line = sim.l1i.lookup(LINE, touch=False)
    assert line is not None
    assert not line.prefetch_bit  # already consumed in flight


def test_timely_prefetch_hit_clears_bit_once():
    sim = make_sim()
    sim.l1i.install(LINE, prefetch=True, prefetch_off_path=True)
    _demand_access(sim, entry(LINE, seq=0), cycle=10)
    assert sim.counters["atr_icache_hits"] == 1
    assert sim.counters["prefetch_useful"] == 1
    # A second demand touch must not double-count.
    _demand_access(sim, entry(LINE, seq=1), cycle=11)
    assert sim.counters["prefetch_useful"] == 1


def test_wrong_path_demand_does_not_claim_usefulness():
    sim = make_sim()
    sim.l1i.install(LINE, prefetch=True)
    _demand_access(sim, entry(LINE, on_path=False), cycle=10)
    assert sim.counters["prefetch_useful"] == 0
    line = sim.l1i.lookup(LINE, touch=False)
    assert line.prefetch_bit  # still awaiting an on-path consumer


def test_eviction_of_unused_prefetch_counts_useless():
    sim = make_sim()
    # Fill one L1I set (64 sets x 8 ways; same set = stride 64*64 bytes).
    stride = 64 * 64
    base = 0x10_0000
    sim.l1i.install(base, prefetch=True, prefetch_off_path=True)
    for i in range(1, 9):
        sim.l1i.install(base + i * stride)
    assert sim.counters["prefetch_useless"] == 1
    assert sim.counters["prefetch_useless_off_path"] == 1


def test_udp_candidate_hit_triggers_direct_learning():
    sim = make_sim(udp=UDPConfig(enabled=True, infinite_storage=True))
    sim.l1i.install(LINE, prefetch=True, prefetch_off_path=True,
                    prefetch_udp_candidate=True)
    _demand_access(sim, entry(LINE), cycle=10)
    assert sim.counters["udp_learned_useful_direct"] == 1
    assert sim.udp.useful_set.contains(LINE)


def test_mshr_full_leaves_entry_unready():
    sim = make_sim()
    capacity = sim.mshr.capacity
    for i in range(capacity):
        sim.mshr.allocate(0x20_0000 + i * 64, 500, is_prefetch=False)
    e = entry(LINE)
    _demand_access(sim, e, cycle=10)
    assert e.ready_cycle == -1
    assert sim.counters["icache_mshr_full_stalls"] == 1
