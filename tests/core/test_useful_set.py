"""The UDP useful-set: granularities, flush policy, infinite mode."""

from repro.common.config import SimConfig, UDPConfig
from repro.core.useful_set import UsefulSet
from repro.sim.simulator import Simulator
from repro.sim.stepper import _useful_set_holds
from repro.workloads import micro

L = 64


def make_set(**overrides):
    return UsefulSet(UDPConfig(enabled=True, **overrides))


def fill_through_coalescer(useful_set, lines):
    """Insert lines plus enough padding to force them out of the buffer."""
    for line in lines:
        useful_set.insert(line)
    for i in range(20):
        useful_set.insert((10_000 + 100 * i) * L)


def test_learned_line_queryable():
    s = make_set()
    fill_through_coalescer(s, [42 * L])
    assert s.contains(42 * L)
    assert 42 * L in s.query(42 * L)


def test_unknown_line_misses():
    s = make_set()
    assert s.query(7 * L) == []
    assert not s.contains(7 * L)


def test_superline_query_licenses_whole_block():
    s = make_set()
    fill_through_coalescer(s, [4 * L, 5 * L, 6 * L, 7 * L])
    lines = s.query(5 * L)
    # The 4-block [4..7] was coalesced: a query on any member returns all.
    assert set(lines) >= {4 * L, 5 * L, 6 * L, 7 * L}
    # The demanded line is returned first.
    assert lines[0] == 5 * L


def test_pair_query():
    s = make_set()
    fill_through_coalescer(s, [8 * L, 9 * L])
    assert set(s.query(8 * L)) >= {8 * L, 9 * L}


def test_superlines_disabled_stores_singles():
    s = make_set(use_superlines=False)
    fill_through_coalescer(s, [4 * L, 5 * L, 6 * L, 7 * L])
    assert s.filters[4].inserted == 0
    assert s.filters[2].inserted == 0
    assert s.query(4 * L)


def test_infinite_storage_exact():
    s = make_set(infinite_storage=True)
    s.insert(3 * L)  # no coalescing delay in infinite mode
    assert s.query(3 * L) == [3 * L]
    assert s.query(4 * L) == []


def test_flush_policy_requires_full_and_unuseful():
    s = make_set()
    fill_through_coalescer(s, [i * 1000 * L for i in range(5)])
    inserted_before = s.filters[1].inserted
    # Useful outcomes: no flush even over many windows.
    for _ in range(600):
        s.on_prefetch_outcome(useful=True)
    assert s.filters[1].inserted == inserted_before


def test_flush_clears_full_filter_on_unuseful_window():
    s = make_set()
    bloom = s.filters[1]
    bloom.inserted = bloom.capacity  # force "full"
    bloom.insert(5 * L)
    for _ in range(300):
        s.on_prefetch_outcome(useful=False)
    assert bloom.inserted == 0
    assert not bloom.contains(5 * L)


def test_partial_filters_survive_flush():
    s = make_set()
    s.filters[1].inserted = s.filters[1].capacity  # only the 1-filter is full
    s.filters[2].insert(8 * L)
    for _ in range(300):
        s.on_prefetch_outcome(useful=False)
    assert s.filters[2].contains(8 * L)  # not full, not flushed


def test_storage_budget():
    s = make_set()
    assert s.storage_bits == 16 * 1024 + 1024 + 1024
    assert s.storage_bits / 8 <= 8 * 1024


def test_query_ignores_buffered_lines_but_fast_forward_dedupe_sees_them():
    """``query`` (the FDIP gate) probes only the Bloom filters; the
    fast-forward dedupe (``repro.sim.stepper._useful_set_holds``) also
    counts the lines still waiting in the coalescing buffer."""
    config = SimConfig(udp=UDPConfig(enabled=True))
    sim = Simulator(micro.straight_loop(), config, compiled=False)
    s = sim.udp.useful_set
    s.insert(42 * L)
    assert 42 * L in s.coalescer._lines
    assert s.query(42 * L) == []
    assert _useful_set_holds(sim, 42 * L)
    fill_through_coalescer(s, [])
    assert 42 * L not in s.coalescer._lines
    assert s.query(42 * L) == [42 * L]
    assert _useful_set_holds(sim, 42 * L)
