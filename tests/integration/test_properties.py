"""Property-style invariants over randomized small simulations.

Rather than hand-picked scenarios, these tests sweep random seeds and
miniature profiles and assert the conservation laws any correct run must
satisfy: exact retirement targets, no wrong-path retirement, consistent
prefetch/demand accounting, bounded occupancies.
"""

import dataclasses

import pytest

from repro.common.config import SimConfig, UDPConfig, UFTQConfig
from repro.sim.simulator import Simulator
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.synth import synthesize

TINY = WorkloadProfile(
    name="tiny",
    num_functions=12,
    num_leaf_functions=6,
    regions_per_function=(3, 6),
    seed_salt=777,
)

JUMPY = dataclasses.replace(
    TINY,
    name="jumpy",
    random_branch_frac=0.5,
    w_diamond=0.6,
    w_tree=0.2,
    seed_salt=778,
)


def run_sim(profile, seed, compiled=None, **config_kwargs):
    config = SimConfig(
        max_instructions=2_500,
        functional_warmup_blocks=400,
        seed=seed,
        **config_kwargs,
    )
    sim = Simulator(synthesize(profile, seed), config, compiled=compiled)
    sim.run()
    return sim


@pytest.mark.parametrize("profile", [TINY, JUMPY], ids=["tiny", "jumpy"])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_core_invariants(profile, seed):
    sim = run_sim(profile, seed)
    c = sim.counters

    # Retirement: hit the target exactly-ish, never off-path.
    assert sim.backend.retired_instructions >= 2_500
    assert c["wrong_path_retired"] == 0

    # Demand access conservation.
    assert (
        c["icache_demand_hits"]
        + c["icache_demand_mshr_merges"]
        + c["icache_demand_misses"]
        + c["icache_mshr_full_stalls"]
        == c["icache_demand_accesses"]
    )

    # Prefetch path tags partition emissions.
    assert (
        c["prefetches_emitted_on_path"] + c["prefetches_emitted_off_path"]
        == c["prefetches_emitted"]
    )
    assert c["prefetch_useful"] + c["prefetch_useless"] <= c["prefetches_emitted"]

    # Resteer causes partition resteers.
    assert (
        c["resteer_cond_mispredict"]
        + c["resteer_btb_miss"]
        + c["resteer_indirect_mispredict"]
        + c["resteer_ras_mispredict"]
        == c["resteers"]
    )

    # The frontend never exceeds its configured depth.
    assert sim.ftq.average_occupancy <= sim.config.frontend.ftq_depth + 1e-9

    # Every divergence eventually resolves or is still uniquely pending.
    divergences = sum(
        c[f"divergence_{cause}"]
        for cause in ("cond_mispredict", "btb_miss", "indirect_mispredict",
                      "ras_mispredict")
    )
    assert divergences - c["resteers"] in (0, 1)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_udp_invariants(seed):
    sim = run_sim(JUMPY, seed, udp=UDPConfig(enabled=True))
    c = sim.counters
    assert c["wrong_path_retired"] == 0
    # Gate decisions partition off-path candidates.
    gated = c["udp_emit_off_path"] + c["udp_drop_off_path"]
    assert gated <= c["fdip_candidates"] + c["udp_superline_emits"]
    # The seniority FTQ never exceeds its capacity.
    assert len(sim.udp.seniority) <= sim.config.udp.seniority_entries


@pytest.mark.parametrize("mode", ["aur", "atr", "atr-aur"])
def test_uftq_invariants(mode):
    sim = run_sim(TINY, 1, uftq=UFTQConfig(mode=mode))
    config = sim.config.uftq
    assert config.min_depth <= sim.ftq.depth <= config.max_depth
    assert sim.backend.retired_instructions >= 2_500


@pytest.mark.parametrize("seed", [1, 2])
def test_mshr_never_leaks(seed):
    # The object structures: the MSHR file the Python stepper fills (a
    # compiled simulator keeps its MSHRs in the driver, and has no sim.mshr).
    sim = run_sim(JUMPY, seed, compiled=False)
    # Drain all outstanding fills: everything allocated must complete.
    remaining = len(sim.mshr)
    horizon = sim.cycle + sim.config.memory.dram_latency + 10
    fills = sim.mshr.pop_ready(horizon)
    assert len(fills) == remaining
    assert len(sim.mshr) == 0


@pytest.mark.parametrize("seed", [1, 2])
def test_l1i_occupancy_bounded(seed):
    sim = run_sim(TINY, seed)
    capacity = sim.config.memory.l1i.size_bytes // 64
    assert sim.l1i.occupancy <= capacity
