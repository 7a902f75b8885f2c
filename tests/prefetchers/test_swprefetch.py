"""Profile-guided software prefetching."""

from repro.prefetchers.swprefetch import (
    ProfileGuidedPrefetcher,
    build_for_program,
    profile_instruction_misses,
)
from repro.workloads import micro
from repro.workloads.synth import synthesize
from repro.workloads.profiles import get_profile


def test_profiling_finds_triggers_on_cold_code():
    program = micro.long_straight(num_blocks=2048, block_instrs=8)
    profile = profile_instruction_misses(program, num_blocks=1_500,
                                         prefetch_distance=4)
    assert profile, "a cold straight-line walk must produce miss mappings"
    for trigger, targets in profile.items():
        assert targets
        assert trigger not in targets


def test_tiny_resident_loop_needs_no_prefetching():
    program = micro.straight_loop()
    profile = profile_instruction_misses(program, num_blocks=500)
    assert profile == {}  # one line, misses once, no trigger history yet


def test_targets_bounded():
    program = synthesize(get_profile("mediawiki"), seed=1)
    profile = profile_instruction_misses(program, num_blocks=3_000,
                                         max_targets_per_trigger=2)
    assert all(len(t) <= 2 for t in profile.values())


def test_prefetcher_fires_on_trigger():
    p = ProfileGuidedPrefetcher({0x1000: [0x5000, 0x6000]})
    assert p.on_demand_access(0x1000, hit=True, on_path=True) == [0x5000, 0x6000]
    assert p.on_demand_access(0x2000, hit=True, on_path=True) == []
    assert p.triggered == 2


def test_storage_reflects_profile_size():
    p = ProfileGuidedPrefetcher({0x1000: [0x5000], 0x2000: [0x6000, 0x7000]})
    assert p.storage_bytes() == (4 + 4) + (4 + 8)
    assert p.num_triggers == 2


def test_build_for_program():
    program = synthesize(get_profile("mediawiki"), seed=1)
    p = build_for_program(program, num_blocks=3_000)
    assert isinstance(p, ProfileGuidedPrefetcher)


def test_simulation_with_sw_profile():
    from repro.sim.engine import run_batch, spec_for
    from repro.sim.presets import sw_profile_config

    config = sw_profile_config(3_000, profile_blocks=3_000)
    (result,) = run_batch([spec_for("mediawiki", config, label="sw")])
    assert result.retired >= 3_000


def test_profile_pass_runs_once_per_program_and_params(monkeypatch):
    from repro.prefetchers import swprefetch
    from repro.sim.presets import sw_profile_config
    from repro.sim.simulator import Simulator

    calls = []
    profile_pass = swprefetch.profile_instruction_misses

    def counted(*args, **kwargs):
        calls.append(1)
        return profile_pass(*args, **kwargs)

    monkeypatch.setattr(swprefetch, "profile_instruction_misses", counted)
    program = synthesize(get_profile("mediawiki"), seed=1)  # nothing memoized yet
    config = sw_profile_config(3_000, profile_blocks=3_000)
    first = Simulator(program, config)
    second = Simulator(program, config)
    assert len(calls) == 1
    assert second.prefetcher.profile is first.prefetcher.profile
    Simulator(program, sw_profile_config(3_000, profile_blocks=2_000))
    assert len(calls) == 2  # other params, another pass
