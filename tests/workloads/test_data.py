"""Data-address stream generation."""

from repro.workloads.data import DataAddressGenerator
from repro.workloads.profiles import DataProfile


def test_classification_deterministic():
    gen = DataAddressGenerator(DataProfile(), seed=1)
    assert gen.classify(0x1000) == gen.classify(0x1000)


def test_class_mix_roughly_matches_profile():
    profile = DataProfile(stack_frac=0.5, stream_frac=0.3)
    gen = DataAddressGenerator(profile, seed=1)
    classes = [gen.classify(0x1000 + 4 * i) for i in range(4000)]
    stack = classes.count("stack") / len(classes)
    stream = classes.count("stream") / len(classes)
    assert 0.46 < stack < 0.54
    assert 0.26 < stream < 0.34


def test_stack_addresses_stay_in_small_region():
    gen = DataAddressGenerator(DataProfile(stack_frac=1.0, stream_frac=0.0), seed=1)
    addrs = [gen.next_address(0x1000 + 4 * i) for i in range(200)]
    assert max(addrs) - min(addrs) < 64 * 1024


def test_stream_addresses_stride():
    gen = DataAddressGenerator(DataProfile(stack_frac=0.0, stream_frac=1.0), seed=1)
    pc = 0x2000
    addrs = [gen.next_address(pc) for _ in range(10)]
    deltas = {b - a for a, b in zip(addrs, addrs[1:])}
    assert deltas == {64}  # fixed stride per PC


def test_random_addresses_spread():
    profile = DataProfile(stack_frac=0.0, stream_frac=0.0, data_footprint_bytes=1 << 24)
    gen = DataAddressGenerator(profile, seed=1)
    addrs = {gen.next_address(0x3000) for _ in range(100)}
    assert len(addrs) > 90  # nearly all distinct


def test_reset_restarts_occurrences():
    gen = DataAddressGenerator(DataProfile(stack_frac=0.0, stream_frac=1.0), seed=1)
    first = gen.next_address(0x4000)
    gen.next_address(0x4000)
    gen.reset()
    assert gen.next_address(0x4000) == first


def test_different_seeds_differ():
    a = DataAddressGenerator(DataProfile(), seed=1)
    b = DataAddressGenerator(DataProfile(), seed=2)
    addrs_a = [a.next_address(0x5000 + 8 * i) for i in range(50)]
    addrs_b = [b.next_address(0x5000 + 8 * i) for i in range(50)]
    assert addrs_a != addrs_b


def test_compiled_occurrence_array_spans_the_code_region():
    # One counter per instruction from code_start on: nothing below it.
    # The round trips through it stay byte-identical to the object
    # generator (tests/sim/test_modes.py's fast-forward checkpoints,
    # tests/sim/test_sampling.py's hand-offs and chained walks).
    import pytest

    from repro.common import cc
    from repro.sim.presets import baseline_config
    from repro.sim.profile import build_simulator

    if cc.kernels() is None:
        pytest.skip("no C compiler on this host")
    for workload in ("verilator", "clang"):
        sim = build_simulator(workload, baseline_config(1_000), compiled=True)
        program = sim.program
        assert program.code_start > 0
        assert len(sim.data_gen._occ_arr) == (program.code_end - program.code_start) >> 2
        sim.fast_forward_to(20_000)
        pcs = memoryview(sim.data_gen.state()["pcs"]).cast("q").tolist()
        assert pcs and all(program.code_start <= pc < program.code_end for pc in pcs)
