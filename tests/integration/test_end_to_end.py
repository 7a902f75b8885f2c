"""End-to-end invariants over full simulations of suite workloads."""

import pytest

from repro.sim.engine import run_batch, spec_for
from repro.sim.presets import baseline_config, perfect_icache_config, udp_config

INSTRUCTIONS = 5_000
WORKLOADS = ["mysql", "xgboost", "verilator"]


def run_each(build, label):
    """One batch running ``build(INSTRUCTIONS)`` on every workload."""
    specs = [spec_for(name, build(INSTRUCTIONS), label=label) for name in WORKLOADS]
    return dict(zip(WORKLOADS, run_batch(specs)))


@pytest.fixture(scope="module")
def results():
    return run_each(baseline_config, "baseline")


@pytest.mark.parametrize("name", WORKLOADS)
def test_reaches_instruction_target(results, name):
    assert results[name].retired >= INSTRUCTIONS


@pytest.mark.parametrize("name", WORKLOADS)
def test_no_wrong_path_retirement(results, name):
    assert results[name]["wrong_path_retired"] == 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_ipc_in_plausible_band(results, name):
    assert 0.05 < results[name].ipc < 6.0


@pytest.mark.parametrize("name", WORKLOADS)
def test_ratios_in_unit_interval(results, name):
    r = results[name]
    assert 0.0 <= r.utility <= 1.0
    assert 0.0 <= r.timeliness <= 1.0
    assert 0.0 <= r.on_path_ratio <= 1.0
    assert 0.0 <= r.btb_gen_hit_rate <= 1.0


@pytest.mark.parametrize("name", WORKLOADS)
def test_prefetch_accounting_consistent(results, name):
    r = results[name]
    emitted = r["prefetches_emitted"]
    assert r["prefetches_emitted_on_path"] + r["prefetches_emitted_off_path"] == emitted
    # Useful + useless outcomes can never exceed emissions (some are still
    # resident/unresolved at the end of the run).
    assert r["prefetch_useful"] + r["prefetch_useless"] <= emitted
    assert r["prefetch_useful_on_path"] + r["prefetch_useful_off_path"] == r["prefetch_useful"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_resteer_accounting_consistent(results, name):
    r = results[name]
    by_cause = (
        r["resteer_cond_mispredict"]
        + r["resteer_btb_miss"]
        + r["resteer_indirect_mispredict"]
        + r["resteer_ras_mispredict"]
    )
    assert by_cause == r["resteers"]
    assert r["resteer_at_decode"] + r["resteer_at_execute"] == r["resteers"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_demand_access_accounting(results, name):
    r = results[name]
    accesses = r["icache_demand_accesses"]
    assert (
        r["icache_demand_hits"]
        + r["icache_demand_mshr_merges"]
        + r["icache_demand_misses"]
        + r["icache_mshr_full_stalls"]
        == accesses
    )


def test_perfect_icache_beats_baseline(results):
    for name, perfect in run_each(perfect_icache_config, "perfect").items():
        assert perfect.ipc >= results[name].ipc * 0.97
        assert perfect.icache_mpki == 0.0


def test_udp_stays_within_sane_band(results):
    for name, udp in run_each(udp_config, "udp").items():
        assert udp.ipc > results[name].ipc * 0.7, f"UDP collapsed on {name}"


def test_xgboost_is_most_frontend_bound(results):
    mpki = {name: results[name].icache_mpki for name in WORKLOADS}
    assert mpki["xgboost"] == max(mpki.values())


def test_verilator_runs_ahead(results):
    assert results["verilator"].avg_ftq_occupancy > 4
