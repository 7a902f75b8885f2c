"""Experiment harness returns well-formed structures at tiny scale."""

import pytest

from repro.analysis import experiments
from repro.sim.metrics import SimResult

TINY = dict(workloads=["mediawiki"], instructions=3_000)


@pytest.fixture(scope="module")
def tiny_sweep():
    return experiments.ftq_sweep_suite(
        ["mediawiki"], depths=[16, 32], instructions=3_000
    )


def test_fig1_structure():
    out = experiments.fig1_perfect_icache(**TINY)
    assert out["experiment"] == "fig1"
    assert "mediawiki" in out["ratios"]
    assert "table" in out and "mediawiki" in out["table"]


def test_sweep_structure(tiny_sweep):
    assert sorted(tiny_sweep["mediawiki"]) == [16, 32]


def test_fig3_normalized_to_32(tiny_sweep):
    out = experiments.fig3_ftq_sweep(tiny_sweep)
    depths = out["depths"]
    idx32 = depths.index(32)
    assert out["speedup_pct"]["mediawiki"][idx32] == pytest.approx(0.0)
    assert out["optimal_depth"]["mediawiki"] in depths


def test_fig4_fig5_fig6_ranges(tiny_sweep):
    for fn, key in (
        (experiments.fig4_timeliness, "timeliness"),
        (experiments.fig5_on_path_ratio, "on_path_ratio"),
        (experiments.fig6_usefulness, "utility"),
    ):
        out = fn(tiny_sweep)
        for values in out[key].values():
            assert all(0.0 <= v <= 1.0 for v in values)


def test_fig8_occupancy_bounded(tiny_sweep):
    out = experiments.fig8_occupancy(tiny_sweep)
    for depth, occ in zip(out["depths"], out["occupancy"]["mediawiki"]):
        assert 0.0 <= occ <= depth


def test_optimal_depths_picks_max_ipc(tiny_sweep):
    results = tiny_sweep["mediawiki"]
    best = experiments.optimal_depths(tiny_sweep)["mediawiki"]
    assert results[best].ipc == max(r.ipc for r in results.values())

    def result(retired, cycles):
        return SimResult("w", "c", counters={
            "retired_instructions": retired, "cycles": cycles,
        })

    # The smallest depth wins a tie, whatever order the sweep lists them in.
    tied = {64: result(1000, 500), 16: result(1000, 500), 32: result(900, 500)}
    assert experiments.optimal_depths({"w": tied}) == {"w": 16}


def test_table3_structure(tiny_sweep):
    out = experiments.table3_optimal_ftq(tiny_sweep)
    depth, utility, timeliness = out["optima"]["mediawiki"]
    assert depth in (16, 32)
    assert 0 <= utility <= 1 and 0 <= timeliness <= 1
    assert set(out["correlations"]) == {
        "utility_vs_optimal", "timeliness_vs_optimal"
    }


def test_fig11_structure(tiny_sweep):
    out = experiments.fig11_uftq_speedup(
        **TINY, opt_depths=experiments.optimal_depths(tiny_sweep)
    )
    assert set(out["speedups"]) == {"uftq-aur", "uftq-atr", "uftq-atr-aur", "opt"}
    assert "mediawiki" in out["speedups"]["opt"]
    fig12 = experiments.fig12_uftq_mpki(out)
    assert "mediawiki" in fig12["mpki"]


def test_fig13_structure():
    out = experiments.fig13_udp_speedup(**TINY)
    assert set(out["speedups"]) == {
        "udp", "infinite", "icache-40k", "eip-8k", "mana-8k", "shadow-btb"
    }
    fig14 = experiments.fig14_udp_mpki(out)
    fig15 = experiments.fig15_lost_instructions(out)
    assert "mediawiki" in fig14["mpki"]
    assert all(v >= 0 for v in fig15["lost_per_kinstr"]["mediawiki"].values())


def test_fig16_structure():
    out = experiments.fig16_btb_sensitivity(
        ["mediawiki"], btb_sizes=[4096, 8192], instructions=3_000
    )
    assert out["btb_sizes"] == [4096, 8192]
    assert len(out["speedup_pct"]["mediawiki"]) == 2


def test_fig17_structure():
    out = experiments.fig17_ftq_sensitivity(
        ["mediawiki"], depths=[16, 32], instructions=3_000
    )
    assert out["depths"] == [16, 32]
    assert len(out["speedup_pct"]["mediawiki"]) == 2
