"""Profiling harness: stage attribution and fast-forward jump statistics."""

from repro.sim.presets import baseline_config, miss_heavy_config
from repro.sim.profile import format_report, profile_run

FAST = baseline_config(max_instructions=2_000).replace(
    functional_warmup_blocks=800
)


def test_profile_reports_fast_forward_jumps():
    config = miss_heavy_config(max_instructions=1_500).replace(
        functional_warmup_blocks=600
    )
    report = profile_run("mediawiki", config, config_name="miss-heavy")
    assert report.fast_forward
    # The stall-dominated preset must actually take jumps, and the average
    # must be consistent with the totals.
    assert report.ff_jumps > 0
    assert report.ff_cycles_skipped > 0
    assert report.avg_ff_jump_cycles == (
        report.ff_cycles_skipped / report.ff_jumps
    )
    text = format_report(report)
    assert f"{report.ff_jumps} jumps" in text
    assert "cycles/jump" in text


def test_profile_without_fast_forward_reports_zero_jumps():
    report = profile_run(
        "mediawiki", FAST, config_name="baseline", fast_forward=False
    )
    assert not report.fast_forward
    assert report.ff_jumps == 0
    assert report.avg_ff_jump_cycles == 0.0
    assert "(0 jumps, avg 0.0 cycles/jump)" in format_report(report)


def test_profile_stage_breakdown_covers_step():
    report = profile_run("mediawiki", FAST, config_name="baseline")
    assert report.retired_instructions >= FAST.max_instructions
    assert {s.name for s in report.stages} == {
        "fills", "backend", "fetch/decode", "fdip-scan", "generate",
    }
    assert report.step_overhead_seconds >= 0.0
    assert report.as_dict()["ff_jumps"] == report.ff_jumps


def test_profile_attributes_technique_callbacks_under_the_driver():
    # sw-profile is called back by the driver (the built-in comparators it
    # runs natively make no callback).
    from repro.common import cc
    from repro.sim.presets import sw_profile_config

    report = profile_run(
        "gcc", sw_profile_config(max_instructions=3_000), config_name="sw-profile"
    )
    hooks = {hook.name: hook for hook in report.hooks}
    assert hooks["on_demand_access"].calls > 0
    text = format_report(report)
    if not cc.compiled_enabled():
        assert report.driver_demand_callbacks == 0
        assert "nested inside the stages above" in text
        return
    assert report.gates["driver"] and "driver=on" in text
    assert hooks["on_demand_access"].calls == report.driver_demand_callbacks
    assert "called from the compiled cycle driver" in text
    assert f"driver callbacks: {report.driver_demand_callbacks} on_demand_access" in text
