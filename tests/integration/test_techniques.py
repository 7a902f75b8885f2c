"""Cross-technique integration: every preset runs and interacts sanely."""

import pytest

from repro.sim.engine import run_batch, spec_for
from repro.sim.presets import (
    PRESET_BUILDERS,
    baseline_config,
    eip_config,
    mana_config,
    shadow_btb_config,
    udp_config,
    uftq_config,
)

N = 4_000


@pytest.mark.parametrize("preset", sorted(PRESET_BUILDERS))
def test_every_preset_runs(preset):
    config = PRESET_BUILDERS[preset](N)
    (result,) = run_batch([spec_for("mediawiki", config, label=preset)])
    assert result.retired >= N
    assert result["wrong_path_retired"] == 0


def test_uftq_adapts_depth():
    (result,) = run_batch(
        [spec_for("verilator", uftq_config("aur", 12_000), label="uftq-aur")]
    )
    assert result["uftq_adjustments"] > 0


def test_uftq_atr_aur_applies_regression():
    (result,) = run_batch(
        [spec_for("gcc", uftq_config("atr-aur", 15_000), label="uftq-aa")]
    )
    # The combined controller should complete at least one full search.
    assert result["uftq_adjustments"] > 0


def test_udp_gates_and_learns():
    (result,) = run_batch([spec_for("xgboost", udp_config(10_000), label="udp")])
    assert result["udp_pass_on_path"] > 0
    assert (
        result["udp_drop_off_path"]
        + result["udp_emit_off_path"]
        + result["udp_learned_useful"]
        > 0
    )


def test_udp_composes_with_deep_ftq():
    (result,) = run_batch(
        [spec_for("xgboost", udp_config(5_000, ftq_depth=64), label="udp64")]
    )
    assert result.retired >= 5_000


def test_eip_trains_on_top_of_fdip():
    (result,) = run_batch([spec_for("gcc", eip_config(8_000), label="eip")])
    assert result.retired >= 8_000
    # FDIP remains active underneath EIP.
    assert result["fdip_candidates"] > 0


def test_mana_trains_and_replays_on_top_of_fdip():
    (result,) = run_batch([spec_for("gcc", mana_config(8_000), label="mana")])
    assert result.retired >= 8_000
    assert result["mana_records_trained"] > 0
    assert result["mana_replayed_lines"] > 0
    # FDIP remains active underneath MANA.
    assert result["fdip_candidates"] > 0


def test_shadow_btb_prefills_and_cuts_resteers():
    base, shadow = run_batch([
        spec_for("gcc", baseline_config(8_000), label="base-for-shbtb"),
        spec_for("gcc", shadow_btb_config(8_000), label="shbtb"),
    ])
    assert shadow["shadow_btb_lines_scanned"] > 0
    assert shadow["shadow_btb_prefills"] > 0
    # Predecoded shadow branches are discovered before first fetch, so the
    # frontend takes fewer BTB-miss resteers than plain FDIP.
    assert shadow["resteer_btb_miss"] < base["resteer_btb_miss"]


def test_btb_scaling_changes_behavior():
    small, large = run_batch([
        spec_for("gcc", baseline_config(5_000).with_btb_entries(512), label="btb512"),
        spec_for(
            "gcc", baseline_config(5_000).with_btb_entries(16384), label="btb16k"
        ),
    ])
    assert small["resteer_btb_miss"] > large["resteer_btb_miss"]
