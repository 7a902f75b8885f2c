"""Command-line interface."""

import pytest

from repro.analysis import experiments
from repro.cli import build_parser, main
from repro.sim.engine import run_batch


def test_list_workloads(capsys):
    assert main(["list-workloads"]) == 0
    out = capsys.readouterr().out
    assert "xgboost" in out and "verilator" in out


def test_list_configs(capsys):
    assert main(["list-configs"]) == 0
    out = capsys.readouterr().out
    assert "baseline" in out and "udp" in out


def test_run_command(capsys):
    assert main(["run", "-w", "mediawiki", "-c", "baseline", "-n", "2500"]) == 0
    out = capsys.readouterr().out
    assert "ipc" in out
    assert "mediawiki / baseline" in out


def test_run_with_counters(capsys):
    assert main(["run", "-w", "mediawiki", "-c", "baseline", "-n", "2500",
                 "--counters"]) == 0
    out = capsys.readouterr().out
    assert "retired_instructions" in out


def test_compare_command(capsys):
    assert main([
        "compare", "-w", "mediawiki", "-c", "baseline,perfect-icache",
        "-n", "2500",
    ]) == 0
    out = capsys.readouterr().out
    assert "perfect-icache IPC" in out
    assert "%" in out


def test_techniques_list(capsys):
    assert main(["techniques", "list"]) == 0
    out = capsys.readouterr().out
    for kind in ("fdip", "eip", "mana", "shadow-btb", "sw-profile"):
        assert kind in out
    assert "btb-hooks" in out  # capability flags are rendered
    assert "storage_bytes=8192" in out  # params defaults are rendered


def test_techniques_list_tracks_registry(capsys):
    from dataclasses import dataclass

    from repro.prefetchers import registry

    @dataclass(frozen=True)
    class _P:
        pass

    registry.register(
        registry.Technique(
            name="zz-test-only",
            summary="dynamically registered",
            params_cls=_P,
            build=lambda params, program, hooks: None,
        )
    )
    try:
        assert main(["techniques", "list"]) == 0
        assert "zz-test-only" in capsys.readouterr().out
    finally:
        registry.unregister("zz-test-only")


def test_compare_prefetcher_flag(capsys):
    assert main([
        "compare", "-w", "mediawiki", "-c", "baseline",
        "--prefetcher", "mana", "--prefetcher", "shadow-btb", "-n", "2500",
    ]) == 0
    out = capsys.readouterr().out
    assert "mana IPC" in out
    assert "shadow-btb IPC" in out


def test_compare_prefetcher_unknown_kind_rejected(capsys):
    assert main([
        "compare", "-w", "mediawiki", "-c", "baseline",
        "--prefetcher", "bogus", "-n", "2500",
    ]) == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "registered kinds" in err


def test_figure_fig1(capsys):
    assert main(["figure", "fig1", "-w", "mediawiki", "-n", "2500"]) == 0
    out = capsys.readouterr().out
    assert "perfect icache" in out


def test_figure_table3(capsys):
    assert main(["figure", "table3", "-w", "mediawiki", "-n", "2500"]) == 0
    out = capsys.readouterr().out
    assert "optimal FTQ" in out


def test_figure_fig11_opt_is_the_sweep_optimum(capsys, monkeypatch):
    # fig11 runs the FTQ sweep first: its OPT column is the sweep depth with
    # the highest IPC (48 for verilator at this scale), not the FTQ-32
    # baseline.
    ran = {}

    def recording_run_batch(specs, **kwargs):
        specs = list(specs)
        results = run_batch(specs, **kwargs)
        ran.update((spec.label, (spec, result)) for spec, result in zip(specs, results))
        return results

    monkeypatch.setattr(experiments, "run_batch", recording_run_batch)
    assert main(["figure", "fig11", "-w", "verilator", "-n", "3000"]) == 0
    assert "OPT %" in capsys.readouterr().out
    sweep = {
        spec.config.frontend.ftq_depth: result
        for label, (spec, result) in ran.items()
        if label.startswith("ftq")
    }
    best = experiments.optimal_depths({"verilator": sweep})["verilator"]
    assert best != 32
    opt_spec, opt_result = ran["opt"]
    assert opt_spec.config.frontend.ftq_depth == best
    assert opt_result.ipc == sweep[best].ipc


def test_trace_command(tmp_path, capsys):
    out_file = tmp_path / "t.jsonl"
    assert main(["trace", "-w", "mediawiki", "--blocks", "100",
                 "-o", str(out_file)]) == 0
    assert out_file.exists()
    assert "wrote 100 blocks" in capsys.readouterr().out


def test_unknown_config_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "-c", "nonsense"])


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure", "fig99"])


def test_characterize_command(capsys):
    assert main(["characterize", "-w", "mediawiki", "-n", "2500"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out


def test_reuse_command(capsys):
    assert main(["reuse", "-w", "mediawiki", "--blocks", "500"]) == 0
    out = capsys.readouterr().out
    assert "32KiB L1I" in out
    assert "miss rate" in out


def test_run_with_sampling(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert main([
        "run", "-w", "mediawiki", "-c", "baseline", "-n", "4000",
        "--sample", "2", "--sample-length", "300", "--sample-warmup", "100",
    ]) == 0
    out = capsys.readouterr().out
    assert "sampled: 2 intervals x 300 instructions" in out
    assert "rel. CI95" in out


def test_compare_with_sampling(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert main([
        "compare", "-w", "mediawiki", "-c", "baseline,perfect-icache",
        "-n", "4000", "--sample", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "perfect-icache IPC" in out


def test_cache_info_human_readable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["run", "-w", "mediawiki", "-c", "baseline", "-n", "2500"]) == 0
    capsys.readouterr()
    assert main(["cache", "info"]) == 0
    out = capsys.readouterr().out
    assert "KiB" in out  # human-readable size ...
    assert "bytes)" in out  # ... next to the raw byte count
    assert "total size" in out
    assert "checkpoints" not in out


def test_progress_reports_the_warmup_walk(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert main([
        "run", "-w", "mediawiki", "-c", "baseline", "-n", "2500", "--progress",
    ]) == 0
    err = capsys.readouterr().err
    assert "mediawiki/baseline" in err and "warmup walked in" in err


def test_cache_clear_rejects_unknown_class(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    for name in ("program", "checkpoints"):
        assert main(["cache", "clear", "--class", name]) == 2
        err = capsys.readouterr().err
        assert f"unknown cache class '{name}'" in err
        assert "results, programs, all" in err


def test_cache_clear_accepts_comma_separated_classes(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["run", "-w", "mediawiki", "-c", "baseline", "-n", "2500"]) == 0
    capsys.readouterr()
    assert main(["cache", "clear", "--class", "programs,results"]) == 0
    out = capsys.readouterr().out
    assert "(results, programs)" in out


def test_report_command(tmp_path, capsys):
    out_file = tmp_path / "r.md"
    assert main([
        "report", "-o", str(out_file), "-w", "mediawiki",
        "--sweep-workloads", "mediawiki", "-n", "2000",
    ]) == 0
    assert out_file.exists()
    assert out_file.read_text().startswith("# EXPERIMENTS")
