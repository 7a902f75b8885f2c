"""Every example script runs to completion (scaled down via argv/env)."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name, argv):
    old_argv = sys.argv
    sys.argv = [name] + argv
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


def test_quickstart(capsys):
    run_example("quickstart.py", ["mediawiki", "2500"])
    out = capsys.readouterr().out
    assert "UDP speedup over baseline" in out


def test_ftq_depth_exploration(capsys):
    run_example("ftq_depth_exploration.py", ["mediawiki", "2500"])
    out = capsys.readouterr().out
    assert "optimal FTQ depth" in out


def test_udp_vs_comparators(capsys):
    run_example("udp_vs_comparators.py", ["mediawiki", "2500"])
    out = capsys.readouterr().out
    assert "geomean" in out


def test_parallel_sweep(capsys, monkeypatch, tmp_path):
    # Exercise the engine example with an isolated cache and a real pool.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_JOBS", "2")
    run_example("parallel_sweep.py", ["mediawiki", "2500"])
    out = capsys.readouterr().out
    assert "cache hits" in out
    assert "batch wall-clock" in out


def test_custom_workload(capsys):
    run_example("custom_workload.py", [])
    out = capsys.readouterr().out
    assert "custom program" in out
    assert "UDP speedup" in out


def test_wrong_path_anatomy(capsys):
    run_example("wrong_path_anatomy.py", ["mediawiki", "2500"])
    out = capsys.readouterr().out
    assert "=== mediawiki" in out
    assert "off-path outcome" in out


def test_uftq_adaptation(capsys):
    run_example("uftq_adaptation.py", ["mediawiki", "2500"])
    out = capsys.readouterr().out
    assert "OPT (FTQ=" in out
    assert "UFTQ-ATR-AUR" in out


def test_phase_adaptation(capsys):
    run_example("phase_adaptation.py", ["mediawiki", "2500"])
    out = capsys.readouterr().out
    assert "mediawiki (phased)" in out
    assert "UFTQ speedup on the phased workload" in out


def test_efficiency_report(capsys):
    run_example("efficiency_report.py", ["mediawiki", "2500"])
    out = capsys.readouterr().out
    assert "=== mediawiki ===" in out
    assert "pJ/instr" in out
