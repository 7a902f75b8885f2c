"""Self-test of the end-to-end benchmark at a tiny scale.

Run with ``pytest benchmarks/e2e`` from the repository root.  The runs here
use ``--scale 0.01`` and ``--seconds 1``, so they check names, correctness
bookkeeping and tracing arithmetic, not performance.
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
TINY = ["--scale", "0.01", "--seconds", "1"]


def _load(name: str, filename: str):
    spec = importlib.util.spec_from_file_location(name, HERE / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


run = _load("e2e_run", "run.py")
tracing = _load("e2e_trace", "trace.py")
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in MANIFEST[kind]}


def test_end_to_end_names_match_manifest():
    line = last_json(bench("--workload", "long-udp", "--trace", "0", *TINY))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_per_layer_names_match_manifest_on_every_workload(tmp_path):
    out = tmp_path / "traced.json"
    line = last_json(bench("--trace", "1", "--out", str(out), *TINY))
    assert line["correct"]
    names = [w["name"] for w in MANIFEST["workloads"]]
    assert sorted(line["metrics"]) == sorted(names)
    for workload in names:
        metrics = line["metrics"][workload]
        assert {k: v["unit"] for k, v in metrics.items()} == declared("per_layer")
        assert metrics["sim.simulator.steps"]["value"] > 0
        assert metrics["trace.coverage_pct"]["value"] > 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert set(report["workloads"]) == set(names)


@pytest.fixture
def bare(tmp_path) -> Path:
    """A directory holding only BENCHMARK.json and a copy of benchmarks/e2e."""
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    return tmp_path


@pytest.fixture
def checkout(bare) -> Path:
    """``bare`` plus the program's sources, so its reference.json is a copy."""
    (bare / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return bare


def reference_of(root: Path) -> Path:
    return root / "benchmarks" / "e2e" / "reference.json"


def test_tampered_reference_digest_counts_as_failed(checkout):
    reference = reference_of(checkout)
    reference.write_text(json.dumps({"seed": 1, "scale": 0.01, "workloads": {}}), encoding="utf-8")
    proc = bench("--bless", "--workload", "long-udp", *TINY, cwd=checkout)
    assert proc.returncode == 0, proc.stderr[-2000:]
    clean = last_json(bench("--workload", "long-udp", *TINY, cwd=checkout))
    assert clean["correct"] and clean["failed"] == 0

    data = json.loads(reference.read_text(encoding="utf-8"))
    (spec,) = data["workloads"]["long-udp"].values()
    spec["digest"] = "0" * 64
    reference.write_text(json.dumps(data), encoding="utf-8")
    tampered = last_json(bench("--workload", "long-udp", *TINY, cwd=checkout))
    assert not tampered["correct"]
    assert tampered["failed"] == tampered["attempted"] >= 1


def test_partial_bless_keeps_the_other_workloads(checkout):
    reference = reference_of(checkout)
    committed = json.loads(reference.read_text(encoding="utf-8"))
    assert committed["scale"] == 1.0

    # Nothing is blessed at this scale yet, so blessing one workload is refused.
    refused = bench("--bless", "--workload", "long-udp", *TINY, cwd=checkout)
    assert refused.returncode != 0
    assert json.loads(reference.read_text(encoding="utf-8")) == committed

    reference.write_text(json.dumps({**committed, "scale": 0.01}), encoding="utf-8")
    proc = bench("--bless", "--workload", "long-udp", *TINY, cwd=checkout)
    assert proc.returncode == 0, proc.stderr[-2000:]
    blessed = json.loads(reference.read_text(encoding="utf-8"))
    assert blessed["seed"] == 1 and blessed["scale"] == 0.01
    assert set(blessed["workloads"]) == set(committed["workloads"])
    for name, entries in committed["workloads"].items():
        if name != "long-udp":
            assert blessed["workloads"][name] == entries
    assert blessed["workloads"]["long-udp"].keys() == committed["workloads"]["long-udp"].keys()
    assert blessed["workloads"]["long-udp"] != committed["workloads"]["long-udp"]


def test_exits_nonzero_without_the_program(bare):
    proc = bench("--workload", "long-udp", *TINY, cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_arithmetic_on_a_synthetic_span_tree():
    # root [0, 100] { a [10, 40] { b [20, 30] }, a [50, 70] }, then leaf [100, 105]
    ticks = iter([0, 10, 20, 30, 40, 50, 70, 100, 100, 105])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap(lambda: None, "leaf", record=False)
    b = tracer.wrap(lambda: None, "b", record=True)
    a = tracer.wrap(lambda inner: inner(), "a", record=True)
    with tracer.span("root"):
        a(b)
        a(lambda: None)
    leaf()

    assert tracer.layers == {
        "root": [1, 100, 100 - 30 - 20],
        "a": [2, 30 + 20, (30 - 10) + 20],
        "b": [1, 10, 10],
        "leaf": [1, 5, 5],
    }
    assert sum(layer[2] for layer in tracer.layers.values()) == tracer.top_level_ns == 105
    spans = {s[0]: s for s in tracer.spans}
    root_id = next(s[0] for s in tracer.spans if s[1] == "root")
    b_span = next(s for s in tracer.spans if s[1] == "b")
    assert spans[b_span[4]][1] == "a" and spans[b_span[4]][4] == root_id
    assert len(tracer.spans) == 4  # the aggregated leaf keeps no span record


def _summary(values, better, bound=0.1):
    q1, median, q3 = run.quartiles(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "better": better, "bound": bound}


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ([100, 101, 99, 100, 100], [101, 100, 100, 99, 101], "higher", "unchanged"),
        ([100, 101, 99, 100, 100], [80, 81, 79, 80, 80], "higher", "worse"),
        ([100, 101, 99, 100, 100], [80, 81, 79, 80, 80], "lower", "better"),
        ([100, 140, 60, 100, 120], [100, 140, 60, 90, 110], "higher", "unresolved"),
        ([100, 140, 60, 100, 120], [150, 160, 170, 180, 190], "higher", "better"),
    ],
)
def test_compare_verdicts(a, b, better, expected):
    verdict, _, _ = run.verdict(_summary(a, better), _summary(b, better))
    assert verdict == expected
