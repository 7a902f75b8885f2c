"""What a fresh process loads: a serial run imports only what it simulates.

numpy serves ``repro.analysis``'s regression fit only, the process-pool
machinery a pooled batch only, and the synthesis pipeline a process that
builds a program; none of them belongs on a serial run's path.  Each check
runs in a fresh interpreter, where ``sys.modules`` starts empty.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

# Modules a serial run must not import.
OFF_PATH = (
    "numpy",
    "multiprocessing",
    "concurrent.futures",
    "repro.workloads.synth",
    "repro.analysis",
)

SERIAL_RUN = """
import json, sys
from repro.sim import presets
from repro.sim.engine import run_batch, spec_for

def config(build, n):
    return build(n).replace(functional_warmup_blocks=2000)

specs = [
    spec_for("gcc", config(presets.udp_config, 2000), 1, "udp"),
    spec_for("gcc", config(presets.udp_config, 6000).with_sampling(2, 1000, 500), 1, "sampled"),
    spec_for("gcc", config(presets.eip_config, 2000), 1, "eip"),
]
events = []
for _ in range(2):  # the second batch restores the first one's warmup checkpoints
    run_batch(specs, jobs=1, no_cache=True, progress=events.append)
print(json.dumps({
    "checkpoints": [e.checkpoint for e in events],
    "programs": [e.program_source for e in events],
    "modules": sorted(sys.modules),
}))
"""

EXPORTS = """
import importlib, json
failures = []
for package in ("repro", "repro.sim", "repro.workloads", "repro.prefetchers", "repro.analysis"):
    module = importlib.import_module(package)
    namespace = {}
    exec(f"from {package} import *", namespace)
    listed = dir(module)
    for name in module.__all__:
        try:
            getattr(module, name)
        except AttributeError as exc:
            failures.append(f"{package}.{name}: {exc}")
        if name not in namespace:
            failures.append(f"{package}.{name}: not bound by import *")
        if name not in listed:
            failures.append(f"{package}.{name}: not in dir()")
print(json.dumps(failures))
"""

CLI_RUN = """
import json, sys
from repro.cli import main
main(["run", "-w", "mediawiki", "-c", "baseline", "-n", "2000"])
print(json.dumps(sorted(sys.modules)))
"""


def _python(code: str, cache_dir: Path, compiled: bool = True) -> str:
    """Run ``code`` in a fresh interpreter; its standard output."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "REPRO_CACHE_DIR": str(cache_dir)}
    for name in ("REPRO_NO_COMPILED", "REPRO_NO_CHECKPOINT", "REPRO_JOBS"):
        env.pop(name, None)
    if not compiled:
        env["REPRO_NO_COMPILED"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "object"])
def test_serial_run_loads_only_what_it_runs(tmp_path, compiled):
    # An earlier process materializes the program, as a batch's parent
    # does for its workers; the run below hydrates it from disk.
    _python("from repro.workloads import store; store.materialize('gcc', 1)", tmp_path, compiled)
    report = json.loads(_python(SERIAL_RUN, tmp_path, compiled))
    assert "built" not in report["programs"]
    assert report["checkpoints"][3:] == ["restored"] * 3
    loaded = [name for name in OFF_PATH if name in report["modules"]]
    assert not loaded, f"a serial run imported {loaded}"


def test_lazy_packages_export_every_listed_name(tmp_path):
    assert json.loads(_python(EXPORTS, tmp_path)) == []


def test_cli_run_does_not_import_numpy(tmp_path):
    # The CLI imports the analysis package, whose regression fit is the one
    # user of numpy; a plain run resolves none of it.
    modules = json.loads(_python(CLI_RUN, tmp_path).splitlines()[-1])
    loaded = [name for name in ("numpy", "multiprocessing", "concurrent.futures") if name in modules]
    assert not loaded, f"repro run imported {loaded}"
