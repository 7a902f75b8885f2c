"""What a fresh process loads: a serial run imports only what it simulates.

numpy serves ``repro.analysis``'s regression fit only, the process-pool
machinery a pooled batch only, and the synthesis pipeline a process that
builds a program; none of them belongs on a serial run's path.  Nor does a
stored program's block view: the compiled driver reads the program's flat
columns, so a compiled run never builds a ``BasicBlock``, while the object
path walks the view.  A compiled run holds the structures' compiled twins,
so it imports no object structure, no behaviour class and no technique it
does not build; sampling loads with a sampled spec, and the fault injector
only when ``REPRO_FAULT`` is set.  UDP's modules load only for a run that
builds UDP, and a stored program is checked once on load, in C wherever
the kernels build.  An unsampled batch does not import the warmup state
protocol (``repro.sim.checkpoint``): every simulator walks its own
warmup.  Nor does a compiled run import the object path's code at all --
the Python stepper and walk, the object backend, the block view, the
walking oracle cursor and the Python load checks -- so it compiles only
the fast path.  A batch derives each spec's result key and
each program's store key once, and reports where it got each program.
A compiled Fig 13 batch runs the built-in comparators inside the cycle
driver: it imports none of their object modules and makes no technique
callback, and it indexes its one program's blocks once.  Each check runs
in a fresh interpreter, where ``sys.modules`` starts empty.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

# Modules a serial run must not import (the fault injector: with
# REPRO_FAULT unset, as _python leaves it).
OFF_PATH = (
    "numpy",
    "multiprocessing",
    "concurrent.futures",
    "repro.sim.pool",
    "repro.workloads.synth",
    "repro.analysis",
    "repro.common.faults",
)

# The object structures SERIAL_RUN's specs build on the object path; a
# compiled run builds their twins (repro.branch.compiled,
# repro.memory.compiled, repro.frontend.compiled, repro.backend.core)
# instead, and keeps its MSHRs in the driver.
OBJECT_TWINS = (
    "repro.branch.btb",
    "repro.branch.history",
    "repro.branch.tage",
    "repro.frontend.bpu",
    "repro.frontend.fdip",
    "repro.frontend.fetch_block",
    "repro.frontend.ftq",
    "repro.memory.cache",
    "repro.memory.hierarchy",
    "repro.memory.mshr",
    "repro.memory.stream",
    "repro.workloads.data",
)

# Nor does a compiled run import what none of its specs runs: the object
# loop predictor, the block view's behaviours, UFTQ, any technique's object
# module (the driver runs eip on its compiled twin), or the compiler's
# subprocess once the kernels are built.
COMPILED_OFF_PATH = (
    *OBJECT_TWINS,
    "repro.branch.loop_predictor",
    "repro.workloads.behavior",
    "repro.core.uftq",
    "repro.prefetchers.eip",
    "repro.prefetchers.mana",
    "repro.prefetchers.next_line",
    "repro.prefetchers.shadow_btb",
    "repro.prefetchers.swprefetch",
    "subprocess",
)

# The object path's own code, which a compiled run never imports: the
# Python stepper and walk, the object backend, the block view and its
# conversions, the oracle cursor's Python walk and the Python load checks.
ORACLE_MODULES = (
    "repro.sim.stepper",
    "repro.backend.window",
    "repro.workloads.blocks",
    "repro.workloads.oracle",
    "repro.workloads.checks",
)

# A compiled long-udp rep (benchmarks/e2e) loaded 9,058 lines of repro
# source while those modules' code sat in the ones every run imports; it
# must load at least 1,200 fewer.
FAST_PATH_LINES = 9_058 - 1_200

# UDP's modules, which only a run that builds UDP imports.
UDP_MODULES = (
    "repro.core.udp",
    "repro.core.useful_set",
    "repro.core.bloom",
    "repro.core.confidence",
    "repro.core.seniority",
    "repro.core.superline",
)

# The registry's technique modules, none of which the CLI's baseline run
# builds.
TECHNIQUE_MODULES = (
    "repro.prefetchers.eip",
    "repro.prefetchers.mana",
    "repro.prefetchers.next_line",
    "repro.prefetchers.shadow_btb",
    "repro.prefetchers.swprefetch",
)

SERIAL_RUN = """
import gc, json, sys
from repro.common import cc
from repro.sim import presets
from repro.sim.engine import run_batch, spec_for

def config(build, n):
    return build(n).replace(functional_warmup_blocks=2000)

specs = [
    spec_for("gcc", config(presets.udp_config, 2000), 1, "udp"),
    spec_for("gcc", config(presets.udp_config, 6000).with_sampling(2, 1000, 500), 1, "sampled"),
    spec_for("gcc", config(presets.eip_config, 2000), 1, "eip"),
]
unsampled = [spec for spec in specs if not spec.config.sampling.enabled]
run_batch(unsampled, jobs=1, no_cache=True)
sampling_unsampled = "repro.sim.sampling" in sys.modules
checkpoint_unsampled = "repro.sim.checkpoint" in sys.modules
events = []
for _ in range(2):  # the second batch walks every warmup again
    run_batch(specs, jobs=1, no_cache=True, progress=events.append)
# Every program of the batch stays memoized, and with it any view built
# (counted without importing the view where no run did).
blocks = sys.modules.get("repro.workloads.blocks")
print(json.dumps({
    "sampling_unsampled": sampling_unsampled,
    "checkpoint_unsampled": checkpoint_unsampled,
    "warmups": [e.warmup_seconds > 0 for e in events],
    "programs": [e.program_source for e in events],
    "modules": sorted(sys.modules),
    "driver": cc.compiled_enabled(),  # False without a C compiler, too
    "basic_blocks": blocks and sum(type(obj) is blocks.BasicBlock for obj in gc.get_objects()),
}))
"""

# A baseline and a miss-heavy spec: no UDP.  Counts the stored programs'
# load checks, in C and in Python.
NO_UDP_RUN = """
import json, sys
from repro.common import cc
from repro.sim import presets
from repro.sim.engine import run_batch, spec_for

python_checks = []
if not cc.compiled_enabled():
    # The Python checks load only where they run: count them there.
    from repro.workloads import checks

    first_failure = checks.first_failure

    def counted_first_failure(*args):
        python_checks.append(1)
        return first_failure(*args)

    checks.first_failure = counted_first_failure
specs = [
    spec_for(workload, build(2000).replace(functional_warmup_blocks=2000), 1, label)
    for workload, build, label in (
        ("gcc", presets.baseline_config, "baseline"),
        ("verilator", presets.miss_heavy_config, "miss-heavy"),
    )
]
run_batch(specs, jobs=1, no_cache=True)
print(json.dumps({
    "modules": sorted(sys.modules),
    "driver": cc.compiled_enabled(),
    "check_columns": cc.kernel_call_counts().get("check_columns", 0),
    "python_checks": len(python_checks),
}))
"""

# One long-udp-shaped spec (verilator, udp), as a benchmark rep runs it:
# how many lines of repro source the process loaded, and from how many
# modules.
LONG_UDP_RUN = """
import json, sys
from repro.common import cc
from repro.sim import presets
from repro.sim.engine import run_batch, spec_for

config = presets.udp_config(2000).replace(functional_warmup_blocks=2000)
run_batch([spec_for("verilator", config, 1, "udp")], jobs=1, no_cache=True)
lines = 0
for name, module in sys.modules.items():
    if name == "repro" or name.startswith("repro."):
        with open(module.__file__, "rb") as fh:
            lines += fh.read().count(b"\\n")
print(json.dumps({"driver": cc.compiled_enabled(), "lines": lines, "modules": sorted(sys.modules)}))
"""

# Where each program came from: twice the same two-spec batch in one
# process, whose first unit reports how the batch got the program.
PROGRAM_SOURCES = """
import json
from repro.sim import presets
from repro.sim.engine import run_batch, spec_for

config = presets.baseline_config(1000).replace(functional_warmup_blocks=200)
specs = [spec_for("mediawiki", config, 1, label) for label in ("a", "b")]
sources = []
for _ in range(2):
    events = []
    run_batch(specs, jobs=1, no_cache=True, progress=events.append)
    sources.append([e.program_source for e in events])
print(json.dumps(sources))
"""

EXPORTS = """
import importlib, json
failures = []
for package in (
    "repro", "repro.sim", "repro.workloads", "repro.prefetchers", "repro.analysis",
    "repro.branch", "repro.core", "repro.memory", "repro.frontend", "repro.backend",
):
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

# Fig 13's seven configurations on one program, cache on: each spec's
# result key is derived once for its lookup and its store, and the
# program's store key once for the whole process.
FIG13_KEYS = """
import json
from repro.sim import presets
from repro.sim.engine import ResultCache, run_batch, spec_for
from repro.workloads.store import ProgramStore

calls = {"result": 0, "program": 0}
result_key, program_key = ResultCache.key_for, ProgramStore.key_for

def counted_result_key(*args):
    calls["result"] += 1
    return result_key(*args)

def counted_program_key(*args):
    calls["program"] += 1
    return program_key(*args)

ResultCache.key_for = counted_result_key
ProgramStore.key_for = counted_program_key
builds = (
    presets.baseline_config, presets.udp_config, presets.infinite_storage_config,
    presets.bigger_icache_config, presets.eip_config, presets.mana_config,
    presets.shadow_btb_config,
)
specs = [
    spec_for("clang", build(2000).replace(functional_warmup_blocks=1000), 1, build.__name__)
    for build in builds
]
run_batch(specs, jobs=1)
print(json.dumps(calls))
"""

# The three object comparators, which a compiled run replaces with their
# twins in repro.prefetchers.compiled.
COMPARATOR_MODULES = (
    "repro.prefetchers.eip",
    "repro.prefetchers.mana",
    "repro.prefetchers.shadow_btb",
)

# Fig 13's seven configurations on one program: per spec, the technique
# kind, whether it ran natively, and the technique callbacks the driver
# made; and how often the program's blocks were indexed.
FIG13_BATCH = """
import json, sys
from repro.common import cc
from repro.sim import presets
from repro.sim.engine import run_batch, spec_for
from repro.sim.simulator import Simulator

runs = []
run = Simulator.run

def counted_run(self, *args, **kwargs):
    run(self, *args, **kwargs)
    callbacks = self.driver_demand_callbacks + self.driver_fill_callbacks
    runs.append([self.config.prefetcher.kind, self.native_technique, callbacks])

Simulator.run = counted_run
builds = (
    presets.baseline_config, presets.udp_config, presets.infinite_storage_config,
    presets.bigger_icache_config, presets.eip_config, presets.mana_config,
    presets.shadow_btb_config,
)
specs = [
    spec_for("clang", build(2000).replace(functional_warmup_blocks=1000), 1, build.__name__)
    for build in builds
]
run_batch(specs, jobs=1, no_cache=True)
print(json.dumps({
    "driver": cc.compiled_enabled(),
    "modules": sorted(sys.modules),
    "runs": runs,
    "index_blocks": cc.kernel_call_counts().get("index_blocks", 0),
}))
"""

# Every preset, each run on the path the process was started on.
EVERY_PRESET = """
import json, sys
from repro.sim import presets
from repro.sim.engine import run_batch, spec_for

specs = [
    spec_for("gcc", build(2000).replace(functional_warmup_blocks=1000), 1, name)
    for name, build in sorted(presets.PRESET_BUILDERS.items())
]
run_batch(specs, jobs=1, no_cache=True)
print(json.dumps(sorted(sys.modules)))
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
    for name in ("REPRO_NO_COMPILED", "REPRO_NO_CHECKPOINT", "REPRO_JOBS", "REPRO_FAULT"):
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
    # An earlier process builds the kernels and materializes the program,
    # as a batch's parent does for its workers; the run below loads the
    # built kernels and hydrates the program from disk.
    _python(
        "from repro.common import cc; from repro.workloads import store; "
        "cc.kernels(); store.materialize('gcc', 1)",
        tmp_path,
        compiled,
    )
    report = json.loads(_python(SERIAL_RUN, tmp_path, compiled))
    assert "built" not in report["programs"]
    assert report["warmups"] == [True] * 6
    loaded = [name for name in OFF_PATH if name in report["modules"]]
    assert not loaded, f"a serial run imported {loaded}"
    assert not report["sampling_unsampled"], "a batch with no sampled spec imported sampling"
    assert not report["checkpoint_unsampled"], (
        "a batch with no sampled spec imported the warmup state protocol"
    )
    missing = [name for name in UDP_MODULES if name not in report["modules"]]
    assert not missing, f"a udp run did not import {missing}"
    if report["driver"]:
        assert not report["basic_blocks"], "a compiled run built the block view"
        loaded = [
            name for name in (*COMPILED_OFF_PATH, *ORACLE_MODULES) if name in report["modules"]
        ]
        assert not loaded, f"a compiled serial run imported {loaded}"
    else:
        assert report["basic_blocks"] > 0, "the object path walked no block view"
        missing = [
            name for name in (*OBJECT_TWINS, *ORACLE_MODULES) if name not in report["modules"]
        ]
        assert not missing, f"the object path did not import {missing}"


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "object"])
def test_a_run_without_udp_loads_none_of_it(tmp_path, compiled):
    _python(
        "from repro.common import cc; from repro.workloads import store; "
        "cc.kernels(); store.materialize('gcc', 1); store.materialize('verilator', 1)",
        tmp_path,
        compiled,
    )
    report = json.loads(_python(NO_UDP_RUN, tmp_path, compiled))
    assert "repro.workloads.synth" not in report["modules"], "a stored program was rebuilt"
    loaded = [name for name in UDP_MODULES if name in report["modules"]]
    assert not loaded, f"a baseline and a miss-heavy run imported {loaded}"
    # Each stored program is checked once on load: in C wherever the
    # kernels build, and then never in Python.
    checks = (report["check_columns"], report["python_checks"])
    assert checks == ((2, 0) if report["driver"] else (0, 2))
    # Nor does a compiled baseline or miss-heavy run import the object path.
    oracle = [name for name in ORACLE_MODULES if name in report["modules"]]
    assert oracle == ([] if report["driver"] else list(ORACLE_MODULES))


def test_a_compiled_long_run_compiles_only_the_fast_path(tmp_path):
    _python(
        "from repro.common import cc; from repro.workloads import store; "
        "cc.kernels(); store.materialize('verilator', 1)",
        tmp_path,
    )
    report = json.loads(_python(LONG_UDP_RUN, tmp_path))
    if not report["driver"]:
        pytest.skip("the kernels do not build here: no run is compiled")
    loaded = [name for name in ORACLE_MODULES if name in report["modules"]]
    assert not loaded, f"a compiled long-udp run imported {loaded}"
    assert report["lines"] <= FAST_PATH_LINES, report["lines"]


def test_each_program_reports_where_the_batch_got_it(tmp_path):
    # A fresh cache root: the first batch synthesizes the program (and
    # stores it), the repeat finds it in the process's memo; a second
    # process hydrates it from the store.
    first = json.loads(_python(PROGRAM_SOURCES, tmp_path))
    second = json.loads(_python(PROGRAM_SOURCES, tmp_path))
    assert first == [["built", "memo"], ["memo", "memo"]]
    assert second == [["disk", "memo"], ["memo", "memo"]]


def test_a_batch_derives_each_key_once(tmp_path):
    _python("from repro.workloads import store; store.materialize('clang', 1)", tmp_path)
    calls = json.loads(_python(FIG13_KEYS, tmp_path))
    assert calls == {"result": 7, "program": 1}


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "object"])
def test_a_fig13_batch_runs_the_comparators_natively(tmp_path, compiled):
    _python("from repro.workloads import store; store.materialize('clang', 1)", tmp_path, compiled)
    report = json.loads(_python(FIG13_BATCH, tmp_path, compiled))
    kinds = [kind for kind, _, _ in report["runs"]]
    assert kinds == ["fdip"] * 4 + ["eip", "mana", "shadow-btb"]
    # The driver calls no technique back; the object path never does.
    assert [callbacks for _, _, callbacks in report["runs"]] == [0] * 7
    loaded = [name for name in COMPARATOR_MODULES if name in report["modules"]]
    if report["driver"]:
        assert [native for _, native, _ in report["runs"]] == [False] * 4 + [True] * 3
        assert not loaded, f"a compiled Fig 13 batch imported {loaded}"
        assert "repro.prefetchers.compiled" in report["modules"]
        assert report["index_blocks"] == 1, "the program's blocks were indexed more than once"
    else:
        assert not any(native for _, native, _ in report["runs"])
        assert loaded == list(COMPARATOR_MODULES)


def test_lazy_packages_export_every_listed_name(tmp_path):
    assert json.loads(_python(EXPORTS, tmp_path)) == []


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "object"])
def test_no_preset_imports_numpy(tmp_path, compiled):
    _python("from repro.workloads import store; store.materialize('gcc', 1)", tmp_path, compiled)
    modules = json.loads(_python(EVERY_PRESET, tmp_path, compiled))
    assert "numpy" not in modules, "a preset's run imported numpy"


def test_cli_run_does_not_import_numpy(tmp_path):
    # The CLI imports the analysis package, whose regression fit is the one
    # user of numpy; a plain run resolves none of it.
    modules = json.loads(_python(CLI_RUN, tmp_path).splitlines()[-1])
    off_path = ("numpy", "multiprocessing", "concurrent.futures", *TECHNIQUE_MODULES)
    loaded = [name for name in off_path if name in modules]
    assert not loaded, f"repro run imported {loaded}"
