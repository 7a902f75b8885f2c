"""Object oracle vs compiled C kernels: byte-identity in every preset.

Style of ``tests/sim/test_fastforward.py``: the runtime-compiled C kernels
(TAGE/BTB/iBTB/cache/backend state in structure-of-arrays buffers) and the
structural fast paths that run with them (the planned fetch-window walker,
the precomputed dep-flag table, off-path all-miss windows, reduced refill
steps) must be pure wall-clock optimizations — for any (workload, preset)
pair the final cycle count and every measured counter must match the
object implementations exactly.  The object path stays in the tree
(``REPRO_NO_COMPILED`` / ``compiled=False``) precisely so it can serve as
the oracle.

Checkpoints must also be layout-neutral: a warmup blob captured in either
mode must restore into either mode and still reproduce the from-scratch
counters.
"""

import pytest

from repro.backend.core import BackendCoreC
from repro.branch.btb import BranchTargetBufferC, IndirectTargetBufferC
from repro.branch.history import GlobalHistoryC
from repro.branch.tage import TagePredictorC
from repro.branch.two_level_btb import TwoLevelBTB
from repro.common import cc
from repro.memory.cache import SetAssocCacheC
from repro.memory.hierarchy import MemoryHierarchyC
from repro.memory.stream import StreamPrefetcherC
from repro.sim import checkpoint as ckpt
from repro.sim.presets import PRESET_BUILDERS
from repro.sim.profile import build_simulator
from repro.sim.simulator import Simulator
from repro.workloads import store as program_store
from repro.workloads.data import DataAddressGeneratorC
from repro.workloads.profiles import get_profile

N = 4_000
SEED = 1

# "compiled" silently degrades to "object" on a compiler-less host, which
# keeps these identity tests runnable everywhere (they become
# object-vs-object there).
_MODES = {"object": False, "compiled": True}


def _run(workload: str, preset: str, n: int, compiled: bool):
    config = PRESET_BUILDERS[preset](n)
    simulator = build_simulator(workload, config, compiled=compiled)
    simulator.run()
    return simulator


@pytest.mark.parametrize("preset", sorted(PRESET_BUILDERS))
def test_compiled_counters_identical(preset):
    compiled = _run("gcc", preset, N, compiled=True)
    obj = _run("gcc", preset, N, compiled=False)
    assert compiled.cycle == obj.cycle
    assert compiled.measured_counters() == obj.measured_counters()


@pytest.mark.parametrize("workload", ["verilator", "xgboost"])
def test_compiled_counters_identical_stress_workloads(workload):
    # The two pathological frontends from the paper, on the preset built to
    # maximize icache-miss churn through the cache arrays.
    compiled = _run(workload, "miss-heavy", N, compiled=True)
    obj = _run(workload, "miss-heavy", N, compiled=False)
    assert compiled.cycle == obj.cycle
    assert compiled.measured_counters() == obj.measured_counters()


def test_compiled_mode_uses_c_structures_in_every_preset():
    # A structure that silently stays on its object class in compiled mode
    # still passes the identity tests above, but runs at object speed.
    if not cc.compiled_enabled():
        pytest.skip("no C compiler on this host")
    for preset, build in sorted(PRESET_BUILDERS.items()):
        sim = build_simulator("gcc", build(N), compiled=True)
        assert sim.compiled_enabled, preset
        bpu, hierarchy = sim.bpu, sim.hierarchy
        btbs = (
            [bpu.btb.l1, bpu.btb.l2]
            if isinstance(bpu.btb, TwoLevelBTB)
            else [bpu.btb]
        )
        structures = {
            "l1i": (sim.l1i, SetAssocCacheC),
            "l1d": (hierarchy.l1d, SetAssocCacheC),
            "l2": (hierarchy.l2, SetAssocCacheC),
            "llc": (hierarchy.llc, SetAssocCacheC),
            "hierarchy": (hierarchy, MemoryHierarchyC),
            "ibtb": (bpu.ibtb, IndirectTargetBufferC),
            "tage": (bpu.tage, TagePredictorC),
            "history": (bpu.history, GlobalHistoryC),
            "backend": (sim.backend, BackendCoreC),
            "data_gen": (sim.data_gen, DataAddressGeneratorC),
        }
        for level, btb in enumerate(btbs):
            structures[f"btb{level}"] = (btb, BranchTargetBufferC)
        if hierarchy.stream is not None:
            structures["stream"] = (hierarchy.stream, StreamPrefetcherC)
        for name, (obj, cls) in structures.items():
            assert isinstance(obj, cls), (preset, name, type(obj).__name__)


def test_env_var_disables_compiled(monkeypatch):
    # An explicit compiled=True does NOT override the env: compiled kernels
    # may be unavailable for external reasons (no compiler), so graceful
    # degradation is the contract throughout.
    monkeypatch.setenv("REPRO_NO_COMPILED", "1")
    config = PRESET_BUILDERS["baseline"](N)
    simulator = build_simulator("gcc", config)
    assert not simulator.compiled_enabled
    forced = build_simulator("gcc", config, compiled=True)
    assert not forced.compiled_enabled


@pytest.mark.parametrize("capture_mode", sorted(_MODES))
@pytest.mark.parametrize("restore_mode", sorted(_MODES))
def test_checkpoint_round_trips_across_modes(
    tmp_path, monkeypatch, capture_mode, restore_mode
):
    """A warmup blob is layout-neutral: any capture/restore mode combo must
    reproduce the from-scratch counters of the restoring mode."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CHECKPOINT", raising=False)
    config = PRESET_BUILDERS["udp"](N, SEED)
    prof = get_profile("gcc")
    program = program_store.program_for("gcc", SEED)

    def fresh(mode):
        return Simulator(
            program, config, data_profile=prof.data, compiled=_MODES[mode]
        )

    donor = fresh(capture_mode)
    donor.functional_warmup(config.functional_warmup_blocks)
    blob = ckpt.capture_warmup(donor)

    restored = fresh(restore_mode)
    ckpt.restore_warmup(restored, blob)
    restored.run()

    scratch = fresh(restore_mode)
    scratch.functional_warmup(config.functional_warmup_blocks)
    scratch.run()

    assert restored.cycle == scratch.cycle
    assert restored.measured_counters() == scratch.measured_counters()


@pytest.mark.parametrize("capture_mode", sorted(_MODES))
@pytest.mark.parametrize("restore_mode", sorted(_MODES))
def test_warm_fastforward_checkpoints_cross_modes(
    tmp_path, monkeypatch, capture_mode, restore_mode
):
    """Schema-3 state — the data caches filled by the warming replay, the
    stream prefetcher table, and the data generator's occurrence counters —
    survives any capture/restore mode combo just like warmup state does."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CHECKPOINT", raising=False)
    config = PRESET_BUILDERS["udp"](N, SEED).with_sampling(4, 500, 250)
    prof = get_profile("gcc")
    program = program_store.program_for("gcc", SEED)

    def fresh(mode):
        return Simulator(
            program, config, data_profile=prof.data, compiled=_MODES[mode]
        )

    donor = fresh(capture_mode)
    donor.functional_warmup(config.functional_warmup_blocks)
    target = donor.oracle.instrs_walked + 600
    donor.fast_forward_to(target, warm=True)
    assert donor.data_gen.occurrences_dict()
    blob = ckpt.capture_warmup(donor)

    restored = fresh(restore_mode)
    ckpt.restore_warmup(restored, blob)

    scratch = fresh(restore_mode)
    scratch.functional_warmup(config.functional_warmup_blocks)
    scratch.fast_forward_to(target, warm=True)

    # The warming-mutated state restores layout-neutrally...
    assert (
        restored.data_gen.occurrences_dict()
        == scratch.data_gen.occurrences_dict()
    )
    assert (
        restored.hierarchy.l1d.state_lines()
        == scratch.hierarchy.l1d.state_lines()
    )
    assert (restored.hierarchy.stream is None) == (
        scratch.hierarchy.stream is None
    )
    if restored.hierarchy.stream is not None:
        assert (
            restored.hierarchy.stream.state_dict()
            == scratch.hierarchy.stream.state_dict()
        )
    # ...and the measured region proceeds byte-identically.
    restored.run()
    scratch.run()
    assert restored.cycle == scratch.cycle
    assert restored.measured_counters() == scratch.measured_counters()
