"""Technique registry: registration rules, config round-trips, cache keys."""

import json
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, dataclass
from pathlib import Path

import pytest

from repro.common.config import SimConfig, TechniqueConfig
from repro.common.errors import ConfigError
from repro.prefetchers import registry
from repro.prefetchers.eip import EIPParams
from repro.prefetchers.mana import MANAParams
from repro.sim.engine import ResultCache, spec_for


@dataclass(frozen=True)
class _ToyParams:
    degree: int = 2

    def validate(self):
        if self.degree <= 0:
            raise ConfigError("toy degree must be positive")


def _build_toy(params, program, hooks):
    return ("toy-instance", params.degree)


@pytest.fixture
def toy_technique():
    technique = registry.register(
        registry.Technique(
            name="toy",
            summary="test-only technique",
            params_cls=_ToyParams,
            build=_build_toy,
        )
    )
    yield technique
    registry.unregister("toy")


def test_builtins_registered():
    assert set(registry.names()) >= {
        "fdip", "none", "next-line", "eip", "sw-profile", "mana", "shadow-btb"
    }


def test_register_build_round_trip(toy_technique):
    technique = registry.get_technique("toy")
    assert technique is toy_technique
    built = technique.build(_ToyParams(degree=5), None, None)
    assert built == ("toy-instance", 5)


def test_register_rejects_duplicate(toy_technique):
    with pytest.raises(ConfigError, match="already registered"):
        registry.register(toy_technique)
    registry.register(toy_technique, replace=True)  # explicit replace is fine


def test_register_rejects_non_frozen_params():
    @dataclass
    class Mutable:
        x: int = 1

    with pytest.raises(ConfigError, match="frozen"):
        registry.register(
            registry.Technique(
                name="mutable", summary="", params_cls=Mutable, build=_build_toy
            )
        )
    with pytest.raises(ConfigError, match="dataclass"):
        registry.register(
            registry.Technique(
                name="plain", summary="", params_cls=int, build=_build_toy
            )
        )


def test_unknown_kind_error_names_registered_kinds():
    with pytest.raises(ConfigError) as err:
        registry.get_technique("magic")
    message = str(err.value)
    assert "magic" in message
    for kind in ("fdip", "eip", "mana", "shadow-btb"):
        assert kind in message


def test_default_params():
    assert registry.default_params("mana") == MANAParams()
    assert registry.default_params("eip") == EIPParams()


def test_capabilities_describe():
    assert registry.get_technique("shadow-btb").capabilities.describe() == (
        "fdip,btb-hooks,fill-observer"
    )
    assert registry.get_technique("none").capabilities.describe() == "-"


# -- TechniqueConfig ------------------------------------------------------------


def test_technique_config_normalizes_default_params():
    assert TechniqueConfig(kind="mana").params == MANAParams()
    assert TechniqueConfig(kind="mana") == TechniqueConfig(
        kind="mana", params=MANAParams()
    )


def test_technique_config_is_hashable_and_frozen():
    config = TechniqueConfig(kind="eip", params=EIPParams(storage_bytes=4096))
    assert hash(config) == hash(
        TechniqueConfig(kind="eip", params=EIPParams(storage_bytes=4096))
    )
    with pytest.raises(FrozenInstanceError):
        config.kind = "none"


def test_technique_config_validate_checks_params_type():
    bad = TechniqueConfig(kind="mana", params=EIPParams())
    with pytest.raises(ConfigError):
        bad.validate()
    with pytest.raises(ConfigError, match="registered kinds"):
        TechniqueConfig(kind="magic").validate()


def test_sim_config_with_prefetcher_round_trip():
    config = SimConfig().with_prefetcher("mana", MANAParams(storage_bytes=2048))
    config.validate()
    assert config.prefetcher.kind == "mana"
    assert config.prefetcher.params.storage_bytes == 2048
    assert config.prefetcher.capabilities.uses_fdip


# -- engine cache keys ----------------------------------------------------------


def test_cache_key_stable_for_default_vs_explicit_params():
    cache = ResultCache()
    implicit = spec_for("gcc", SimConfig().with_prefetcher("mana"))
    explicit = spec_for(
        "gcc", SimConfig().with_prefetcher("mana", MANAParams())
    )
    assert cache.key_for(implicit) == cache.key_for(explicit)


def test_cache_key_distinguishes_params_and_kinds():
    cache = ResultCache()
    base = spec_for("gcc", SimConfig().with_prefetcher("mana"))
    tweaked = spec_for(
        "gcc", SimConfig().with_prefetcher("mana", MANAParams(storage_bytes=2048))
    )
    other = spec_for("gcc", SimConfig().with_prefetcher("shadow-btb"))
    keys = {cache.key_for(s) for s in (base, tweaked, other)}
    assert len(keys) == 3


# -- built-ins resolve on first lookup --------------------------------------------

# In a fresh interpreter: the built-ins are listed, looked up and listed by
# ``repro techniques list`` without any technique module loading (their
# params live in the registry, and a factory imports its module when it
# builds), a duplicate built-in name still raises, and the walkthrough
# technique of docs/techniques.md registers, runs and unregisters.
FRESH_REGISTRY = """
import contextlib, io, json, sys
from dataclasses import dataclass

from repro.common.config import SimConfig
from repro.common.errors import ConfigError
from repro.prefetchers import registry
from repro.prefetchers.base import FrontendHooks, InstructionPrefetcher
from repro.sim.engine import run_batch, spec_for
from repro.workloads.program import Program

MODULES = tuple(
    f"repro.prefetchers.{name}"
    for name in ("eip", "mana", "next_line", "shadow_btb", "swprefetch")
)

def loaded():
    return [name for name in MODULES if name in sys.modules]

report = {"names": registry.names(), "loaded_at_import": loaded()}
registry.get_technique("mana")
report["loaded_after_mana"] = loaded()
registry.get_technique("next-line")
report["loaded_after_next_line"] = loaded()
try:
    registry.register(registry.Technique(
        name="eip", summary="", params_cls=registry.FDIPParams, build=lambda *args: None,
    ))
except ConfigError as exc:
    report["duplicate"] = str(exc)
report["loaded_after_duplicate"] = loaded()

@dataclass(frozen=True)
class StrideParams:
    degree: int = 2

    def validate(self) -> None:
        if self.degree <= 0:
            raise ConfigError("stride degree must be positive")

class StridePrefetcher(InstructionPrefetcher):
    name = "stride"

    def __init__(self, params: StrideParams) -> None:
        self.params = params

    def on_demand_access(self, line_addr, hit, on_path):
        if hit:
            return []
        return [line_addr + 64 * (i + 1) for i in range(self.params.degree)]

def build_stride(params, program: Program, hooks: FrontendHooks):
    return StridePrefetcher(params)

registry.register(
    registry.Technique(
        name="stride",
        summary="stride prefetch on demand misses",
        params_cls=StrideParams,
        build=build_stride,
    )
)
config = SimConfig(max_instructions=2000, functional_warmup_blocks=200)
(result,) = run_batch(
    [spec_for("mediawiki", config.with_prefetcher("stride", standalone_only=True))],
    jobs=1, no_cache=True,
)
report["stride_emitted"] = result["prefetches_emitted"]
report["stride_retired"] = result.retired
registry.unregister("stride")
report["names_after"] = registry.names()
from repro.cli import main
table = io.StringIO()
with contextlib.redirect_stdout(table):
    main(["techniques", "list"])
report["table"] = table.getvalue()
report["loaded_after_list"] = loaded()
print(json.dumps(report))
"""

# ``repro techniques list`` as it read when the built-ins were imported
# eagerly (trailing blanks stripped).
TECHNIQUES_TABLE = """\
7 registered prefetch techniques
technique   capabilities                  params (defaults)                                                                       summary
----------  ----------------------------  --------------------------------------------------------------------------------------  --------------------------------------------------------------
eip         fdip                          storage_bytes=8192, targets_per_entry=2, entangling_distance=8, wrong_path_aware=False  entangled instruction prefetching at a bounded storage budget
fdip        fdip                          -                                                                                       fetch-directed prefetching from the FTQ (the paper's baseline)
mana        fdip                          storage_bytes=8192, region_lines=8, lookahead_records=3, hob_entries=64, hob_shift=12   spatial-region records with HOBPT compression (MANA)
next-line   fdip                          degree=1                                                                                prefetch N sequential lines on every demand miss
none        -                             -                                                                                       no instruction prefetching at all (analysis baseline)
shadow-btb  fdip,btb-hooks,fill-observer  max_prefills_per_fill=4                                                                 predecode filled lines; prefill the BTB with shadow branches
sw-profile  fdip,profile-pass             profile_blocks=20000, prefetch_distance=12, max_targets_per_trigger=4                   profile-guided software prefetching (I-Spy-style)
"""


def test_builtins_resolve_at_first_lookup(tmp_path):
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src"),
        "REPRO_CACHE_DIR": str(tmp_path),
    }
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_REGISTRY],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    builtins = ["eip", "fdip", "mana", "next-line", "none", "shadow-btb", "sw-profile"]
    assert report["names"] == builtins
    assert report["loaded_at_import"] == []
    # Every built-in's params class lives in the registry: a lookup imports
    # no technique module, only a build does.
    assert report["loaded_after_mana"] == []
    assert report["loaded_after_next_line"] == []
    assert "already registered" in report["duplicate"]
    assert report["loaded_after_duplicate"] == []
    assert report["stride_retired"] >= 2000
    assert report["stride_emitted"] > 0  # FDIP is off: every prefetch is stride's
    assert report["names_after"] == builtins
    table = "".join(line.rstrip() + "\n" for line in report["table"].splitlines())
    assert table == TECHNIQUES_TABLE
    assert report["loaded_after_list"] == []
