"""Technique registry: registration rules, config round-trips, cache keys."""

from dataclasses import FrozenInstanceError, dataclass

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
