"""Declarative registry of instruction-prefetch techniques.

Every technique the simulator can run is a :class:`Technique` record:

* ``name`` — the ``TechniqueConfig.kind`` string selecting it,
* ``params_cls`` — a *frozen* dataclass of per-technique knobs (frozen so
  ``SimConfig`` stays hashable and engine cache / checkpoint keys work),
* ``build(params, program, hooks)`` — a factory returning the technique's
  :class:`~repro.prefetchers.base.InstructionPrefetcher` (or ``None`` for
  techniques with no stand-alone prefetcher, like plain FDIP),
* ``capabilities`` — what the simulator must wire up for it,
* ``native`` — for the built-in comparators the compiled cycle driver runs
  in C (EIP, MANA, shadow-btb), the factory of the state holder a compiled
  simulator builds instead (:mod:`repro.prefetchers.compiled`).

The simulator, ``SimConfig`` validation, the ``repro techniques`` CLI, and
the presets all consult this table, so adding a prefetcher is: write the
module, call :func:`register` — no simulator edits (see docs/techniques.md
for the walkthrough).

Every built-in's params class lives here, and its factories import the
technique's module at its first build: configuring, validating or listing
techniques imports none, a run imports only the technique it builds, and a
compiled run of a native comparator only its state holder.

``repro.common.config`` imports this module *lazily* (inside methods):
technique modules import config for :class:`ConfigError`/`CacheConfig`,
and an eager import would be circular.
"""

from __future__ import annotations

import dataclasses
import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.common.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.prefetchers.base import FrontendHooks, InstructionPrefetcher
    from repro.workloads.program import Program


@dataclass(frozen=True)
class Capabilities:
    """What the simulator must provide for (or disable around) a technique.

    It is the compiled cycle driver's contract too: ``run_cycles`` calls a
    plug-in technique object's ``on_demand_access``, and ``on_line_filled``
    when it ``observes_fills``, where the Python stepper does, and the
    ``hooks_btb`` callables reach the BTB arrays the driver predicts from
    (docs/techniques.md, "Driver contract").  A built-in comparator with a
    ``native`` factory runs at the same points inside the driver.
    """

    # The technique layers on the FDIP baseline (False = FDIP fully off, as
    # in the "none" configuration).
    uses_fdip: bool = True
    # build() runs an offline profiling pass over the program first.
    needs_profile_pass: bool = False
    # The technique receives btb_fill/btb_contains hooks into the BPU.
    hooks_btb: bool = False
    # The technique's on_line_filled() is called for every L1I fill.
    observes_fills: bool = False

    def describe(self) -> str:
        """Short human-readable flag list (``repro techniques list``)."""
        flags = [
            name
            for name, on in (
                ("fdip", self.uses_fdip),
                ("profile-pass", self.needs_profile_pass),
                ("btb-hooks", self.hooks_btb),
                ("fill-observer", self.observes_fills),
            )
            if on
        ]
        return ",".join(flags) if flags else "-"


Factory = Callable[[object, "Program", "FrontendHooks"], "InstructionPrefetcher | None"]


@dataclass(frozen=True)
class Technique:
    """One registered prefetch technique."""

    name: str
    summary: str
    params_cls: type
    build: Factory
    capabilities: Capabilities = Capabilities()
    # The built-in comparators only: what a compiled simulator builds
    # instead of ``build``, a state holder the driver runs in C (no
    # callbacks).  Plug-ins leave it None and are called back.
    native: Factory | None = None


_REGISTRY: dict[str, Technique] = {}


def register(technique: Technique, *, replace: bool = False) -> Technique:
    """Add a technique to the registry; returns it for chaining.

    ``params_cls`` must be a frozen dataclass — anything else would break
    ``SimConfig`` hashing and the engine's ``asdict``-based cache keys, so
    it is rejected at registration time rather than at first use.
    """
    if not dataclasses.is_dataclass(technique.params_cls):
        raise ConfigError(
            f"technique {technique.name!r}: params_cls must be a dataclass"
        )
    if not technique.params_cls.__dataclass_params__.frozen:
        raise ConfigError(
            f"technique {technique.name!r}: params_cls must be frozen "
            "(SimConfig hashing and cache keys require it)"
        )
    if technique.name in _REGISTRY and not replace:
        raise ConfigError(f"technique {technique.name!r} is already registered")
    _REGISTRY[technique.name] = technique
    return technique


def unregister(name: str) -> None:
    """Remove a technique (test cleanup for dynamically registered ones)."""
    _REGISTRY.pop(name, None)


def lookup(name: str) -> Technique | None:
    """The technique registered under ``name``, or ``None``."""
    return _REGISTRY.get(name)


def get_technique(name: str) -> Technique:
    """The technique registered under ``name``; raises naming valid kinds."""
    technique = lookup(name)
    if technique is None:
        raise ConfigError(
            f"unknown prefetcher kind {name!r}; registered kinds: "
            + ", ".join(names())
        )
    return technique


def names() -> tuple[str, ...]:
    """All registered technique names, sorted."""
    return tuple(sorted(_REGISTRY))


def techniques() -> tuple[Technique, ...]:
    """All registered techniques, sorted by name."""
    return tuple(_REGISTRY[name] for name in names())


def default_params(name: str):
    """A default-constructed params object for ``name``."""
    return get_technique(name).params_cls()


# ---------------------------------------------------------------------------
# Built-in techniques
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FDIPParams:
    """The FDIP baseline has no stand-alone knobs (FTQ depth etc. live in
    :class:`~repro.common.config.FrontendConfig`)."""


@dataclass(frozen=True)
class NoPrefetchParams:
    """The "none" configuration is knob-free."""


@dataclass(frozen=True)
class NextLineParams:
    """Per-technique parameters for the ``next-line`` registry entry."""

    degree: int = 1

    def validate(self) -> None:
        if self.degree <= 0:
            raise ConfigError("next-line degree must be positive")


@dataclass(frozen=True)
class SWProfileParams:
    """Per-technique parameters for the ``sw-profile`` registry entry."""

    profile_blocks: int = 20_000
    prefetch_distance: int = 12
    max_targets_per_trigger: int = 4

    def validate(self) -> None:
        if self.profile_blocks <= 0:
            raise ConfigError("sw-profile profiling length must be positive")
        if self.prefetch_distance <= 0 or self.max_targets_per_trigger <= 0:
            raise ConfigError("sw-profile distances must be positive")


@dataclass(frozen=True)
class EIPParams:
    """Per-technique parameters for the ``eip`` registry entry."""

    storage_bytes: int = 8 * 1024
    targets_per_entry: int = 2
    entangling_distance: int = 8
    wrong_path_aware: bool = False

    def validate(self) -> None:
        if self.storage_bytes <= 0:
            raise ConfigError("EIP storage must be positive")
        if self.targets_per_entry <= 0 or self.entangling_distance <= 0:
            raise ConfigError("EIP entangling parameters must be positive")


@dataclass(frozen=True)
class MANAParams:
    """Per-technique parameters for the ``mana`` registry entry."""

    storage_bytes: int = 8 * 1024
    # Lines per spatial region: the trigger plus region_lines-1 footprint
    # candidates immediately after it.
    region_lines: int = 8
    # Successor records replayed ahead of the demand stream on a trigger hit.
    lookahead_records: int = 3
    # High-order-bits pattern table capacity (shared address prefixes).
    hob_entries: int = 64
    # Address bits folded into one HOBPT pattern (4 KiB granules).
    hob_shift: int = 12

    def validate(self) -> None:
        if self.storage_bytes <= 0:
            raise ConfigError("MANA storage must be positive")
        if self.region_lines < 2:
            raise ConfigError("MANA regions need at least two lines")
        if self.lookahead_records <= 0:
            raise ConfigError("MANA lookahead must be positive")
        if self.hob_entries <= 0 or self.hob_shift <= 6:
            raise ConfigError("MANA HOBPT must hold entries of >64B granules")


@dataclass(frozen=True)
class ShadowBTBParams:
    """Per-technique parameters for the ``shadow-btb`` registry entry."""

    # Predecoder port limit: BTB prefills per filled line.
    max_prefills_per_fill: int = 4

    def validate(self) -> None:
        if self.max_prefills_per_fill <= 0:
            raise ConfigError("shadow-BTB prefill budget must be positive")


def _build_nothing(params, program, hooks):
    return None


def _deferred(module: str, name: str) -> Factory:
    """The factory ``name`` of ``module``, imported at its first call."""

    def build(params, program, hooks):
        return getattr(importlib.import_module(f"repro.prefetchers.{module}"), name)(
            params, program, hooks
        )

    build.__qualname__ = build.__name__ = name
    return build


# The built-ins: (name, summary, params, capabilities, module, native?).
# A native one also has a factory of the same name in
# repro.prefetchers.compiled, which the compiled cycle driver runs in C.
_FDIP = Capabilities()
for _name, _summary, _params, _caps, _module, _native in (
    ("fdip", "fetch-directed prefetching from the FTQ (the paper's baseline)",
     FDIPParams, _FDIP, None, False),
    ("none", "no instruction prefetching at all (analysis baseline)",
     NoPrefetchParams, Capabilities(uses_fdip=False), None, False),
    ("next-line", "prefetch N sequential lines on every demand miss",
     NextLineParams, _FDIP, "next_line", False),
    ("eip", "entangled instruction prefetching at a bounded storage budget",
     EIPParams, _FDIP, "eip", True),
    ("sw-profile", "profile-guided software prefetching (I-Spy-style)",
     SWProfileParams, Capabilities(needs_profile_pass=True), "swprefetch", False),
    ("mana", "spatial-region records with HOBPT compression (MANA)",
     MANAParams, _FDIP, "mana", True),
    ("shadow-btb", "predecode filled lines; prefill the BTB with shadow branches",
     ShadowBTBParams, Capabilities(hooks_btb=True, observes_fills=True), "shadow_btb", True),
):
    _factory = "build_" + _name.replace("-", "_")
    register(
        Technique(
            name=_name,
            summary=_summary,
            params_cls=_params,
            build=_deferred(_module, _factory) if _module else _build_nothing,
            capabilities=_caps,
            native=_deferred("compiled", _factory) if _native else None,
        )
    )
