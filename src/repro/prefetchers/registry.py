"""Declarative registry of instruction-prefetch techniques.

Every technique the simulator can run is a :class:`Technique` record:

* ``name`` — the ``TechniqueConfig.kind`` string selecting it,
* ``params_cls`` — a *frozen* dataclass of per-technique knobs (frozen so
  ``SimConfig`` stays hashable and engine cache / checkpoint keys work),
* ``build(params, program, hooks)`` — a factory returning the technique's
  :class:`~repro.prefetchers.base.InstructionPrefetcher` (or ``None`` for
  techniques with no stand-alone prefetcher, like plain FDIP),
* ``capabilities`` — what the simulator must wire up for it.

The simulator, ``SimConfig`` validation, the ``repro techniques`` CLI, and
the presets all consult this table, so adding a prefetcher is: write the
module, call :func:`register` — no simulator edits (see docs/techniques.md
for the walkthrough).

The built-in techniques outside this module are listed by name, summary,
capabilities and defining module (:data:`_BUILTINS`): the first lookup of
a name imports that module and resolves the entry in place, so a run
imports only the technique it builds, and :func:`names` lists every
built-in without importing any.

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
    technique object's ``on_demand_access``, and ``on_line_filled`` when it
    ``observes_fills``, where the Python stepper does, and the
    ``hooks_btb`` callables reach the BTB arrays the driver predicts from
    (docs/techniques.md, "Driver contract").
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


@dataclass(frozen=True)
class Technique:
    """One registered prefetch technique."""

    name: str
    summary: str
    params_cls: type
    build: Callable[[object, "Program", "FrontendHooks"], "InstructionPrefetcher | None"]
    capabilities: Capabilities = Capabilities()


@dataclass(frozen=True)
class _BuiltIn:
    """A built-in technique whose module is not imported yet: the names of
    its params class and factory in ``module`` (see :func:`lookup`)."""

    summary: str
    module: str
    params: str
    build: str
    capabilities: Capabilities = Capabilities()


_REGISTRY: dict[str, Technique | _BuiltIn] = {}


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
    """The technique registered under ``name``, or ``None``.

    A built-in's first lookup imports its module and registers the
    resolved :class:`Technique` in its place.
    """
    entry = _REGISTRY.get(name)
    if not isinstance(entry, _BuiltIn):
        return entry
    module = importlib.import_module(entry.module)
    return register(
        Technique(
            name=name,
            summary=entry.summary,
            params_cls=getattr(module, entry.params),
            build=getattr(module, entry.build),
            capabilities=entry.capabilities,
        ),
        replace=True,
    )


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
    """All registered techniques, sorted by name (every built-in resolved)."""
    return tuple(lookup(name) for name in names())


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


def _build_nothing(params, program, hooks):
    return None


register(
    Technique(
        name="fdip",
        summary="fetch-directed prefetching from the FTQ (the paper's baseline)",
        params_cls=FDIPParams,
        build=_build_nothing,
        capabilities=Capabilities(uses_fdip=True),
    )
)
register(
    Technique(
        name="none",
        summary="no instruction prefetching at all (analysis baseline)",
        params_cls=NoPrefetchParams,
        build=_build_nothing,
        capabilities=Capabilities(uses_fdip=False),
    )
)

# The built-ins defined in their own modules, resolved at first lookup.
_BUILTINS = {
    "next-line": _BuiltIn(
        summary="prefetch N sequential lines on every demand miss",
        module="repro.prefetchers.next_line",
        params="NextLineParams",
        build="build_next_line",
    ),
    "eip": _BuiltIn(
        summary="entangled instruction prefetching at a bounded storage budget",
        module="repro.prefetchers.eip",
        params="EIPParams",
        build="build_eip",
    ),
    "sw-profile": _BuiltIn(
        summary="profile-guided software prefetching (I-Spy-style)",
        module="repro.prefetchers.swprefetch",
        params="SWProfileParams",
        build="build_sw_profile",
        capabilities=Capabilities(needs_profile_pass=True),
    ),
    "mana": _BuiltIn(
        summary="spatial-region records with HOBPT compression (MANA)",
        module="repro.prefetchers.mana",
        params="MANAParams",
        build="build_mana",
    ),
    "shadow-btb": _BuiltIn(
        summary="predecode filled lines; prefill the BTB with shadow branches",
        module="repro.prefetchers.shadow_btb",
        params="ShadowBTBParams",
        build="build_shadow_btb",
        capabilities=Capabilities(hooks_btb=True, observes_fills=True),
    ),
}
_REGISTRY.update(_BUILTINS)
