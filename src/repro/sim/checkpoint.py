"""The functional state protocol: capture, restore and hand off warmed state.

Every simulator walks its own functional warmup (``sim/engine.py``), in C
on a compiled simulator; this module moves the state that walk produced.
The functional state is one table, :func:`_components`: every component
:meth:`Simulator.functional_warmup` and ``fast_forward_to`` change, by key
(``None`` where a configuration has none).  Each answers the state
protocol of :mod:`repro.common.packed` (``state``, ``load_state``,
``copy_from``), and everything here is a loop over the table plus
:func:`_finish_load` (the frontend's pc, the warmup baseline and the
warmed flag):

* :func:`capture_state` / :func:`restore_state` — the wire form, a dict of
  each component's ``state()``.  A restored simulator behaves
  byte-for-byte like one that walked itself (``tests/sim/test_checkpoint.py``
  enforces equality of ``measured_counters()`` per preset), and a
  malformed part raises :class:`CheckpointError`.  The states are
  layout-neutral, so a snapshot captured by the compiled structures
  restores into the object ones and vice versa: the wire form is the
  oracle of the compiled buffer copies;
* :func:`handoff` — the same state moved from one live simulator into a
  pristine one by ``copy_from``, without the wire form.  Sampled runs hand
  the walker's state to a fresh simulator per interval
  (``sim/sampling.py``), and only they import this module;
* :func:`capture_warmup` / :func:`restore_warmup` — the wire form
  pickled, which the mode tests round-trip between the compiled and the
  object structures.
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.simulator import Simulator

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointError",
    "capture_state",
    "capture_warmup",
    "handoff",
    "restore_state",
    "restore_warmup",
]

# Bumped whenever the wire form changes, so an older snapshot is rejected.
# Schema 6: one entry per component of ``_components``, its ``state()``, and
# the object data generator lists pcs ascending, like the compiled one.
CHECKPOINT_SCHEMA = 6


class CheckpointError(Exception):
    """A snapshot cannot be restored (corrupt, stale, or shape-mismatched)."""


# ---------------------------------------------------------------------------
# The components, capture, restore and hand-off
# ---------------------------------------------------------------------------


def _components(sim: "Simulator") -> dict:
    """Every component the functional walk changes, by key (``None``
    where ``sim``'s configuration has none)."""
    bpu = sim.bpu
    hierarchy = sim.hierarchy
    return {
        "oracle": sim.oracle,
        "history": bpu.history,
        "tage": bpu.tage,
        "btb": bpu.btb,
        "ibtb": bpu.ibtb,
        "ras": bpu.ras,
        "l1i": sim.l1i,
        "l1d": hierarchy.l1d,
        "l2": hierarchy.l2,
        "llc": hierarchy.llc,
        "stream": hierarchy.stream,
        "data_gen": sim.data_gen,
        "useful_set": sim.udp.useful_set if sim.udp is not None else None,
        "counters": sim.counters,
    }


def _pairs(sim: "Simulator", parts: dict) -> list[tuple]:
    """``(component, part)`` for each of ``sim``'s components, ``parts``
    holding another simulator's components or their states by key."""
    pairs = []
    for key, component in _components(sim).items():
        part = parts[key]
        if (component is None) != (part is None):
            raise CheckpointError(f"{key} enablement mismatch")
        if component is not None:
            pairs.append((component, part))
    return pairs


def _require_warmed(sim: "Simulator") -> None:
    if not sim._warmed or sim.cycle != 0:
        raise CheckpointError("capture requires a warmed, unstarted simulator")


def _require_pristine(sim: "Simulator") -> None:
    if sim._warmed or sim.cycle != 0:
        raise CheckpointError("restore requires a pristine simulator")


def capture_state(sim: "Simulator") -> dict:
    """All state :meth:`Simulator.functional_warmup` and fast-forwards mutate.

    Must be called on a simulator that is warmed (by a warmup, a restore or
    a fast-forward) and has not yet executed a measured cycle.  The dict
    holds copies only, so the donor may keep walking while a restored
    simulator runs.
    """
    _require_warmed(sim)
    state = {
        key: component.state() if component is not None else None
        for key, component in _components(sim).items()
    }
    baseline = sim._warmup_baseline
    state.update(
        schema=CHECKPOINT_SCHEMA,
        spec_pc=sim.frontend.spec_pc,
        warmup_baseline=dict(baseline) if baseline is not None else None,
    )
    return state


def capture_warmup(sim: "Simulator") -> bytes:
    """:func:`capture_state`, pickled: the warmup checkpoint's bytes."""
    return pickle.dumps(capture_state(sim), protocol=pickle.HIGHEST_PROTOCOL)


def restore_state(sim: "Simulator", state: dict) -> None:
    """Inject :func:`capture_state` output into a freshly constructed simulator.

    After this returns, ``sim.run()`` (or ``run_interval``) proceeds
    directly to the measured region (``_warmed`` is set), producing
    counters byte-identical to walking from scratch.  Everything is copied
    in, so ``state`` stays reusable.  Raises :class:`CheckpointError` on any
    malformed or incompatible state; the simulator must then be considered
    unusable.
    """
    _require_pristine(sim)
    if not isinstance(state, dict) or state.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError("checkpoint schema mismatch")
    try:
        for component, part in _pairs(sim, state):
            component.load_state(part)
        _finish_load(sim, state["spec_pc"], state["warmup_baseline"])
    except CheckpointError:
        raise
    except Exception as exc:  # noqa: BLE001 - malformed snapshot contents
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc


def restore_warmup(sim: "Simulator", blob: bytes) -> None:
    """Unpickle a :func:`capture_warmup` blob and :func:`restore_state` it.

    Raises :class:`CheckpointError` on any corrupt, stale (older schema) or
    incompatible snapshot.
    """
    _require_pristine(sim)
    try:
        state = pickle.loads(blob)
    except Exception as exc:  # noqa: BLE001 - any unpickling failure
        raise CheckpointError(f"unreadable checkpoint: {exc}") from exc
    restore_state(sim, state)


def handoff(walker: "Simulator", sim: "Simulator") -> None:
    """``restore_state(sim, capture_state(walker))`` without the wire form.

    Moves exactly the state :func:`capture_state` defines from the warmed,
    unstarted ``walker`` into the pristine ``sim``, which must be built for
    the same program and geometry: each component takes its twin's state
    in place (``copy_from``).  ``sim`` then shares no mutable object with
    ``walker``.
    """
    _require_warmed(walker)
    _require_pristine(sim)
    for component, source in _pairs(sim, _components(walker)):
        component.copy_from(source)
    _finish_load(sim, walker.frontend.spec_pc, walker._warmup_baseline)


def _finish_load(sim: "Simulator", spec_pc: int, baseline) -> None:
    """Load the frontend's pc and the warmup baseline, and mark ``sim``
    warmed."""
    sim.frontend.spec_pc = spec_pc
    sim._warmup_baseline = dict(baseline) if baseline is not None else None
    sim._warmed = True


# Kept while benchmarks/e2e/trace.py's LAYERS wraps its get and put by name.
class CheckpointStore:
    """No store: every simulator walks its own functional warmup."""

    def get(self, key: str) -> bytes:
        raise CheckpointError("there is no warmup checkpoint store")

    def put(self, key: str, blob: bytes) -> None:
        raise CheckpointError("there is no warmup checkpoint store")
