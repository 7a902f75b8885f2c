"""Golden-counter fixture generation (``repro bless-golden``).

``tests/sim/fixtures/golden_counters.json`` pins the complete
``measured_counters()`` dict of one fixed-seed run per preset.  The test
side (``tests/sim/test_golden_counters.py``) compares against it; this
module is the single blessed way to *regenerate* it when a simulated
behaviour change is intentional::

    PYTHONPATH=src python -m repro bless-golden

The run parameters here and in the test module must agree — the test
imports them from this module, so editing them in one place keeps both in
sync.  Blessing always simulates from scratch: each run builds its
simulator directly (``build_simulator``) and walks its own warmup
(programs may come from the store, which is equivalence-tested).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.sim.presets import PRESET_BUILDERS

WORKLOAD = "gcc"
INSTRUCTIONS = 3_000
SEED = 1

#: Repo-relative location of the blessed fixture.
FIXTURE_PATH = (
    Path(__file__).resolve().parents[3]
    / "tests"
    / "sim"
    / "fixtures"
    / "golden_counters.json"
)


def golden_counters(preset: str) -> dict[str, int]:
    """One from-scratch golden run of ``preset`` (gcc / 3000 instr / seed 1)."""
    from repro.sim.profile import build_simulator

    config = PRESET_BUILDERS[preset](INSTRUCTIONS, SEED)
    simulator = build_simulator(WORKLOAD, config, SEED)
    simulator.run()
    return simulator.measured_counters()


def bless(path: str | os.PathLike | None = None) -> Path:
    """Regenerate the golden fixture; returns the path written."""
    target = Path(path) if path is not None else FIXTURE_PATH
    payload = {
        "workload": WORKLOAD,
        "instructions": INSTRUCTIONS,
        "seed": SEED,
        "counters": {preset: golden_counters(preset) for preset in sorted(PRESET_BUILDERS)},
    }
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return target
