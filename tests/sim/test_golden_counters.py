"""Golden-counter regression: every preset's full counter set is pinned.

One fixed-seed run per preset (gcc, 3000 instructions, seed 1) with the
complete ``measured_counters()`` dict checked into
``tests/sim/fixtures/golden_counters.json``.  Any change to simulated
behaviour — however small — shows up as a counter diff here, which makes
the fixture the tripwire for "performance work must not change results"
(the fast-forward equivalence tests check FF-vs-naive; this one checks
today-vs-the-day-the-fixture-was-blessed).

Intentional behaviour changes must regenerate the fixture via the CLI and
review the diff (see docs/performance.md for the blessing workflow)::

    PYTHONPATH=src python -m repro bless-golden

The run parameters and the generator live in :mod:`repro.sim.golden`, so
the test and the blessing command can never disagree about what a golden
run is.
"""

import json
import os

import pytest

from repro.sim import golden
from repro.sim.presets import PRESET_BUILDERS

FIXTURE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "golden_counters.json"
)


def _load_fixture() -> dict:
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def test_fixture_covers_every_preset():
    golden_data = _load_fixture()["counters"]
    assert sorted(golden_data) == sorted(PRESET_BUILDERS), (
        "preset list changed: regenerate the fixture "
        "(PYTHONPATH=src python -m repro bless-golden)"
    )


def test_module_and_fixture_parameters_agree():
    data = _load_fixture()
    assert data["workload"] == golden.WORKLOAD
    assert data["instructions"] == golden.INSTRUCTIONS
    assert data["seed"] == golden.SEED


def test_blessed_path_is_this_fixture():
    assert os.path.samefile(os.path.dirname(FIXTURE),
                            golden.FIXTURE_PATH.parent)
    assert golden.FIXTURE_PATH.name == os.path.basename(FIXTURE)


@pytest.mark.parametrize("preset", sorted(PRESET_BUILDERS))
def test_counters_match_golden(preset):
    expected = _load_fixture()["counters"][preset]
    current = golden.golden_counters(preset)
    assert current == expected, (
        f"{preset}: measured counters diverged from the blessed fixture; "
        "if intentional, regenerate with `python -m repro bless-golden` "
        "and review the diff"
    )


def test_bless_writes_the_committed_fixture(tmp_path):
    # Byte for byte: the blessing command regenerates exactly the file the
    # tests above compare against.
    written = golden.bless(tmp_path / "golden_counters.json")
    with open(FIXTURE, "rb") as fh:
        assert written.read_bytes() == fh.read()


if __name__ == "__main__":
    print(f"wrote {golden.bless(FIXTURE)}")
