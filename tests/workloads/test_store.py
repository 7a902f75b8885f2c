"""Program store: the in-process memo behind ``program_for``."""

from repro.workloads.store import program_for


def test_program_cache_returns_same_object():
    assert program_for("mysql", 1) is program_for("mysql", 1)
    assert program_for("mysql", 1) is not program_for("mysql", 2)
