"""Shared mean/stdev/CI helpers (repro.common.stats)."""

import math

import pytest

from repro.common.stats import ci95_half_width, mean, stdev


def test_mean():
    assert mean([]) == 0.0
    assert mean([3.0]) == 3.0
    assert mean([1.0, 2.0, 3.0]) == 2.0


def test_stdev_is_sample_stdev():
    assert stdev([]) == 0.0
    assert stdev([5.0]) == 0.0  # undefined for n < 2 -> 0 by convention
    assert stdev([2.0, 4.0]) == pytest.approx(math.sqrt(2.0))
    assert stdev([1.0, 1.0, 1.0, 1.0]) == 0.0


def test_ci95_half_width():
    assert ci95_half_width([1.0]) == 0.0
    values = [2.0, 4.0]
    expected = 1.96 * math.sqrt(2.0) / math.sqrt(2)
    assert ci95_half_width(values) == pytest.approx(expected)

