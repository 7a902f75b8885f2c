"""Small shared statistics helpers (means, spreads, confidence intervals).

Used by both the sampling engine (per-interval IPC aggregation in
:mod:`repro.sim.sampling`) and the multi-seed robustness analysis
(:mod:`repro.analysis.stats`).  Lives under ``common`` because the sim layer
must not import the analysis layer (which imports the engine).
"""

from __future__ import annotations

import math

__all__ = ["ci95_half_width", "mean", "relative_half_width", "stdev"]


def mean(values: list[float]) -> float:
    """Arithmetic mean; 0.0 for an empty list."""
    if not values:
        return 0.0
    return sum(values) / len(values)


def stdev(values: list[float]) -> float:
    """Sample standard deviation (n-1); 0.0 below two observations."""
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / (len(values) - 1))


def ci95_half_width(values: list[float]) -> float:
    """Half-width of the normal-approximation 95% CI on the mean."""
    if len(values) < 2:
        return 0.0
    return 1.96 * stdev(values) / math.sqrt(len(values))


def relative_half_width(values: list[float]) -> float:
    """The 95% CI half-width as a fraction of the mean.

    A zero mean makes the ratio undefined; rather than dividing by zero,
    it maps to the two honest answers: 0.0 when the half-width is also
    zero (no spread — e.g. every interval measured zero cycles), ``inf``
    when there is spread around a zero mean (the estimate is useless and
    any error-targeting loop should keep escalating).
    """
    mu = mean(values)
    half = ci95_half_width(values)
    if mu == 0.0:
        return 0.0 if half == 0.0 else math.inf
    return half / abs(mu)
