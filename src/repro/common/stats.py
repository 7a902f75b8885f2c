"""Small shared statistics helpers (means, spreads, confidence intervals).

Used by both the sampling engine (the merged IPC's CI in
:mod:`repro.sim.sampling`) and the multi-seed robustness analysis
(:mod:`repro.analysis.stats`).  Lives under ``common`` because the sim layer
must not import the analysis layer (which imports the engine).
"""

from __future__ import annotations

import math

__all__ = [
    "ci95_half_width",
    "mean",
    "ratio_ci95_half_width",
    "stdev",
]


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


def ratio_ci95_half_width(numerators: list[float], denominators: list[float]) -> float:
    """Half-width of the 95% CI on the ratio estimator Σnumerators/Σdenominators.

    The delta method: with ``R`` the ratio and residuals
    ``e_i = numerators[i] - R * denominators[i]`` (whose mean is zero),
    ``SE(R) = stdev(e) / (sqrt(n) * mean(denominators))``.  0.0 below two
    observations or when the denominators sum to zero.
    """
    total = sum(denominators)
    if len(numerators) < 2 or total == 0:
        return 0.0
    ratio = sum(numerators) / total
    residuals = [n - ratio * d for n, d in zip(numerators, denominators)]
    return ci95_half_width(residuals) / mean(denominators)
