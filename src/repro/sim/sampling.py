"""Interval sampling: plan systematic intervals and merge their results.

SMARTS-style systematic sampling of the measured region (see
``docs/performance.md``): ``SimConfig.sampling`` divides the
``max_instructions`` true-path instructions into ``num_intervals`` equal
periods.  Each period ends with ``detailed_warmup`` cycle-simulated but
unmeasured instructions followed by ``interval_length`` measured
instructions; everything earlier in the period is functionally
fast-forwarded at oracle-walk speed
(:meth:`~repro.sim.simulator.Simulator.fast_forward_to`).  The engine runs
a sampled spec as one chain (:mod:`repro.sim.engine`): a single walker
simulator keeps one functional warming pass going from interval to
interval, as SMARTS does, and hands its state over in memory to a fresh
simulator per interval; only the functional warmup is checkpointed.

This module is pure planning and aggregation:

* :func:`plan_intervals` — the per-interval fast-forward targets and
  budgets of a sampled configuration;
* :func:`merge_intervals` — sum per-interval measured counters into one
  :class:`~repro.sim.metrics.SimResult` carrying a ``sampling`` block with
  the per-interval IPCs and the CI95 of the merged IPC (the reported
  sampling error).

Anchoring measurement at the *end* of each period makes the degenerate
configuration — one interval covering the whole region with no detailed
warmup — fast-forward zero instructions, so its counters are byte-identical
to a plain full-fidelity run (the equivalence oracle enforced per preset by
``tests/sim/test_sampling.py``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.common.config import SimConfig
from repro.common.counters import ratio
from repro.common.stats import mean, ratio_ci95_half_width
from repro.sim.metrics import SimResult

__all__ = [
    "IntervalOutcome",
    "IntervalPlan",
    "escalate_sampling",
    "merge_intervals",
    "plan_intervals",
]


@dataclass(frozen=True)
class IntervalPlan:
    """One systematic sampling interval of a sampled configuration.

    ``ff_instructions`` counts true-path instructions to skip past the end
    of the functional warmup (block-granular, see ``fast_forward_to``).
    Every interval runs under ``config.seed``: the warming fast-forward
    consumes the walker's own data generator, and the measured region
    continues the stream the replay advanced.
    """

    index: int
    ff_instructions: int
    detailed_warmup: int
    measure_instructions: int


@dataclass
class IntervalOutcome:
    """What one executed interval contributes to the merged result.

    ``ff_blocks``/``ff_instructions_walked`` count the walk from the
    previous interval's start (from the end of the functional warmup for
    the first), so their sums over a spec are its whole fast-forward.
    """

    index: int
    counters: dict[str, int]
    avg_ftq_occupancy: float
    final_ftq_depth: int
    ff_blocks: int
    ff_instructions_walked: int

    @property
    def ipc(self) -> float:
        cycles = self.counters.get("cycles", 0)
        if cycles <= 0:
            return 0.0
        return self.counters.get("retired_instructions", 0) / cycles


def plan_intervals(config: SimConfig) -> list[IntervalPlan]:
    """The interval schedule of a sampled configuration, in index order.

    The shape is validated against ``max_instructions`` first (raising
    :class:`~repro.common.errors.ConfigError` naming the offending knobs),
    so a plan can never carry a negative fast-forward distance.  Interval
    end targets are ``((index + 1) * max_instructions) // num_intervals``,
    which distributes a non-dividing remainder across the periods: every
    plan satisfies ``ff_instructions >= 0``, end targets strictly increase,
    and the last interval ends exactly at ``max_instructions`` (the
    invariants pinned by tests/sim/test_sampling.py).
    """
    s = config.sampling
    if not s.enabled:
        raise ValueError("plan_intervals requires sampling to be enabled")
    s.validate(config.max_instructions)
    max_instructions = config.max_instructions
    plans = []
    for index in range(s.num_intervals):
        end = (index + 1) * max_instructions // s.num_intervals
        ff = end - s.interval_length - s.detailed_warmup
        plans.append(
            IntervalPlan(
                index=index,
                ff_instructions=ff,
                detailed_warmup=s.detailed_warmup,
                measure_instructions=s.interval_length,
            )
        )
    return plans


def escalate_sampling(config: SimConfig) -> SimConfig | None:
    """The next, stronger sampling shape for an error-targeted retry.

    One escalation step for the adaptive driver
    (``engine.run_batch(..., sample_error=...)``): doubling the interval
    count halves nothing but tightens the CI roughly by ``1/sqrt(2)``, so
    K grows first for as long as the doubled shape still fits its period;
    once it no longer fits, the detailed warmup doubles instead (bounded
    by the period), which attacks residual warmup bias rather than
    statistical width.  Returns ``None`` when the shape cannot be
    escalated further — the driver then reports the best estimate it has.
    """
    s = config.sampling
    if not s.enabled:
        return None
    max_instructions = config.max_instructions
    doubled_k = s.num_intervals * 2
    if (
        doubled_k <= max_instructions
        and s.interval_length + s.detailed_warmup
        <= max_instructions // doubled_k
    ):
        return config.replace(
            sampling=dataclasses.replace(s, num_intervals=doubled_k)
        )
    period = s.period(max_instructions)
    warmup = min(
        max(s.detailed_warmup * 2, s.interval_length // 2, 1),
        period - s.interval_length,
    )
    if warmup > s.detailed_warmup:
        return config.replace(
            sampling=dataclasses.replace(s, detailed_warmup=warmup)
        )
    return None


def merge_intervals(
    workload: str,
    label: str,
    config: SimConfig,
    outcomes: list[IntervalOutcome],
) -> SimResult:
    """Merge per-interval measured counters into one :class:`SimResult`.

    Counters are summed entry-wise with no zero-dropping, so merging the
    degenerate single interval reproduces its counter dict exactly (the
    byte-identity gate).  The merged IPC is the ratio estimator
    Σretired / Σcycles, and the ``sampling`` block reports its 95% CI
    half-width by the delta method, as SMARTS does — the sampling error
    estimate to quote next to the merged IPC — with the per-interval IPCs.
    """
    if not outcomes:
        raise ValueError("cannot merge zero intervals")
    outcomes = sorted(outcomes, key=lambda o: o.index)
    merged: dict[str, int] = {}
    for outcome in outcomes:
        for name, value in outcome.counters.items():
            merged[name] = merged.get(name, 0) + value

    cycles = [outcome.counters.get("cycles", 0) for outcome in outcomes]
    total_cycles = sum(cycles)
    if total_cycles > 0:
        avg_occupancy = (
            sum(o.avg_ftq_occupancy * c for o, c in zip(outcomes, cycles))
            / total_cycles
        )
    else:
        avg_occupancy = mean([o.avg_ftq_occupancy for o in outcomes])

    retired = [outcome.counters.get("retired_instructions", 0) for outcome in outcomes]
    half = ratio_ci95_half_width(retired, cycles)
    ipc = ratio(sum(retired), total_cycles)
    s = config.sampling
    sampling_block = {
        "num_intervals": s.num_intervals,
        "interval_length": s.interval_length,
        "detailed_warmup": s.detailed_warmup,
        "interval_ipc": [outcome.ipc for outcome in outcomes],
        "ipc_ci95_half": half,
        "ipc_relative_ci95": ratio(half, ipc),
        "ff_instructions_total": sum(o.ff_instructions_walked for o in outcomes),
        "ff_blocks_total": sum(o.ff_blocks for o in outcomes),
    }
    return SimResult(
        workload=workload,
        config_name=label,
        counters=merged,
        avg_ftq_occupancy=avg_occupancy,
        final_ftq_depth=outcomes[-1].final_ftq_depth,
        sampling=sampling_block,
    )
