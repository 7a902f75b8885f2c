"""Interval sampling: plan systematic intervals, run them, merge their results.

SMARTS-style systematic sampling of the measured region (see
``docs/performance.md``): ``SimConfig.sampling`` divides the
``max_instructions`` true-path instructions into ``num_intervals`` equal
periods.  Each period ends with ``detailed_warmup`` cycle-simulated but
unmeasured instructions followed by ``interval_length`` measured
instructions; everything earlier in the period is functionally
fast-forwarded at oracle-walk speed
(:meth:`~repro.sim.simulator.Simulator.fast_forward_to`).  The engine runs
a sampled spec as one work unit, a chain (:func:`run_sampled`): a single
walker simulator keeps one functional warming pass going from interval to
interval, as SMARTS does, and hands its state over in memory to a fresh
simulator per interval; only the functional warmup is checkpointed.

This module plans, runs and merges them, and only sampled specs load it:

* :func:`plan_intervals` — the per-interval fast-forward targets and
  budgets of a sampled configuration;
* :func:`run_sampled` — the engine's work unit for a sampled spec: the
  walker's chain of fast-forwards and hand-offs, one interval simulator
  at a time;
* :func:`merge_intervals` — sum per-interval measured counters into one
  :class:`~repro.sim.metrics.SimResult` carrying a ``sampling`` block with
  the per-interval IPCs and the CI95 of the merged IPC (the reported
  sampling error);
* :func:`run_adaptive` — ``run_batch(..., sample_error=...)``'s loop,
  re-running a sampled spec with :func:`escalate_sampling`'s stronger
  shape until its CI meets the target.

Anchoring measurement at the *end* of each period makes the degenerate
configuration — one interval covering the whole region with no detailed
warmup — fast-forward zero instructions, so its counters are byte-identical
to a plain full-fidelity run (the equivalence oracle enforced per preset by
``tests/sim/test_sampling.py``).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.common.config import SimConfig
from repro.common.counters import ratio
from repro.common.stats import mean, ratio_ci95_half_width
from repro.sim import checkpoint, engine
from repro.sim.metrics import SimResult

if TYPE_CHECKING:
    from repro.sim.simulator import Simulator

__all__ = [
    "IntervalOutcome",
    "IntervalPlan",
    "escalate_sampling",
    "merge_intervals",
    "plan_intervals",
    "run_adaptive",
    "run_sampled",
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


def _interval_tokens(spec: engine.RunSpec, interval: int) -> list[str]:
    """The tokens addressing one sampling interval inside its spec's unit."""
    return [f"{token}#{interval}" for token in engine._unit_tokens(spec)]


def run_sampled(
    spec: engine.RunSpec,
    walker: Simulator,
    program,
    config: SimConfig,
    data_profile,
    meta: dict,
) -> SimResult:
    """Run a sampled spec's intervals as one chain over ``walker``.

    The walker fast-forwards (:meth:`~repro.sim.simulator.Simulator.fast_forward_to`)
    to each interval's start in plan order and hands its functional state
    over in memory (:func:`~repro.sim.checkpoint.handoff`, a copy of each
    structure's buffers) to a fresh simulator, which runs the detailed
    warmup and the measured slice; the walker itself never runs a cycle.
    Chained fast-forwards land in exactly the state of one direct jump, so
    every interval measures what a simulator that warmed up and jumped
    straight to its start would (``tests/sim/test_sampling.py``).  Each interval
    fires its own fault tokens (``label#k``), and an exception raised in
    interval ``k`` carries ``sampling_interval = k`` for the failure record.
    """
    from repro.sim.simulator import Simulator  # loaded with the walker

    if not walker._warmed and config.functional_warmup_blocks > 0:
        started = time.perf_counter()
        walker.functional_warmup(config.functional_warmup_blocks)
        meta["warmup_seconds"] += time.perf_counter() - started
    # The warmup's true-path position survives in the checkpointed counters,
    # so the absolute fast-forward targets are recoverable after a restore.
    warmup_walked = walker.counters["warmup_instructions_functional"]
    outcomes = []
    for plan in plan_intervals(spec.config):
        try:
            engine._fire_unit_faults(_interval_tokens(spec, plan.index))
            simulator = Simulator(program, config, data_profile=data_profile)
            handoff_started = time.perf_counter()
            ff_blocks, ff_walked = walker.fast_forward_to(
                warmup_walked + plan.ff_instructions
            )
            checkpoint.handoff(walker, simulator)
            meta["warmup_seconds"] += time.perf_counter() - handoff_started
            simulator.run_interval(
                plan.measure_instructions, detailed_warmup=plan.detailed_warmup
            )
        except Exception as exc:
            exc.sampling_interval = plan.index
            raise
        outcomes.append(
            IntervalOutcome(
                index=plan.index,
                counters=simulator.measured_counters(),
                avg_ftq_occupancy=simulator.ftq.average_occupancy,
                final_ftq_depth=simulator.ftq.depth,
                ff_blocks=ff_blocks,
                ff_instructions_walked=ff_walked,
            )
        )
        # Freed before the next interval's simulator is built, so the chain
        # holds the walker and one interval simulator at a time.
        del simulator
    meta["intervals"] = len(outcomes)
    return merge_intervals(spec.workload, spec.label, spec.config, outcomes)


# Total rounds (initial run included) the adaptive driver will spend per
# spec before settling for the best estimate it has.  Escalation doubles
# the interval count each round, so 5 rounds spans a 16x range of K.
_ADAPTIVE_MAX_ROUNDS = 5


def run_adaptive(
    spec_list: list[engine.RunSpec],
    *,
    sample_error: float,
    **batch_kwargs,
) -> list[SimResult]:
    """The ``run_batch(..., sample_error=...)`` error-targeting loop
    (:func:`repro.sim.engine.run_batch` documents it).

    Runs the batch, then repeatedly re-runs (only) the sampled specs whose
    relative CI95 still exceeds ``sample_error`` with an escalated sampling
    shape.  Escalated re-runs go through the ordinary ``run_batch`` path,
    so they share the result cache and checkpoint store with direct runs
    of the same shapes.  Every surviving sampled result is annotated with
    ``sampling["adaptive"]`` describing the loop's outcome for that spec;
    the annotation is applied after caching, so cache entries stay
    independent of the driver's target.
    """
    if not 0.0 < sample_error < 1.0:
        raise ValueError(
            f"sample_error must be a fraction in (0, 1), got {sample_error!r}"
        )
    results = engine.run_batch(spec_list, **batch_kwargs)

    # index -> spec currently standing at that index (escalations replace it)
    active = {
        index: spec
        for index, spec in enumerate(spec_list)
        if spec.config.sampling.enabled
    }
    rounds = {index: 1 for index in active}
    exhausted: set[int] = set()

    for _ in range(_ADAPTIVE_MAX_ROUNDS - 1):
        retry: dict[int, engine.RunSpec] = {}
        for index, spec in active.items():
            result = results[index]
            if result is None:
                continue  # failed under keep-going
            if result.sampling["ipc_relative_ci95"] <= sample_error:
                continue
            escalated = escalate_sampling(spec.config)
            if escalated is None:
                exhausted.add(index)
                continue
            retry[index] = dataclasses.replace(spec, config=escalated)
        retry = {i: s for i, s in retry.items() if i not in exhausted}
        if not retry:
            break
        order = sorted(retry)
        retry_results = engine.run_batch([retry[i] for i in order], **batch_kwargs)
        for position, index in enumerate(order):
            active[index] = retry[index]
            results[index] = retry_results[position]
            rounds[index] += 1

    for index in active:
        result = results[index]
        if result is None:
            continue
        result.sampling["adaptive"] = {
            "target": sample_error,
            "rounds": rounds[index],
            "met": result.sampling["ipc_relative_ci95"] <= sample_error,
        }
    return results
