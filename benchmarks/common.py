"""Shared infrastructure for the per-figure benchmark harness.

Scaling knobs (environment variables):

* ``REPRO_BENCH_SCALE`` — float multiplier on per-run instruction counts
  (default 1.0; e.g. ``REPRO_BENCH_SCALE=4`` runs 4x longer simulations).
* ``REPRO_BENCH_WORKLOADS`` — comma-separated workload subset override
  (default: a per-benchmark choice documented in each file).
* ``REPRO_JOBS`` / ``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE`` — engine
  parallelism and result-cache knobs (see ``docs/running_experiments.md``).

Individual simulation runs are shared through the engine's content-addressed
on-disk cache (:mod:`repro.sim.engine`), whose keys cover the full
configuration — including the scaled instruction count — so changing
``REPRO_BENCH_SCALE`` or ``REPRO_BENCH_WORKLOADS`` can never collide with
stale entries.  The in-process memo below only avoids re-deriving the
experiment dicts several figures share (the FTQ sweep behind Figs 3-6/8 and
Table III; the Fig 11 and Fig 13 run sets) within one pytest session, and
its keys also include both env knobs.
"""

from __future__ import annotations

import os

from repro.analysis import experiments

_MEMO: dict[tuple, object] = {}

# Representative subset used by the sweep-heavy figures: the paper's two
# pathological extremes plus a compiler, a database, and a JVM workload.
SWEEP_WORKLOADS = ["mysql", "gcc", "verilator", "mongodb", "xgboost"]
SENSITIVITY_WORKLOADS = ["mysql", "gcc", "verilator", "xgboost"]


def scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def instructions(base: int = 20_000) -> int:
    return max(2_000, int(base * scale()))


def workloads(default: list[str]) -> list[str]:
    override = os.environ.get("REPRO_BENCH_WORKLOADS", "")
    if override.strip():
        return [w.strip() for w in override.split(",") if w.strip()]
    return list(default)


def _env_knobs() -> tuple[str, ...]:
    # Every env toggle that can change what a shared computation produces
    # must key the memo: the scaling knobs select the run set, and the
    # mode gates (compiled kernels, checkpoint reuse) change
    # wall-clock-derived fields that benchmark rows embed.  The engine's
    # disk cache keys runs by config content; this tuple guards only the
    # in-process memo.
    return (
        os.environ.get("REPRO_BENCH_SCALE", "1.0"),
        os.environ.get("REPRO_BENCH_WORKLOADS", ""),
        os.environ.get("REPRO_NO_CHECKPOINT", ""),
        os.environ.get("REPRO_NO_COMPILED", ""),
    )


def cached(key: str, compute):
    """Session-memoized shared computation, keyed by the scaling env knobs.

    The underlying per-run results live in the engine's disk cache; this memo
    only skips re-assembling the experiment dict when the same figure set is
    requested again under identical ``REPRO_BENCH_*`` settings.
    """
    full_key = (key, *_env_knobs())
    if full_key not in _MEMO:
        _MEMO[full_key] = compute()
    return _MEMO[full_key]


def get_ftq_sweep():
    """The shared FTQ-depth sweep (Figs 3-6, 8, Table III)."""
    return cached(
        "ftq_sweep",
        lambda: experiments.ftq_sweep_suite(
            workloads(SWEEP_WORKLOADS),
            depths=[8, 16, 32, 48, 64, 96],
            instructions=instructions(),
        ),
    )


def get_fig11():
    """The shared UFTQ run set (Figs 11-12)."""
    return cached(
        "fig11",
        lambda: experiments.fig11_uftq_speedup(
            workloads(SWEEP_WORKLOADS),
            instructions=instructions(),
            opt_depths=experiments.optimal_depths(get_ftq_sweep()),
        ),
    )


def get_fig13():
    """The shared UDP run set (Figs 13-15)."""
    return cached(
        "fig13",
        lambda: experiments.fig13_udp_speedup(
            workloads(experiments.ALL_WORKLOADS), instructions=instructions()
        ),
    )


def run_once(benchmark, fn):
    """Time ``fn`` exactly once (simulations are deterministic; repetition
    only burns wall-clock)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
