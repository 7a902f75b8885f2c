#!/usr/bin/env python3
"""Interval-sampling benchmark: sampled vs. full-fidelity wall clock + error.

This measures what SMARTS-style interval sampling (``SimConfig.sampling``,
executed by :mod:`repro.sim.engine`) buys on single long runs, and what it
costs in IPC accuracy.  For each row (workload x preset x sampling shape),
three timings of the same region are taken with the result cache disabled:

* **full** — one plain full-fidelity run (the accuracy reference; its
  functional-warmup checkpoint is left behind, as in real usage);
* **sampled cold** — the first sampled run: one walker restores that
  warmup checkpoint, fast-forwards from interval to interval and hands
  its state in memory to a fresh simulator per interval;
* **sampled warm** — a re-run against the same store with the program and
  blob memos cleared.  The warmup checkpoint is the only one a sampled run
  keeps, so the re-run does the cold run's work again: restore the warmup,
  then walk every fast-forward.

Each mode is timed over ``--reps`` repetitions (3 by default; a CI smoke
may pass fewer).  Every repetition starts from an empty checkpoint store,
so each does the same work; the row records every time with its median
and range, and the speedups are ratios of medians (a single timing of a
sub-second run read the same tree's cold speedup anywhere from 1.04x to
1.44x).

Alongside the timings, each row reports the relative IPC error of the
merged sampled result against the full run (the fast-forward warms the
data side too: it replays the skipped loads/stores through the data
hierarchy) and the sampled result's own relative CI95.  Each covered
preset is also gated through the equivalence oracle at a reduced region:
one interval spanning the whole region with no detailed warmup must be
byte-identical (counters) to the plain run — divergence aborts the
benchmark.

Every row carries a blessed ``max_error`` bound on the sampled IPC
error; ``--max-error M`` turns the bound into a hard gate (each row must
satisfy ``ipc_rel_error <= max_error * M``, exit 1 otherwise).  CI runs a
reduced-scale smoke with a loose multiplier; the committed full-scale
results must hold at ``--max-error 1``.

The committed results live in ``BENCH_sampling.json``; regenerate with::

    PYTHONPATH=src python benchmarks/bench_sampling.py

``--scale 0.05`` shrinks every region/interval proportionally for CI
smoke runs.  Rows run serially (``--jobs 1``) so speedups measure the work
actually avoided, not pool parallelism; interval shapes are tuned per
workload — with the data side warmed the main lever is the interval
*count* (statistical width), so large regions take many short intervals
rather than few long ones.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.sim.engine import BatchStats, run_batch, spec_for  # noqa: E402
from repro.sim.presets import PRESET_BUILDERS  # noqa: E402
from repro.workloads import store as program_store  # noqa: E402

DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_sampling.json"
)

# Instructions for the reduced-region byte-identity gate per preset.
IDENTITY_INSTRUCTIONS = 20_000
IDENTITY_WARMUP_BLOCKS = 2_000


@dataclasses.dataclass(frozen=True)
class Row:
    workload: str
    preset: str
    instructions: int
    num_intervals: int
    interval_length: int
    detailed_warmup: int
    # Blessed upper bound on the sampled relative IPC error; the
    # --max-error gate enforces it (scaled by its multiplier).
    max_error: float


ROWS = (
    # Small-footprint reference row: stays under 1% error.  The warming
    # fast-forward carries most of the state-warming burden, so the
    # detailed warmup can stay short without reopening the warmup bias.
    Row("mediawiki", "baseline", 500_000, 10, 4_000, 1_500, 0.01),
    Row("gcc", "baseline", 500_000, 25, 2_000, 1_000, 0.025),
    # The headline row: 7.9% before the fast-forward warmed the data side.
    Row("verilator", "baseline", 500_000, 25, 1_000, 500, 0.02),
    # Stall-dominated regime: idle-cycle fast-forward already accelerates
    # the full run, so sampling's win is smaller here by construction, and
    # per-interval IPC spread is wide (relative CI95 ~30%).
    Row("verilator", "miss-heavy", 100_000, 10, 2_000, 1_000, 0.03),
)


def _fresh_store_root() -> str:
    root = tempfile.mkdtemp(prefix="repro-bench-sampling-")
    os.environ["REPRO_CACHE_DIR"] = root
    return root


def _reset_process_state() -> None:
    """Make the next run pay program synthesis again, like a new process."""
    from repro.sim import checkpoint as ckpt

    program_store.clear_memo()
    ckpt._BLOB_MEMO.clear()


def _timed(spec, jobs: int):
    stats = BatchStats()
    started = time.perf_counter()
    (result,) = run_batch([spec], jobs=jobs, no_cache=True, progress=stats)
    return result, time.perf_counter() - started, stats


def _scaled(row: Row, scale: float) -> Row:
    if scale == 1.0:
        return row
    return Row(
        workload=row.workload,
        preset=row.preset,
        instructions=max(2_000, int(row.instructions * scale)),
        num_intervals=max(2, min(row.num_intervals,
                                 int(row.instructions * scale) // 200)),
        interval_length=max(100, int(row.interval_length * scale)),
        detailed_warmup=max(50, int(row.detailed_warmup * scale)),
        max_error=row.max_error,
    )


def _identity_gate(row: Row, seed: int, jobs: int) -> None:
    """Abort unless single-interval sampling is byte-identical to plain."""
    config = PRESET_BUILDERS[row.preset](IDENTITY_INSTRUCTIONS).replace(
        functional_warmup_blocks=IDENTITY_WARMUP_BLOCKS
    )
    plain, _, _ = _timed(spec_for(row.workload, config, seed, "plain"), jobs)
    degenerate = config.with_sampling(1, config.max_instructions, 0)
    sampled, _, _ = _timed(
        spec_for(row.workload, degenerate, seed, "degenerate"), jobs
    )
    if sampled.counters != plain.counters:
        raise SystemExit(
            f"{row.workload}/{row.preset}: single-interval sampling diverged "
            "from the plain run — equivalence bug"
        )


def _summary(seconds: list[float]) -> dict:
    """Every timing of one mode, with its median and range."""
    return {
        "seconds": [round(t, 3) for t in seconds],
        "median": round(statistics.median(seconds), 3),
        "min": round(min(seconds), 3),
        "max": round(max(seconds), 3),
    }


def bench_row(row: Row, seed: int, jobs: int, reps: int) -> dict:
    config = PRESET_BUILDERS[row.preset](row.instructions)
    sampled_config = config.with_sampling(
        row.num_intervals, row.interval_length, row.detailed_warmup
    )
    full_spec = spec_for(row.workload, config, seed, "full")
    sampled_spec = spec_for(row.workload, sampled_config, seed, "sampled")

    from repro.sim import checkpoint as ckpt

    times: dict[str, list[float]] = {"full": [], "sampled_cold": [], "sampled_warm": []}
    root = _fresh_store_root()
    try:
        _reset_process_state()
        _identity_gate(row, seed, jobs)

        for _ in range(reps):
            # Every rep creates the warmup checkpoint again: the program
            # store stays, the checkpoint store starts empty.
            ckpt.CheckpointStore().clear()
            _reset_process_state()
            full, t_full, _ = _timed(full_spec, jobs)

            _reset_process_state()
            cold, t_cold, cold_stats = _timed(sampled_spec, jobs)

            _reset_process_state()  # warm disk, cold process: the honest case
            warm, t_warm, warm_stats = _timed(sampled_spec, jobs)
            if warm.counters != cold.counters:
                raise SystemExit(
                    f"{row.workload}/{row.preset}: warm sampled run diverged "
                    "from cold — checkpoint-path bug"
                )
            for mode, seconds in zip(times, (t_full, t_cold, t_warm)):
                times[mode].append(seconds)
    finally:
        shutil.rmtree(root, ignore_errors=True)
        os.environ.pop("REPRO_CACHE_DIR", None)

    timings = {mode: _summary(seconds) for mode, seconds in times.items()}
    t_full, t_cold, t_warm = (timings[mode]["median"] for mode in times)

    def rel_error(result):
        return abs(result.ipc - full.ipc) / full.ipc if full.ipc else 0.0

    detailed = row.num_intervals * (row.interval_length + row.detailed_warmup)
    return {
        "workload": row.workload,
        "preset": row.preset,
        "instructions": row.instructions,
        "sampling": {
            "num_intervals": row.num_intervals,
            "interval_length": row.interval_length,
            "detailed_warmup": row.detailed_warmup,
            "detailed_fraction": round(detailed / row.instructions, 4),
        },
        "ipc_full": round(full.ipc, 4),
        "ipc_sampled": round(cold.ipc, 4),
        "ipc_rel_error": round(rel_error(cold), 4),
        "max_error": row.max_error,
        "ipc_relative_ci95": round(cold.sampling["ipc_relative_ci95"], 4),
        # Medians over the reps; every timing is under "timings".
        "full_seconds": t_full,
        "sampled_cold_seconds": t_cold,
        "sampled_warm_seconds": t_warm,
        "speedup_cold": round(t_full / t_cold, 2),
        "speedup_warm": round(t_full / t_warm, 2),
        "timings": timings,
        "identity_ok": True,  # enforced above; divergence aborts
        "batch_stats": {
            "sampled_cold": cold_stats.summary(),
            "sampled_warm": warm_stats.summary(),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=1,
                        help="pool workers (default 1: isolate sampling gains)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink regions/intervals proportionally (CI smoke)")
    parser.add_argument("--reps", type=int, default=3,
                        help="timed repetitions per mode (medians reported)")
    parser.add_argument("--max-error", type=float, default=None, metavar="M",
                        help="fail (exit 1) any row whose sampled IPC "
                             "error exceeds its blessed max_error times M "
                             "(use 1 at full scale, looser for scaled smokes)")
    parser.add_argument("-o", "--out", default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    rows = []
    for template in ROWS:
        row = _scaled(template, args.scale)
        print(f"{row.workload}/{row.preset}: {row.instructions} instructions, "
              f"K={row.num_intervals} x ({row.interval_length} measured + "
              f"{row.detailed_warmup} warmup) ...", flush=True)
        result = bench_row(row, args.seed, args.jobs, args.reps)
        rows.append(result)
        print(f"  medians of {args.reps}: full {result['full_seconds']:.2f}s | "
              f"cold {result['sampled_cold_seconds']:.2f}s "
              f"({result['speedup_cold']:.1f}x) | "
              f"warm {result['sampled_warm_seconds']:.2f}s "
              f"({result['speedup_warm']:.1f}x) | "
              f"IPC err {result['ipc_rel_error']:.2%} "
              f"(CI95 {result['ipc_relative_ci95']:.2%})")

    gate = [
        f"{r['workload']}/{r['preset']}"
        for r in rows
        if r["speedup_warm"] >= 5.0 and r["ipc_rel_error"] <= r["max_error"]
    ]
    print(f"\nrows meeting the >=5x / per-row max_error gate: "
          f"{', '.join(gate) or 'none'}")

    violations = []
    if args.max_error is not None:
        for r in rows:
            bound = r["max_error"] * args.max_error
            if r["ipc_rel_error"] > bound:
                violations.append(
                    f"{r['workload']}/{r['preset']}: "
                    f"{r['ipc_rel_error']:.2%} > {bound:.2%}"
                )
        if violations:
            print("max-error gate FAILED:\n  " + "\n  ".join(violations))
        else:
            print(f"max-error gate passed (multiplier {args.max_error})")

    payload = {
        "benchmark": "sampling",
        "python": sys.version.split()[0],
        "scale": args.scale,
        "jobs": args.jobs,
        "reps": args.reps,
        "gate_rows": gate,
        "results": rows,
    }
    out = os.path.normpath(args.out)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out}")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
