#!/usr/bin/env python3
"""End-to-end simulator throughput benchmark: fast vs. naive KIPS.

Unlike the ``bench_fig*.py`` harness (which times *experiments* through the
cached engine), this script times raw :class:`Simulator` runs — the object
of study is the simulator itself, so every run is built fresh and nothing
touches the result cache.  For each preset it measures retired-KIPS
(thousands of simulated instructions per wall-clock second) in three
configurations: **compiled** — the runtime-built C kernels plus idle-cycle
fast-forward, with the whole cycle loop in C on the presets the compiled
cycle driver covers — **fast** — the object structures plus fast-forward
(``REPRO_NO_COMPILED`` semantics) — and the **naive** oracle configuration
— object structures and the one-cycle-at-a-time stepper (``compiled=False``
with ``fast_forward_enabled = False``).  The median
over ``--reps`` interleaved repetitions is reported (container wall-clock
is noisy), and all modes are cross-checked for byte-identical
``measured_counters()``.  On a compiler-less host the compiled mode
silently falls back to the object structures; the row records
``compiled_enabled`` so a ~1.0x compiled speedup is attributable.

The committed reference results live in ``BENCH_throughput.json`` at the
repo root; regenerate with::

    PYTHONPATH=src python benchmarks/bench_sim_throughput.py

The ``miss-heavy`` preset is the headline: a DRAM-bound fetch stress where
>95% of cycles are pure icache-miss stalls, which fast-forward skips in
bulk (see docs/performance.md).  ``--min-speedup X`` exits non-zero unless
the best per-preset fast/naive speedup reaches ``X`` (the CI smoke gate).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from statistics import median

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.sim.presets import PRESET_BUILDERS  # noqa: E402
from repro.sim.profile import build_simulator  # noqa: E402

DEFAULT_PRESETS = [
    "miss-heavy", "no-prefetch", "baseline", "udp", "mana", "shadow-btb",
]
DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_throughput.json"
)


def _run_once(
    workload: str, preset: str, n: int, seed: int, fast: bool, compiled: bool
):
    """One fresh simulation; returns (simulator, wall seconds).

    ``fast=True`` turns on idle-cycle fast-forward; ``compiled=True`` swaps
    the object structures for the runtime-built C kernels.  ``fast=False,
    compiled=False`` is the pure object oracle with the naive stepper,
    regardless of the ambient ``REPRO_NO_*`` env.
    """
    config = PRESET_BUILDERS[preset](n, seed)
    simulator = build_simulator(workload, config, seed, compiled=compiled)
    simulator.fast_forward_enabled = fast
    started = time.perf_counter()
    simulator.run()
    return simulator, time.perf_counter() - started


# (label, fast, compiled) for the three benchmarked configurations.
_MODES = (
    ("compiled", True, True),
    ("fast", True, False),
    ("naive", False, False),
)


def bench_preset(workload: str, preset: str, n: int, seed: int, reps: int) -> dict:
    """Benchmark one preset; mode reps are interleaved against drift."""
    secs: dict[str, list[float]] = {label: [] for label, _, _ in _MODES}
    sims: dict[str, object] = {}
    for _ in range(reps):
        for label, fast, compiled in _MODES:
            sim, s = _run_once(workload, preset, n, seed, fast, compiled)
            secs[label].append(s)
            sims[label] = sim

    retired = sims["fast"].backend.retired_instructions
    kips = {
        label: [retired / s / 1000.0 for s in secs[label]] for label in secs
    }
    medians = {label: median(kips[label]) for label in kips}
    reference = sims["fast"].measured_counters()
    identical = all(
        sims[label].measured_counters() == reference for label, _, _ in _MODES
    )
    return {
        "preset": preset,
        "workload": workload,
        "instructions": retired,
        "cycles": sims["fast"].cycle,
        "compiled_enabled": sims["compiled"].compiled_enabled,
        "compiled": {
            "median_kips": round(medians["compiled"], 1),
            "kips": [round(k, 1) for k in kips["compiled"]],
            "steps_executed": sims["compiled"].steps_executed,
        },
        "fast": {
            "median_kips": round(medians["fast"], 1),
            "kips": [round(k, 1) for k in kips["fast"]],
            "steps_executed": sims["fast"].steps_executed,
            "ff_cycles_skipped": sims["fast"].ff_cycles_skipped,
            "ff_jumps": sims["fast"].ff_jumps,
        },
        "naive": {
            "median_kips": round(medians["naive"], 1),
            "kips": [round(k, 1) for k in kips["naive"]],
            "steps_executed": sims["naive"].steps_executed,
        },
        "speedup": round(medians["fast"] / medians["naive"], 2),
        "compiled_speedup": round(medians["compiled"] / medians["fast"], 2),
        "counters_identical": identical,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-w", "--workload", default="verilator")
    parser.add_argument(
        "-p", "--presets", default=",".join(DEFAULT_PRESETS),
        help="comma-separated preset names (see `repro list-configs`)",
    )
    parser.add_argument("-n", "--instructions", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=3,
                        help="repetitions per mode (median is reported)")
    parser.add_argument("-o", "--out", default=DEFAULT_OUT)
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="exit non-zero unless the best per-preset fast/naive speedup "
             "reaches this factor (CI smoke gate)",
    )
    parser.add_argument(
        "--min-compiled-speedup", type=float, default=None,
        help="exit non-zero unless the best per-preset compiled/fast "
             "speedup reaches this factor (no-op when the kernels did not "
             "build — fallback hosts cannot gate on compiled throughput)",
    )
    args = parser.parse_args(argv)

    presets = [p.strip() for p in args.presets.split(",") if p.strip()]
    results = []
    print(f"{'preset':<14} {'comp KIPS':>10} {'fast KIPS':>10} "
          f"{'naive KIPS':>11} {'comp/fast':>10} {'fast/naive':>11} identical")
    for preset in presets:
        row = bench_preset(
            args.workload, preset, args.instructions, args.seed, args.reps
        )
        results.append(row)
        print(
            f"{preset:<14} {row['compiled']['median_kips']:>10.1f} "
            f"{row['fast']['median_kips']:>10.1f} "
            f"{row['naive']['median_kips']:>11.1f} "
            f"{row['compiled_speedup']:>9.2f}x {row['speedup']:>10.2f}x "
            f"{row['counters_identical']}"
        )
        if not row["counters_identical"]:
            print(f"ERROR: counter mismatch on {preset}", file=sys.stderr)
            return 1

    payload = {
        "benchmark": "sim_throughput",
        "workload": args.workload,
        "instructions": args.instructions,
        "seed": args.seed,
        "reps": args.reps,
        "python": sys.version.split()[0],
        "results": results,
    }
    out = os.path.normpath(args.out)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"\nwrote {out}")

    if args.min_speedup is not None:
        best = max(row["speedup"] for row in results)
        if best < args.min_speedup:
            print(
                f"ERROR: best speedup {best:.2f}x below required "
                f"{args.min_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
        print(f"speedup gate passed: best {best:.2f}x >= "
              f"{args.min_speedup:.2f}x")

    if args.min_compiled_speedup is not None:
        if not any(row["compiled_enabled"] for row in results):
            print("compiled gate skipped: kernels unavailable on this host")
        else:
            best = max(row["compiled_speedup"] for row in results)
            if best < args.min_compiled_speedup:
                print(
                    f"ERROR: best compiled speedup {best:.2f}x below "
                    f"required {args.min_compiled_speedup:.2f}x",
                    file=sys.stderr,
                )
                return 1
            print(f"compiled gate passed: best {best:.2f}x >= "
                  f"{args.min_compiled_speedup:.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
