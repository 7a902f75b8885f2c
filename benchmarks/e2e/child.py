"""One set-up or one rep of the end-to-end benchmark, in its own process.

``run.py`` starts this script in a fresh process for every set-up and every
rep, with ``REPRO_CACHE_DIR`` pointing at a directory of that process's
own, and measures wall time, CPU time and peak RSS from outside.  This side
drives the simulator through its public API only — the preset builders,
``spec_for`` and ``run_batch`` — and writes what only the inside can see to
a JSON file: per-spec counter digests and IPCs, per-unit seconds from the
engine's ``RunEvent`` callbacks, and, for the traced rep, the span ledger.

* ``setup`` imports ``repro``, builds the C kernels and synthesizes and
  stores the workload's programs;
* ``rep`` runs the workload's batch once, serially (``jobs=1``).
"""

from __future__ import annotations

import time

STARTED_NS = time.perf_counter_ns()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
from contextlib import nullcontext  # noqa: E402

from repro.common import cc  # noqa: E402
from repro.sim import presets  # noqa: E402
from repro.sim.engine import run_batch, spec_for  # noqa: E402
from repro.workloads import store  # noqa: E402

IMPORTED_NS = time.perf_counter_ns()

import trace as tracing  # noqa: E402  (benchmarks/e2e/trace.py)

# The paper's Fig 13 grid (experiments.fig13_udp_speedup) on one program:
# all seven configurations, so every technique hook runs.  clang's speed
# varies least from seed to seed among the programs tried (README
# "Workloads"), and the sizes keep each serial rep near 3-4 s.
FIG13_WORKLOADS = ("clang",)
FIG13_CONFIGS = (
    ("baseline", presets.baseline_config),
    ("udp", presets.udp_config),
    ("infinite", presets.infinite_storage_config),
    ("icache-40k", presets.bigger_icache_config),
    ("eip-8k", presets.eip_config),
    ("mana-8k", presets.mana_config),
    ("shadow-btb", presets.shadow_btb_config),
)
MISS_HEAVY_WORKLOADS = ("verilator", "gcc")
# Low-IPC programs need far more cycles than the preset's 5M-cycle guard
# allows at these lengths; the guard is not what this workload measures.
MISS_HEAVY_MAX_CYCLES = 100_000_000
# The warming-fast-forward interval shape of BENCH_sampling's verilator
# row, over a 300k region (its row uses 500k); at seed 1 the sampled IPC
# is within 1% of the full-fidelity run's.
SAMPLED_INTERVALS = 25
SAMPLED_LENGTH = 1_000
SAMPLED_WARMUP = 500


def _n(instructions: int, scale: float) -> int:
    return max(1_000, int(instructions * scale))


def _spec(workload, config, seed, label, scale):
    if scale < 1.0:
        # Tiny self-test scales shrink the functional warmup too, which
        # otherwise dominates a rep of a few thousand instructions.
        blocks = max(200, int(config.functional_warmup_blocks * scale))
        config = config.replace(functional_warmup_blocks=blocks)
    return spec_for(workload, config, seed, label)


def fig13_grid(seed: int, scale: float) -> list:
    n = _n(15_000, scale)
    return [
        _spec(workload, build(n, seed), seed, label, scale)
        for workload in FIG13_WORKLOADS
        for label, build in FIG13_CONFIGS
    ]


def long_udp(seed: int, scale: float) -> list:
    return [_spec("verilator", presets.udp_config(_n(120_000, scale), seed), seed, "udp", scale)]


def miss_heavy(seed: int, scale: float) -> list:
    n = _n(50_000, scale)
    return [
        _spec(
            workload,
            presets.miss_heavy_config(n, seed).replace(max_cycles=MISS_HEAVY_MAX_CYCLES),
            seed,
            "miss-heavy",
            scale,
        )
        for workload in MISS_HEAVY_WORKLOADS
    ]


def sampled(seed: int, scale: float) -> list:
    length = max(1, int(SAMPLED_LENGTH * scale))
    warmup = int(SAMPLED_WARMUP * scale)
    region = max(_n(300_000, scale), SAMPLED_INTERVALS * (length + warmup))
    config = presets.udp_config(region, seed).with_sampling(SAMPLED_INTERVALS, length, warmup)
    return [_spec("verilator", config, seed, "udp", scale)]


WORKLOADS = {
    "fig13-grid": fig13_grid,
    "long-udp": long_udp,
    "miss-heavy": miss_heavy,
    "sampled": sampled,
}


def digest(counters: dict) -> str:
    """sha256 of the sorted measured counters: the spec's correctness key."""
    return hashlib.sha256(json.dumps(sorted(counters.items())).encode()).hexdigest()


def setup(args, tracer) -> dict:
    with tracer.span("common.cc.build") if tracer else nullcontext():
        compiled = cc.kernels() is not None
    for workload in sorted({s.workload for s in WORKLOADS[args.workload](args.seed, args.scale)}):
        store.materialize(workload, args.seed)
    return {"compiled": compiled}


def rep(args, tracer) -> dict:
    specs = WORKLOADS[args.workload](args.seed, args.scale)
    if args.full_fidelity:
        specs = [
            spec_for(s.workload, s.config.without_sampling(), s.seed, s.label) for s in specs
        ]
    events = []
    started = time.perf_counter()
    with tracer.span("sim.engine.run_batch") if tracer else nullcontext():
        results = run_batch(specs, jobs=1, progress=events.append, on_failure="keep-going")
    batch_s = time.perf_counter() - started
    errors = {e.index: e.error for e in events if e.error is not None}
    out = {
        "instructions": sum(s.config.max_instructions for s in specs),
        "batch_s": batch_s,
        "units": [e.seconds for e in events if e.error is None],
        "specs": [
            {
                "id": f"{s.workload}/{s.label}",
                "error": errors.get(i),
                "digest": digest(r.counters) if r is not None else None,
                "ipc": r.ipc if r is not None else 0.0,
                "icache_mpki": r.icache_mpki if r is not None else 0.0,
                "prefetch_aur": r.utility if r is not None else 0.0,
            }
            for i, (s, r) in enumerate(zip(specs, results))
        ],
    }
    if tracer is not None:
        out["kernel_calls"] = cc.kernel_call_counts()
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "rep"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--full-fidelity", action="store_true",
                        help="run sampled specs at full fidelity (reference IPC)")
    parser.add_argument("--out", required=True, help="result JSON path")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.add_span("e2e.import", STARTED_NS, IMPORTED_NS)
        tracing.install(tracer)
    out = (setup if args.mode == "setup" else rep)(args, tracer)
    if tracer is not None:
        # The traced wall: this process from its first line to the end of
        # the work, which the top-level spans must account for.
        wall_ns = time.perf_counter_ns() - STARTED_NS
        tracer.uninstall()
        out["trace"] = {**tracer.to_dict(), "wall_ns": wall_ns}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
