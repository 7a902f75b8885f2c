"""Command-line interface: run simulations and regenerate paper experiments.

Usage (after ``pip install -e .``)::

    python -m repro list-workloads
    python -m repro run -w xgboost -c udp -n 20000
    python -m repro run -w gcc -c baseline -n 100000 --sample 10
    python -m repro compare -w xgboost,gcc -c baseline,udp,perfect-icache
    python -m repro figure fig3 -w mysql,verilator -n 15000 --jobs 4 --progress
    python -m repro profile -w verilator -c miss-heavy -n 50000
    python -m repro trace -w mysql --blocks 3000 -o mysql.trace.jsonl
    python -m repro cache info
    python -m repro cache clear --class programs
    python -m repro bless-golden

Simulation-running commands accept engine knobs: ``--jobs N`` (worker
processes; default ``REPRO_JOBS`` or all cores), ``--no-cache`` (bypass the
on-disk result cache), ``--progress`` (per-run progress lines on stderr),
and the failure-handling trio ``--retries N`` / ``--unit-timeout S`` /
``--on-failure {raise,fail-fast,keep-going}``.  A batch summary (runs /
cache hits / simulator seconds / failures) is always printed after the
command; a partially failed batch prints a per-spec failure table and
exits non-zero (see docs/running_experiments.md, "Failure handling &
fault injection").
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis import experiments
from repro.analysis.tables import format_table
from repro.sim import engine
from repro.sim.presets import PRESET_BUILDERS, apply_sampling
from repro.workloads.profiles import SUITE
from repro.workloads.store import program_for
from repro.workloads.tracefile import record_trace

# Figures read off the FTQ sweep; fig11/fig12 also need it, for OPT.
_SWEEP_FIGURES = {
    "fig3": experiments.fig3_ftq_sweep,
    "fig4": experiments.fig4_timeliness,
    "fig5": experiments.fig5_on_path_ratio,
    "fig6": experiments.fig6_usefulness,
    "fig8": experiments.fig8_occupancy,
    "table3": experiments.table3_optimal_ftq,
}
_FIGURES_NEEDING_SWEEP = set(_SWEEP_FIGURES) | {"fig11", "fig12"}


def _parse_workloads(value: str | None) -> list[str] | None:
    if not value:
        return None
    return [w.strip() for w in value.split(",") if w.strip()]


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for simulation batches (default: REPRO_JOBS or all cores)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache for this invocation",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print one progress line per completed run to stderr",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="extra attempts per failed work unit (default: REPRO_RETRIES or 1)",
    )
    parser.add_argument(
        "--unit-timeout", type=float, default=None, metavar="S",
        help="per-unit wall-clock budget in seconds "
             "(default: REPRO_UNIT_TIMEOUT or unlimited)",
    )
    parser.add_argument(
        "--on-failure", choices=engine.FAILURE_POLICIES, default=None,
        help="what to do when a spec fails permanently: finish the rest then "
             "error ('raise', default), abort immediately ('fail-fast'), or "
             "report and continue ('keep-going')",
    )


def _add_sampling_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sample", type=int, default=0, metavar="K",
        help="interval-sample the measured region over K systematic intervals "
             "(default: full-fidelity simulation)",
    )
    parser.add_argument(
        "--sample-length", type=int, default=None, metavar="N",
        help="measured instructions per interval (default: 10%% of the period)",
    )
    parser.add_argument(
        "--sample-warmup", type=int, default=None, metavar="N",
        help="detailed but unmeasured warmup instructions before each "
             "interval (default: half the interval length)",
    )
    parser.add_argument(
        "--sample-error", type=float, default=None, metavar="PCT",
        help="adaptively escalate sampling (more intervals, then longer "
             "detailed warmup) until each run's relative CI95 is at most "
             "PCT percent; implies --sample "
             f"{_DEFAULT_ADAPTIVE_INTERVALS} when --sample is not given",
    )


# Starting interval count when --sample-error is given without --sample;
# the adaptive loop doubles it as needed, so it only sets the floor.
_DEFAULT_ADAPTIVE_INTERVALS = 10


def _apply_sampling_args(config, args):
    """Overlay the ``--sample*`` flags onto a preset config."""
    intervals = getattr(args, "sample", 0)
    if not intervals and getattr(args, "sample_error", None) is not None:
        intervals = _DEFAULT_ADAPTIVE_INTERVALS
    if not intervals:
        return config
    return apply_sampling(config, intervals, args.sample_length, args.sample_warmup)


def _sample_error_fraction(args) -> float | None:
    """The ``--sample-error`` percentage as the engine's fraction target."""
    percent = getattr(args, "sample_error", None)
    if percent is None:
        return None
    if not 0.0 < percent < 100.0:
        raise SystemExit(
            f"--sample-error must be a percentage in (0, 100), got {percent}"
        )
    return percent / 100.0


def _sampling_summary(result) -> str | None:
    """One stderr-ready line describing a sampled result's error estimate."""
    block = result.sampling
    if not block:
        return None
    line = (
        f"sampled: {block['num_intervals']} intervals x "
        f"{block['interval_length']} instructions "
        f"(+{block['detailed_warmup']} detailed warmup), "
        f"IPC {result.ipc:.4f} +/- {block['ipc_ci95_half']:.4f} "
        f"({block['ipc_relative_ci95']:.1%} rel. CI95), "
        f"{block['ff_instructions_total']} instructions fast-forwarded"
    )
    adaptive = block.get("adaptive")
    if adaptive:
        verdict = "met" if adaptive["met"] else "NOT met"
        line += (
            f"; adaptive target {adaptive['target']:.1%} {verdict} "
            f"after {adaptive['rounds']} round(s)"
        )
    return line


# The stats object of the command in flight, so the top-level BatchError
# handler can still print the batch summary after a partial failure.
_active_stats: engine.BatchStats | None = None


def _install_engine_options(args) -> engine.BatchStats:
    """Apply the engine knobs and install the progress callback.

    The knobs (``--jobs``, ``--no-cache``, ``--retries``,
    ``--unit-timeout``, ``--on-failure``) are exported as environment
    variables so every nested ``run_batch`` call (experiment drivers,
    analysis helpers) picks them up.
    """
    global _active_stats
    if getattr(args, "jobs", None) is not None:
        os.environ[engine.JOBS_ENV] = str(args.jobs)
    if getattr(args, "no_cache", False):
        os.environ[engine.NO_CACHE_ENV] = "1"
    if getattr(args, "retries", None) is not None:
        os.environ[engine.RETRIES_ENV] = str(args.retries)
    if getattr(args, "unit_timeout", None) is not None:
        os.environ[engine.UNIT_TIMEOUT_ENV] = str(args.unit_timeout)
    if getattr(args, "on_failure", None) is not None:
        os.environ[engine.FAILURE_POLICY_ENV] = args.on_failure
    stats = engine.BatchStats()
    verbose = getattr(args, "progress", False)

    def callback(event: engine.RunEvent) -> None:
        stats(event)
        if verbose:
            if event.error is not None:
                print(
                    f"[{event.completed}/{event.total}] "
                    f"{event.spec.workload}/{event.spec.label} FAILED "
                    f"({event.failure_kind}, {event.attempts} attempt"
                    f"{'s' if event.attempts != 1 else ''}): {event.error}",
                    file=sys.stderr,
                )
                return
            if event.cached:
                source = "cache hit"
            else:
                source = f"{event.seconds:.2f}s"
                if event.warmup_seconds:
                    source += f", warmup walked in {event.warmup_seconds:.3f}s"
                if event.intervals:
                    source += f", {event.intervals} intervals"
            print(
                f"[{event.completed}/{event.total}] "
                f"{event.spec.workload}/{event.spec.label} ({source})",
                file=sys.stderr,
            )

    engine.set_default_progress(callback)
    _active_stats = stats
    return stats


def _print_engine_summary(stats: engine.BatchStats) -> None:
    if stats.runs:
        print(stats.summary(), file=sys.stderr)


def _report_batch_failures(exc: engine.BatchError) -> None:
    """One-line-per-spec failure table on stderr for a partial batch."""
    print(
        f"batch failed: {len(exc.failures)} of {exc.total} specs "
        f"({exc.completed} completed)",
        file=sys.stderr,
    )
    rows = [
        [
            f"{failure.workload}/{failure.label}",
            failure.seed,
            failure.kind,
            failure.attempts,
            failure.message,
        ]
        for failure in exc.failures
    ]
    print(
        format_table(["spec", "seed", "kind", "attempts", "error"], rows),
        file=sys.stderr,
    )


def cmd_list_workloads(_args) -> int:
    rows = [
        [p.name, p.description, p.num_functions, p.dispatcher]
        for p in SUITE
    ]
    print(format_table(["workload", "description", "functions", "dispatcher"], rows))
    return 0


def cmd_list_configs(_args) -> int:
    for name in sorted(PRESET_BUILDERS):
        print(name)
    return 0


def cmd_techniques(args) -> int:
    """``repro techniques list``: the registry, straight from the source."""
    import dataclasses

    from repro.prefetchers import registry

    if args.action != "list":
        print(f"unknown techniques action {args.action!r}", file=sys.stderr)
        return 2
    rows = []
    for technique in registry.techniques():
        params = technique.params_cls()
        knobs = ", ".join(
            f"{f.name}={getattr(params, f.name)!r}"
            for f in dataclasses.fields(technique.params_cls)
        )
        rows.append(
            [
                technique.name,
                technique.capabilities.describe(),
                knobs or "-",
                technique.summary,
            ]
        )
    print(
        format_table(
            ["technique", "capabilities", "params (defaults)", "summary"],
            rows,
            title=f"{len(rows)} registered prefetch techniques",
        )
    )
    return 0


def cmd_run(args) -> int:
    stats = _install_engine_options(args)
    config = _apply_sampling_args(
        PRESET_BUILDERS[args.config](args.instructions), args
    )
    spec = engine.spec_for(args.workload, config, args.seed, args.config)
    result = engine.run_batch(
        [spec], sample_error=_sample_error_fraction(args)
    )[0]
    if result is None:  # --on-failure keep-going and the single run failed
        print(f"{args.workload} / {args.config}: FAILED", file=sys.stderr)
        _print_engine_summary(stats)
        return 1
    summary = result.summary()
    rows = [[key, f"{value:.4f}"] for key, value in summary.items()]
    print(format_table(["metric", "value"], rows,
                       title=f"{args.workload} / {args.config}"))
    sampled = _sampling_summary(result)
    if sampled:
        print(sampled)
    if args.counters:
        for name, value in sorted(result.counters.items()):
            print(f"{name} = {value}")
    _print_engine_summary(stats)
    return 0


def cmd_compare(args) -> int:
    stats = _install_engine_options(args)
    workloads = _parse_workloads(args.workloads) or [p.name for p in SUITE]
    configs = _parse_workloads(args.configs) or ["baseline", "udp"]
    # --prefetcher NAME columns: the Table II baseline with any *registered*
    # technique selected, preset or not (satellite of the registry redesign).
    for kind in args.prefetcher or []:
        if kind not in configs:
            configs.append(kind)

    def build_config(config_name: str):
        if config_name in PRESET_BUILDERS:
            return PRESET_BUILDERS[config_name](args.instructions)
        from repro.sim.presets import baseline_config

        return baseline_config(args.instructions).with_prefetcher(config_name)

    from repro.common.errors import ConfigError
    from repro.prefetchers.registry import get_technique

    for config_name in configs:
        if config_name not in PRESET_BUILDERS:
            try:
                get_technique(config_name)
            except ConfigError as exc:
                print(f"repro compare: {exc}", file=sys.stderr)
                return 2

    specs = [
        engine.spec_for(
            workload,
            _apply_sampling_args(build_config(config_name), args),
            args.seed, config_name,
        )
        for workload in workloads
        for config_name in configs
    ]
    runs = dict(
        zip(
            ((s.workload, s.label) for s in specs),
            engine.run_batch(specs, sample_error=_sample_error_fraction(args)),
        )
    )
    headers = ["workload"] + [f"{c} IPC" for c in configs]
    rows = []
    failed = 0
    for workload in workloads:
        row: list[object] = [workload]
        base_ipc = None
        for config_name in configs:
            result = runs[(workload, config_name)]
            if result is None:  # --on-failure keep-going left a hole
                failed += 1
                row.append("FAILED")
            elif base_ipc is None:
                base_ipc = result.ipc
                row.append(f"{result.ipc:.3f}")
            else:
                pct = (result.ipc / base_ipc - 1) * 100 if base_ipc else 0.0
                row.append(f"{result.ipc:.3f} ({pct:+.1f}%)")
        rows.append(row)
    print(format_table(headers, rows, title=f"{args.instructions} instructions/run"))
    _print_engine_summary(stats)
    return 1 if failed else 0


def cmd_figure(args) -> int:
    stats = _install_engine_options(args)
    workloads = _parse_workloads(args.workloads)
    name = args.name
    sweep = (
        experiments.ftq_sweep_suite(workloads, instructions=args.instructions)
        if name in _FIGURES_NEEDING_SWEEP
        else None
    )
    if name in _SWEEP_FIGURES:
        result = _SWEEP_FIGURES[name](sweep)
    elif name == "fig1":
        result = experiments.fig1_perfect_icache(workloads, args.instructions)
    elif name in ("fig11", "fig12"):
        fig11 = experiments.fig11_uftq_speedup(
            workloads, args.instructions,
            opt_depths=experiments.optimal_depths(sweep),
        )
        result = fig11 if name == "fig11" else experiments.fig12_uftq_mpki(fig11)
    elif name in ("fig13", "fig14", "fig15"):
        fig13 = experiments.fig13_udp_speedup(workloads, args.instructions)
        result = {
            "fig13": lambda: fig13,
            "fig14": lambda: experiments.fig14_udp_mpki(fig13),
            "fig15": lambda: experiments.fig15_lost_instructions(fig13),
        }[name]()
    elif name == "fig16":
        result = experiments.fig16_btb_sensitivity(workloads, instructions=args.instructions)
    elif name == "fig17":
        result = experiments.fig17_ftq_sensitivity(workloads, instructions=args.instructions)
    else:
        print(f"unknown figure {name!r}", file=sys.stderr)
        return 2
    print(result["table"])
    _print_engine_summary(stats)
    return 0


def cmd_profile(args) -> int:
    from repro.sim.profile import format_report, profile_run

    config = PRESET_BUILDERS[args.config](args.instructions)
    report = profile_run(
        args.workload,
        config,
        config_name=args.config,
        seed=args.seed,
        fast_forward=not args.no_fastforward,
        top=args.top,
    )
    print(format_report(report))
    if args.out:
        import json

        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, indent=2)
        print(f"\nwrote {args.out}")
    return 0


def cmd_trace(args) -> int:
    program = program_for(args.workload, args.seed)
    instructions = record_trace(program, args.blocks, args.out)
    print(f"wrote {args.blocks} blocks ({instructions} instructions) to {args.out}")
    return 0


def cmd_characterize(args) -> int:
    from repro.analysis.characterize import (
        characterization_table,
        characterize_suite,
        validate_characteristics,
    )

    characters = characterize_suite(
        _parse_workloads(args.workloads), instructions=args.instructions
    )
    print(characterization_table(characters))
    problems = validate_characteristics(characters)
    if problems:
        print("\nvalidation problems:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("\nall characteristic orderings hold")
    return 0


def cmd_report(args) -> int:
    from repro.analysis.report import write_report

    stats = _install_engine_options(args)
    write_report(
        args.out,
        workloads=_parse_workloads(args.workloads),
        instructions=args.instructions,
        sweep_workloads=_parse_workloads(args.sweep_workloads),
    )
    print(f"wrote {args.out}")
    _print_engine_summary(stats)
    return 0


_CACHE_CLASSES = engine.CACHE_CLASSES


def _human_size(num_bytes: int) -> str:
    """``2048`` -> ``"2.0 KiB"``; keeps bytes below 1 KiB as-is."""
    size = float(num_bytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if size < 1024.0 or unit == "TiB":
            if unit == "B":
                return f"{int(size)} B"
            return f"{size:.1f} {unit}"
        size /= 1024.0
    raise AssertionError("unreachable")


def _parse_cache_classes(value: str) -> tuple[str, ...]:
    """Validate a comma-separated ``--class`` value (``all`` = every class).

    Raises ``ValueError`` naming both the offender and the accepted names,
    so a typo like ``program`` gets a correction, not a stack trace.
    """
    names = [name.strip() for name in value.split(",") if name.strip()]
    if not names:
        raise ValueError(
            "no cache class given; expected one of: "
            + ", ".join(_CACHE_CLASSES + ("all",))
        )
    if "all" in names:
        return _CACHE_CLASSES
    unknown = [name for name in names if name not in _CACHE_CLASSES]
    if unknown:
        raise ValueError(
            f"unknown cache class{'es' if len(unknown) > 1 else ''} "
            f"{', '.join(repr(name) for name in unknown)}; "
            "expected one of: " + ", ".join(_CACHE_CLASSES + ("all",))
        )
    # Preserve the canonical order and drop duplicates.
    return tuple(name for name in _CACHE_CLASSES if name in names)


def cmd_cache(args) -> int:
    cache = engine.default_cache()
    if args.action == "info":
        info = cache.info()
        total = info.size_bytes + info.program_bytes
        print(f"cache directory : {info.root}")
        print(f"results         : {info.entries} entries, "
              f"{_human_size(info.size_bytes)} ({info.size_bytes} bytes)")
        print(f"programs        : {info.programs} entries, "
              f"{_human_size(info.program_bytes)} ({info.program_bytes} bytes)")
        print(f"total size      : {_human_size(total)} ({total} bytes)")
        print(f"key fingerprint : {engine.package_fingerprint()}")
        return 0
    if args.action == "clear":
        try:
            selected = _parse_cache_classes(args.artifact_class)
        except ValueError as exc:
            print(f"repro cache clear: {exc}", file=sys.stderr)
            return 2
        removed = cache.clear(selected)
        print(f"removed {removed} cached artifacts "
              f"({', '.join(selected)}) from {cache.root}")
        return 0
    print(f"unknown cache action {args.action!r}", file=sys.stderr)
    return 2


def cmd_bless_golden(args) -> int:
    from repro.sim import golden

    written = golden.bless(args.out or None)
    print(f"blessed {len(PRESET_BUILDERS)} presets "
          f"({golden.WORKLOAD}, {golden.INSTRUCTIONS} instructions, "
          f"seed {golden.SEED}) -> {written}")
    print("review the diff before committing: git diff " + str(written))
    return 0


def cmd_reuse(args) -> int:
    from repro.workloads.reuse import code_reuse_profile

    program = program_for(args.workload, args.seed)
    profile = code_reuse_profile(program, num_blocks=args.blocks)
    print(f"{args.workload}: {profile.total_accesses} line accesses, "
          f"{profile.cold_accesses} cold, "
          f"median reuse distance {profile.median_distance}")
    capacities = [64, 128, 256, 512, 640, 1024, 4096]
    for capacity, miss in profile.miss_curve(capacities):
        marker = "  <- 32KiB L1I" if capacity == 512 else (
            "  <- 40KiB L1I" if capacity == 640 else "")
        print(f"  {capacity:5d} lines: predicted miss rate {miss:6.1%}{marker}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="UDP (ISCA 2024) reproduction: simulations and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-workloads", help="show the 10 suite workloads").set_defaults(
        fn=cmd_list_workloads
    )
    sub.add_parser("list-configs", help="show technique presets").set_defaults(
        fn=cmd_list_configs
    )

    techniques = sub.add_parser(
        "techniques", help="inspect the prefetch-technique registry"
    )
    techniques.add_argument("action", choices=["list"])
    techniques.set_defaults(fn=cmd_techniques)

    run = sub.add_parser("run", help="simulate one workload/config pair")
    run.add_argument("-w", "--workload", default="xgboost")
    run.add_argument("-c", "--config", default="baseline", choices=sorted(PRESET_BUILDERS))
    run.add_argument("-n", "--instructions", type=int, default=20_000)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--counters", action="store_true", help="dump raw counters")
    _add_engine_args(run)
    _add_sampling_args(run)
    run.set_defaults(fn=cmd_run)

    compare = sub.add_parser("compare", help="IPC table across workloads x configs")
    compare.add_argument("-w", "--workloads", default="")
    compare.add_argument("-c", "--configs", default="baseline,udp")
    compare.add_argument(
        "--prefetcher", action="append", default=None, metavar="KIND",
        help="add a column running the baseline with this registered "
             "prefetch technique (repeatable; see `repro techniques list`)",
    )
    compare.add_argument("-n", "--instructions", type=int, default=20_000)
    compare.add_argument("--seed", type=int, default=1)
    _add_engine_args(compare)
    _add_sampling_args(compare)
    compare.set_defaults(fn=cmd_compare)

    figure = sub.add_parser("figure", help="regenerate one paper figure/table")
    figure.add_argument(
        "name",
        choices=sorted(_FIGURES_NEEDING_SWEEP | {
            "fig1", "fig13", "fig14", "fig15", "fig16", "fig17",
        }),
    )
    figure.add_argument("-w", "--workloads", default="")
    figure.add_argument("-n", "--instructions", type=int, default=15_000)
    _add_engine_args(figure)
    figure.set_defaults(fn=cmd_figure)

    cache = sub.add_parser(
        "cache", help="inspect or clear the on-disk artifact cache"
    )
    cache.add_argument("action", choices=["info", "clear"])
    cache.add_argument(
        "--class", dest="artifact_class", default="all",
        help="comma-separated artifact classes to clear: "
             "results, programs, or all (default: all)",
    )
    cache.set_defaults(fn=cmd_cache)

    bless = sub.add_parser(
        "bless-golden",
        help="regenerate tests/sim/fixtures/golden_counters.json",
    )
    bless.add_argument(
        "-o", "--out", default="",
        help="write the fixture elsewhere (default: the committed path)",
    )
    bless.set_defaults(fn=cmd_bless_golden)

    profile = sub.add_parser(
        "profile", help="cProfile one run with a per-stage hot-path breakdown"
    )
    profile.add_argument("-w", "--workload", default="verilator")
    profile.add_argument(
        "-c", "--config", default="miss-heavy", choices=sorted(PRESET_BUILDERS)
    )
    profile.add_argument("-n", "--instructions", type=int, default=50_000)
    profile.add_argument("--seed", type=int, default=1)
    profile.add_argument("--top", type=int, default=15,
                         help="hottest functions to list (by self time)")
    profile.add_argument("-o", "--out", default="",
                         help="also dump the report as JSON to this path")
    profile.add_argument(
        "--no-fastforward", action="store_true",
        help="profile the naive one-cycle-at-a-time stepper",
    )
    profile.set_defaults(fn=cmd_profile)

    trace = sub.add_parser("trace", help="export an oracle trace to JSONL")
    trace.add_argument("-w", "--workload", default="mysql")
    trace.add_argument("--blocks", type=int, default=5_000)
    trace.add_argument("-o", "--out", default="trace.jsonl")
    trace.add_argument("--seed", type=int, default=1)
    trace.set_defaults(fn=cmd_trace)

    characterize = sub.add_parser(
        "characterize", help="measure + validate workload characteristics"
    )
    characterize.add_argument("-w", "--workloads", default="")
    characterize.add_argument("-n", "--instructions", type=int, default=10_000)
    characterize.set_defaults(fn=cmd_characterize)

    report = sub.add_parser(
        "report", help="run all experiments and write a markdown report"
    )
    report.add_argument("-o", "--out", default="EXPERIMENTS.generated.md")
    report.add_argument("-w", "--workloads", default="")
    report.add_argument("--sweep-workloads", default="")
    report.add_argument("-n", "--instructions", type=int, default=15_000)
    _add_engine_args(report)
    report.set_defaults(fn=cmd_report)

    reuse = sub.add_parser(
        "reuse", help="code reuse-distance / miss-rate-curve analysis"
    )
    reuse.add_argument("-w", "--workload", default="gcc")
    reuse.add_argument("--blocks", type=int, default=8_000)
    reuse.add_argument("--seed", type=int, default=1)
    reuse.set_defaults(fn=cmd_reuse)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except engine.BatchError as exc:
        # A partial batch failure is an expected operational outcome:
        # report it as a table plus the usual batch summary, not a
        # traceback, and exit non-zero.
        _report_batch_failures(exc)
        if _active_stats is not None:
            _print_engine_summary(_active_stats)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
