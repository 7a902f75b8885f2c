"""Profiling harness for the cycle-level hot path (``repro profile``).

Wraps one :class:`~repro.sim.simulator.Simulator` run in :mod:`cProfile` and
maps the flat function stats back onto the per-cycle stages of
:meth:`Simulator.step` (fills → backend → fetch/decode → FDIP → generate),
so a throughput regression can be attributed to a stage before diving into
individual functions.

Stage attribution uses the *cumulative* time of each stage's root call —
the functions ``step()`` invokes directly — which are mutually exclusive
sub-trees of the run.  The residue line ("step overhead") is everything in
``step()`` outside those roots: fast-forward probing, resteer recovery, and
occupancy bookkeeping.  One caveat: a decode-time resteer flushes the
frontend from *inside* the fetch stage, so its cost lands under fetch
rather than the residue.

See ``docs/performance.md`` for how this fits the optimization workflow,
and ``benchmarks/e2e`` for the end-to-end benchmark of record.
"""

from __future__ import annotations

import cProfile
import dataclasses
import pstats
import time
from dataclasses import dataclass

from repro.common.config import SimConfig
from repro.sim.engine import RunSpec, _resolve_spec
from repro.sim.simulator import Simulator

# (stage label, source file suffix, function name) for every stage root
# the stepper calls directly from Simulator.step() (the fills and
# fetch/decode stages through their Simulator methods).  File suffixes
# disambiguate generic names like ``scan``/``generate`` across modules.
_STAGE_ROOTS = (
    ("fills", "sim/simulator.py", "_process_fills"),
    ("backend", "backend/window.py", "poll_resteer"),
    ("backend", "backend/window.py", "retire_and_issue"),
    ("fetch/decode", "sim/simulator.py", "_fetch_decode"),
    ("fdip-scan", "frontend/fdip.py", "scan"),
    ("generate", "frontend/bpu.py", "generate"),
)
_STAGE_ORDER = ("fills", "backend", "fetch/decode", "fdip-scan", "generate")

# Registry-wired hooks whose cost hides *inside* the stage sub-trees above:
# demand observers run inside the fetch/decode stage, fill observers inside
# the fills stage, the BTB hooks inside whichever stage the active technique
# calls them from.  Attributed as their own nested section so a technique's
# hook overhead is visible at a glance.  Under the compiled cycle driver
# there are no stage sub-trees: run_cycles calls the hooks itself.  A None
# file suffix matches any module (the observers are per-technique).
_HOOK_ROOTS = (
    ("on_demand_access", None, "on_demand_access"),
    ("on_line_filled", None, "on_line_filled"),
    ("fill_btb", "branch/unit.py", "fill_btb"),
    ("btb_contains", "sim/simulator.py", "_btb_contains_hook"),
)


def build_simulator(
    workload: str,
    config: SimConfig,
    seed: int = 1,
    compiled: bool | None = None,
) -> Simulator:
    """Construct a Simulator for one suite workload, bypassing the engine.

    The program and the effective config (the workload profile's pinned
    core parameters on top of ``config``) come from the engine's own
    ``_resolve_spec``, so this simulator is the one ``run_batch`` would
    build.  Used by the profiler and the tests, where the run itself —
    not the cached result — is the object of study.
    """
    program, config, data_profile, _ = _resolve_spec(RunSpec(workload, config, seed))
    return Simulator(program, config, data_profile=data_profile, compiled=compiled)


@dataclass
class StageTime:
    """Cumulative seconds and call count of one step() stage."""

    name: str
    seconds: float
    calls: int


@dataclass
class FunctionTime:
    """One row of the flat per-function profile (sorted by self time)."""

    location: str  # file:line(function)
    calls: int
    tottime: float  # self time, excluding callees
    cumtime: float  # including callees


@dataclass
class ProfileReport:
    """Everything ``repro profile`` prints (and can dump as JSON)."""

    workload: str
    config_name: str
    instructions: int
    seed: int
    fast_forward: bool
    # Active acceleration gates for this run: idle-cycle fast-forward
    # (off under --no-fastforward), the runtime-compiled C kernels (off
    # under REPRO_NO_COMPILED), and the compiled cycle driver, which runs
    # exactly the compiled simulators (see repro.sim.driver).
    gates: dict[str, bool]
    # Why the compiled cycle driver is off ("" when it runs).
    driver_off_reason: str
    # Per-kernel dispatch counts from the compiled extension (empty when the
    # kernels are unavailable or gated off).
    kernel_calls: dict[str, int]
    wall_seconds: float
    cycles: int
    retired_instructions: int
    steps_executed: int
    ff_cycles_skipped: int
    ff_jumps: int
    # Technique callbacks run_cycles made (0 under the Python stepper).
    driver_demand_callbacks: int
    driver_fill_callbacks: int
    kips: float

    @property
    def avg_ff_jump_cycles(self) -> float:
        """Average cycles advanced per fast-forward jump (0 when none)."""
        if self.ff_jumps <= 0:
            return 0.0
        return self.ff_cycles_skipped / self.ff_jumps
    step_seconds: float  # cumulative time inside Simulator.step()
    stages: list[StageTime]
    step_overhead_seconds: float  # step() minus the five stage sub-trees
    # Registry-wired hook sub-trees (demand and fill observers, late-bound
    # BTB hooks); nested inside the stages above, or called from the
    # compiled cycle driver, never added to the stages' sum.
    hooks: list[StageTime]
    top_functions: list[FunctionTime]

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _short_location(func: tuple[str, int, str]) -> str:
    filename, line, name = func
    if filename == "~":  # builtins
        return name
    parts = filename.replace("\\", "/").split("/")
    return f"{'/'.join(parts[-2:])}:{line}({name})"


def profile_run(
    workload: str,
    config: SimConfig,
    config_name: str = "custom",
    seed: int = 1,
    fast_forward: bool = True,
    top: int = 15,
) -> ProfileReport:
    """Profile one simulation and attribute time to step() stages.

    ``fast_forward=False`` forces the naive stepper, on the object
    structures; ``True`` (the default) runs compiled unless
    ``REPRO_NO_COMPILED`` opts out or the kernels do not build.
    """
    from repro.common import cc

    simulator = build_simulator(workload, config, seed, compiled=None if fast_forward else False)
    simulator.fast_forward_enabled = fast_forward

    kernels = cc.kernels() if simulator.compiled_enabled else None
    if kernels is not None:
        kernels.reset_call_counts()
    # The naive stepper runs the object structures, whatever else holds.
    driver_off_reason = (
        "" if simulator.compiled_enabled
        else "compiled kernels off" if fast_forward else "fast-forward off"
    )

    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    simulator.run()
    profiler.disable()
    wall = time.perf_counter() - started

    gates = {
        "fast-forward": fast_forward,
        "compiled": simulator.compiled_enabled,
        "driver": simulator.compiled_enabled,
    }
    kernel_calls = cc.kernel_call_counts() if kernels is not None else {}

    stats = pstats.Stats(profiler)
    # stats.stats maps (file, line, name) -> (calls, primitive, tot, cum, callers)
    raw = stats.stats  # type: ignore[attr-defined]

    step_seconds = 0.0
    stage_totals = {name: StageTime(name, 0.0, 0) for name in _STAGE_ORDER}
    hook_totals = {label: StageTime(label, 0.0, 0) for label, _, _ in _HOOK_ROOTS}
    for func, (cc, _nc, _tot, cum, _callers) in raw.items():
        filename, _line, name = func
        path = filename.replace("\\", "/")
        if name == "step" and path.endswith("sim/simulator.py"):
            step_seconds = cum
            continue
        for stage, suffix, fn_name in _STAGE_ROOTS:
            if name == fn_name and path.endswith(suffix):
                stage_totals[stage].seconds += cum
                stage_totals[stage].calls += cc
                break
        for label, suffix, fn_name in _HOOK_ROOTS:
            if name == fn_name and (suffix is None or path.endswith(suffix)):
                hook_totals[label].seconds += cum
                hook_totals[label].calls += cc
                break

    rows = sorted(raw.items(), key=lambda item: item[1][2], reverse=True)
    top_functions = [
        FunctionTime(
            location=_short_location(func),
            calls=cc,
            tottime=tot,
            cumtime=cum,
        )
        for func, (cc, _nc, tot, cum, _callers) in rows[:top]
    ]

    retired = simulator.backend.retired_instructions
    staged = sum(s.seconds for s in stage_totals.values())
    return ProfileReport(
        workload=workload,
        config_name=config_name,
        instructions=retired,
        seed=seed,
        fast_forward=fast_forward,
        gates=gates,
        driver_off_reason=driver_off_reason,
        kernel_calls=kernel_calls,
        wall_seconds=wall,
        cycles=simulator.cycle,
        retired_instructions=retired,
        steps_executed=simulator.steps_executed,
        ff_cycles_skipped=simulator.ff_cycles_skipped,
        ff_jumps=simulator.ff_jumps,
        driver_demand_callbacks=simulator.driver_demand_callbacks,
        driver_fill_callbacks=simulator.driver_fill_callbacks,
        kips=retired / wall / 1000.0 if wall > 0 else 0.0,
        step_seconds=step_seconds,
        stages=[stage_totals[name] for name in _STAGE_ORDER],
        step_overhead_seconds=max(0.0, step_seconds - staged),
        hooks=[
            hook_totals[label] for label, _, _ in _HOOK_ROOTS
            if hook_totals[label].calls
        ],
        top_functions=top_functions,
    )


def format_report(report: ProfileReport) -> str:
    """Human-readable rendering of a :class:`ProfileReport`."""
    gates = " ".join(
        f"{name}={'on' if active else 'off'}"
        for name, active in report.gates.items()
    )
    if report.driver_off_reason:
        gates += f" (driver: {report.driver_off_reason})"
    stage_header = (
        "  per-stage breakdown (empty: the compiled cycle driver ran every "
        "step in C, inside run()):"
        if report.gates.get("driver")
        else "  per-stage breakdown (cumulative seconds inside step()):"
    )
    lines = [
        f"profile: {report.workload} / {report.config_name} "
        f"(fast-forward {'on' if report.fast_forward else 'off'})",
        f"  acceleration gates: {gates}",
        f"  retired {report.retired_instructions} instructions in "
        f"{report.cycles} cycles, {report.wall_seconds:.2f}s wall "
        f"({report.kips:.1f} KIPS)",
        f"  step() invocations: {report.steps_executed}  "
        f"fast-forwarded cycles: {report.ff_cycles_skipped} "
        f"({report.ff_jumps} jumps, avg {report.avg_ff_jump_cycles:.1f} "
        f"cycles/jump)",
        "",
        stage_header,
    ]
    denom = report.step_seconds or 1.0
    for stage in report.stages:
        share = 100.0 * stage.seconds / denom
        lines.append(
            f"    {stage.name:<13} {stage.seconds:8.3f}s  {share:5.1f}%"
            f"  ({stage.calls} calls)"
        )
    share = 100.0 * report.step_overhead_seconds / denom
    lines.append(
        f"    {'step overhead':<13} {report.step_overhead_seconds:8.3f}s  {share:5.1f}%"
        "  (fast-forward probe, resteers, bookkeeping)"
    )
    if report.hooks:
        lines.append("")
        hook_denom = denom
        if report.gates.get("driver"):
            # No step() time to share out: shares are of the run's wall.
            hook_denom = report.wall_seconds or 1.0
            lines.append("  registry-wired hooks (called from the compiled cycle driver):")
            lines.append(
                f"    driver callbacks: {report.driver_demand_callbacks} "
                f"on_demand_access, {report.driver_fill_callbacks} on_line_filled"
            )
        else:
            lines.append("  registry-wired hooks (nested inside the stages above):")
        for hook in report.hooks:
            share = 100.0 * hook.seconds / hook_denom
            lines.append(
                f"    {hook.name:<16} {hook.seconds:8.3f}s  {share:5.1f}%"
                f"  ({hook.calls} calls)"
            )
    if report.kernel_calls:
        lines.append("")
        lines.append("  compiled-kernel dispatches (C calls, not in the "
                     "Python stage times above):")
        total_calls = sum(report.kernel_calls.values()) or 1
        for name, calls in sorted(
            report.kernel_calls.items(), key=lambda kv: -kv[1]
        ):
            if calls == 0:
                continue
            share = 100.0 * calls / total_calls
            lines.append(f"    {name:<18} {calls:>10} calls  {share:5.1f}%")
    lines.append("")
    lines.append("  hottest functions (by self time):")
    lines.append(
        f"    {'calls':>10} {'tottime':>9} {'cumtime':>9}  location"
    )
    for fn in report.top_functions:
        lines.append(
            f"    {fn.calls:>10} {fn.tottime:>9.3f} {fn.cumtime:>9.3f}  {fn.location}"
        )
    return "\n".join(lines)
