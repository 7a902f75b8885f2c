#!/usr/bin/env python3
"""The simulator's benchmark of record: four workloads, end to end and per layer.

Run from the repository root::

    python3 benchmarks/e2e/run.py                      # every workload
    python3 benchmarks/e2e/run.py --workload sampled --seed 3
    python3 benchmarks/e2e/run.py --trace 1            # per-layer ledger
    python3 benchmarks/e2e/run.py --out a.json         # keep the raw reps
    python3 benchmarks/e2e/run.py --compare a.json b.json
    python3 benchmarks/e2e/run.py --bless              # rewrite reference.json

Load model: a closed loop.  This process submits one batch at a time, each
in a fresh child process (``child.py``) that runs it serially
(``run_batch(jobs=1)``) pinned to one CPU, and waits for it before starting
the next.  Wall time, CPU time and peak RSS are measured here, outside the
program, while a probe thread times a fixed loop on the same CPU; the
end-to-end times are divided by the probe's slowdown against the reference
host (``HostProbe``).  Every rep starts from a fresh ``REPRO_CACHE_DIR``
seeded with the C kernels and programs built during set-up, so checkpoints
and results start cold.

Set-up runs three times and ``setup_s`` is the median.  Reps then repeat
until ``--seconds`` per workload (set-ups included) are spent, and at least
five times, rotating the workload order between rounds; each end-to-end
metric is the median over reps.  With ``--trace 1`` these are followed by
one traced set-up and one traced rep (see ``trace.py``) that give the
per-layer metrics.

Every spec's counter digest is checked against ``reference.json`` when the
seed and scale match it, and otherwise against the first rep's digest.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (specs) and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".bench_e2e"

# Every child runs serially, pinned to this CPU (README "Load model").
CPU = max(os.sched_getaffinity(0))
SETUPS = 3
MIN_REPS = 5
CHILD_TIMEOUT_S = 150
# A traced rep has every layer wrapped; its wall time is about this
# multiple of an untraced rep's.
TRACED_PER_REP = 1.5
# The host-speed probe: a fixed pure-Python loop timed on CPU every
# PROBE_PERIOD_S while a child runs (about 2.5% of that CPU).  On the
# reference host one loop takes PROBE_REF_NS of CPU time.
PROBE_ITERATIONS = 5_000
PROBE_PERIOD_S = 0.02
PROBE_REF_NS = 500_000
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def load_manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def geomean(values: list[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def steal_s(cpu: int) -> float:
    """Seconds the hypervisor has kept ``cpu`` from running since boot
    (the ``steal`` column of ``/proc/stat``; 0 where there is none)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                fields = line.split()
                if fields[0] == f"cpu{cpu}":
                    return int(fields[8]) / CLOCK_TICKS if len(fields) > 8 else 0.0
    except OSError:
        pass
    return 0.0


def probe_loop() -> int:
    """CPU nanoseconds this thread takes for the probe's fixed loop."""
    started = time.thread_time_ns()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return time.thread_time_ns() - started


class HostProbe:
    """Times the probe loop on ``cpu``, in a thread of its own, until stopped.

    Each of the host's CPUs changes speed by up to 1.7x for seconds to
    minutes at a time, and the same work's CPU time rises with its wall time
    (README "Noise").  The loop, on the CPU the child is pinned to, slows
    with it, so ``slowdown`` divides most of that drift out of the child's
    times.
    """

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.samples: list[int] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        os.sched_setaffinity(0, {self.cpu})  # this thread only
        while not self._stop.is_set():
            self.samples.append(probe_loop())
            self._stop.wait(PROBE_PERIOD_S)

    def __enter__(self) -> HostProbe:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self) -> float:
        """The loop's median time ÷ PROBE_REF_NS."""
        return statistics.median(self.samples) / PROBE_REF_NS if self.samples else 1.0


@dataclass
class Child:
    """One finished child process, measured from outside.

    ``wall`` and ``cpu`` are as measured.  ``stolen`` is the time the
    hypervisor kept the child's CPU from running meanwhile, and ``slowdown``
    the CPU's speed against the reference host (see ``HostProbe``).  The
    end-to-end metrics use ``ref_wall`` and ``ref_cpu``: the times at the
    reference speed, with nothing stolen.
    """

    wall: float
    cpu: float
    rss_mib: float
    stolen: float
    slowdown: float
    data: dict | None  # what the child wrote; None if it failed
    error: str | None

    @property
    def ref_wall(self) -> float:
        return (self.wall - self.stolen) / self.slowdown

    @property
    def ref_cpu(self) -> float:
        return self.cpu / self.slowdown


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def stop_group(pgid: int, timeout: float = 5.0) -> None:
    """Kill what is left of a reaped child's process group; wait until it is empty."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_child(mode: str, workload: str, seed: int, scale: float, cache_dir: Path,
              trace: bool = False, full_fidelity: bool = False) -> Child:
    out = cache_dir / "child-result.json"
    cmd = [
        sys.executable, str(HERE / "child.py"), mode,
        "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
        "--out", str(out),
    ]
    if trace:
        cmd.append("--trace")
    if full_fidelity:
        cmd.append("--full-fidelity")
    # Nothing from the caller's REPRO_* knobs (cache, pool, fault injection,
    # fast paths) may leak into what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    # The compiler's and the engine's temporary files stay in the cache root.
    env["TMPDIR"] = str(cache_dir)
    stolen = steal_s(CPU)
    started = time.perf_counter()
    # Its own process group, so the child and anything it starts can be
    # stopped together.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, kill_group, (proc.pid,))
    watchdog.start()
    try:
        # The child runs on the CPU the probe times.
        with contextlib.suppress(ProcessLookupError):
            os.sched_setaffinity(proc.pid, {CPU})
        with HostProbe(CPU) as probe:
            _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        kill_group(proc.pid)
        proc.wait()
        stop_group(proc.pid)
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - started
    stolen = min(steal_s(CPU) - stolen, wall)
    proc.returncode = os.waitstatus_to_exitcode(status)
    stop_group(proc.pid)
    measured = (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, stolen,
                probe.slowdown())
    if proc.returncode != 0:
        return Child(*measured, None, f"{mode} exited with {proc.returncode}")
    try:
        data = json.loads(out.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return Child(*measured, None, f"{mode} wrote no result: {exc}")
    return Child(*measured, data, None)


def seeded_cache(base: Path, source: Path) -> Path:
    """A fresh cache root holding only the set-up's kernels and programs."""
    root = Path(tempfile.mkdtemp(dir=base, prefix="rep-"))
    for part in ("kernels", "programs"):
        if (source / part).is_dir():
            shutil.copytree(source / part, root / part)
    return root


# ---------------------------------------------------------------------------
# One workload's measurements
# ---------------------------------------------------------------------------


class Workload:
    def __init__(self, name: str, seed: int, scale: float, work: Path, reference: dict | None):
        self.name = name
        self.seed = seed
        self.scale = scale
        self.work = work
        self.setups: list[Child] = []
        self.seed_cache: Path | None = None
        self.setup_trace: dict | None = None
        self.reps: list[Child] = []
        self.traced: Child | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference = reference
        # spec id -> expected digest (the reference's, else the first rep's)
        self.expected: dict[str, str] = (
            {sid: ref["digest"] for sid, ref in reference.items()} if reference else {}
        )

    def setup(self, trace: bool = False) -> None:
        cache = Path(tempfile.mkdtemp(dir=self.work, prefix="setup-"))
        child = run_child("setup", self.name, self.seed, self.scale, cache, trace=trace)
        if child.data is None:
            raise SystemExit(f"{self.name}: set-up failed ({child.error})")
        if not child.data["compiled"]:
            print("warning: the C kernels did not build; measuring the interpreted path",
                  file=sys.stderr)
        if trace:
            self.setup_trace = child.data["trace"]
        else:
            self.setups.append(child)
        if self.seed_cache is not None:
            shutil.rmtree(self.seed_cache, ignore_errors=True)
        self.seed_cache = cache

    def run(self, trace: bool = False) -> Child:
        cache = seeded_cache(self.work, self.seed_cache)
        try:
            child = run_child("rep", self.name, self.seed, self.scale, cache, trace=trace)
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        self.check(child)
        if trace:
            self.traced = child
        else:
            self.reps.append(child)
        return child

    def check(self, child: Child) -> None:
        if child.data is None:
            specs = max(1, len(self.expected))
            self.attempted += specs
            self.failed += specs
            self.failures.append(f"rep: {child.error}")
            return
        for spec in child.data["specs"]:
            self.attempted += 1
            sid = spec["id"]
            if spec["error"] is not None:
                self.failed += 1
                self.failures.append(f"{sid}: {spec['error']}")
                continue
            want = self.expected.setdefault(sid, spec["digest"])
            if spec["digest"] != want:
                self.failed += 1
                self.failures.append(f"{sid}: counter digest {spec['digest'][:12]} != {want[:12]}")

    @property
    def good_reps(self) -> list[Child]:
        return [r for r in self.reps if r.data is not None]

    def traced_estimate(self) -> float:
        """Expected wall time of the traced set-up plus the traced rep."""
        walls = [r.wall for r in self.good_reps]
        rep = TRACED_PER_REP * statistics.median(walls) if walls else 0.0
        return statistics.median(s.wall for s in self.setups) + rep

    # -- metrics -------------------------------------------------------------

    def end_to_end(self) -> dict[str, list[float]]:
        """Per rep (per set-up for ``setup_s``), in reference-host seconds."""
        reps = self.good_reps
        return {
            "sim_kips": [r.data["instructions"] / r.ref_wall / 1000 for r in reps],
            "cpu_s": [r.ref_cpu for r in reps],
            "setup_s": [s.ref_wall for s in self.setups],
            "peak_rss_mib": [r.rss_mib for r in reps],
        }

    def as_measured(self) -> dict[str, list[float]]:
        """The timing metrics before dividing by the host's slowdown."""
        reps = self.good_reps
        return {
            "sim_kips": [r.data["instructions"] / r.wall / 1000 for r in reps],
            "cpu_s": [r.cpu for r in reps],
            "setup_s": [s.wall for s in self.setups],
        }

    def model(self) -> dict[str, float]:
        specs = self.good_reps[0].data["specs"] if self.good_reps else []
        return {
            "model.ipc_geomean": geomean([s["ipc"] for s in specs]),
            "model.icache_mpki": statistics.fmean([s["icache_mpki"] for s in specs]) if specs else 0.0,
            "model.prefetch_aur": statistics.fmean([s["prefetch_aur"] for s in specs]) if specs else 0.0,
        }

    def ipc_err_pct(self) -> float | None:
        """Max IPC error against the reference (full fidelity for sampled)."""
        if not self.reference or not self.good_reps:
            return None
        errors = []
        for spec in self.good_reps[0].data["specs"]:
            ref = self.reference.get(spec["id"])
            if ref is None:
                return None
            want = ref.get("full_ipc", ref["ipc"])
            errors.append(abs(spec["ipc"] - want) / want * 100 if want else 0.0)
        return max(errors)

    def per_layer(self, kernel_names: list[str]) -> dict[str, float]:
        rep = self.traced.data["trace"] if self.traced and self.traced.data else None
        if rep is None or self.setup_trace is None:
            return {}
        layers, counts = rep["layers"], rep["counts"]

        def self_s(name: str, trace: dict = rep) -> float:
            return trace["layers"].get(name, {}).get("self_ns", 0) / 1e9

        def calls(name: str) -> int:
            return layers.get(name, {}).get("calls", 0)

        units = [u for r in self.good_reps for u in r.data["units"]]
        unit_share = [sum(r.data["units"]) / r.data["batch_s"] for r in self.good_reps]
        step = layers.get("sim.simulator.step", {"calls": 0, "total_ns": 0})
        walls = [r.ref_wall for r in self.good_reps]
        values = {
            "workloads.synthesize_s": self_s("workloads.synthesize", self.setup_trace),
            "common.cc.build_s": self_s("common.cc.build", self.setup_trace),
            "workloads.store_load_s": self_s("workloads.store_load"),
            "sim.engine.unit_p50_ms": percentile(units, 50) * 1000 if units else 0.0,
            "sim.engine.unit_p95_ms": percentile(units, 95) * 1000 if units else 0.0,
            "sim.engine.unit_samples": len(units),
            "sim.engine.unit_share": statistics.median(unit_share) if unit_share else 0.0,
            "sim.engine.cache_put_s": self_s("sim.engine.cache_put"),
            "sim.engine.residue_s": self_s("sim.engine.run_batch"),
            "sim.checkpoint.capture_s": self_s("sim.checkpoint.capture"),
            "sim.checkpoint.store_io_s": self_s("sim.checkpoint.store_io"),
            "sim.checkpoint.creates": counts.get("sim.checkpoint.creates", 0),
            "sim.checkpoint.restores": counts.get("sim.checkpoint.restores", 0),
            "sim.checkpoint.blob_kib": counts.get("sim.checkpoint.blob_bytes", 0) / 1024,
            "sim.simulator.init_s": self_s("sim.simulator.init"),
            "sim.simulator.functional_warmup_s": self_s("sim.simulator.functional_warmup"),
            "sim.simulator.ff_instructions_walked":
                counts.get("sim.simulator.ff_instructions_walked", 0),
            "sim.simulator.step_self_s": self_s("sim.simulator.step"),
            "sim.simulator.ns_per_step": step["total_ns"] / step["calls"] if step["calls"] else 0.0,
            "sim.simulator.steps": counts.get("sim.simulator.steps", 0),
            "sim.simulator.cycles": counts.get("sim.simulator.cycles", 0),
            "sim.simulator.ff_jumps": counts.get("sim.simulator.ff_jumps", 0),
            "sim.simulator.ff_cycles_skipped": counts.get("sim.simulator.ff_cycles_skipped", 0),
            "frontend.bpu.generate_s": self_s("frontend.bpu.generate"),
            "frontend.fdip.scan_s": self_s("frontend.fdip.scan"),
            "backend.core.retire_issue_s": self_s("backend.core.retire_issue"),
            "backend.core.poll_resteer_s": self_s("backend.core.poll_resteer"),
            "core.udp.on_retire_calls": calls("core.udp.on_retire"),
            "prefetchers.on_line_filled_calls": calls("prefetchers.on_line_filled"),
            "trace.overhead_pct":
                (self.traced.ref_wall / statistics.median(walls) - 1) * 100 if walls else 0.0,
            "trace.coverage_pct": rep["top_level_ns"] / rep["wall_ns"] * 100,
        }
        kernel_calls = self.traced.data.get("kernel_calls", {})
        for kernel in kernel_names:
            values[f"common.cc.calls.{kernel}"] = kernel_calls.get(kernel, 0)
        values.update(self.model())
        return values


def rotated(items: list, shift: int) -> list:
    shift %= len(items)
    return items[shift:] + items[:shift]


def measure(workloads: list[Workload], seconds: float, trace: bool) -> None:
    """Set up, run rounds of untraced reps until at least ``MIN_REPS`` are in
    and the time budget is spent, then (with ``trace``) one traced set-up and
    one traced rep per workload.  The set-ups count towards the budget."""
    budget = seconds * len(workloads)
    started = time.perf_counter()
    for round_index in range(SETUPS):
        for workload in rotated(workloads, round_index):
            workload.setup()
    round_times: list[float] = []
    while True:
        round_started = time.perf_counter()
        for workload in rotated(workloads, len(round_times)):
            workload.run()
        round_times.append(time.perf_counter() - round_started)
        if len(round_times) < MIN_REPS:
            continue
        reserve = sum(w.traced_estimate() for w in workloads) if trace else 0.0
        if time.perf_counter() - started + max(round_times) + reserve > budget:
            break
    if trace:
        for workload in workloads:
            workload.setup(trace=True)
            workload.run(trace=True)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def summarize(values: list[float]) -> dict:
    if not values:
        return {"values": [], "median": 0.0, "q1": 0.0, "q3": 0.0, "min": 0.0}
    q1, median, q3 = quartiles(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3, "min": min(values)}


def workload_report(workload: Workload, manifest: dict, trace: bool) -> dict:
    e2e = workload.end_to_end()
    report = {
        "attempted": workload.attempted,
        "failed": workload.failed,
        "failed_frac": workload.failed / workload.attempted if workload.attempted else 1.0,
        "failures": workload.failures[:20],
        "ipc_err_pct": workload.ipc_err_pct(),
        "end_to_end": {
            m["name"]: {**summarize(e2e[m["name"]]), "unit": m["unit"],
                        "better": m["better"], "bound": m["bound"]}
            for m in manifest["end_to_end"]
        },
        "as_measured": {name: summarize(v) for name, v in workload.as_measured().items()},
        "host_slowdown": summarize([r.slowdown for r in workload.good_reps]),
        "host_stolen_s": summarize([r.stolen for r in workload.good_reps]),
    }
    if trace:
        kernels = [m["name"].rsplit(".", 1)[1] for m in manifest["per_layer"]
                   if m["name"].startswith("common.cc.calls.")]
        values = workload.per_layer(kernels)  # empty if the traced rep failed
        report["per_layer"] = {
            m["name"]: {"value": values[m["name"]] if values else 0.0, "unit": m["unit"]}
            for m in manifest["per_layer"]
        }
        report["trace_layers"] = workload.traced.data["trace"]["layers"] if workload.traced.data else {}
        report["traced_wall_s"] = workload.traced.wall
    return report


def print_report(name: str, report: dict, trace: bool) -> None:
    print(f"\n== {name}: {report['attempted']} specs checked, {report['failed']} failed "
          f"(failed_frac {report['failed_frac']:.3f} ratio)")
    if report["ipc_err_pct"] is not None:
        print(f"   ipc_err_pct {report['ipc_err_pct']:.3f} % (against reference.json)")
    for failure in report["failures"]:
        print(f"   FAILED {failure}")
    print(f"   {'metric':<22}{'unit':<10}{'median':>10}{'IQR':>10}{'min':>10}{'n':>4}  values")
    rows = list(report["end_to_end"].items())
    rows += [(f"{name} as measured", {**s, "unit": report["end_to_end"][name]["unit"]})
             for name, s in report["as_measured"].items()]
    rows.append(("host slowdown", {**report["host_slowdown"], "unit": "ratio"}))
    rows.append(("host stolen", {**report["host_stolen_s"], "unit": "s"}))
    for metric, s in rows:
        iqr = s["q3"] - s["q1"]
        raw = " ".join(f"{v:.4g}" for v in s["values"])
        print(f"   {metric:<22}{s['unit']:<10}{s['median']:>10.4g}{iqr:>10.3g}"
              f"{s['min']:>10.4g}{len(s['values']):>4}  {raw}")
    if not trace:
        return
    wall = report["traced_wall_s"]
    print(f"   traced rep: {wall:.2f} s wall; self time by layer:")
    for layer, d in sorted(report["trace_layers"].items(), key=lambda kv: -kv[1]["self_ns"]):
        print(f"     {layer:<36}{d['calls']:>10} calls {d['total_ns'] / 1e9:>9.3f} s total "
              f"{d['self_ns'] / 1e9:>9.3f} s self {d['self_ns'] / 1e9 / wall * 100:>6.1f} %")
    print("   per-layer metrics:")
    for metric, d in report["per_layer"].items():
        print(f"     {metric:<40}{d['value']:>14.6g} {d['unit']}")


def result_line(reports: dict, manifest: dict, trace: bool) -> dict:
    def metrics(report: dict) -> dict:
        if trace:
            return report["per_layer"]
        return {m: {"value": s["median"], "unit": s["unit"]} for m, s in report["end_to_end"].items()}

    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    if len(reports) == 1:
        body = metrics(next(iter(reports.values())))
    else:
        body = {name: metrics(r) for name, r in reports.items()}
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": body}


# ---------------------------------------------------------------------------
# Compare and bless
# ---------------------------------------------------------------------------


def verdict(a: dict, b: dict) -> tuple[str, float, float]:
    """Verdict of run B against run A for one metric of one workload.

    Returns (verdict, change, spread) with ``change`` the relative move of
    B's median in the metric's better direction and ``spread`` the larger
    IQR of the two, both as shares of A's median.  When the spread exceeds
    the bound the metric is unresolved, unless every run of B beats every
    run of A.
    """
    sign = 1 if a["better"] == "higher" else -1
    base = a["median"] or 1.0
    change = sign * (b["median"] - a["median"]) / base
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) / base
    bound = a["bound"]
    if spread > bound:
        beats = (min(b["values"]) > max(a["values"]) if sign > 0
                 else max(b["values"]) < min(a["values"]))
        return ("better" if beats else "unresolved"), change, spread
    if change < -bound:
        return "worse", change, spread
    if change > bound:
        return "better", change, spread
    return "unchanged", change, spread


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fh:
        run_a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        run_b = json.load(fh)
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':<12}{'metric':<14}{'A median':>11}{'A IQR':>9}{'B median':>11}"
          f"{'B IQR':>9}{'change':>9}{'bound':>7}  verdict")
    worse = 0
    for name, report_a in run_a["workloads"].items():
        report_b = run_b["workloads"].get(name)
        if report_b is None:
            print(f"{name:<12}(missing from B)")
            continue
        for metric, a in report_a["end_to_end"].items():
            b = report_b["end_to_end"][metric]
            result, change, _ = verdict(a, b)
            worse += result == "worse"
            print(f"{name:<12}{metric:<14}{a['median']:>11.4g}{a['q3'] - a['q1']:>9.3g}"
                  f"{b['median']:>11.4g}{b['q3'] - b['q1']:>9.3g}{change * 100:>8.1f}%"
                  f"{a['bound'] * 100:>6.0f}%  {result}")
    return 1 if worse else 0


def bless(names: list[str], every: list[str], seed: int, scale: float, work: Path) -> int:
    """Record every spec's counter digest and IPC (full-fidelity IPC too for
    sampled specs) as the correctness reference for this seed and scale.

    Blessing only some workloads replaces their entries and keeps the
    others', so it needs a reference blessed at the same seed and scale."""
    workloads = load_reference(seed, scale) if set(names) != set(every) else {}
    if workloads is None:
        raise SystemExit(f"{REFERENCE.name} is not blessed at seed {seed} and scale {scale}; "
                         "bless every workload (no --workload) to start it afresh")
    for name in names:
        workload = Workload(name, seed, scale, work, None)
        workload.setup()
        child = workload.run()
        if child.data is None or workload.failed:
            raise SystemExit(f"{name}: cannot bless a failing run: {workload.failures}")
        entries = {s["id"]: {"digest": s["digest"], "ipc": s["ipc"]} for s in child.data["specs"]}
        if name == "sampled":
            cache = seeded_cache(work, workload.seed_cache)
            full = run_child("rep", name, seed, scale, cache, full_fidelity=True)
            if full.data is None:
                raise SystemExit(f"{name}: full-fidelity reference run failed ({full.error})")
            for spec in full.data["specs"]:
                entries[spec["id"]]["full_ipc"] = spec["ipc"]
        workloads[name] = entries
        print(f"blessed {name}: {len(entries)} specs", file=sys.stderr)
    payload = {"seed": seed, "scale": scale, "workloads": workloads}
    REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}", file=sys.stderr)
    return 0


def load_reference(seed: int, scale: float) -> dict | None:
    """Per-workload reference entries, or None unless ``reference.json``
    exists and was blessed at this seed and scale."""
    if not REFERENCE.is_file():
        return None
    data = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if data.get("seed") != seed or data.get("scale") != scale:
        return None
    return data["workloads"]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="synthesis seed of every spec")
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"],
                        help="rep time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics of a traced rep")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every instruction count (self-test runs)")
    parser.add_argument("--out", help="write the full report (raw reps) as JSON")
    parser.add_argument("--bless", action="store_true",
                        help="rewrite the reference (of --workload only, if given) "
                             "for --seed and --scale")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out reports metric by metric")
    args = parser.parse_args(argv)
    # A terminated benchmark still stops its children (see run_child).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the simulator sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    selected = [args.workload] if args.workload else names
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        work = Path(tmp)
        if args.bless:
            return bless(selected, names, args.seed, args.scale, work)
        reference = load_reference(args.seed, args.scale) or {}
        workloads = [
            Workload(name, args.seed, args.scale, work, reference.get(name)) for name in selected
        ]
        measure(workloads, args.seconds, bool(args.trace))
        reports = {w.name: workload_report(w, manifest, bool(args.trace)) for w in workloads}
        if args.trace:
            for w in workloads:
                trace_file = WORK / f"trace-{w.name}.json"
                trace_file.write_text(json.dumps({
                    "workload": w.name, "seed": w.seed, "scale": w.scale,
                    "traced_wall_s": w.traced.wall,
                    "setup": w.setup_trace,
                    "rep": w.traced.data["trace"] if w.traced.data else None,
                }), encoding="utf-8")
                print(f"wrote {trace_file}", file=sys.stderr)
    for name, report in reports.items():
        print_report(name, report, bool(args.trace))
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seed": args.seed, "scale": args.scale, "seconds": args.seconds,
            "trace": args.trace, "workloads": reports,
        }, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result_line(reports, manifest, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
