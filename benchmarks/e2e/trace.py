"""In-memory span tracer for the benchmark's traced rep.

The traced rep wraps the entry points of each simulator layer from outside
the program (:func:`install` patches them at class or module level, in the
traced child process only) and keeps every span in memory until the rep
ends.  Each finished span adds its duration to its layer's totals, and its
*self* time — the duration minus the part covered by its direct child
spans — to the layer's self time, so per-layer self times partition the
traced wall clock exactly.

Spans of the coarse layers (engine units, simulator construction, warmup,
checkpoint capture/restore, store I/O, ...) are also kept one by one with
their ``perf_counter_ns`` start and end, parent span and work-unit id, and
written to the trace file.  The per-cycle layers under ``Simulator.step``
run millions of times per rep, so they are only aggregated.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# Each call of the engine's unit entry point (serial and pool paths alike)
# is one work unit; spans record which unit they ran in.
UNIT_LAYER = "sim.engine.unit"

# Layers wrapped by install(): (module, class or None, attribute, span name,
# recorded one by one?).  Where a subclass overrides a method, both classes
# are listed; a class is only patched where it defines the attribute itself.
LAYERS = (
    ("repro.sim.engine", None, "_run_unit", UNIT_LAYER, True),
    ("repro.sim.engine", "ResultCache", "get", "sim.engine.cache_get", True),
    ("repro.sim.engine", "ResultCache", "put", "sim.engine.cache_put", True),
    ("repro.workloads.store", None, "materialize", "workloads.materialize", True),
    ("repro.workloads.store", None, "synthesize", "workloads.synthesize", True),
    ("repro.workloads.store", "ProgramStore", "load", "workloads.store_load", True),
    ("repro.workloads.store", "ProgramStore", "store", "workloads.store_write", True),
    ("repro.sim.checkpoint", None, "capture_warmup", "sim.checkpoint.capture", True),
    ("repro.sim.checkpoint", None, "restore_warmup", "sim.checkpoint.restore", True),
    ("repro.sim.checkpoint", "CheckpointStore", "get", "sim.checkpoint.store_io", True),
    ("repro.sim.checkpoint", "CheckpointStore", "put", "sim.checkpoint.store_io", True),
    ("repro.sim.simulator", "Simulator", "__init__", "sim.simulator.init", True),
    ("repro.sim.simulator", "Simulator", "functional_warmup",
     "sim.simulator.functional_warmup", True),
    ("repro.sim.simulator", "Simulator", "fast_forward_to",
     "sim.simulator.fast_forward_to", True),
    ("repro.sim.simulator", "Simulator", "run", "sim.simulator.run", True),
    ("repro.sim.simulator", "Simulator", "run_interval", "sim.simulator.run", True),
    ("repro.sim.simulator", "Simulator", "step", "sim.simulator.step", False),
    ("repro.sim.simulator", "Simulator", "_process_fills", "sim.simulator.fills", False),
    ("repro.sim.simulator", "Simulator", "_fetch_decode",
     "sim.simulator.fetch_decode", False),
    ("repro.sim.simulator", "Simulator", "_try_fast_forward",
     "sim.simulator.ff_probe", False),
    ("repro.sim.simulator", "Simulator", "_try_refill_step",
     "sim.simulator.ff_probe", False),
    ("repro.backend.core", "BackendCore", "poll_resteer",
     "backend.core.poll_resteer", False),
    ("repro.backend.core", "BackendCoreC", "poll_resteer",
     "backend.core.poll_resteer", False),
    ("repro.backend.core", "BackendCore", "retire_and_issue",
     "backend.core.retire_issue", False),
    ("repro.backend.core", "BackendCoreC", "retire_and_issue",
     "backend.core.retire_issue", False),
    ("repro.frontend.fdip", "FDIPEngine", "scan", "frontend.fdip.scan", False),
    ("repro.frontend.bpu", "DecoupledFrontend", "generate", "frontend.bpu.generate", False),
    ("repro.core.udp", "UDPFilter", "on_retire", "core.udp.on_retire", False),
    ("repro.prefetchers.base", "InstructionPrefetcher", "on_line_filled",
     "prefetchers.on_line_filled", False),
    ("repro.prefetchers.shadow_btb", "ShadowBranchPrefiller", "on_line_filled",
     "prefetchers.on_line_filled", False),
)


def _count_capture(tracer: "Tracer", args, blob) -> None:
    tracer.count("sim.checkpoint.creates")
    tracer.count("sim.checkpoint.blob_bytes", len(blob))


def _count_restore(tracer: "Tracer", args, result) -> None:
    tracer.count("sim.checkpoint.restores")


def _count_fast_forward(tracer: "Tracer", args, walked) -> None:
    tracer.count("sim.simulator.ff_instructions_walked", walked[1])


def _count_run(tracer: "Tracer", args, result) -> None:
    # Each simulator the engine builds runs exactly once, so its lifetime
    # totals are this call's work.
    sim = args[0]
    tracer.count("sim.simulator.steps", sim.steps_executed)
    tracer.count("sim.simulator.cycles", sim.cycle)
    tracer.count("sim.simulator.ff_jumps", sim.ff_jumps)
    tracer.count("sim.simulator.ff_cycles_skipped", sim.ff_cycles_skipped)


# Work counts read at layer boundaries, keyed by the wrapped attribute.
COUNTERS = {
    "capture_warmup": _count_capture,
    "restore_warmup": _count_restore,
    "fast_forward_to": _count_fast_forward,
    "run": _count_run,
    "run_interval": _count_run,
}


class Tracer:
    """Span recorder with exact self-time accounting.

    ``layers`` maps a span name to ``[calls, total_ns, self_ns]``;
    ``spans`` holds ``(id, name, start_ns, end_ns, parent_id, unit)`` for
    recorded spans, ``parent_id`` being the nearest recorded ancestor (0 at
    top level) and ``unit`` the engine work unit the span ran in (0 outside
    any unit).  ``top_level_ns`` is the time covered by spans that have no
    parent.  ``clock`` is injectable so tests can drive a synthetic tree.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.layers: dict[str, list[int]] = {}
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.unit = 0
        self._units = 0
        self._next_id = 0
        # Open frames, each [child_ns, span_id]; the root frame collects
        # the durations of top-level spans.
        self._stack: list[list] = [[0, 0]]
        self._patched: list[tuple] = []

    @property
    def top_level_ns(self) -> int:
        return self._stack[0][0]

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def layer(self, name: str) -> list[int]:
        return self.layers.setdefault(name, [0, 0, 0])

    def _parent_id(self) -> int:
        for frame in reversed(self._stack):
            if frame[1]:
                return frame[1]
        return 0

    def _open(self) -> list:
        """Open a recorded span's frame (aggregated spans use wrap's lean path)."""
        self._next_id += 1
        frame = [0, self._next_id]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, start: int, end: int) -> None:
        self._stack.pop()
        duration = end - start
        layer = self.layer(name)
        layer[0] += 1
        layer[1] += duration
        layer[2] += duration - frame[0]
        self._stack[-1][0] += duration
        self.spans.append((frame[1], name, start, end, self._parent_id(), self.unit))

    @contextmanager
    def span(self, name: str):
        """Trace the enclosed block as one span of layer ``name``."""
        frame = self._open()
        start = self.clock()
        try:
            yield
        finally:
            self._close(frame, name, start, self.clock())

    def add_span(self, name: str, start: int, end: int) -> None:
        """Record a top-level span measured before the tracer existed."""
        self._close(self._open(), name, start, end)

    def wrap(self, fn, name: str, record: bool, unit: bool = False, on_return=None):
        """``fn`` wrapped so every call is a span of layer ``name``."""
        if not record:
            # Per-cycle layers: the lean path, aggregated only.
            layer = self.layer(name)
            stack = self._stack
            clock = self.clock

            def traced_fine(*args, **kwargs):
                frame = [0, 0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = clock() - start
                    stack.pop()
                    layer[0] += 1
                    layer[1] += duration
                    layer[2] += duration - frame[0]
                    stack[-1][0] += duration

            return traced_fine

        def traced(*args, **kwargs):
            if unit:
                self._units += 1
                self.unit = self._units
            frame = self._open()
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, name, start, self.clock())
                if unit:
                    self.unit = 0
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, record: bool) -> None:
        original = vars(owner)[attr]
        wrapped = self.wrap(
            original, name, record, unit=name == UNIT_LAYER, on_return=COUNTERS.get(attr)
        )
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def to_dict(self) -> dict:
        return {
            "spans": [
                dict(zip(("id", "name", "start_ns", "end_ns", "parent", "unit"), s))
                for s in self.spans
            ],
            "layers": {
                name: {"calls": c, "total_ns": t, "self_ns": s}
                for name, (c, t, s) in sorted(self.layers.items())
            },
            "counts": dict(sorted(self.counts.items())),
            "top_level_ns": self.top_level_ns,
        }


def install(tracer: Tracer) -> None:
    """Wrap every layer in :data:`LAYERS` (before any simulator is built).

    Raises ``LookupError`` naming the entry when a layer's entry point no
    longer exists, so a renamed method fails the traced run loudly instead
    of silently dropping out of the ledger.
    """
    for module_name, class_name, attr, name, record in LAYERS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name, None)
        if owner is None or attr not in vars(owner):
            raise LookupError(f"trace layer {module_name}.{class_name}.{attr} not found")
        tracer.patch(owner, attr, name, record)
