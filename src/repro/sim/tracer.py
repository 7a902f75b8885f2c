"""Cycle-by-cycle pipeline event tracing (debugging / teaching aid).

Attach a :class:`PipelineTracer` to a simulator to record a bounded window
of per-cycle events — FTQ generation, prefetch emissions, demand outcomes,
resteers, retirement — and render them as an annotated text timeline.
This is how the wrong-path machinery in this repository was debugged, and
it doubles as the quickest way to *see* FDIP run ahead:

    sim = Simulator(program, config, compiled=False)
    tracer = PipelineTracer(sim, max_events=2000)
    sim.run()
    print(tracer.render(first_cycle=0, last_cycle=120))

The tracer observes the simulator's counters object through its ``hook``
callback, so it works with any configuration and adds zero cost when
detached.  It narrates the Python stepper, so it needs a simulator on the
object structures (``compiled=False``): the compiled cycle driver does not
report counter bumps one by one, and a compiled simulator with a hook
attached raises :class:`~repro.common.errors.SimulationError` at its run.
"""

from __future__ import annotations

from dataclasses import dataclass

# Counter names worth narrating, with short labels.
_EVENT_LABELS = {
    "prefetches_emitted_on_path": "PF+ (on-path prefetch)",
    "prefetches_emitted_off_path": "PF- (off-path prefetch)",
    "icache_demand_misses": "MISS (demand icache miss)",
    "icache_demand_mshr_merges": "MERGE (demand hit fill buffer)",
    "resteers": "RESTEER",
    "pfc_resteers": "PFC (post-fetch correction)",
    "wrong_path_pfc_redirects": "WP-PFC (wrong-path redirect)",
    "udp_drop_off_path": "UDP-DROP",
    "udp_emit_off_path": "UDP-EMIT",
    "l1i_fills": "FILL",
    "backend_squashed_uops": "SQUASH",
}


@dataclass
class TraceEvent:
    cycle: int
    label: str
    count: int = 1


class PipelineTracer:
    """Records labelled per-cycle events from a live simulator."""

    def __init__(self, simulator, max_events: int = 10_000,
                 labels: dict[str, str] | None = None) -> None:
        self.simulator = simulator
        self.max_events = max_events
        self.labels = labels if labels is not None else dict(_EVENT_LABELS)
        self.events: list[TraceEvent] = []
        self._saturated = False
        simulator.counters.hook = self._observe

    def _observe(self, name: str, amount: int) -> None:
        if self._saturated:
            return
        label = self.labels.get(name)
        if label is None:
            return
        if len(self.events) >= self.max_events:
            self._saturated = True
            return
        self.events.append(TraceEvent(self.simulator.cycle, label, amount))

    def detach(self) -> None:
        """Stop observing counter bumps."""
        self.simulator.counters.hook = None

    # -- queries -------------------------------------------------------------

    def events_between(self, first_cycle: int, last_cycle: int) -> list[TraceEvent]:
        return [e for e in self.events if first_cycle <= e.cycle <= last_cycle]

    def cycles_with(self, label_substring: str) -> list[int]:
        """Cycles at which a matching event fired (e.g. "RESTEER")."""
        return [e.cycle for e in self.events if label_substring in e.label]

    @property
    def saturated(self) -> bool:
        """True if the event window filled up (older events kept)."""
        return self._saturated

    # -- rendering ------------------------------------------------------------

    def render(self, first_cycle: int = 0, last_cycle: int | None = None) -> str:
        """Annotated timeline: one line per cycle that has events."""
        last = last_cycle if last_cycle is not None else self.simulator.cycle
        window = self.events_between(first_cycle, last)
        if not window:
            return f"(no traced events in cycles {first_cycle}..{last})"
        lines: list[str] = []
        by_cycle: dict[int, list[TraceEvent]] = {}
        for event in window:
            by_cycle.setdefault(event.cycle, []).append(event)
        for cycle in sorted(by_cycle):
            parts = []
            for event in by_cycle[cycle]:
                suffix = f" x{event.count}" if event.count > 1 else ""
                parts.append(event.label + suffix)
            lines.append(f"cycle {cycle:>8}: " + "; ".join(parts))
        if self._saturated:
            lines.append(f"... trace window saturated at {self.max_events} events")
        return "\n".join(lines)

    def summary(self) -> dict[str, int]:
        """Total traced occurrences per label."""
        out: dict[str, int] = {}
        for event in self.events:
            out[event.label] = out.get(event.label, 0) + event.count
        return out
