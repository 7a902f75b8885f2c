"""Pipeline tracer."""

from repro.common.config import SimConfig
from repro.sim.simulator import Simulator
from repro.sim.tracer import PipelineTracer
from repro.workloads import micro


def traced_sim(program, max_events=5_000, instructions=1_500):
    # A tracer narrates the Python stepper, which runs the object structures.
    sim = Simulator(
        program,
        SimConfig(max_instructions=instructions, functional_warmup_blocks=0),
        compiled=False,
    )
    tracer = PipelineTracer(sim, max_events=max_events)
    sim.run()
    return sim, tracer


def test_records_resteers_on_mispredicting_program():
    sim, tracer = traced_sim(micro.mispredicting_loop())
    assert tracer.cycles_with("RESTEER")
    assert tracer.summary().get("RESTEER", 0) == sim.counters["resteers"]


def test_records_misses_on_cold_program():
    _, tracer = traced_sim(micro.long_straight(num_blocks=1024, block_instrs=8))
    summary = tracer.summary()
    assert "MISS (demand icache miss)" in summary or "PF+ (on-path prefetch)" in summary


def test_render_window():
    sim, tracer = traced_sim(micro.mispredicting_loop())
    text = tracer.render(0, sim.cycle)
    assert "cycle" in text


def test_render_empty_window():
    sim, tracer = traced_sim(micro.straight_loop())
    assert "no traced events" in tracer.render(10**9, 10**9 + 5)


def test_saturation_bounds_memory():
    sim, tracer = traced_sim(micro.mispredicting_loop(), max_events=5,
                             instructions=2_000)
    assert len(tracer.events) <= 5
    if tracer.saturated:
        assert "saturated" in tracer.render(0, sim.cycle)


def test_counters_still_correct_after_wrapping():
    sim, tracer = traced_sim(micro.mispredicting_loop())
    # The wrapped bump must not change counter arithmetic.
    assert sim.counters["retired_instructions"] >= 1_500


def test_detach_restores_bump():
    sim = Simulator(
        micro.straight_loop(),
        SimConfig(max_instructions=200, functional_warmup_blocks=0),
    )
    tracer = PipelineTracer(sim)
    tracer.detach()
    sim.run()
    assert tracer.events == []  # nothing recorded after detach
