"""The cycle-level simulator wiring frontend, backend, and memory.

Per-cycle order (matters for same-cycle interactions; see DESIGN.md §5):

1. **Fills** — completed MSHR entries install lines into the L1I.
2. **Resteer poll** — a branch resolving this cycle squashes younger work
   and recovers the frontend *before* retirement can touch it.
3. **Backend** — retire up to 6, issue ready reservation-station entries.
4. **Fetch/decode** — FTQ-head blocks demand-access the L1I and dispatch
   up to 6 instructions; post-fetch correction fires here.
5. **FDIP** — scan the FTQ ahead of fetch and emit prefetches.
6. **FTQ generation** — the walker runs ahead, shadowing the oracle.
7. **Bookkeeping** — occupancy sampling.

The fetch and decode stages are merged (documented approximation): a fetch
block whose line is ready streams instructions directly into dispatch; the
L1I hit latency is part of the steady-state pipeline depth, while misses
stall the stream until the fill arrives.

A compiled simulator runs these stages, and its functional walk, in C
(:mod:`repro.sim.driver`).  The Python stepper and walk, which run the
object structures, are :mod:`repro.sim.stepper`: the first object-path
simulator imports it, and a compiled run never does.  The stepper's timed
stages stay methods here, one-line delegations, so ``repro profile`` and
span tracers find each by name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.branch.unit import BranchPredictionUnit
from repro.common import cc
from repro.common.addr import LINE_BYTES
from repro.common.config import SimConfig
from repro.common.counters import Counters
from repro.common.errors import SimulationError
from repro.prefetchers.base import FrontendHooks
from repro.prefetchers.registry import get_technique
from repro.sim import driver
from repro.workloads.profiles import DataProfile
from repro.workloads.program import Program
from repro.workloads.trace import OracleCursorC

if TYPE_CHECKING:
    from repro.core.udp import UDPFilter


class Simulator:
    """One configured core running one synthetic program."""

    def __init__(
        self,
        program: Program,
        config: SimConfig,
        data_profile: DataProfile | None = None,
        compiled: bool | None = None,
    ) -> None:
        config.validate()
        self.program = program
        self.config = config
        # Compiled means the compiled cycle driver: this simulator holds the
        # C structures exactly when ``compiled`` (None defers to
        # REPRO_NO_COMPILED) asks for them and the kernels build, and the
        # object structures, which the Python stepper and walk run,
        # otherwise.  Counters are byte-identical either way
        # (tests/sim/test_modes.py).
        self.compiled_enabled = comp = cc.resolve_compiled(compiled)
        self.counters = Counters()
        self.cycle = 0

        self.bpu = BranchPredictionUnit(config.branch, self.counters, compiled=comp)
        self.udp: UDPFilter | None = None
        if config.udp.enabled:
            # UDP's modules load only for a run that builds it.
            from repro.core.udp import UDPFilter

            # Every line the exact set can hold -- warmed, retired or
            # fetched -- is a line of the code region.
            code_lines = range(program.code_start & -LINE_BYTES, program.code_end, LINE_BYTES)
            self.udp = UDPFilter(config.udp, self.counters, code_lines)
        # Technique construction is fully registry-driven: the capability
        # declaration decides what gets wired up, never the kind string.
        technique = get_technique(config.prefetcher.kind)
        caps = technique.capabilities
        fdip_enabled = caps.uses_fdip and not config.prefetcher.standalone_only
        # Each side imports only its own structures: the driver keeps the
        # pipeline contents (FTQ entries, MSHRs, resteers) in C, so a
        # compiled simulator holds only the scalars it syncs
        # (repro.frontend.compiled) and the driver's arrays
        # (repro.memory.compiled); its MSHR capacity is the config's.
        if comp:
            from repro.frontend.compiled import (
                DecoupledFrontendC, FDIPEngineC, FetchTargetQueueC
            )
            from repro.memory.compiled import MemoryHierarchyC, SetAssocCacheC

            fe_config = config.frontend
            self.oracle = OracleCursorC(program)
            self.ftq = FetchTargetQueueC(fe_config.ftq_depth, fe_config.ftq_max_physical)
            self.frontend = DecoupledFrontendC(program.entry, self.counters)
            self.hierarchy = MemoryHierarchyC(config.memory)
            self.l1i = SetAssocCacheC(config.memory.l1i)
            self.fdip = FDIPEngineC(fdip_enabled, self.counters)
        else:
            # The Python stepper and walk, bound once: the stage methods
            # below delegate to it.
            from repro.sim import stepper

            self._stepper = stepper
            stepper.build_frontend(self, fdip_enabled)
        bpu = self.bpu
        hooks = FrontendHooks(
            program=program,
            counters=self.counters,
            btb_fill=bpu.fill_btb if caps.hooks_btb else None,
            # Late-bound through the facade (a named method, so `repro
            # profile` can attribute the hook's cost as its own stage).
            btb_contains=self._btb_contains_hook if caps.hooks_btb else None,
        )
        # A compiled simulator runs a built-in comparator inside the cycle
        # driver, on its native state holder; every other technique is an
        # object, called back.
        self.native_technique = comp and technique.native is not None
        build = technique.native if self.native_technique else technique.build
        self.prefetcher = build(config.prefetcher.params, program, hooks)
        self._fill_observer = (
            self.prefetcher
            if caps.observes_fills and self.prefetcher is not None
            and not self.native_technique
            else None
        )

        profile = data_profile if data_profile is not None else DataProfile()
        # The stochastic components (data addresses, backend latency draws)
        # draw from config.seed.  The functional warmup never consumes these
        # streams; the warming fast-forward does (its data replay), and the
        # measured region continues where it left them.
        seed = config.seed
        if comp:
            from repro.backend.core import BackendCoreC, DataAddressGeneratorC, dep_flags

            self.data_gen = DataAddressGeneratorC(
                profile, seed, program.code_start, program.code_end
            )
            self.backend = BackendCoreC(config.core, self.data_gen, seed=seed)
            self.backend.install_dep_table(
                dep_flags(program, seed, self.backend._dep_threshold)
            )
        else:
            self._stepper.build_backend(self, profile, seed)

        self.uftq = None
        if config.uftq.mode != "off":
            from repro.core.uftq import UFTQController

            self.uftq = UFTQController(config.uftq, self.ftq, self.counters)
        self._warmup_baseline: dict[str, int] | None = None
        self._warmup_cycle = 0
        self._warmup_retired = 0
        self._warmed = False

        # Idle-cycle fast-forward (see docs/performance.md).  Counters are
        # byte-identical either way; clearing this flag on an object
        # simulator keeps the naive one-cycle-at-a-time stepper as the
        # oracle for equivalence tests.  The compiled cycle driver always
        # fast-forwards.
        self.fast_forward_enabled = True
        self.ff_cycles_skipped = 0  # cycles advanced without a full step
        self.ff_jumps = 0  # number of fast-forward jumps taken
        self.steps_executed = 0  # full step() bodies run (perf smoke checks)
        # Technique callbacks the compiled cycle driver made (0 under the
        # Python stepper, and for a native technique): on_demand_access and
        # on_line_filled calls.
        self.driver_demand_callbacks = 0
        self.driver_fill_callbacks = 0
        # The compiled cycle driver, built at a compiled simulator's first
        # run (see _cycle_driver and repro.sim.driver).
        self._driver = None

        # Hot-loop constants hoisted out of the per-cycle stages (the config
        # is immutable once the simulator is constructed).
        self._frontend_width = config.core.frontend_width
        self._max_fetch_accesses = config.frontend.ftq_blocks_per_cycle
        self._perfect_icache = config.frontend.perfect_icache
        self._max_cycles = config.cycle_limit

        # Interned fast-path counter slots (see Counters.incrementer).
        counters = self.counters
        self._c_slots_lost_empty = counters.incrementer("fetch_slots_lost_empty_ftq")
        self._c_slots_lost_icache = counters.incrementer("fetch_slots_lost_icache")
        self._c_stall_icache = counters.incrementer("fetch_stall_icache_cycles")
        self._c_slots_lost_mshr = counters.incrementer("fetch_slots_lost_mshr_full")
        self._c_demand_accesses = counters.incrementer("icache_demand_accesses")
        self._c_demand_hits = counters.incrementer("icache_demand_hits")
        self._c_dispatch_stall = counters.incrementer("dispatch_stall_backend_full")
        self._c_dispatched = counters.incrementer("dispatched_instructions")
        self._c_l1i_fills = counters.incrementer("l1i_fills")

    # -- functional warmup -------------------------------------------------------

    def functional_warmup(self, num_blocks: int) -> None:
        """Warm microarchitectural state by walking the true path (no timing).

        Mirrors the paper's 50M-instruction warmup at trace speed: the oracle
        advances ``num_blocks`` basic blocks while the BTB, TAGE, the iBTB,
        the global history, and the cache hierarchy are trained exactly as a
        correct-path execution would train them (:meth:`_walk_true_path`).
        Must be called once, first: before :meth:`run`, and not after
        another warmup, a checkpoint restore or :meth:`fast_forward_to`,
        whose walked span and counters a second warmup would silently
        overwrite.  The measured region continues from the warmed program
        state.
        """
        if self._warmed:
            raise SimulationError(
                "functional warmup must come first: this simulator is already "
                "warmed (by a warmup, a checkpoint restore or a fast-forward)"
            )
        if self.cycle != 0 or self._driver is not None:
            raise SimulationError("functional warmup must precede run()")
        self._warmed = True
        self._walk_true_path(num_blocks, driver.NEVER, first_touch=True, warm=False)
        # Warmup traffic must not leak into measured statistics.
        self._warmup_baseline = self.counters.snapshot()
        self.counters.set("warmup_blocks", num_blocks)
        self.counters.set("warmup_instructions_functional", self.oracle.instrs_walked)

    def _walk_true_path(
        self, max_blocks: int, target_walked: int, first_touch: bool, warm: bool
    ) -> None:
        """The functional walk of :meth:`functional_warmup` and :meth:`fast_forward_to`.

        Advances the oracle ``max_blocks`` basic blocks, or to the first
        block boundary at or past ``target_walked`` true-path instructions,
        whichever comes first, with no timing.  Per block, in order: every
        line it spans goes through the L1I (a miss fills L2/LLC through the
        instruction miss path, then the line is installed) and, with UDP,
        into the useful-set; ``warm`` replays the block's loads and stores
        through ``self.data_gen`` into the data hierarchy; the branch trains
        the BPU; the oracle advances.  Then the RAS is repaired from the true
        call stack and the walker resumes at the oracle's pc.

        The useful-set learns each line once.  ``first_touch`` dedupes
        within this call (the functional warmup); otherwise a line is
        skipped while the useful-set holds it (a silent probe that also
        reads the coalescing buffer), a pure function of the current state,
        so chained fast-forwards equal one direct jump.

        Runs as one C call on a compiled simulator
        (:func:`repro.sim.driver.functional_walk`), and on the object
        structures as :func:`repro.sim.stepper.walk_true_path`, the
        reference it ports.
        """
        if self.compiled_enabled:
            driver.functional_walk(self, max_blocks, target_walked, first_touch, warm)
        else:
            self._stepper.walk_true_path(self, max_blocks, target_walked, first_touch, warm)
        self.bpu.ras.repair(self.oracle.call_stack)
        self.frontend.spec_pc = self.oracle.pc

    def fast_forward_to(self, target_walked: int) -> tuple[int, int]:
        """Functionally advance the oracle to ``target_walked`` instructions.

        ``target_walked`` is an *absolute* position in true-path instructions
        (``oracle.instrs_walked``); the walk (:meth:`_walk_true_path`) stops
        at the first basic-block boundary at or past it, so chaining
        fast-forwards through intermediate targets lands in exactly the same
        state as one direct jump (the engine's sampled chain, one walker
        fast-forwarding from interval to interval, depends on this).
        Afterwards the warmup baseline is re-snapshotted so the skipped span
        never leaks into measurement.

        The walk warms the data side too: it replays the walked blocks'
        loads and stores through ``self.data_gen`` into the data hierarchy
        (L1D/L2/LLC and the stream prefetcher, no cycle accounting), so a
        sampled large-footprint workload does not start each interval
        against cold data caches.  The replay consumes the *same* generator
        the measured region draws from; every piece of state it touches is
        captured (:func:`repro.sim.checkpoint.capture_state`), so chained
        walks stay byte-identical to one direct jump.

        Returns ``(blocks_walked, instructions_walked)`` for this call.
        Already being at or past the target is a strict no-op — the
        degenerate one-interval sampling run stays byte-identical to a plain
        run.
        """
        if self.cycle != 0 or self._driver is not None:
            raise SimulationError("fast-forward must precede run()")
        oracle = self.oracle
        if self._warmed and oracle.instrs_walked >= target_walked:
            return (0, 0)
        start_blocks = oracle.blocks_walked
        start_instrs = oracle.instrs_walked
        self._walk_true_path(driver.NEVER, target_walked, first_touch=False, warm=True)
        self._warmed = True
        walked_blocks = oracle.blocks_walked - start_blocks
        walked_instrs = oracle.instrs_walked - start_instrs
        if walked_blocks:
            self.counters.bump("sampling_ff_blocks", walked_blocks)
            self.counters.bump("sampling_ff_instructions", walked_instrs)
        self._warmup_baseline = self._meta_preserving_snapshot()
        return (walked_blocks, walked_instrs)

    # Bookkeeping counters that describe pre-measurement work; baseline
    # re-snapshots in the sampling paths keep them out of the subtraction so
    # measured_counters() reports their cumulative values (parity with how
    # functional_warmup exposes warmup_blocks).  Cumulative bumps are
    # path-invariant, so chained fast-forwards report the same totals as one
    # direct jump.
    _META_COUNTERS = (
        "warmup_blocks",
        "warmup_instructions_functional",
        "sampling_ff_blocks",
        "sampling_ff_instructions",
    )

    def _meta_preserving_snapshot(self) -> dict[str, int]:
        baseline = self.counters.snapshot()
        for name in self._META_COUNTERS:
            baseline.pop(name, None)
        return baseline

    # -- top-level run loop ----------------------------------------------------

    def run(self, max_instructions: int | None = None) -> None:
        """Simulate until the retire target (or the cycle limit) is reached."""
        target = (
            max_instructions
            if max_instructions is not None
            else self.config.max_instructions
        )
        if not self._warmed and self.cycle == 0 and self.config.functional_warmup_blocks > 0:
            self.functional_warmup(self.config.functional_warmup_blocks)
        self._simulate(target, None, None)
        self.counters.set("cycles", self.cycle)
        self.counters.set("retired_instructions", self.backend.retired_instructions)

    def run_interval(
        self, measure_instructions: int, detailed_warmup: int = 0
    ) -> None:
        """Simulate one bounded sampling interval (stop at retired N more).

        Cycle-simulates ``detailed_warmup`` unmeasured instructions (the
        prologue that settles in-flight/pipeline state the functional
        fast-forward cannot reproduce), re-snapshots the warmup baseline,
        then simulates ``measure_instructions`` measured instructions.  Both
        budgets are *relative* to the instructions already retired, so the
        method is resumable.  With no prologue the loop is exactly
        :meth:`run`'s — one interval spanning the whole measured region is
        byte-identical to a plain run.  :meth:`measured_counters` afterwards
        reports the measured span only.
        """
        if not self._warmed and self.cycle == 0 and self.config.functional_warmup_blocks > 0:
            self.functional_warmup(self.config.functional_warmup_blocks)
        warmup_target = self.backend.retired_instructions + detailed_warmup
        target = warmup_target + measure_instructions

        def end_warmup() -> None:
            self._warmup_baseline = self._meta_preserving_snapshot()
            self._warmup_cycle = self.cycle
            self._warmup_retired = self.backend.retired_instructions

        self._simulate(target, warmup_target if detailed_warmup else None, end_warmup)
        self.counters.set("cycles", self.cycle)
        self.counters.set("retired_instructions", self.backend.retired_instructions)

    def _simulate(self, target: int, warmup_target: int | None, end_warmup) -> None:
        """Step until ``target`` instructions retired.

        ``end_warmup`` runs once, right after the step whose retirement
        reaches ``warmup_target`` (None: no warmup boundary).  On a compiled
        simulator the compiled cycle driver runs the steps in C (see
        :meth:`_cycle_driver`), stopping only at that boundary, the target
        or the cycle limit; on the object structures :meth:`step` runs in
        Python.  Both raise the same :class:`SimulationError` at the cycle
        limit.
        """
        if self.compiled_enabled:
            cycle_driver = self._cycle_driver()
            stop = driver.NEVER if warmup_target is None else warmup_target
            while True:
                status = cycle_driver.run(self, target, stop)
                if status == driver.STOP:
                    end_warmup()
                    stop = driver.NEVER
                    continue
                if status == driver.LIMIT:
                    self._raise_cycle_limit()
                return
        backend = self.backend
        step = self.step
        while backend.retired_instructions < target:
            if self.cycle >= self._max_cycles:
                self._raise_cycle_limit()
            step()
            if warmup_target is not None and backend.retired_instructions >= warmup_target:
                end_warmup()
                warmup_target = None

    def _raise_cycle_limit(self) -> None:
        raise SimulationError(
            f"cycle limit {self._max_cycles} hit at "
            f"{self.backend.retired_instructions} retired instructions"
        )

    def _cycle_driver(self) -> "driver.CycleDriver":
        """This compiled simulator's cycle driver, built at its first run.

        Built on a clean machine (cycle 0: after warmup, restore or
        fast-forward); from then on it owns the pipeline contents.  The
        driver narrates nothing and always fast-forwards, so a counter hook
        (a tracer) or a cleared ``fast_forward_enabled`` is an error here:
        those need the Python stepper, over the object structures.
        """
        if self.counters.hook is not None:
            raise SimulationError(
                "a counter hook needs the Python stepper: build the simulator "
                "with compiled=False (the compiled cycle driver does not "
                "narrate counter bumps)"
            )
        if not self.fast_forward_enabled:
            raise SimulationError(
                "the naive stepper needs the object structures: build the "
                "simulator with compiled=False (the compiled cycle driver "
                "always fast-forwards)"
            )
        if self._driver is None:
            self._driver = driver.CycleDriver(self)
        return self._driver

    # -- the Python stepper's stages (repro.sim.stepper) ----------------------------

    def step(self) -> None:
        """Advance the machine to its next non-trivial cycle
        (:func:`repro.sim.stepper.step`)."""
        if self.compiled_enabled:
            raise SimulationError(
                "the compiled cycle driver owns this simulator's pipeline; "
                "advance it with run() or run_interval()"
            )
        self._stepper.step(self)

    def _try_refill_step(self) -> bool:
        return self._stepper.try_refill_step(self)

    def _try_fast_forward(self) -> None:
        self._stepper.try_fast_forward(self)

    def _process_fills(self, cycle: int) -> None:
        self._stepper.process_fills(self, cycle)

    def _fetch_decode(self, cycle: int) -> None:
        self._stepper.fetch_decode(self, cycle)

    # -- registry-wired hooks ---------------------------------------------------------

    def _btb_contains_hook(self, pc: int) -> bool:
        """Technique-facing BTB presence probe (late-bound via the facade)."""
        return self.bpu.btb.contains(pc)

    # -- results ---------------------------------------------------------------------------

    def measured_counters(self) -> dict[str, int]:
        """Counters excluding the warmup region (if one was configured)."""
        snapshot = self.counters.snapshot()
        if self._warmup_baseline is None:
            return snapshot
        out = {
            name: value - self._warmup_baseline.get(name, 0)
            for name, value in snapshot.items()
        }
        out["cycles"] = self.cycle - self._warmup_cycle
        out["retired_instructions"] = (
            self.backend.retired_instructions - self._warmup_retired
        )
        return out
