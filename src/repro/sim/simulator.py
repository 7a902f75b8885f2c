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
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.backend.core import OP_BRANCH, BackendCore
from repro.branch.unit import BranchPredictionUnit
from repro.common import cc
from repro.common.addr import INSTR_BYTES, LINE_BYTES
from repro.common.config import SimConfig
from repro.common.counters import Counters
from repro.common.errors import SimulationError
from repro.prefetchers.base import LINE_LIMIT, FrontendHooks, reject_prefetch_line
from repro.prefetchers.registry import get_technique
from repro.sim import driver
from repro.workloads.profiles import DataProfile
from repro.workloads.program import OP_LOAD, OP_STORE, BranchKind, Program
from repro.workloads.trace import OracleCursor

if TYPE_CHECKING:
    from repro.core.udp import UDPFilter
    from repro.frontend.fetch_block import FTQEntry, PendingResteer
    from repro.memory.cache import CacheLine


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

        self.oracle = OracleCursor(program)
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
        fe_config = config.frontend
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

            self.ftq = FetchTargetQueueC(fe_config.ftq_depth, fe_config.ftq_max_physical)
            self.frontend = DecoupledFrontendC(program.entry, self.counters)
            self.hierarchy = MemoryHierarchyC(config.memory)
            self.l1i = SetAssocCacheC(config.memory.l1i)
            self.fdip = FDIPEngineC(fdip_enabled, self.counters)
        else:
            from repro.frontend.bpu import DecoupledFrontend
            from repro.frontend.fdip import FDIPEngine
            from repro.frontend.ftq import FetchTargetQueue
            from repro.memory.cache import SetAssocCache
            from repro.memory.hierarchy import MemoryHierarchy
            from repro.memory.mshr import MSHRFile

            self.ftq = FetchTargetQueue(fe_config.ftq_depth, fe_config.ftq_max_physical)
            self.frontend = DecoupledFrontend(
                program,
                self.bpu,
                self.ftq,
                self.oracle,
                fe_config,
                self.counters,
                path_estimator=self.udp.path_estimator if self.udp is not None else None,
            )
            self.hierarchy = MemoryHierarchy(config.memory, self.counters)
            self.l1i = SetAssocCache(config.memory.l1i)
            self.l1i.eviction_hook = self._on_l1i_eviction
            self.mshr = MSHRFile(config.memory.l1i.mshr_entries)
            self.fdip = FDIPEngine(
                fe_config,
                self.ftq,
                self.l1i,
                self.mshr,
                self.hierarchy,
                self.counters,
                gate=self.udp,
                enabled=fdip_enabled,
            )
        bpu = self.bpu
        hooks = FrontendHooks(
            program=program,
            counters=self.counters,
            btb_fill=bpu.fill_btb if caps.hooks_btb else None,
            # Late-bound through the facade (a named method, so `repro
            # profile` can attribute the hook's cost as its own stage).
            btb_contains=self._btb_contains_hook if caps.hooks_btb else None,
        )
        self.prefetcher = technique.build(config.prefetcher.params, program, hooks)
        self._fill_observer = (
            self.prefetcher
            if caps.observes_fills and self.prefetcher is not None
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
            from repro.workloads.data import DataAddressGenerator

            self.data_gen = DataAddressGenerator(profile, seed)
            self.backend = BackendCore(
                config.core,
                self.hierarchy,
                self.data_gen,
                self.counters,
                seed=seed,
            )
            if self.udp is not None:
                self.backend.retire_hook = self.udp.on_retire

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
        # Python stepper): on_demand_access and on_line_filled calls.
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
        the BPU (:meth:`_train_functional_branch`); the oracle advances.
        Then the RAS is repaired from the true call stack and the walker
        resumes at the oracle's pc.

        The useful-set learns each line once.  ``first_touch`` dedupes
        within this call (the functional warmup); otherwise a line is
        skipped while :meth:`_useful_set_holds` it, a pure function of the
        current state, so chained fast-forwards equal one direct jump.

        Runs as one C call on a compiled simulator
        (:func:`repro.sim.driver.functional_walk`); this loop is the
        reference it ports, and the object structures' walk.
        """
        oracle = self.oracle
        if self.compiled_enabled:
            driver.functional_walk(self, max_blocks, target_walked, first_touch, warm)
        else:
            l1i = self.l1i
            hierarchy = self.hierarchy
            useful_set = self.udp.useful_set if self.udp is not None else None
            inserted: set[int] | None = set() if first_touch else None
            warm_gen = self.data_gen if warm else None
            load_latency = hierarchy.load_latency
            store_access = hierarchy.store_access
            blocks = 0
            while blocks < max_blocks and oracle.instrs_walked < target_walked:
                transition = oracle.transition()
                block = transition.block
                for line_addr in range(block.addr & ~63, block.end_addr, 64):
                    if not l1i.contains(line_addr):
                        hierarchy.instruction_miss_latency(line_addr)  # fills L2/LLC
                    l1i.install(line_addr)
                    # Lines that execute on the true path are exactly what the
                    # Seniority-FTQ would have promoted over a long warmup.
                    if useful_set is None:
                        continue
                    if inserted is not None:
                        if line_addr in inserted:
                            continue
                        inserted.add(line_addr)
                    elif self._useful_set_holds(line_addr):
                        continue
                    useful_set.insert(line_addr)
                if warm_gen is not None and block.ops:
                    pc = block.addr
                    for op in block.ops:
                        if op == OP_LOAD:
                            load_latency(warm_gen.next_address(pc))
                        elif op == OP_STORE:
                            store_access(warm_gen.next_address(pc))
                        pc += INSTR_BYTES
                if transition.branch is not None:
                    self._train_functional_branch(transition)
                oracle.advance(transition)
                blocks += 1
        self.bpu.ras.repair(oracle.call_stack)
        self.frontend.spec_pc = oracle.pc

    def _train_functional_branch(self, transition) -> None:
        """Train the BPU with one true-path transition (no timing).

        Exactly what a correct-path execution would teach the predictors.
        """
        bpu = self.bpu
        branch = transition.branch
        if branch.kind == BranchKind.COND:
            prediction = bpu.tage.predict(branch.pc)
            bpu.tage.update(prediction, transition.taken)
            bpu.history.push(transition.taken)
            bpu.btb.fill(branch.pc, branch.kind, branch.target)
        elif branch.kind.is_indirect:
            bpu.train_indirect(branch.pc, transition.next_pc, branch.kind)
        elif branch.kind == BranchKind.RET:
            bpu.btb.fill(branch.pc, branch.kind, 0)
        else:
            bpu.btb.fill(branch.pc, branch.kind, branch.target)

    # -- sampling: functional fast-forward between intervals ---------------------

    def _useful_set_holds(self, line_addr: int) -> bool:
        """Silent membership probe of the UDP useful-set.

        Probes all three filter granularities like :meth:`UsefulSet.query`,
        without bumping its hit counters, so fast-forward dedup never
        perturbs measured statistics.  Unlike ``query``, it also counts the
        lines still waiting in the coalescing buffer: ``query`` never probes
        the buffer, so a freshly inserted line stays unknown to the FDIP
        gate until it leaves the buffer, while the walk skips re-inserting
        it.  A pure function of current state, which keeps segmented
        fast-forwards byte-identical to one-shot walks over the same span.
        """
        from repro.core.superline import superline_base

        us = self.udp.useful_set
        if us.infinite:
            return line_addr in us._exact
        if line_addr in us.coalescer._lines:
            return True
        return any(
            us.filters[size].contains(superline_base(line_addr, size))
            for size in (4, 2, 1)
        )

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
        while backend.retired_instructions < target:
            if self.cycle >= self._max_cycles:
                self._raise_cycle_limit()
            self.step()
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

    def step(self) -> None:
        """Advance the machine to its next non-trivial cycle.

        Equivalent to stepping one cycle at a time: when the whole core is
        provably idle until a future event (a fill completing, a uop
        becoming issuable, a branch resolving), the intervening pure-stall
        cycles are fast-forwarded in bulk with their per-cycle counters
        accounted for exactly (see :meth:`_try_fast_forward`).
        """
        if self.compiled_enabled:
            raise SimulationError(
                "the compiled cycle driver owns this simulator's pipeline; "
                "advance it with run() or run_interval()"
            )
        if self.fast_forward_enabled and self.counters.hook is None:
            self._try_fast_forward()
            if self._try_refill_step():
                return
        self.steps_executed += 1
        self.cycle += 1
        cycle = self.cycle
        self._process_fills(cycle)
        fired = self.backend.poll_resteer(cycle)
        if fired is not None:
            resteer, branch_seq = fired
            self._resteer(resteer, squash_seq=branch_seq)
        self.backend.retire_and_issue(cycle)
        self._fetch_decode(cycle)
        self.fdip.scan(cycle)
        self.frontend.generate()
        self.ftq.sample_occupancy()

    def _try_refill_step(self) -> bool:
        """Run a provable FTQ-refill cycle with only its live stages.

        The complement of :meth:`_try_fast_forward`: when the FTQ still has
        space the cycle cannot be skipped (the walker produces blocks), but
        if the fetch head is waiting on an in-flight fill, no MSHR fill
        completes, and the backend has no retire/issue/resteer work, then
        fills/poll/retire/fetch are all no-ops apart from the fetch-stall
        bookkeeping.  Executing just the live stages (FDIP scan, generation,
        occupancy sampling) is cycle-exact — nothing is skipped, the cycle
        advances by one — so counters stay byte-identical to the full step.
        Runs in both modes, under the same switch and hook check as
        fast-forward.
        """
        ftq = self.ftq
        if not ftq.has_space:
            return False
        entry = ftq.head()
        cycle = self.cycle + 1
        if entry is None or entry.ready_cycle < 0 or entry.ready_cycle <= cycle:
            return False
        mshr_ready = self.mshr.next_ready_cycle()
        if mshr_ready is not None and mshr_ready <= cycle:
            return False
        backend_event = self.backend.next_event_cycle(self.cycle)
        if backend_event is not None and backend_event <= cycle:
            return False
        self.steps_executed += 1
        self.cycle = cycle
        # Exactly what _fetch_decode records for a head-not-ready stall.
        self._c_slots_lost_icache(self._frontend_width)
        self._c_stall_icache()
        self.fdip.scan(cycle)
        self.frontend.generate()
        ftq.sample_occupancy()
        return True

    def _try_fast_forward(self) -> None:
        """Jump ``cycle`` over a run of provably idle stall cycles.

        A cycle is *pure stall* when every stage of :meth:`step` is a no-op
        apart from fixed bookkeeping:

        * the FTQ head is waiting on an in-flight fill (``ready_cycle`` in
          the future), so fetch only bumps the stall counters;
        * the FTQ is full, so the walker only bumps ``ftq_full_cycles_blocks``;
        * FDIP's scan pointer has caught up with the FTQ tail (or FDIP is
          disabled), so the scan is a no-op;
        * no MSHR fill completes and the backend has no retire/issue/resteer
          work (:meth:`BackendCore.next_event_cycle`).

        The jump target is the earliest cycle at which any of those events
        can occur; the skipped cycles' stall counters and occupancy samples
        are bumped in bulk, making the result bit-identical to the naive
        stepper (enforced by tests/sim/test_fastforward.py).

        Never called with a tracer hook attached — the tracer narrates
        per-cycle events, so it implies cycle-exact stepping.
        """
        ftq = self.ftq
        entry = ftq.head()
        if entry is None or ftq.has_space:
            return
        cycle = self.cycle
        ready = entry.ready_cycle
        if ready <= cycle + 1:  # unaccessed (-1), consumable, or imminent
            return
        fdip = self.fdip
        if (
            fdip.enabled
            and not self._perfect_icache
            and fdip.next_scan_seq - entry.seq < len(ftq)
        ):
            return  # FDIP still has FTQ entries to scan
        backend_event = self.backend.next_event_cycle(cycle)
        if backend_event is not None and backend_event <= cycle + 1:
            return
        target = ready
        mshr_ready = self.mshr.next_ready_cycle()
        if mshr_ready is not None and mshr_ready < target:
            target = mshr_ready
        if backend_event is not None and backend_event < target:
            target = backend_event
        if target > self._max_cycles:
            # Never skip past the cycle limit: run() must raise at the same
            # point (with the same counters) as the naive stepper.
            target = self._max_cycles
        skipped = target - cycle - 1
        if skipped <= 0:
            return
        # Exactly what `skipped` naive stall iterations would have recorded.
        self._c_stall_icache(skipped)
        self._c_slots_lost_icache(skipped * self._frontend_width)
        self.counters.bump("ftq_full_cycles_blocks", skipped)
        ftq.sample_occupancy(skipped)
        self.cycle = cycle + skipped
        self.ff_cycles_skipped += skipped
        self.ff_jumps += 1

    # -- fills ----------------------------------------------------------------------

    def _process_fills(self, cycle: int) -> None:
        fill_observer = self._fill_observer
        for entry in self.mshr.pop_ready(cycle):
            keep_prefetch_bit = entry.is_prefetch and not entry.demand_on_path
            self.l1i.install(
                entry.line_addr,
                prefetch=keep_prefetch_bit,
                prefetch_off_path=entry.off_path,
                prefetch_udp_candidate=entry.udp_candidate,
            )
            self._c_l1i_fills()
            if fill_observer is not None:
                fill_observer.on_line_filled(entry.line_addr)

    # -- registry-wired hooks ---------------------------------------------------------

    def _btb_contains_hook(self, pc: int) -> bool:
        """Technique-facing BTB presence probe (late-bound via the facade)."""
        return self.bpu.btb.contains(pc)

    # -- resteer ---------------------------------------------------------------------

    def _resteer(self, resteer: PendingResteer, squash_seq: int | None) -> None:
        if squash_seq is not None:
            self.backend.squash_younger(squash_seq)
        self.ftq.flush()
        self.frontend.recover(resteer)
        self.fdip.reset_scan(self.frontend.next_seq)

    # -- fetch + decode ---------------------------------------------------------------

    def _fetch_decode(self, cycle: int) -> None:
        budget = self._frontend_width
        accesses = 0
        max_accesses = self._max_fetch_accesses
        perfect_icache = self._perfect_icache
        ftq = self.ftq
        while budget > 0:
            entry = ftq.head()
            if entry is None:
                self._c_slots_lost_empty(budget)
                return
            if entry.ready_cycle < 0:
                if perfect_icache:
                    entry.ready_cycle = cycle
                    self._c_demand_accesses()
                    self._c_demand_hits()
                else:
                    if accesses >= max_accesses:
                        return
                    accesses += 1
                    self._demand_access(entry, cycle)
                    if entry.ready_cycle < 0:
                        self._c_slots_lost_mshr(budget)
                        return
            if entry.ready_cycle > cycle:
                self._c_slots_lost_icache(budget)
                self._c_stall_icache()
                return
            budget = self._dispatch_entry(entry, cycle, budget)
            if budget < 0:
                return  # a decode-time resteer flushed the frontend
            if entry.decode_offset >= entry.num_instrs and ftq.head() is entry:
                ftq.pop()

    def _dispatch_entry(self, entry: FTQEntry, cycle: int, budget: int) -> int:
        """Dispatch instructions from ``entry``; -1 signals a decode resteer."""
        backend = self.backend
        ops = entry.ops
        num_instrs = entry.num_instrs
        while budget > 0 and entry.decode_offset < num_instrs:
            if not backend.can_dispatch:
                self._c_dispatch_stall()
                return 0
            offset = entry.decode_offset
            pc = entry.start + offset * INSTR_BYTES
            seen = entry.branch_at(pc) if entry.branches else None
            on_path = entry.on_path and offset < entry.on_path_instrs
            entry.decode_offset += 1
            budget -= 1
            self._c_dispatched()
            if seen is None:
                backend.dispatch(pc, ops[offset], on_path, cycle)
                continue
            if self._dispatch_branch(entry, seen, pc, on_path, cycle) < 0:
                return -1
        return budget

    def _dispatch_branch(self, entry: FTQEntry, seen, pc: int, on_path: bool, cycle: int) -> int:
        """Dispatch one branch instruction; -1 signals a decode resteer."""
        backend = self.backend
        branch = seen.branch
        if not seen.detected:
            self._decode_btb_fill(branch)
        resteer = entry.resteer
        if resteer is not None and resteer.branch_pc == pc:
            from repro.frontend.fetch_block import RESTEER_AT_EXECUTE  # object path only

            if resteer.stage == RESTEER_AT_EXECUTE:
                backend.dispatch(pc, OP_BRANCH, on_path, cycle, resteer=resteer)
                return 0
            # Post-fetch correction: the undetected taken branch is
            # discovered at decode; resteer immediately.
            backend.dispatch(pc, OP_BRANCH, on_path, cycle)
            self._resteer(resteer, squash_seq=None)
            self.counters.bump("pfc_resteers")
            return -1
        backend.dispatch(pc, OP_BRANCH, on_path, cycle)
        if (
            not seen.detected
            and not on_path
            and branch.kind in (BranchKind.JUMP, BranchKind.CALL)
            and self.config.frontend.post_fetch_correction
        ):
            # Wrong-path PFC: an undetected unconditional branch redirects
            # the (still wrong-path) frontend to its static target.
            self.ftq.flush()
            self.frontend.redirect_wrong_path(branch.target)
            self.fdip.reset_scan(self.frontend.next_seq)
            return -1
        return 0

    def _decode_btb_fill(self, branch) -> None:
        """Decode-time branch discovery fills the BTB (direct kinds only)."""
        if branch.kind.is_indirect:
            return  # indirect targets are only known at execute (train path)
        target = branch.target if branch.kind != BranchKind.RET else 0
        self.bpu.fill_btb(branch.pc, branch.kind, target)
        self.counters.bump("btb_decode_fills")

    # -- the L1I demand path -----------------------------------------------------------

    def _demand_access(self, entry: FTQEntry, cycle: int) -> None:
        line_addr = entry.line_addr
        counters = self.counters
        self._c_demand_accesses()
        line = self.l1i.lookup(line_addr)
        if line is not None:
            self._c_demand_hits()
            entry.ready_cycle = cycle
            if line.prefetch_bit and entry.on_path:
                line.prefetch_bit = False
                self._prefetch_useful(line.prefetch_off_path, timely=True)
                if self.udp is not None and line.prefetch_udp_candidate:
                    self.udp.on_demand_hit_off_path_prefetch(line_addr)
            self._standalone_prefetch(line_addr, hit=True, on_path=entry.on_path, cycle=cycle)
            return

        in_flight = self.mshr.lookup(line_addr)
        if in_flight is not None:
            counters.bump("icache_demand_mshr_merges")
            entry.ready_cycle = in_flight.ready_cycle
            if in_flight.is_prefetch and entry.on_path and not in_flight.demand_on_path:
                self._prefetch_useful(in_flight.off_path, timely=False)
                if self.udp is not None and in_flight.udp_candidate:
                    self.udp.on_demand_hit_off_path_prefetch(line_addr)
            in_flight.demand_merged = True
            if entry.on_path:
                in_flight.demand_on_path = True
            return

        counters.bump("icache_demand_misses")
        if entry.on_path:
            counters.bump("icache_demand_misses_on_path")
        else:
            counters.bump("icache_demand_misses_off_path")
        if self.uftq is not None and entry.on_path:
            # A demand miss is the strongest untimeliness signal: no prefetch
            # arrived at all (feeds UFTQ-ATR alongside prefetch merges).
            self.uftq.on_timeliness_event(False)
        if self.mshr.full:
            counters.bump("icache_mshr_full_stalls")
            return
        latency, level = self.hierarchy.instruction_miss_latency(line_addr)
        self.mshr.allocate(
            line_addr,
            ready_cycle=cycle + latency,
            is_prefetch=False,
            off_path=not entry.on_path,
            fill_level=level,
        )
        entry.ready_cycle = cycle + latency
        counters.bump(f"demand_fill_{level}")
        self._standalone_prefetch(line_addr, hit=False, on_path=entry.on_path, cycle=cycle)

    def _standalone_prefetch(self, line_addr: int, hit: bool, on_path: bool, cycle: int) -> None:
        if self.prefetcher is None:
            return
        for prefetch_line in self.prefetcher.on_demand_access(line_addr, hit, on_path):
            if (
                type(prefetch_line) is not int
                or not 0 <= prefetch_line < LINE_LIMIT
                or prefetch_line & 63
            ):
                reject_prefetch_line(self.config.prefetcher.kind, prefetch_line)
            if self.l1i.contains(prefetch_line) or self.mshr.lookup(prefetch_line):
                continue
            if self.mshr.full:
                break
            latency, level = self.hierarchy.instruction_miss_latency(prefetch_line)
            self.mshr.allocate(
                prefetch_line,
                ready_cycle=cycle + latency,
                is_prefetch=True,
                off_path=not on_path,
                fill_level=level,
            )
            self.counters.bump("prefetches_emitted")
            if on_path:
                self.counters.bump("prefetches_emitted_on_path")
            else:
                self.counters.bump("prefetches_emitted_off_path")

    # -- utility/timeliness accounting -----------------------------------------------------

    def _prefetch_useful(self, emitted_off_path: bool, timely: bool) -> None:
        counters = self.counters
        counters.bump("prefetch_useful")
        counters.bump(
            "prefetch_useful_off_path" if emitted_off_path else "prefetch_useful_on_path"
        )
        counters.bump("atr_icache_hits" if timely else "atr_mshr_hits")
        if self.uftq is not None:
            self.uftq.on_utility_event(True)
            self.uftq.on_timeliness_event(timely)
        if self.udp is not None:
            self.udp.on_prefetch_outcome(True)

    def _on_l1i_eviction(self, victim: CacheLine) -> None:
        if not victim.prefetch_bit:
            return
        counters = self.counters
        counters.bump("prefetch_useless")
        counters.bump(
            "prefetch_useless_off_path"
            if victim.prefetch_off_path
            else "prefetch_useless_on_path"
        )
        if self.uftq is not None:
            self.uftq.on_utility_event(False)
        if self.udp is not None:
            self.udp.on_prefetch_outcome(False)

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
