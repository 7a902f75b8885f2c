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

from repro.backend.core import OP_BRANCH, BackendCore
from repro.branch.unit import BranchPredictionUnit
from repro.common.addr import INSTR_BYTES
from repro.common.artifacts import env_truthy
from repro.common.config import SimConfig
from repro.common.counters import Counters
from repro.common.errors import SimulationError
from repro.core.superline import superline_base
from repro.core.udp import UDPFilter
from repro.core.uftq import UFTQController
from repro.frontend.bpu import DecoupledFrontend
from repro.frontend.fdip import FDIPEngine
from repro.frontend.fetch_block import RESTEER_AT_EXECUTE, FTQEntry, PendingResteer
from repro.frontend.ftq import FetchTargetQueue
from repro.common.cc import resolve_compiled
from repro.memory.cache import CacheLine, make_cache
from repro.memory.hierarchy import make_hierarchy
from repro.memory.mshr import MSHRFile
from repro.prefetchers.base import FrontendHooks
from repro.prefetchers.registry import get_technique
from repro.workloads.data import DataAddressGenerator
from repro.workloads.profiles import DataProfile
from repro.workloads.program import OP_LOAD, OP_STORE, BranchKind, Program
from repro.workloads.trace import OracleCursor

NO_FASTFORWARD_ENV = "REPRO_NO_FASTFORWARD"


class Simulator:
    """One configured core running one synthetic program."""

    def __init__(
        self,
        program: Program,
        config: SimConfig,
        data_profile: DataProfile | None = None,
        rng_seed: int | None = None,
        compiled: bool | None = None,
    ) -> None:
        config.validate()
        self.program = program
        self.config = config
        # Compiled C kernels when a working compiler is available, else the
        # object oracle; byte-identical counters either way
        # (tests/sim/test_modes.py, REPRO_NO_COMPILED).
        self.compiled_enabled = resolve_compiled(compiled)
        comp = self.compiled_enabled
        # Stochastic measured-region components (data addresses, backend
        # latency draws) may use a seed decoupled from the synthesis seed —
        # cold-fast-forward sampling derives one per interval.  Functional
        # warmup never consumes this stream, so warmup checkpoints are
        # shared across rng_seed values; a *warming* fast-forward does
        # (the data replay), which is why warm sampled intervals all run
        # with the base seed (plan_intervals) and the warm flag enters the
        # interval checkpoint key.
        self.rng_seed = rng_seed if rng_seed is not None else config.seed
        self.counters = Counters()
        self.cycle = 0

        self.oracle = OracleCursor(program)
        self.bpu = BranchPredictionUnit(config.branch, self.counters, compiled=comp)
        self.ftq = FetchTargetQueue(
            config.frontend.ftq_depth, config.frontend.ftq_max_physical
        )
        self.udp = UDPFilter(config.udp, self.counters) if config.udp.enabled else None
        self.frontend = DecoupledFrontend(
            program,
            self.bpu,
            self.ftq,
            self.oracle,
            config.frontend,
            self.counters,
            path_estimator=self.udp.path_estimator if self.udp is not None else None,
            compiled=comp,
        )
        self.hierarchy = make_hierarchy(config.memory, self.counters, compiled=comp)
        self.l1i = make_cache(config.memory.l1i, comp)
        self.l1i.eviction_hook = self._on_l1i_eviction
        self.mshr = MSHRFile(config.memory.l1i.mshr_entries)
        # Technique construction is fully registry-driven: the capability
        # declaration decides what gets wired up, never the kind string.
        technique = get_technique(config.prefetcher.kind)
        caps = technique.capabilities
        self.fdip = FDIPEngine(
            config.frontend,
            self.ftq,
            self.l1i,
            self.mshr,
            self.hierarchy,
            self.counters,
            gate=self.udp,
            enabled=(caps.uses_fdip and not config.prefetcher.standalone_only),
        )
        bpu = self.bpu
        hooks = FrontendHooks(
            program=program,
            counters=self.counters,
            btb_fill=bpu.fill_btb if caps.hooks_btb else None,
            # Late-bound through the facade (a named method, so `repro
            # profile` can attribute the hook's cost as its own stage).
            btb_contains=self._btb_contains_hook if caps.hooks_btb else None,
            ftq=self.ftq if caps.hooks_ftq else None,
        )
        self.prefetcher = technique.build(config.prefetcher.params, program, hooks)
        self._fill_observer = (
            self.prefetcher
            if caps.observes_fills and self.prefetcher is not None
            else None
        )

        profile = data_profile if data_profile is not None else DataProfile()
        if comp:
            from repro.backend.core import BackendCoreC
            from repro.workloads.data import DataAddressGeneratorC

            self.data_gen = DataAddressGeneratorC(
                profile, self.rng_seed, program.code_end
            )
            self.backend = BackendCoreC(
                config.core,
                self.hierarchy,
                self.data_gen,
                self.counters,
                seed=self.rng_seed,
            )
            self.backend.install_dep_table(program.code_end)
        else:
            self.data_gen = DataAddressGenerator(profile, self.rng_seed)
            self.backend = BackendCore(
                config.core,
                self.hierarchy,
                self.data_gen,
                self.counters,
                seed=self.rng_seed,
            )
        if self.udp is not None:
            self.backend.retire_hook = self.udp.on_retire

        self.uftq = (
            UFTQController(config.uftq, self.ftq, self.counters)
            if config.uftq.mode != "off"
            else None
        )
        self._warmup_baseline: dict[str, int] | None = None
        self._warmup_cycle = 0
        self._warmup_retired = 0
        self._warmed = False

        # Idle-cycle fast-forward (see docs/performance.md).  Counters are
        # byte-identical either way; REPRO_NO_FASTFORWARD keeps the naive
        # one-cycle-at-a-time stepper as the oracle for equivalence tests.
        self.fast_forward_enabled = not env_truthy(NO_FASTFORWARD_ENV)
        self.ff_cycles_skipped = 0  # cycles advanced without a full step
        self.ff_jumps = 0  # number of fast-forward jumps taken
        self.steps_executed = 0  # full step() bodies run (perf smoke checks)

        # Hot-loop constants hoisted out of the per-cycle stages (the config
        # is immutable once the simulator is constructed).
        self._frontend_width = config.core.frontend_width
        self._max_fetch_accesses = config.frontend.ftq_blocks_per_cycle
        self._perfect_icache = config.frontend.perfect_icache
        self._max_cycles = config.max_cycles

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
        correct-path execution would train them.  Must be called before
        :meth:`run`; the measured region continues from the warmed program
        state.
        """
        if self.cycle != 0:
            raise SimulationError("functional warmup must precede run()")
        self._warmed = True
        bpu = self.bpu
        l1i = self.l1i
        hierarchy = self.hierarchy
        udp = self.udp
        warmed_lines: set[int] = set()
        for _ in range(num_blocks):
            transition = self.oracle.transition()
            block = transition.block
            for line_addr in range(block.addr & ~63, block.end_addr, 64):
                if not l1i.contains(line_addr):
                    hierarchy.instruction_miss_latency(line_addr)  # fills L2/LLC
                l1i.install(line_addr)
                if udp is not None and line_addr not in warmed_lines:
                    # Lines that execute on the true path are exactly what the
                    # Seniority-FTQ would have promoted over a long warmup.
                    warmed_lines.add(line_addr)
                    udp.useful_set.insert(line_addr)
            if transition.branch is not None:
                self._train_functional_branch(transition)
            self.oracle.advance(transition)
        bpu.ras.repair(self.oracle.call_stack)
        self.frontend.spec_pc = self.oracle.pc
        # Warmup traffic must not leak into measured statistics.
        self._warmup_baseline = self.counters.snapshot()
        self.counters.set("warmup_blocks", num_blocks)
        self.counters.set("warmup_instructions_functional", self.oracle.instrs_walked)

    def _train_functional_branch(self, transition) -> None:
        """Train the BPU with one true-path transition (no timing).

        Shared between :meth:`functional_warmup` and :meth:`fast_forward_to`:
        exactly what a correct-path execution would teach the predictors.
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

        Mirrors :meth:`UsefulSet.query` (all three filter granularities plus
        the still-buffered coalescer lines) without bumping its hit counters,
        so fast-forward dedup never perturbs measured statistics.  A pure
        function of current state, which keeps segmented fast-forwards
        byte-identical to one-shot walks over the same span.
        """
        us = self.udp.useful_set
        if us.infinite:
            return line_addr in us._exact
        if line_addr in us.coalescer._lines:
            return True
        return any(
            us.filters[size].contains(superline_base(line_addr, size))
            for size in (4, 2, 1)
        )

    def fast_forward_to(
        self, target_walked: int, warm: bool | None = None
    ) -> tuple[int, int]:
        """Functionally advance the oracle to ``target_walked`` instructions.

        ``target_walked`` is an *absolute* position in true-path instructions
        (``oracle.instrs_walked``); the walk stops at the first basic-block
        boundary at or past it, so chaining fast-forwards through
        intermediate targets lands in exactly the same state as one direct
        jump (interval checkpoints depend on this).  Training mirrors
        :meth:`functional_warmup`; afterwards the warmup baseline is
        re-snapshotted so the skipped span never leaks into measurement.

        ``warm`` additionally replays the walked blocks' loads and stores
        through ``self.data_gen`` into the data hierarchy (L1D/L2/LLC and
        the stream prefetcher, no cycle accounting), killing the cold-cache
        bias that sampled large-footprint workloads otherwise suffer.  The
        replay consumes the *same* generator the measured region draws from
        — warming with a decoupled stream would fill the caches with
        addresses the interval never touches and leave its occurrence
        counters cold — which is why sampled intervals share one
        ``rng_seed`` when warming is on (see ``plan_intervals``).  It
        defaults to the config's ``sampling.warm_fastforward``; every piece
        of state it touches is checkpointed, so chained warm walks stay
        byte-identical to one direct jump.

        Returns ``(blocks_walked, instructions_walked)`` for this call.
        Already being at or past the target is a strict no-op — the
        degenerate one-interval sampling run stays byte-identical to a plain
        run.
        """
        if self.cycle != 0:
            raise SimulationError("fast-forward must precede run()")
        oracle = self.oracle
        if self._warmed and oracle.instrs_walked >= target_walked:
            return (0, 0)
        if warm is None:
            warm = self.config.sampling.enabled and (
                self.config.sampling.warm_fastforward
            )
        start_blocks = oracle.blocks_walked
        start_instrs = oracle.instrs_walked
        bpu = self.bpu
        l1i = self.l1i
        hierarchy = self.hierarchy
        udp = self.udp
        warm_gen = self.data_gen if warm else None
        load_latency = hierarchy.load_latency
        store_access = hierarchy.store_access
        while oracle.instrs_walked < target_walked:
            transition = oracle.transition()
            block = transition.block
            for line_addr in range(block.addr & ~63, block.end_addr, 64):
                if not l1i.contains(line_addr):
                    hierarchy.instruction_miss_latency(line_addr)  # fills L2/LLC
                l1i.install(line_addr)
                if udp is not None and not self._useful_set_holds(line_addr):
                    udp.useful_set.insert(line_addr)
            if warm_gen is not None:
                ops = block.ops
                if ops:
                    pc = block.addr
                    for op in ops:
                        if op == OP_LOAD:
                            load_latency(warm_gen.next_address(pc))
                        elif op == OP_STORE:
                            store_access(warm_gen.next_address(pc))
                        pc += INSTR_BYTES
            if transition.branch is not None:
                self._train_functional_branch(transition)
            oracle.advance(transition)
        bpu.ras.repair(oracle.call_stack)
        self.frontend.spec_pc = oracle.pc
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
        warmup = self.config.warmup_instructions
        warmup_done = warmup == 0
        while self.backend.retired_instructions < target:
            if self.cycle >= self.config.max_cycles:
                raise SimulationError(
                    f"cycle limit {self.config.max_cycles} hit at "
                    f"{self.backend.retired_instructions} retired instructions"
                )
            self.step()
            if not warmup_done and self.backend.retired_instructions >= warmup:
                self._warmup_baseline = self.counters.snapshot()
                self._warmup_cycle = self.cycle
                self._warmup_retired = self.backend.retired_instructions
                warmup_done = True
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
        base_retired = self.backend.retired_instructions
        warmup_target = base_retired + detailed_warmup
        target = warmup_target + measure_instructions
        warmup_done = detailed_warmup == 0
        while self.backend.retired_instructions < target:
            if self.cycle >= self.config.max_cycles:
                raise SimulationError(
                    f"cycle limit {self.config.max_cycles} hit at "
                    f"{self.backend.retired_instructions} retired instructions"
                )
            self.step()
            if not warmup_done and self.backend.retired_instructions >= warmup_target:
                self._warmup_baseline = self._meta_preserving_snapshot()
                self._warmup_cycle = self.cycle
                self._warmup_retired = self.backend.retired_instructions
                warmup_done = True
        self.counters.set("cycles", self.cycle)
        self.counters.set("retired_instructions", self.backend.retired_instructions)

    def step(self) -> None:
        """Advance the machine to its next non-trivial cycle.

        Equivalent to stepping one cycle at a time: when the whole core is
        provably idle until a future event (a fill completing, a uop
        becoming issuable, a branch resolving), the intervening pure-stall
        cycles are fast-forwarded in bulk with their per-cycle counters
        accounted for exactly (see :meth:`_try_fast_forward`).
        """
        if self.fast_forward_enabled and self.counters.hook is None:
            self._try_fast_forward()
            if self.compiled_enabled and self._try_refill_step():
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
        Only used in compiled mode, where the backend idle probe is a single
        C call; guarded by the same hook check as fast-forward.
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
        if self.compiled_enabled:
            return self._dispatch_entry_compiled(entry, cycle, budget)
        backend = self.backend
        counters = self.counters
        ops = entry.ops
        num_instrs = entry.num_instrs
        # Inlined BackendCore.can_dispatch (a property probed per instruction).
        rob = backend.rob
        rs = backend.rs
        rob_entries = backend.config.rob_entries
        rs_entries = backend.config.rs_entries
        while budget > 0 and entry.decode_offset < num_instrs:
            if len(rob) >= rob_entries or len(rs) >= rs_entries:
                self._c_dispatch_stall()
                return 0
            offset = entry.decode_offset
            pc = entry.start + offset * INSTR_BYTES
            seen = entry.branch_at(pc) if entry.branches else None
            on_path = entry.on_path and offset < entry.on_path_instrs
            entry.decode_offset += 1
            budget -= 1
            if seen is None:
                backend.dispatch(pc, ops[offset], on_path, cycle)
                self._c_dispatched()
                continue

            self._c_dispatched()
            result = self._dispatch_branch(entry, seen, pc, on_path, cycle)
            if result < 0:
                return -1
        return budget

    def _dispatch_entry_compiled(self, entry: FTQEntry, cycle: int, budget: int) -> int:
        """Compiled-mode dispatch: branch-free runs go through one C call.

        Branch instructions (a small minority of dispatches) take the same
        scalar path as the interpreted loop — their control flow (decode BTB
        fills, post-fetch correction, resteer attachment) is shared via
        :meth:`_dispatch_branch`.  With a tracer hook attached, every
        instruction dispatches scalar so the per-event counter stream matches
        the interpreted path exactly.
        """
        backend = self.backend
        num_instrs = entry.num_instrs
        branches = entry.branches
        on_path_limit = entry.on_path_instrs if entry.on_path else 0
        scalar = self.counters.hook is not None
        while budget > 0 and entry.decode_offset < num_instrs:
            offset = entry.decode_offset
            pc = entry.start + offset * INSTR_BYTES
            seen = entry.branch_at(pc) if branches else None
            if seen is None and not scalar:
                # Run length to the next branch (or entry/budget end).
                limit = min(num_instrs, offset + budget)
                run = limit - offset
                if branches:
                    for other in branches:
                        boff = (other.branch.pc - entry.start) // INSTR_BYTES
                        if offset < boff < limit and boff - offset < run:
                            run = boff - offset
                k = backend.dispatch_batch(
                    entry.ops, entry.start, offset, run, cycle, on_path_limit
                )
                entry.decode_offset += k
                budget -= k
                if k:
                    self._c_dispatched(k)
                if k < run:
                    self._c_dispatch_stall()
                    return 0
                continue
            if not backend.can_dispatch:
                self._c_dispatch_stall()
                return 0
            on_path = entry.on_path and offset < entry.on_path_instrs
            entry.decode_offset += 1
            budget -= 1
            self._c_dispatched()
            if seen is None:
                backend.dispatch(pc, entry.ops[offset], on_path, cycle)
                continue
            result = self._dispatch_branch(entry, seen, pc, on_path, cycle)
            if result < 0:
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
