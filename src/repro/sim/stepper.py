"""The Python stepper and walk: a simulator on the object structures.

A :class:`~repro.sim.simulator.Simulator` holds the object structures
exactly when it is not compiled (``compiled=False``, ``REPRO_NO_COMPILED``
or kernels that do not build).  This module builds them and runs them:
:func:`build_frontend` and :func:`build_backend` are the object branches of
``Simulator.__init__``, :func:`walk_true_path` the object branch of its
functional walk, and :func:`step` one cycle of the stepper.  It is the
reference the compiled cycle driver (:mod:`repro.sim.driver`) ports, byte
for byte (``tests/sim/test_modes.py``); a compiled simulator never imports
it.

The stepper reaches its timed stages -- the fast-forward probes, the fills
and fetch/decode -- through the simulator's methods of those names, which
delegate here, so ``repro profile`` and span tracers can attribute each
stage by name.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from repro.backend.core import OP_BRANCH
from repro.backend.window import BackendCore
from repro.common.addr import INSTR_BYTES
from repro.frontend.bpu import DecoupledFrontend
from repro.frontend.fdip import FDIPEngine
from repro.frontend.fetch_block import RESTEER_AT_EXECUTE
from repro.frontend.ftq import FetchTargetQueue
from repro.memory.cache import SetAssocCache
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.mshr import MSHRFile
from repro.prefetchers.base import LINE_LIMIT, reject_prefetch_line
from repro.workloads.data import DataAddressGenerator
from repro.workloads.oracle import OracleCursor
from repro.workloads.program import OP_LOAD, OP_STORE, BranchKind

if TYPE_CHECKING:
    from repro.frontend.fetch_block import FTQEntry, PendingResteer
    from repro.memory.cache import CacheLine
    from repro.sim.simulator import Simulator
    from repro.workloads.profiles import DataProfile


# -- construction ----------------------------------------------------------------


def build_frontend(sim: Simulator, fdip_enabled: bool) -> None:
    """The oracle cursor, FTQ, walker, memory hierarchy, L1I, MSHR file and
    FDIP engine of an object-path simulator, in construction order."""
    program, config, counters = sim.program, sim.config, sim.counters
    fe_config = config.frontend
    sim.oracle = OracleCursor(program)
    sim.ftq = FetchTargetQueue(fe_config.ftq_depth, fe_config.ftq_max_physical)
    sim.frontend = DecoupledFrontend(
        program,
        sim.bpu,
        sim.ftq,
        sim.oracle,
        fe_config,
        counters,
        path_estimator=sim.udp.path_estimator if sim.udp is not None else None,
    )
    sim.hierarchy = MemoryHierarchy(config.memory, counters)
    sim.l1i = SetAssocCache(config.memory.l1i)
    sim.l1i.eviction_hook = partial(_on_l1i_eviction, sim)
    sim.mshr = MSHRFile(config.memory.l1i.mshr_entries)
    sim.fdip = FDIPEngine(
        fe_config,
        sim.ftq,
        sim.l1i,
        sim.mshr,
        sim.hierarchy,
        counters,
        gate=sim.udp,
        enabled=fdip_enabled,
    )


def build_backend(sim: Simulator, profile: DataProfile, seed: int) -> None:
    """The data-address generator and backend of an object-path simulator;
    UDP's Seniority-FTQ trains on its retirements."""
    sim.data_gen = DataAddressGenerator(profile, seed)
    sim.backend = BackendCore(
        sim.config.core,
        sim.hierarchy,
        sim.data_gen,
        sim.counters,
        seed=seed,
    )
    if sim.udp is not None:
        sim.backend.retire_hook = sim.udp.on_retire


# -- functional walk -------------------------------------------------------------


def walk_true_path(
    sim: Simulator, max_blocks: int, target_walked: int, first_touch: bool, warm: bool
) -> None:
    """The object structures' walk of :meth:`Simulator._walk_true_path`,
    which documents it; the ``functional_walk`` kernel ports this loop."""
    oracle = sim.oracle
    l1i = sim.l1i
    hierarchy = sim.hierarchy
    useful_set = sim.udp.useful_set if sim.udp is not None else None
    inserted: set[int] | None = set() if first_touch else None
    warm_gen = sim.data_gen if warm else None
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
            elif _useful_set_holds(sim, line_addr):
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
            _train_functional_branch(sim, transition)
        oracle.advance(transition)
        blocks += 1


def _train_functional_branch(sim: Simulator, transition) -> None:
    """Train the BPU with one true-path transition (no timing).

    Exactly what a correct-path execution would teach the predictors.
    """
    bpu = sim.bpu
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


def _useful_set_holds(sim: Simulator, line_addr: int) -> bool:
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

    us = sim.udp.useful_set
    if us.infinite:
        return line_addr in us._exact
    if line_addr in us.coalescer._lines:
        return True
    return any(
        us.filters[size].contains(superline_base(line_addr, size))
        for size in (4, 2, 1)
    )


# -- the cycle ---------------------------------------------------------------------


def step(sim: Simulator) -> None:
    """Advance the machine to its next non-trivial cycle.

    Equivalent to stepping one cycle at a time: when the whole core is
    provably idle until a future event (a fill completing, a uop
    becoming issuable, a branch resolving), the intervening pure-stall
    cycles are fast-forwarded in bulk with their per-cycle counters
    accounted for exactly (see :func:`try_fast_forward`).
    """
    if sim.fast_forward_enabled and sim.counters.hook is None:
        sim._try_fast_forward()
        if sim._try_refill_step():
            return
    sim.steps_executed += 1
    sim.cycle += 1
    cycle = sim.cycle
    sim._process_fills(cycle)
    fired = sim.backend.poll_resteer(cycle)
    if fired is not None:
        resteer, branch_seq = fired
        _resteer(sim, resteer, squash_seq=branch_seq)
    sim.backend.retire_and_issue(cycle)
    sim._fetch_decode(cycle)
    sim.fdip.scan(cycle)
    sim.frontend.generate()
    sim.ftq.sample_occupancy()


def try_refill_step(sim: Simulator) -> bool:
    """Run a provable FTQ-refill cycle with only its live stages.

    The complement of :func:`try_fast_forward`: when the FTQ still has
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
    ftq = sim.ftq
    if not ftq.has_space:
        return False
    entry = ftq.head()
    cycle = sim.cycle + 1
    if entry is None or entry.ready_cycle < 0 or entry.ready_cycle <= cycle:
        return False
    mshr_ready = sim.mshr.next_ready_cycle()
    if mshr_ready is not None and mshr_ready <= cycle:
        return False
    backend_event = sim.backend.next_event_cycle(sim.cycle)
    if backend_event is not None and backend_event <= cycle:
        return False
    sim.steps_executed += 1
    sim.cycle = cycle
    # Exactly what fetch_decode records for a head-not-ready stall.
    sim._c_slots_lost_icache(sim._frontend_width)
    sim._c_stall_icache()
    sim.fdip.scan(cycle)
    sim.frontend.generate()
    ftq.sample_occupancy()
    return True


def try_fast_forward(sim: Simulator) -> None:
    """Jump ``cycle`` over a run of provably idle stall cycles.

    A cycle is *pure stall* when every stage of :func:`step` is a no-op
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
    ftq = sim.ftq
    entry = ftq.head()
    if entry is None or ftq.has_space:
        return
    cycle = sim.cycle
    ready = entry.ready_cycle
    if ready <= cycle + 1:  # unaccessed (-1), consumable, or imminent
        return
    fdip = sim.fdip
    if (
        fdip.enabled
        and not sim._perfect_icache
        and fdip.next_scan_seq - entry.seq < len(ftq)
    ):
        return  # FDIP still has FTQ entries to scan
    backend_event = sim.backend.next_event_cycle(cycle)
    if backend_event is not None and backend_event <= cycle + 1:
        return
    target = ready
    mshr_ready = sim.mshr.next_ready_cycle()
    if mshr_ready is not None and mshr_ready < target:
        target = mshr_ready
    if backend_event is not None and backend_event < target:
        target = backend_event
    if target > sim._max_cycles:
        # Never skip past the cycle limit: run() must raise at the same
        # point (with the same counters) as the naive stepper.
        target = sim._max_cycles
    skipped = target - cycle - 1
    if skipped <= 0:
        return
    # Exactly what `skipped` naive stall iterations would have recorded.
    sim._c_stall_icache(skipped)
    sim._c_slots_lost_icache(skipped * sim._frontend_width)
    sim.counters.bump("ftq_full_cycles_blocks", skipped)
    ftq.sample_occupancy(skipped)
    sim.cycle = cycle + skipped
    sim.ff_cycles_skipped += skipped
    sim.ff_jumps += 1


# -- fills ----------------------------------------------------------------------


def process_fills(sim: Simulator, cycle: int) -> None:
    fill_observer = sim._fill_observer
    for entry in sim.mshr.pop_ready(cycle):
        keep_prefetch_bit = entry.is_prefetch and not entry.demand_on_path
        sim.l1i.install(
            entry.line_addr,
            prefetch=keep_prefetch_bit,
            prefetch_off_path=entry.off_path,
            prefetch_udp_candidate=entry.udp_candidate,
        )
        sim._c_l1i_fills()
        if fill_observer is not None:
            fill_observer.on_line_filled(entry.line_addr)


# -- resteer ---------------------------------------------------------------------


def _resteer(sim: Simulator, resteer: PendingResteer, squash_seq: int | None) -> None:
    if squash_seq is not None:
        sim.backend.squash_younger(squash_seq)
    sim.ftq.flush()
    sim.frontend.recover(resteer)
    sim.fdip.reset_scan(sim.frontend.next_seq)


# -- fetch + decode ---------------------------------------------------------------


def fetch_decode(sim: Simulator, cycle: int) -> None:
    budget = sim._frontend_width
    accesses = 0
    max_accesses = sim._max_fetch_accesses
    perfect_icache = sim._perfect_icache
    ftq = sim.ftq
    while budget > 0:
        entry = ftq.head()
        if entry is None:
            sim._c_slots_lost_empty(budget)
            return
        if entry.ready_cycle < 0:
            if perfect_icache:
                entry.ready_cycle = cycle
                sim._c_demand_accesses()
                sim._c_demand_hits()
            else:
                if accesses >= max_accesses:
                    return
                accesses += 1
                _demand_access(sim, entry, cycle)
                if entry.ready_cycle < 0:
                    sim._c_slots_lost_mshr(budget)
                    return
        if entry.ready_cycle > cycle:
            sim._c_slots_lost_icache(budget)
            sim._c_stall_icache()
            return
        budget = _dispatch_entry(sim, entry, cycle, budget)
        if budget < 0:
            return  # a decode-time resteer flushed the frontend
        if entry.decode_offset >= entry.num_instrs and ftq.head() is entry:
            ftq.pop()


def _dispatch_entry(sim: Simulator, entry: FTQEntry, cycle: int, budget: int) -> int:
    """Dispatch instructions from ``entry``; -1 signals a decode resteer."""
    backend = sim.backend
    ops = entry.ops
    num_instrs = entry.num_instrs
    while budget > 0 and entry.decode_offset < num_instrs:
        if not backend.can_dispatch:
            sim._c_dispatch_stall()
            return 0
        offset = entry.decode_offset
        pc = entry.start + offset * INSTR_BYTES
        seen = entry.branch_at(pc) if entry.branches else None
        on_path = entry.on_path and offset < entry.on_path_instrs
        entry.decode_offset += 1
        budget -= 1
        sim._c_dispatched()
        if seen is None:
            backend.dispatch(pc, ops[offset], on_path, cycle)
            continue
        if _dispatch_branch(sim, entry, seen, pc, on_path, cycle) < 0:
            return -1
    return budget


def _dispatch_branch(
    sim: Simulator, entry: FTQEntry, seen, pc: int, on_path: bool, cycle: int
) -> int:
    """Dispatch one branch instruction; -1 signals a decode resteer."""
    backend = sim.backend
    branch = seen.branch
    if not seen.detected:
        _decode_btb_fill(sim, branch)
    resteer = entry.resteer
    if resteer is not None and resteer.branch_pc == pc:
        if resteer.stage == RESTEER_AT_EXECUTE:
            backend.dispatch(pc, OP_BRANCH, on_path, cycle, resteer=resteer)
            return 0
        # Post-fetch correction: the undetected taken branch is
        # discovered at decode; resteer immediately.
        backend.dispatch(pc, OP_BRANCH, on_path, cycle)
        _resteer(sim, resteer, squash_seq=None)
        sim.counters.bump("pfc_resteers")
        return -1
    backend.dispatch(pc, OP_BRANCH, on_path, cycle)
    if (
        not seen.detected
        and not on_path
        and branch.kind in (BranchKind.JUMP, BranchKind.CALL)
        and sim.config.frontend.post_fetch_correction
    ):
        # Wrong-path PFC: an undetected unconditional branch redirects
        # the (still wrong-path) frontend to its static target.
        sim.ftq.flush()
        sim.frontend.redirect_wrong_path(branch.target)
        sim.fdip.reset_scan(sim.frontend.next_seq)
        return -1
    return 0


def _decode_btb_fill(sim: Simulator, branch) -> None:
    """Decode-time branch discovery fills the BTB (direct kinds only)."""
    if branch.kind.is_indirect:
        return  # indirect targets are only known at execute (train path)
    target = branch.target if branch.kind != BranchKind.RET else 0
    sim.bpu.fill_btb(branch.pc, branch.kind, target)
    sim.counters.bump("btb_decode_fills")


# -- the L1I demand path -----------------------------------------------------------


def _demand_access(sim: Simulator, entry: FTQEntry, cycle: int) -> None:
    """One FTQ entry's demand access to the L1I at ``cycle``: a hit, a
    merge with an in-flight fill, or a miss that allocates an MSHR."""
    line_addr = entry.line_addr
    counters = sim.counters
    sim._c_demand_accesses()
    line = sim.l1i.lookup(line_addr)
    if line is not None:
        sim._c_demand_hits()
        entry.ready_cycle = cycle
        if line.prefetch_bit and entry.on_path:
            line.prefetch_bit = False
            _prefetch_useful(sim, line.prefetch_off_path, timely=True)
            if sim.udp is not None and line.prefetch_udp_candidate:
                sim.udp.on_demand_hit_off_path_prefetch(line_addr)
        _standalone_prefetch(sim, line_addr, hit=True, on_path=entry.on_path, cycle=cycle)
        return

    in_flight = sim.mshr.lookup(line_addr)
    if in_flight is not None:
        counters.bump("icache_demand_mshr_merges")
        entry.ready_cycle = in_flight.ready_cycle
        if in_flight.is_prefetch and entry.on_path and not in_flight.demand_on_path:
            _prefetch_useful(sim, in_flight.off_path, timely=False)
            if sim.udp is not None and in_flight.udp_candidate:
                sim.udp.on_demand_hit_off_path_prefetch(line_addr)
        in_flight.demand_merged = True
        if entry.on_path:
            in_flight.demand_on_path = True
        return

    counters.bump("icache_demand_misses")
    if entry.on_path:
        counters.bump("icache_demand_misses_on_path")
    else:
        counters.bump("icache_demand_misses_off_path")
    if sim.uftq is not None and entry.on_path:
        # A demand miss is the strongest untimeliness signal: no prefetch
        # arrived at all (feeds UFTQ-ATR alongside prefetch merges).
        sim.uftq.on_timeliness_event(False)
    if sim.mshr.full:
        counters.bump("icache_mshr_full_stalls")
        return
    latency, level = sim.hierarchy.instruction_miss_latency(line_addr)
    sim.mshr.allocate(
        line_addr,
        ready_cycle=cycle + latency,
        is_prefetch=False,
        off_path=not entry.on_path,
        fill_level=level,
    )
    entry.ready_cycle = cycle + latency
    counters.bump(f"demand_fill_{level}")
    _standalone_prefetch(sim, line_addr, hit=False, on_path=entry.on_path, cycle=cycle)


def _standalone_prefetch(
    sim: Simulator, line_addr: int, hit: bool, on_path: bool, cycle: int
) -> None:
    if sim.prefetcher is None:
        return
    for prefetch_line in sim.prefetcher.on_demand_access(line_addr, hit, on_path):
        if (
            type(prefetch_line) is not int
            or not 0 <= prefetch_line < LINE_LIMIT
            or prefetch_line & 63
        ):
            reject_prefetch_line(sim.config.prefetcher.kind, prefetch_line)
        if sim.l1i.contains(prefetch_line) or sim.mshr.lookup(prefetch_line):
            continue
        if sim.mshr.full:
            break
        latency, level = sim.hierarchy.instruction_miss_latency(prefetch_line)
        sim.mshr.allocate(
            prefetch_line,
            ready_cycle=cycle + latency,
            is_prefetch=True,
            off_path=not on_path,
            fill_level=level,
        )
        sim.counters.bump("prefetches_emitted")
        if on_path:
            sim.counters.bump("prefetches_emitted_on_path")
        else:
            sim.counters.bump("prefetches_emitted_off_path")


# -- utility/timeliness accounting -----------------------------------------------------


def _prefetch_useful(sim: Simulator, emitted_off_path: bool, timely: bool) -> None:
    counters = sim.counters
    counters.bump("prefetch_useful")
    counters.bump(
        "prefetch_useful_off_path" if emitted_off_path else "prefetch_useful_on_path"
    )
    counters.bump("atr_icache_hits" if timely else "atr_mshr_hits")
    if sim.uftq is not None:
        sim.uftq.on_utility_event(True)
        sim.uftq.on_timeliness_event(timely)
    if sim.udp is not None:
        sim.udp.on_prefetch_outcome(True)


def _on_l1i_eviction(sim: Simulator, victim: CacheLine) -> None:
    if not victim.prefetch_bit:
        return
    counters = sim.counters
    counters.bump("prefetch_useless")
    counters.bump(
        "prefetch_useless_off_path"
        if victim.prefetch_off_path
        else "prefetch_useless_on_path"
    )
    if sim.uftq is not None:
        sim.uftq.on_utility_event(False)
    if sim.udp is not None:
        sim.udp.on_prefetch_outcome(False)
