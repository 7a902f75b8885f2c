"""The object backend: the ROB/RS window as Python objects.

:class:`BackendCore` dispatches, issues, completes and retires
:class:`MicroOp` objects with branch-resolution events, to the fidelity
target :mod:`repro.backend.core` states.  The Python stepper
(:mod:`repro.sim.stepper`) runs it, and it is the oracle the compiled
cycle driver's backend (``BackendCoreC``, ``kernels/backend.c``) ports; a
compiled run never imports this module.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.common.config import CoreConfig
from repro.common.counters import Counters
from repro.workloads.program import OP_LOAD, OP_STORE

if TYPE_CHECKING:  # the object structures load only where they run
    from repro.frontend.fetch_block import PendingResteer
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.workloads.data import DataAddressGenerator


class MicroOp:
    """One in-flight instruction."""

    __slots__ = (
        "seq",
        "pc",
        "op",
        "on_path",
        "resteer",
        "dep",
        "addr",
        "dispatch_cycle",
        "issued",
        "complete_cycle",
    )

    def __init__(
        self,
        seq: int,
        pc: int,
        op: int,
        on_path: bool,
        dispatch_cycle: int,
        resteer: PendingResteer | None = None,
    ) -> None:
        self.seq = seq
        self.pc = pc
        self.op = op
        self.on_path = on_path
        self.resteer = resteer
        self.dep: MicroOp | None = None
        self.addr = 0
        self.dispatch_cycle = dispatch_cycle
        self.issued = False
        self.complete_cycle = -1


class BackendCore:
    """Dispatch → issue → complete → retire, with branch-resolution events."""

    def __init__(
        self,
        config: CoreConfig,
        hierarchy: MemoryHierarchy,
        data_gen: DataAddressGenerator,
        counters: Counters,
        seed: int = 1,
    ) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.data_gen = data_gen
        self.counters = counters
        self.seed = seed
        self.rob: deque[MicroOp] = deque()
        self.rs: list[MicroOp] = []
        self.retired_instructions = 0
        self.retired_total = 0
        self._next_seq = 0
        self._last_load: MicroOp | None = None
        self._pending_resteer_event: tuple[int, MicroOp] | None = None
        # Called with (pc, on_path) for every retired instruction (UDP
        # Seniority-FTQ training).
        self.retire_hook = None
        # How many RS entries the issue stage examines per cycle (the
        # pseudo-out-of-order window).
        self.issue_scan_window = 24
        self._dep_threshold = int(config.load_dependence_fraction * (1 << 32))

    # -- dispatch -----------------------------------------------------------

    @property
    def can_dispatch(self) -> bool:
        return (
            len(self.rob) < self.config.rob_entries
            and len(self.rs) < self.config.rs_entries
        )

    def dispatch(
        self,
        pc: int,
        op: int,
        on_path: bool,
        cycle: int,
        resteer: PendingResteer | None = None,
    ) -> MicroOp:
        """Insert a decoded instruction into the window."""
        uop = MicroOp(self._next_seq, pc, op, on_path, cycle, resteer)
        self._next_seq += 1
        if op == OP_LOAD or op == OP_STORE:
            uop.addr = self.data_gen.next_address(pc)
        if op == OP_LOAD:
            self._last_load = uop
        elif self._last_load is not None and self._depends_on_load(pc):
            uop.dep = self._last_load
        self.rob.append(uop)
        self.rs.append(uop)
        return uop

    def _depends_on_load(self, pc: int) -> bool:
        # Inlined mix64 (splitmix64 finalizer): one call per dispatched
        # non-load instruction.
        x = ((self.seed ^ pc) + 0x9E3779B97F4A7C15) & 0xFFFF_FFFF_FFFF_FFFF
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFF_FFFF_FFFF_FFFF
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFF_FFFF_FFFF_FFFF
        return ((x ^ (x >> 31)) & 0xFFFF_FFFF) < self._dep_threshold

    # -- per-cycle step ------------------------------------------------------

    def poll_resteer(self, cycle: int) -> tuple[PendingResteer, int] | None:
        """A resteer firing this cycle, if any.

        Must be called (and its squash performed) *before*
        :meth:`retire_and_issue`, so wrong-path uops younger than the
        resolving branch can never slip through retirement in the same cycle.
        """
        return self._pop_resteer_event(cycle)

    def retire_and_issue(self, cycle: int) -> None:
        """Retire completed head-of-ROB uops, then issue ready RS entries."""
        self._retire(cycle)
        self._issue(cycle)

    def _pop_resteer_event(self, cycle: int) -> tuple[PendingResteer, int] | None:
        event = self._pending_resteer_event
        if event is None or event[0] > cycle:
            return None
        self._pending_resteer_event = None
        uop = event[1]
        assert uop.resteer is not None
        return uop.resteer, uop.seq

    def _retire(self, cycle: int) -> None:
        rob = self.rob
        if not rob:
            return
        retired = 0
        hook = self.retire_hook
        retire_width = self.config.retire_width
        while rob and retired < retire_width:
            uop = rob[0]
            if not uop.issued or uop.complete_cycle > cycle:
                break
            rob.popleft()
            retired += 1
            self.retired_total += 1
            if uop.on_path:
                self.retired_instructions += 1
                if hook is not None:
                    hook(uop.pc)
            else:
                # Should be unreachable: wrong-path work is squashed when the
                # diverging branch (older, already complete) resolves.
                self.counters.bump("wrong_path_retired")

    def _issue(self, cycle: int) -> None:
        rs = self.rs
        if not rs:
            return
        cfg = self.config
        # RS entries are in dispatch order, so if the very first one has not
        # reached the execute stage yet, nothing younger can issue either.
        if cycle < rs[0].dispatch_cycle + cfg.decode_to_execute_latency and not rs[0].issued:
            return
        alu_slots = cfg.num_alu
        load_slots = cfg.num_load
        store_slots = cfg.num_store
        min_ready_offset = cfg.decode_to_execute_latency
        issued_any = False
        scan = min(len(self.rs), self.issue_scan_window)
        for i in range(scan):
            uop = self.rs[i]
            if uop.issued:
                issued_any = True
                continue
            if cycle < uop.dispatch_cycle + min_ready_offset:
                break  # younger entries are even later: stop scanning
            dep = uop.dep
            if dep is not None and (not dep.issued or dep.complete_cycle > cycle):
                continue  # true dependence: only this uop waits
            op = uop.op
            if op == OP_LOAD:
                if load_slots == 0:
                    continue
                load_slots -= 1
                uop.complete_cycle = cycle + self.hierarchy.load_latency(uop.addr)
            elif op == OP_STORE:
                if store_slots == 0:
                    continue
                store_slots -= 1
                self.hierarchy.store_access(uop.addr)
                uop.complete_cycle = cycle + 1
            else:  # ALU or branch
                if alu_slots == 0:
                    continue
                alu_slots -= 1
                uop.complete_cycle = cycle + 1
                if uop.resteer is not None:
                    self._pending_resteer_event = (uop.complete_cycle, uop)
            uop.issued = True
            issued_any = True
        if issued_any:
            self.rs = [u for u in self.rs if not u.issued]

    # -- idle-skip support -----------------------------------------------------

    def next_event_cycle(self, cycle: int) -> int | None:
        """Earliest future cycle at which the backend could do *any* work.

        Used by the simulator's idle-cycle fast-forward: when the frontend is
        stalled on a fill, every cycle strictly before the returned value is
        guaranteed to be a backend no-op (no retire, no issue, no resteer).
        Returns ``None`` when the backend is completely drained.

        The bound is conservative: a cycle at which work *might* be possible
        (e.g. an issue blocked only by structural slots) is reported as
        ``cycle + 1``, which simply disables skipping for that cycle.
        """
        event: int | None = None
        pending = self._pending_resteer_event
        if pending is not None:
            event = pending[0] if pending[0] > cycle else cycle + 1
        rob = self.rob
        if rob:
            head = rob[0]
            if head.issued:
                t = head.complete_cycle if head.complete_cycle > cycle else cycle + 1
                if event is None or t < event:
                    event = t
        rs = self.rs
        if rs:
            min_ready_offset = self.config.decode_to_execute_latency
            for uop in rs:
                dep = uop.dep
                if dep is not None:
                    if not dep.issued:
                        # Cannot issue before the dep itself (an older RS
                        # entry whose own bound is already in this min).
                        continue
                    t = uop.dispatch_cycle + min_ready_offset
                    if dep.complete_cycle > t:
                        t = dep.complete_cycle
                else:
                    t = uop.dispatch_cycle + min_ready_offset
                if t <= cycle:
                    t = cycle + 1
                if event is None or t < event:
                    event = t
                if t == cycle + 1:
                    break  # cannot get earlier than "next cycle"
        return event

    # -- squash ---------------------------------------------------------------

    def squash_younger(self, branch_seq: int) -> int:
        """Drop every in-flight uop younger than ``branch_seq``."""
        before = len(self.rob)
        self.rob = deque(u for u in self.rob if u.seq <= branch_seq)
        self.rs = [u for u in self.rs if u.seq <= branch_seq]
        squashed = before - len(self.rob)
        self.counters.bump("backend_squashed_uops", squashed)
        if self._last_load is not None and self._last_load.seq > branch_seq:
            self._last_load = None
            for uop in reversed(self.rob):
                if uop.op == OP_LOAD:
                    self._last_load = uop
                    break
        if (
            self._pending_resteer_event is not None
            and self._pending_resteer_event[1].seq > branch_seq
        ):
            self._pending_resteer_event = None
        return squashed

    @property
    def in_flight(self) -> int:
        return len(self.rob)
