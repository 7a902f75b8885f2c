"""The backend: a simplified out-of-order core (Table II resources).

Fidelity target (see DESIGN.md §6): the backend must (a) retire at most 6
instructions per cycle, (b) expose realistic branch-resolution timing — a
mispredicted branch resteers the frontend only when it *executes*, i.e.
after the decode→execute pipeline depth plus queueing, (c) stall on dcache
misses with a load-dependence model, and (d) bound in-flight work by the
ROB/RS sizes.  Full register renaming is replaced by a per-instruction
"depends on the most recent load" flag assigned pseudo-randomly by PC hash
at dispatch (fraction configurable).

Wrong-path instructions are dispatched, issued, and execute (polluting the
data cache) but are squashed when the diverging branch resolves; they never
retire.
"""

from __future__ import annotations

from collections import deque

from repro.common.config import CoreConfig
from repro.common.counters import Counters
from repro.frontend.fetch_block import PendingResteer
from repro.memory.hierarchy import MemoryHierarchy
from repro.workloads.behavior import mix64
from repro.workloads.data import DataAddressGenerator
from repro.workloads.program import OP_LOAD, OP_STORE, Program
from repro.workloads.tables import program_cache

OP_BRANCH = 3


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


def dep_flags(program: Program, seed: int, threshold: int):
    """The per-PC load-dependence flags of ``program``, built once per process.

    One vectorized splitmix64 sweep over every instruction address, stored
    as a uint8 table indexed by ``pc >> 2`` -- bit-identical to
    :meth:`BackendCore._depends_on_load` (uint64 wrap-around equals the
    ``& mask``).  Cached per (program, seed, threshold) in the program's
    per-process memo (:func:`repro.workloads.tables.program_cache`).
    """
    import numpy as np

    cache = program_cache(program)
    key = ("dep_flags", seed & 0xFFFF_FFFF_FFFF_FFFF, threshold)
    flags = cache.get(key)
    if flags is None:
        u64 = np.uint64
        with np.errstate(over="ignore"):
            x = np.arange(0, program.code_end, 4, dtype=np.uint64)
            x = (x ^ u64(key[1])) + u64(0x9E3779B97F4A7C15)
            x = (x ^ (x >> u64(30))) * u64(0xBF58476D1CE4E5B9)
            x = (x ^ (x >> u64(27))) * u64(0x94D049BB133111EB)
            x ^= x >> u64(31)
        flags = ((x & u64(0xFFFF_FFFF)) < u64(threshold)).astype(np.uint8)
        flags.flags.writeable = False
        cache[key] = flags
    return flags


class BackendCoreC(BackendCore):
    """Backend with compiled dispatch/issue/retire kernels over ring arrays.

    Uop state lives in SoA ring arrays indexed by ``seq & cap_mask`` (the
    interpreted ROB deque only appends, pops left, and truncates right, so
    the ROB is just the contiguous seq range ``[rob_head, next_seq)``).  The
    kernels defer everything that needs Python — memory latencies, resteer
    objects, retire hooks, counter bumps — into small per-call replay lists:

    * ``be_issue`` marks issued loads with a sentinel ``complete_cycle`` and
      returns ``(seq, is_store)`` pairs; :meth:`retire_and_issue` replays
      them against the hierarchy in scan order, preserving every L1D
      LRU/stream/counter interaction.
    * ``be_retire`` stages retired on-path pcs for the retire hook and
      returns the wrong-path count for a single bulk counter bump.
    * :class:`~repro.frontend.fetch_block.PendingResteer` objects stay in a
      Python dict keyed by seq; the kernel only tracks the firing cycle.

    ``rob`` / ``rs`` are ``None`` here — any code that reaches for the
    interpreted structures fails loudly; the simulator's dispatch loop asks
    :attr:`can_dispatch` instead.
    """

    def __init__(
        self,
        config: CoreConfig,
        hierarchy: MemoryHierarchy,
        data_gen: DataAddressGenerator,
        counters: Counters,
        seed: int = 1,
    ) -> None:
        import numpy as np

        from repro.common import cc
        from repro.workloads.data import DataAddressGeneratorC

        kernels = cc.kernels()
        if kernels is None or not isinstance(data_gen, DataAddressGeneratorC):
            raise RuntimeError("compiled kernels unavailable")
        super().__init__(config, hierarchy, data_gen, counters, seed)
        self.rob = None  # ROB/RS live in the ring arrays; fail loudly
        self.rs = None
        cap = 1
        while cap < config.rob_entries:
            cap *= 2
        self._cap_mask = cap - 1
        self._pc_arr = np.zeros(cap, dtype=np.int64)
        self._op_arr = np.zeros(cap, dtype=np.int64)
        self._flags_arr = np.zeros(cap, dtype=np.int64)
        self._dep_arr = np.zeros(cap, dtype=np.int64)
        self._addr_arr = np.zeros(cap, dtype=np.int64)
        self._dispatch_arr = np.zeros(cap, dtype=np.int64)
        self._complete_arr = np.zeros(cap, dtype=np.int64)
        self._rs_arr = np.zeros(config.rs_entries, dtype=np.int64)
        self._out_retired = np.zeros(max(config.retire_width, 1), dtype=np.int64)
        self._out_mem = np.zeros(2 * max(self.issue_scan_window, 1), dtype=np.int64)
        self._addr_mv = memoryview(self._addr_arr)
        self._complete_mv = memoryview(self._complete_arr)
        self._out_retired_mv = memoryview(self._out_retired)
        self._out_mem_mv = memoryview(self._out_mem)
        bi = np.zeros(34, dtype=np.int64)
        bi[0] = self._pc_arr.ctypes.data
        bi[1] = self._op_arr.ctypes.data
        bi[2] = self._flags_arr.ctypes.data
        bi[3] = self._dep_arr.ctypes.data
        bi[4] = self._addr_arr.ctypes.data
        bi[5] = self._dispatch_arr.ctypes.data
        bi[6] = self._complete_arr.ctypes.data
        bi[7] = self._cap_mask
        bi[8] = self._rs_arr.ctypes.data
        # bi[9]=rs_len, bi[10]=rob_head, bi[11]=next_seq
        bi[12] = config.rob_entries
        bi[13] = config.rs_entries
        bi[14] = config.retire_width
        bi[15] = config.decode_to_execute_latency
        bi[16] = config.num_alu
        bi[17] = config.num_load
        bi[18] = config.num_store
        bi[19] = self.issue_scan_window
        bi[20] = -1  # last_load: none
        bi[21] = 0  # issue_wake (oracle-equivalent initial gate)
        bi[22] = -1  # pending_resteer_cycle: none
        # bi[23]=pending_resteer_seq
        bi[24] = self.__dict__.pop("retired_instructions")
        bi[25] = self.__dict__.pop("retired_total")
        # bi[26]/bi[27]: dep table pointer+len, bound by install_dep_table
        bi.view(np.uint64)[28] = seed & 0xFFFF_FFFF_FFFF_FFFF
        bi[29] = self._dep_threshold
        bi[30] = self._out_retired.ctypes.data
        # bi[31]=hook_active, set per retire call
        bi[32] = self._out_mem.ctypes.data
        bi[33] = data_gen._desc
        self._bi = bi
        self._bmv = memoryview(bi)
        self._bdesc = int(bi.ctypes.data)
        self._resteers: dict[int, PendingResteer] = {}
        self._k_dispatch = kernels.be_dispatch
        self._k_can_dispatch = kernels.be_can_dispatch
        self._k_retire = kernels.be_retire
        self._k_issue = kernels.be_issue
        self._k_poll = kernels.be_poll
        self._k_next_event = kernels.be_next_event
        self._k_squash = kernels.be_squash
        self._c_wrong_path_retired = counters.incrementer("wrong_path_retired")
        self._c_squashed_uops = counters.incrementer("backend_squashed_uops")

    # retired_instructions / retired_total live in the descriptor (the C
    # retire kernel bumps them); the base __init__ assigns them before the
    # descriptor exists, so the setters stash early writes in the instance
    # dict and __init__ moves them into the descriptor.

    @property
    def retired_instructions(self) -> int:
        bi = self.__dict__.get("_bi")
        if bi is None:
            return self.__dict__["retired_instructions"]
        return int(bi[24])

    @retired_instructions.setter
    def retired_instructions(self, value: int) -> None:
        bi = self.__dict__.get("_bi")
        if bi is None:
            self.__dict__["retired_instructions"] = value
        else:
            bi[24] = value

    @property
    def retired_total(self) -> int:
        bi = self.__dict__.get("_bi")
        if bi is None:
            return self.__dict__["retired_total"]
        return int(bi[25])

    @retired_total.setter
    def retired_total(self, value: int) -> None:
        bi = self.__dict__.get("_bi")
        if bi is None:
            self.__dict__["retired_total"] = value
        else:
            bi[25] = value

    # -- dispatch -----------------------------------------------------------

    @property
    def can_dispatch(self) -> bool:
        bmv = self._bmv
        return (
            bmv[11] - bmv[10] < bmv[12]  # next_seq - rob_head < rob_entries
            and bmv[9] < bmv[13]  # rs_len < rs_entries
        )

    def dispatch(
        self,
        pc: int,
        op: int,
        on_path: bool,
        cycle: int,
        resteer: PendingResteer | None = None,
    ) -> int:
        """Insert a decoded instruction; returns its seq (not a MicroOp)."""
        seq = self._k_dispatch(
            self._bdesc, pc, op, 1 if on_path else 0, cycle, 0 if resteer is None else 1
        )
        if resteer is not None:
            self._resteers[seq] = resteer
        return seq

    def install_dep_table(self, flags) -> None:
        """Bind a per-PC load-dependence flag table (see :func:`dep_flags`).

        The dispatch kernels index it by ``pc >> 2`` instead of hashing
        every dispatched PC; the table is only read, so one table is
        shared by every simulator of the same program, seed and threshold.
        """
        self._dep_view = flags
        self._bi[26] = flags.ctypes.data
        self._bi[27] = len(flags)

    # -- per-cycle step ------------------------------------------------------

    def poll_resteer(self, cycle: int) -> tuple[PendingResteer, int] | None:
        seq = self._k_poll(self._bdesc, cycle)
        if seq < 0:
            return None
        resteer = self._resteers.pop(seq)
        if len(self._resteers) > 64:
            # Entries for branches whose single-slot pending event was
            # overwritten before firing (same semantics as the interpreted
            # path) can linger; retired seqs can never fire anymore.
            rob_head = self._bmv[10]
            for stale in [s for s in self._resteers if s < rob_head]:
                del self._resteers[stale]
        return resteer, seq

    def retire_and_issue(self, cycle: int) -> None:
        """Retire completed head-of-ROB uops, then issue ready RS entries."""
        bi = self._bi
        hook = self.retire_hook
        bi[31] = 0 if hook is None else 1
        packed = self._k_retire(self._bdesc, cycle)
        if packed:
            hook_n = packed & 0xFFFF_FFFF
            wrong = packed >> 32
            if wrong:
                self._c_wrong_path_retired(wrong)
            if hook_n:
                out = self._out_retired_mv
                for i in range(hook_n):
                    hook(out[i])
        n_mem = self._k_issue(self._bdesc, cycle)
        if n_mem:
            out = self._out_mem_mv
            addr = self._addr_mv
            complete = self._complete_mv
            cap_mask = self._cap_mask
            hierarchy = self.hierarchy
            for i in range(n_mem):
                slot = out[2 * i] & cap_mask
                if out[2 * i + 1]:
                    hierarchy.store_access(addr[slot])
                else:
                    complete[slot] = cycle + hierarchy.load_latency(addr[slot])

    def next_event_cycle(self, cycle: int) -> int | None:
        t = self._k_next_event(self._bdesc, cycle)
        return None if t < 0 else t

    # -- squash ---------------------------------------------------------------

    def squash_younger(self, branch_seq: int) -> int:
        """Drop every in-flight uop younger than ``branch_seq``."""
        squashed = self._k_squash(self._bdesc, branch_seq)
        self._c_squashed_uops(squashed)
        if self._resteers:
            for stale in [s for s in self._resteers if s > branch_seq]:
                del self._resteers[stale]
        return squashed

    @property
    def in_flight(self) -> int:
        bmv = self._bmv
        return bmv[11] - bmv[10]
