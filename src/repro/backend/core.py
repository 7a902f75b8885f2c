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
retire.  :class:`BackendCoreC` and :class:`DataAddressGeneratorC` hold
the compiled cycle driver's backend and data-address state.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.common.config import CoreConfig
from repro.common.counters import Counters
from repro.common.errors import SimulationError
from repro.common.packed import address, view, zeros
from repro.workloads.program import OP_LOAD, OP_STORE, Program
from repro.workloads.tables import program_cache

if TYPE_CHECKING:  # the object structures load only where they run
    from repro.frontend.fetch_block import PendingResteer
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.workloads.data import DataAddressGenerator
    from repro.workloads.profiles import DataProfile

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


def dep_flags(program: Program, seed: int, threshold: int) -> bytes:
    """The per-PC load-dependence flags of ``program``, built once per process.

    One splitmix64 sweep in C (``dep_flags`` in ``kernels/backend.c``) over
    every instruction address, one byte per instruction indexed by
    ``pc >> 2`` -- bit-identical to :meth:`BackendCore._depends_on_load`.
    Immutable, and cached per (program, seed, threshold) in the program's
    per-process memo (:func:`repro.workloads.tables.program_cache`).
    """
    from repro.common import cc

    cache = program_cache(program)
    key = ("dep_flags", seed & 0xFFFF_FFFF_FFFF_FFFF, threshold)
    flags = cache.get(key)
    if flags is None:
        count = (program.code_end + 3) // 4  # instructions at 0, 4, ... < code_end
        flags = cache[key] = cc.kernels().dep_flags(count, key[1], threshold)
    return flags


class DataAddressGeneratorC:
    """The generator's occurrence counters in a flat int64 array, for the
    compiled cycle driver.

    The descriptor is embedded in the backend's (so the class lives here,
    away from its object twin), and the driver computes load/store
    addresses in C (``data_next_impl``) exactly like
    :meth:`repro.workloads.data.DataAddressGenerator.next_address`.  The
    array holds one counter per instruction of the code region, index
    ``(pc - code_start) >> 2`` (instruction pcs are 4-byte aligned from
    ``code_start``).  The
    class-probability boundary ``stack_frac + stream_frac`` is pre-summed
    here with the same IEEE addition the interpreted path performs per
    call.
    """

    def __init__(
        self, profile: DataProfile, seed: int, code_start: int, code_end: int
    ) -> None:
        from repro.common import cc

        kernels = cc.kernels()
        if kernels is None:  # pragma: no cover - the simulator guards this
            raise RuntimeError("compiled kernels unavailable")
        self.profile = profile
        self.seed = seed
        self.code_start = code_start
        self._occ_arr = zeros(max((code_end - code_start) >> 2, 1))
        di = zeros(8)
        di[0] = address(self._occ_arr)
        di[1] = len(self._occ_arr)
        di[2] = code_start
        view(di, "Q")[3] = seed & 0xFFFF_FFFF_FFFF_FFFF
        floats = view(di, "d")
        floats[4] = profile.stack_frac
        floats[5] = profile.stack_frac + profile.stream_frac
        di[6] = profile.stride_bytes
        di[7] = max(profile.data_footprint_bytes, 64)
        self._di = di
        self._desc = address(di)
        self._k_export = kernels.pc_counts_export
        self._k_import = kernels.pc_counts_import

    def _counts(self) -> tuple[int, int, int]:
        return address(self._occ_arr), len(self._occ_arr), self.code_start

    def state(self) -> dict[str, bytes]:
        """The nonzero occurrence counters as packed ``int64`` arrays, pcs
        ascending (the object generator's :meth:`state` form)."""
        pcs, counts = self._k_export(*self._counts())
        return {"pcs": pcs, "counts": counts}

    def load_state(self, state: dict[str, bytes]) -> None:
        """Restore :meth:`state` output in place; ``ValueError``, changing
        nothing, unless both arrays hold as many ``int64`` and every pc lies
        in the code region."""
        self._k_import(*self._counts(), state["pcs"], state["counts"])

    def copy_from(self, other: "DataAddressGeneratorC") -> None:
        """Copy a same-program compiled generator's counters in place."""
        memoryview(self._occ_arr)[:] = other._occ_arr


class BackendCoreC:
    """The backend's state in ring arrays, for the compiled cycle driver.

    Uop state lives in SoA ring arrays indexed by ``seq & cap_mask`` (the
    interpreted ROB deque only appends, pops left, and truncates right, so
    the ROB is just the contiguous seq range ``[rob_head, next_seq)``),
    described by ``BackendDesc`` in ``repro/common/kernels/kernels.h``.
    The driver dispatches, issues, retires, polls and squashes in C
    (``repro/common/kernels/backend.c``) and replays the memory accesses
    of each issue scan against the hierarchy itself; Python reads only the
    retired counts.

    :meth:`poll_resteer` and :meth:`retire_and_issue` are kept as entry
    points that raise: tools that wrap the backend's per-cycle stages by
    name find them, and a call means a Python stepper is running over
    compiled structures, which never happens.
    """

    def __init__(
        self, config: CoreConfig, data_gen: DataAddressGeneratorC, seed: int = 1
    ) -> None:
        self.config = config
        self.seed = seed
        self.issue_scan_window = 24  # BackendCore's
        self._dep_threshold = int(config.load_dependence_fraction * (1 << 32))
        cap = 1
        while cap < config.rob_entries:
            cap *= 2
        # The uop ring columns, one per descriptor pointer bi[0..6].
        self._ring = tuple(zeros(cap) for _ in range(7))
        self._rs_arr = zeros(config.rs_entries)
        self._out_retired = zeros(config.retire_width)
        self._out_mem = zeros(2 * self.issue_scan_window)
        bi = zeros(34)
        for i, column in enumerate(self._ring):
            bi[i] = address(column)
        bi[7] = cap - 1
        bi[8] = address(self._rs_arr)
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
        # bi[23]=pending_resteer_seq, bi[24]=retired_instructions,
        # bi[25]=retired_total; bi[26]/bi[27]: the dep table pointer and
        # length, bound by install_dep_table
        view(bi, "Q")[28] = seed & 0xFFFF_FFFF_FFFF_FFFF
        bi[29] = self._dep_threshold
        bi[30] = address(self._out_retired)
        # bi[31]=hook_active, set by the driver
        bi[32] = address(self._out_mem)
        bi[33] = data_gen._desc
        self._bi = bi
        self._bdesc = address(bi)

    @property
    def retired_instructions(self) -> int:
        return self._bi[24]

    def install_dep_table(self, flags: bytes) -> None:
        """Bind a per-PC load-dependence flag table (see :func:`dep_flags`).

        The dispatch kernel indexes it by ``pc >> 2`` instead of hashing
        every dispatched PC; the table is immutable, so one table is shared
        by every simulator of the same program, seed and threshold.
        """
        from repro.common import cc

        self._dep_table = flags
        self._bi[26] = cc.kernels().buffer_address(flags)
        self._bi[27] = len(flags)

    def poll_resteer(self, cycle: int):
        raise SimulationError("the compiled cycle driver runs this backend's stages")

    def retire_and_issue(self, cycle: int) -> None:
        raise SimulationError("the compiled cycle driver runs this backend's stages")
