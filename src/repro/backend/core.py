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
the compiled cycle driver's backend and data-address state.  The object
backend (``BackendCore`` and ``MicroOp``), which the Python stepper runs and
the driver's backend kernel ports, is :mod:`repro.backend.window`; this
module resolves both names on first use, so a compiled run never loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import exports as _exports
from repro.common.config import CoreConfig
from repro.common.errors import SimulationError
from repro.common.packed import address, view, zeros
from repro.workloads.program import Program
from repro.workloads.tables import program_cache

if TYPE_CHECKING:
    from repro.workloads.profiles import DataProfile

__getattr__, __dir__ = _exports(__name__, ("repro.backend.window", ("BackendCore", "MicroOp")))[1:]

OP_BRANCH = 3


def dep_flags(program: Program, seed: int, threshold: int) -> bytes:
    """The per-PC load-dependence flags of ``program``, built once per process.

    One splitmix64 sweep in C (``dep_flags`` in ``kernels/backend.c``) over
    every instruction address, one byte per instruction indexed by
    ``pc >> 2`` -- bit-identical to ``BackendCore._depends_on_load``
    (:mod:`repro.backend.window`).  Immutable, and cached per (program,
    seed, threshold) in the program's per-process memo
    (:func:`repro.workloads.tables.program_cache`).
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
