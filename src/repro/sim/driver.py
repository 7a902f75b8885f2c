"""The compiled cycle driver: eligibility and the Python side of run_cycles.

:class:`CycleDriver` runs :meth:`Simulator.step`'s whole loop in one C
call (``run_cycles`` in ``repro/common/kernels/driver.c``) and returns to
Python only where Python must act: at the retire target, at a timed-warmup
or ``run_interval`` warmup boundary, or at the cycle limit.  Every exit
writes back what Python and the ledger read -- counters, ``cycle``, FTQ
occupancy and depth, the oracle position, the frontend/RAS scalars and
``steps_executed``/``ff_jumps``/``ff_cycles_skipped`` -- while the
pipeline contents (FTQ entries, MSHRs, in-flight resteers) stay in C.

The driver only ports configurations with no Python-side participant
(:func:`ineligibility` names what is missing otherwise); everything else,
and every run under ``REPRO_NO_COMPILED``, ``REPRO_NO_FASTFORWARD`` or a
counter hook, keeps the Python stepper over the same C structures, with
the object path as the oracle.  Counters are byte-identical either way
(``tests/sim/test_driver.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.branch.btb import BranchTargetBufferC
from repro.common import cc
from repro.common.errors import SimulationError
from repro.workloads.tables import program_tables

if TYPE_CHECKING:
    from repro.sim.simulator import Simulator

# run_cycles status codes (kernels/driver.c).
DONE, STOP, LIMIT = 0, 1, 2
_ERRORS = {
    -1: "oracle out of sync with the walker",
    -2: "too many divergences in flight",
    -3: "a resolving branch has no pending resteer",
}
# A retire count no run reaches: "no warmup boundary to stop at".
NEVER = 1 << 62


def ineligibility(sim: "Simulator") -> str | None:
    """Why ``sim`` cannot run under the compiled driver, or None if it can.

    The fork depends only on observable configuration: the compiled
    kernels, idle-cycle fast-forward, no counter hook (tracers narrate
    every cycle), and no Python-side participant in the cycle loop.
    """
    if not sim.compiled_enabled:
        return "compiled kernels off"
    if not sim.fast_forward_enabled:
        return "fast-forward off"
    if sim.counters.hook is not None:
        return "counter hook attached"
    if sim.udp is not None:
        return "udp enabled"
    if sim.uftq is not None:
        return "uftq enabled"
    if sim.prefetcher is not None:
        return f"technique object ({sim.config.prefetcher.kind})"
    if not isinstance(sim.bpu.btb, BranchTargetBufferC):
        return "two-level BTB"
    if sim.bpu.loop is not None:
        return "loop predictor"
    if program_tables(sim.program) is None:
        return "program behaviours not compilable"
    return None


class CycleDriver:
    """One simulator's compiled cycle loop (built on a clean machine).

    Construction imports the Python-side state the loop mutates -- the
    oracle cursor, the RAS, the frontend and FDIP scalars -- which is only
    consistent before the first cycle; from then on the driver owns the
    pipeline and :meth:`run` keeps the Python view in sync at every exit.
    It also takes over the L1I eviction accounting, so the simulator's
    Python eviction hook is detached.  The driver keeps no reference to
    the simulator: with the hook gone, a finished simulator and its
    arrays are freed as soon as the last reference drops, instead of
    waiting for a cyclic collection (which the driver's allocation-free
    loop rarely triggers).
    """

    def __init__(self, sim: "Simulator") -> None:
        import numpy as np

        if sim.cycle != 0:
            raise SimulationError("the cycle driver must start on a clean machine")
        kernels = cc.kernels()
        layout = kernels.driver_layout()
        fields = layout["driver_fields"]
        tables = program_tables(sim.program)
        config = sim.config
        bpu = sim.bpu
        history = bpu.history
        oracle = sim.oracle

        def zeros(count, dtype=np.int64):
            return np.zeros(max(count, 1), dtype=dtype)

        sim.l1i.eviction_hook = None
        self._tables = tables
        self._counter_names = layout["counters"]
        self._counters = zeros(len(self._counter_names))
        # Per-block state as one allocation (occurrences, touched list, flags).
        self._occ, self._touched, self._touched_flag = np.zeros(
            (3, tables.num_blocks), dtype=np.int64
        )
        self._call_stack = zeros(oracle.max_stack)
        self._ras = zeros(bpu.ras.capacity)
        ftq_cap = sim.ftq.max_physical
        self._ftq = zeros(ftq_cap * layout["ftq_entry_words"])
        mshr_cap = sim.mshr.capacity
        self._mshr = zeros(mshr_cap * layout["mshr_entry_words"])
        pool = layout["resteer_pool"]
        self._resteers = zeros(pool * layout["resteer_words"])
        hist_words = len(history._words)
        self._resteer_hist = zeros(pool * (hist_words + len(history.folded)))

        desc = np.zeros(layout["driver_words"], dtype=np.int64)
        values = {
            "width": config.core.frontend_width,
            "blocks_per_cycle": config.frontend.ftq_blocks_per_cycle,
            "fdip_lookups": config.frontend.fdip_lookups_per_cycle,
            "fdip_enabled": int(sim.fdip.enabled),
            "perfect_icache": int(config.frontend.perfect_icache),
            "pfc": int(config.frontend.post_fetch_correction),
            "max_cycles": config.max_cycles,
            "mshr_cap": mshr_cap,
            "ftq_cap": ftq_cap,
            "ras_cap": bpu.ras.capacity,
            "max_stack": oracle.max_stack,
            "ibtb_hist_bits": bpu.ibtb.history_bits,
            "hist_words": hist_words,
            "btb": bpu.btb._desc,
            "ibtb": bpu.ibtb._desc,
            "tage": bpu.tage._desc,
            "hist": history._desc,
            "l1i": sim.l1i._desc,
            "hier": sim.hierarchy._hdesc,
            "be": sim.backend._bdesc,
            "prog": tables.desc,
            "counters": self._counters.ctypes.data,
            "occ": self._occ.ctypes.data,
            "touched": self._touched.ctypes.data,
            "touched_flag": self._touched_flag.ctypes.data,
            "call_stack": self._call_stack.ctypes.data,
            "ras": self._ras.ctypes.data,
            "ftq": self._ftq.ctypes.data,
            "mshr": self._mshr.ctypes.data,
            "resteers": self._resteers.ctypes.data,
            "resteer_hist": self._resteer_hist.ctypes.data,
            # Imported state: the machine is clean, so only the oracle, the
            # RAS and the frontend/FDIP/FTQ scalars carry anything.
            "ftq_depth": sim.ftq.depth,
            "occ_sum": sim.ftq.occupancy_sum,
            "occ_samples": sim.ftq.occupancy_samples,
            "oracle_pc": oracle.pc,
            "blocks_walked": oracle.blocks_walked,
            "instrs_walked": oracle.instrs_walked,
            "cs_len": len(oracle.call_stack),
            "spec_pc": sim.frontend.spec_pc,
            "next_seq": sim.frontend.next_seq,
            "next_scan_seq": sim.fdip.next_scan_seq,
            "ras_len": len(bpu.ras),
            "ras_overflows": bpu.ras.overflows,
            "ras_underflows": bpu.ras.underflows,
            "steps": sim.steps_executed,
            "ff_jumps": sim.ff_jumps,
            "ff_skipped": sim.ff_cycles_skipped,
        }
        for name, value in values.items():
            desc[fields[name]] = value
        self._call_stack[: len(oracle.call_stack)] = oracle.call_stack
        self._ras[: len(bpu.ras)] = bpu.ras._stack
        occurrences = oracle._occurrences
        if occurrences:
            pcs = np.fromiter(occurrences.keys(), dtype=np.int64, count=len(occurrences))
            counts = np.fromiter(occurrences.values(), dtype=np.int64, count=len(occurrences))
            self._occ[tables.block_index(pcs)] = counts
        self._dmv = memoryview(desc)  # keeps the descriptor array alive
        self._fields = fields
        self._desc = int(desc.ctypes.data)
        self._k_run = kernels.run_cycles

    def run(self, sim: "Simulator", target: int, stop: int = NEVER) -> int:
        """Step ``sim`` until ``target`` retired (DONE), the retired count
        reaches ``stop`` after a step (STOP), or the cycle limit (LIMIT)."""
        try:
            status = self._k_run(self._desc, target, stop)
        finally:
            self._sync(sim)
        if status < 0:
            raise SimulationError(
                f"compiled cycle driver: {_ERRORS.get(status, status)} "
                f"(oracle pc {self._dmv[self._fields['error_pc']]:#x})"
            )
        return status

    def _sync(self, sim: "Simulator") -> None:
        """Write the observable state back into the Python objects."""
        import numpy as np

        d = self._dmv
        f = self._fields
        counts = self._counters
        (nonzero,) = np.nonzero(counts)
        if len(nonzero):
            values = sim.counters._values
            names = self._counter_names
            for index, amount in zip(nonzero.tolist(), counts[nonzero].tolist()):
                name = names[index]
                values[name] = values.get(name, 0) + amount
            counts[:] = 0
        sim.cycle = d[f["cycle"]]
        sim.steps_executed = d[f["steps"]]
        sim.ff_jumps = d[f["ff_jumps"]]
        sim.ff_cycles_skipped = d[f["ff_skipped"]]
        ftq = sim.ftq
        ftq.occupancy_sum = d[f["occ_sum"]]
        ftq.occupancy_samples = d[f["occ_samples"]]
        ftq.depth = d[f["ftq_depth"]]
        oracle = sim.oracle
        oracle.pc = d[f["oracle_pc"]]
        oracle.blocks_walked = d[f["blocks_walked"]]
        oracle.instrs_walked = d[f["instrs_walked"]]
        oracle.call_stack[:] = self._call_stack[: d[f["cs_len"]]].tolist()
        n_touched = d[f["n_touched"]]
        if n_touched:
            touched = self._touched[:n_touched]
            oracle._occurrences.update(
                zip(self._tables.branch_pc[touched].tolist(), self._occ[touched].tolist())
            )
            self._touched_flag[touched] = 0
            d[f["n_touched"]] = 0
        frontend = sim.frontend
        frontend.spec_pc = d[f["spec_pc"]]
        frontend.next_seq = d[f["next_seq"]]
        frontend.diverged = bool(d[f["diverged"]])
        sim.fdip.next_scan_seq = d[f["next_scan_seq"]]
        ras = sim.bpu.ras
        ras._stack = self._ras[: d[f["ras_len"]]].tolist()
        ras.overflows = d[f["ras_overflows"]]
        ras.underflows = d[f["ras_underflows"]]
