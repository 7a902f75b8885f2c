"""The compiled cycle driver: eligibility and the Python side of its C calls.

:class:`CycleDriver` runs :meth:`Simulator.step`'s whole loop in one C
call (``run_cycles`` in ``repro/common/kernels/driver.c``) and returns to
Python only where Python must act: at the retire target, at a timed-warmup
or ``run_interval`` warmup boundary, or at the cycle limit.  Every exit
writes back what Python and the ledger read -- counters, ``cycle``, FTQ
occupancy and depth, the oracle position, the frontend/RAS scalars,
UDP's state and ``steps_executed``/``ff_jumps``/``ff_cycles_skipped`` --
while the pipeline contents (FTQ entries, MSHRs, in-flight resteers) stay
in C.

UDP runs inside the loop: the confidence estimator, the FDIP gate over the
useful-set, the Seniority-FTQ retire hook and the flush policy
(:class:`_UDPState` carries their state across).  A registry technique
stays in Python and is called back synchronously, as its
:class:`~repro.prefetchers.registry.Capabilities` declare: the loop calls
``on_demand_access`` and ``on_line_filled`` where :meth:`Simulator.step`
does and applies the returned prefetch lines in C.  A callback that raises
ends the run with its exception, after the write-back.  UFTQ, the
two-level BTB and the loop predictor are not ported (:func:`ineligibility`
names what is missing).  Those configurations run the Python
stepper: over the C structures in compiled mode (also under
``REPRO_NO_FASTFORWARD`` or a counter hook), over the object structures
under ``REPRO_NO_COMPILED``.  The object path is the oracle, and counters
are byte-identical either way (``tests/sim/test_driver.py``).

The same eligibility rule runs the functional walk in C:
:func:`functional_walk` is :meth:`Simulator._walk_true_path` (the
functional warmup and the fast-forward, warming or not) as one call of
``functional_walk`` over a descriptor of its own.  Everything the walk
moved -- counters, the oracle position, UDP's useful-set -- is written back
before it returns, and nothing stays in C, so the cycles after a walk still
choose between the driver and the Python stepper on their own.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from functools import partial
from itertools import compress
from typing import TYPE_CHECKING

from repro.branch.btb import BranchTargetBufferC
from repro.common import cc
from repro.common.errors import SimulationError
from repro.common.packed import address, put, view, zeros
from repro.prefetchers.base import reject_prefetch_line
from repro.workloads.tables import program_tables

if TYPE_CHECKING:
    from repro.core.udp import UDPFilter
    from repro.sim.simulator import Simulator

# run_cycles status codes (kernels/driver.c).
DONE, STOP, LIMIT = 0, 1, 2
_ERR_ORACLE_SYNC = -1
_ERRORS = {
    -1: "oracle out of sync with the walker",
    -2: "too many divergences in flight",
    -3: "a resolving branch has no pending resteer",
    -4: "a useful-set line outside the code region",
}
# A retire count no run reaches: "no warmup boundary to stop at" (and
# for the functional walk, "no block or instruction limit").
NEVER = 1 << 62
# functional_walk flags (kernels/driver.c).
_WALK_WARM, _WALK_FIRST_TOUCH = 1, 2


def ineligibility(sim: "Simulator") -> str | None:
    """Why ``sim`` cannot run under the compiled driver, or None if it can.

    The fork depends only on observable configuration: the compiled
    kernels, idle-cycle fast-forward, no counter hook (tracers narrate
    every cycle), and no Python-side participant in the cycle loop other
    than a registry technique, which the driver calls back.
    """
    if not sim.compiled_enabled:
        return "compiled kernels off"
    if not sim.fast_forward_enabled:
        return "fast-forward off"
    if sim.counters.hook is not None:
        return "counter hook attached"
    if sim.uftq is not None:
        return "uftq enabled"
    if not isinstance(sim.bpu.btb, BranchTargetBufferC):
        return "two-level BTB"
    if sim.bpu.loop is not None:
        return "loop predictor"
    if program_tables(sim.program) is None:
        return "program behaviours not compilable"
    return None


class _Machine:
    """A ``Driver`` descriptor over one simulator's structures and oracle.

    The part both C entry points share: the BTB/iBTB/TAGE/history, L1I,
    hierarchy and backend descriptors (used in place), the program tables,
    the oracle position (pc, walked counts, call stack, occurrence counts),
    UDP's state and the counter deltas.  Imported from the Python objects,
    so only consistent on a clean machine; :meth:`_sync` writes the
    imported part back.
    """

    def __init__(self, sim: "Simulator", layout: dict, values: dict) -> None:
        kernels = cc.kernels()
        tables = program_tables(sim.program)
        bpu = sim.bpu
        oracle = sim.oracle
        self._tables = tables
        self._counter_names = layout["counters"]
        self._counters = zeros(len(self._counter_names))
        # Per-block state as one allocation (occurrences, touched list, flags).
        n = tables.num_blocks
        self._per_block = zeros(3 * n)
        self._call_stack = zeros(oracle.max_stack)
        self._udp = _UDPState(sim, layout) if sim.udp is not None else None

        desc = zeros(layout["driver_words"])
        values = {
            **values,
            "max_stack": oracle.max_stack,
            "ibtb_hist_bits": bpu.ibtb.history_bits,
            "btb": bpu.btb._desc,
            "ibtb": bpu.ibtb._desc,
            "tage": bpu.tage._desc,
            "hist": bpu.history._desc,
            "l1i": sim.l1i._desc,
            "hier": sim.hierarchy._hdesc,
            "be": sim.backend._bdesc,
            "prog": tables.desc,
            "udp": self._udp.desc if self._udp is not None else 0,
            "counters": address(self._counters),
            "occ": address(self._per_block),
            "touched": address(self._per_block) + 8 * n,
            "touched_flag": address(self._per_block) + 16 * n,
            "call_stack": address(self._call_stack),
            "oracle_pc": oracle.pc,
            "blocks_walked": oracle.blocks_walked,
            "instrs_walked": oracle.instrs_walked,
            "cs_len": len(oracle.call_stack),
        }
        fields = layout["driver_fields"]
        for name, value in values.items():
            desc[fields[name]] = value
        put(self._call_stack, oracle.call_stack)
        self._dmv = memoryview(desc)  # keeps the descriptor array alive
        self._fields = fields
        self._desc = address(desc)
        self._k_oracle_export = kernels.oracle_export
        kernels.oracle_import(self._desc, oracle._occurrences)

    def _sync(self, sim: "Simulator") -> None:
        """Write the counters, the oracle and UDP back into the Python objects."""
        d = self._dmv
        f = self._fields
        counts = self._counters
        values = sim.counters._values
        for index, amount in enumerate(counts):
            if amount:
                name = self._counter_names[index]
                values[name] = values.get(name, 0) + amount
                counts[index] = 0
        oracle = sim.oracle
        oracle.pc = d[f["oracle_pc"]]
        oracle.blocks_walked = d[f["blocks_walked"]]
        oracle.instrs_walked = d[f["instrs_walked"]]
        oracle.call_stack[:] = self._call_stack[: d[f["cs_len"]]].tolist()
        self._k_oracle_export(self._desc, oracle._occurrences)
        if self._udp is not None:
            self._udp.sync(sim.udp)


def functional_walk(
    sim: "Simulator", max_blocks: int, target: int, first_touch: bool, warm: bool
) -> None:
    """Run :meth:`Simulator._walk_true_path`'s loop as one C call.

    ``functional_walk`` in ``driver.c`` walks over a fresh descriptor, and
    everything it moved is written back before this returns, even when a
    signal handler raises mid-walk, so the walk leaves no state in C: a
    later run picks the cycle driver or the Python stepper afresh.
    """
    kernels = cc.kernels()
    machine = _Machine(sim, kernels.driver_layout(), {})
    flags = (_WALK_WARM if warm else 0) | (_WALK_FIRST_TOUCH if first_touch else 0)
    try:
        status = kernels.functional_walk(machine._desc, max_blocks, target, flags)
    finally:
        machine._sync(sim)
    if status == _ERR_ORACLE_SYNC:
        sim.oracle.current_block()  # raises the Python walk's own error
    if status < 0:
        raise SimulationError(f"functional walk: {_ERRORS.get(status, status)}")


class CycleDriver(_Machine):
    """One simulator's compiled cycle loop (built on a clean machine).

    Construction imports the Python-side state the loop mutates -- the
    oracle cursor, the RAS, the frontend and FDIP scalars, UDP -- which is
    only consistent before the first cycle; from then on the driver owns
    the pipeline and :meth:`run` keeps the Python view in sync at every
    exit.
    It also takes over the L1I eviction accounting, so the simulator's
    Python eviction hook is detached.  The driver keeps no reference to
    the simulator: with the hook gone, a finished simulator and its
    arrays are freed as soon as the last reference drops, instead of
    waiting for a cyclic collection (which the driver's allocation-free
    loop rarely triggers).  It holds the technique's callbacks, looked up
    on the technique object here rather than on its class, so a wrapper
    installed on the class before the simulator was built sees every call.
    """

    def __init__(self, sim: "Simulator") -> None:
        if sim.cycle != 0:
            raise SimulationError("the cycle driver must start on a clean machine")
        kernels = cc.kernels()
        layout = kernels.driver_layout()
        config = sim.config
        bpu = sim.bpu
        history = bpu.history

        sim.l1i.eviction_hook = None
        self._ras = zeros(bpu.ras.capacity)
        ftq_cap = sim.ftq.max_physical
        self._ftq = zeros(ftq_cap * layout["ftq_entry_words"])
        mshr_cap = sim.mshr.capacity
        self._mshr = zeros(mshr_cap * layout["mshr_entry_words"])
        pool = layout["resteer_pool"]
        self._resteers = zeros(pool * layout["resteer_words"])
        hist_words = len(history._words)
        self._resteer_hist = zeros(pool * (hist_words + len(history.folded)))
        prefetcher = sim.prefetcher
        observer = sim._fill_observer
        self._callbacks = (
            prefetcher.on_demand_access if prefetcher is not None else None,
            observer.on_line_filled if observer is not None else None,
            partial(reject_prefetch_line, config.prefetcher.kind),
        )
        on_demand, on_fill, reject = (
            id(callback) if callback is not None else 0 for callback in self._callbacks
        )
        super().__init__(sim, layout, {
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
            "hist_words": hist_words,
            # CPython object addresses; self._callbacks keeps them alive.
            "on_demand": on_demand,
            "on_fill": on_fill,
            "reject": reject,
            "ras": address(self._ras),
            "ftq": address(self._ftq),
            "mshr": address(self._mshr),
            "resteers": address(self._resteers),
            "resteer_hist": address(self._resteer_hist),
            # Imported state: the machine is clean, so beyond the oracle
            # only the RAS and the frontend/FDIP/FTQ scalars carry anything.
            "ftq_depth": sim.ftq.depth,
            "occ_sum": sim.ftq.occupancy_sum,
            "occ_samples": sim.ftq.occupancy_samples,
            "spec_pc": sim.frontend.spec_pc,
            "next_seq": sim.frontend.next_seq,
            "next_scan_seq": sim.fdip.next_scan_seq,
            "ras_len": len(bpu.ras),
            "ras_overflows": bpu.ras.overflows,
            "ras_underflows": bpu.ras.underflows,
            "steps": sim.steps_executed,
            "ff_jumps": sim.ff_jumps,
            "ff_skipped": sim.ff_cycles_skipped,
            "demand_calls": sim.driver_demand_callbacks,
            "fill_calls": sim.driver_fill_callbacks,
        })
        put(self._ras, bpu.ras._stack)
        self._k_run = kernels.run_cycles

    def run(self, sim: "Simulator", target: int, stop: int = NEVER) -> int:
        """Step ``sim`` until ``target`` retired (DONE), the retired count
        reaches ``stop`` after a step (STOP), or the cycle limit (LIMIT).

        An exception from a technique callback propagates unchanged, after
        the write-back.
        """
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
        super()._sync(sim)
        d = self._dmv
        f = self._fields
        sim.cycle = d[f["cycle"]]
        sim.steps_executed = d[f["steps"]]
        sim.ff_jumps = d[f["ff_jumps"]]
        sim.ff_cycles_skipped = d[f["ff_skipped"]]
        sim.driver_demand_callbacks = d[f["demand_calls"]]
        sim.driver_fill_callbacks = d[f["fill_calls"]]
        ftq = sim.ftq
        ftq.occupancy_sum = d[f["occ_sum"]]
        ftq.occupancy_samples = d[f["occ_samples"]]
        ftq.depth = d[f["ftq_depth"]]
        frontend = sim.frontend
        frontend.spec_pc = d[f["spec_pc"]]
        frontend.next_seq = d[f["next_seq"]]
        frontend.diverged = bool(d[f["diverged"]])
        sim.fdip.next_scan_seq = d[f["next_scan_seq"]]
        ras = sim.bpu.ras
        ras._stack = self._ras[: d[f["ras_len"]]].tolist()
        ras.overflows = d[f["ras_overflows"]]
        ras.underflows = d[f["ras_underflows"]]


class _UDPState:
    """UDP's state inside the driver (a ``UdpState`` descriptor).

    Imported from the :class:`~repro.core.udp.UDPFilter` on the clean
    machine; :meth:`sync` writes it back at every exit.  The Bloom bit
    arrays are the filters' own bytearrays, used in place.  The
    infinite-storage exact set becomes a byte map over the program's code
    lines: every line it can hold -- warmed, retired or fetched -- lies in
    ``[code_start & ~63, code_end)``.
    """

    _SIZES = (1, 2, 4)  # the Bloom slots' super-block sizes

    def __init__(self, sim: "Simulator", layout: dict) -> None:
        udp = sim.udp
        config = udp.config
        useful_set = udp.useful_set
        seniority = udp.seniority
        coalescer = useful_set.coalescer
        filters = [useful_set.filters[size] for size in self._SIZES]
        self._fields = f = layout["udp_fields"]
        bloom_fields = layout["bloom_fields"]
        bloom_words = layout["bloom_words"]
        self._bloom_inserted = [
            f["bloom"] + k * bloom_words + bloom_fields["inserted"] for k in range(3)
        ]
        # Keeps each bytearray exported, so it cannot be resized under C.
        self._bloom_bits = [memoryview(bloom._array) for bloom in filters]
        self._seeds = [array("q", bloom._seeds) for bloom in filters]
        self._coal = zeros(coalescer.capacity + 1)
        self._sen = zeros(seniority.capacity)
        self._exact_base = sim.program.code_start & ~63
        self._exact = zeros((sim.program.code_end - self._exact_base + 63) // 64, "B")

        desc = zeros(layout["udp_words"])
        values = {
            "conf_counter": udp.estimator.counter,
            "forced": int(udp.estimator._forced_off_path),
            "window_unuseful": useful_set._window_unuseful,
            "window_total": useful_set._window_total,
            "coal_len": len(coalescer._lines),
            "sen_len": len(seniority),
            "sen_inserted": seniority.inserted,
            "sen_matched": seniority.matched,
            "sen_evicted": seniority.evicted,
            "threshold": config.confidence_threshold,
            "use_seniority": int(config.use_seniority),
            "use_superlines": int(coalescer.enable_superlines),
            "infinite": int(useful_set.infinite),
            "num_hashes": config.bloom_hashes,
            "coal_cap": coalescer.capacity,
            "sen_cap": seniority.capacity,
            "exact_base": self._exact_base,
            "exact_n": len(self._exact),
            "coal": address(self._coal),
            "sen": address(self._sen),
            "exact": address(self._exact),
        }
        for name, value in values.items():
            desc[f[name]] = value
        increments = (config.low_increment, config.medium_increment, config.high_increment)
        for k, increment in enumerate(increments):
            desc[f["incr"] + k] = increment
        view(desc, "d")[f["flush_ratio"]] = config.flush_unuseful_ratio
        buffer_address = cc.kernels().buffer_address
        for k, bloom in enumerate(filters):
            at = f["bloom"] + k * bloom_words
            desc[at + bloom_fields["bits"]] = buffer_address(bloom._array)
            desc[at + bloom_fields["mask"]] = bloom._mask
            desc[at + bloom_fields["inserted"]] = bloom.inserted
            desc[at + bloom_fields["capacity"]] = bloom.capacity
            desc[at + bloom_fields["seeds"]] = address(self._seeds[k])
        put(self._coal, coalescer._lines)
        put(self._sen, seniority._entries)
        for line in useful_set._exact:
            slot = (line - self._exact_base) >> 6
            if line < self._exact_base or slot >= len(self._exact):
                raise SimulationError("useful-set line outside the code region")
            self._exact[slot] = 1
        self._dmv = memoryview(desc)  # keeps the descriptor array alive
        self.desc = address(desc)

    def sync(self, udp: "UDPFilter") -> None:
        """Write the driver's UDP state back into ``udp``."""
        d = self._dmv
        f = self._fields
        estimator = udp.estimator
        estimator.counter = d[f["conf_counter"]]
        estimator._forced_off_path = bool(d[f["forced"]])
        useful_set = udp.useful_set
        useful_set._window_unuseful = d[f["window_unuseful"]]
        useful_set._window_total = d[f["window_total"]]
        for size, at in zip(self._SIZES, self._bloom_inserted):
            useful_set.filters[size].inserted = d[at]
        useful_set.coalescer._lines = OrderedDict.fromkeys(
            self._coal[: d[f["coal_len"]]].tolist()
        )
        if useful_set.infinite:
            base = self._exact_base
            useful_set._exact.update(
                base + (slot << 6) for slot in compress(range(len(self._exact)), self._exact)
            )
        seniority = udp.seniority
        seniority._entries = OrderedDict.fromkeys(self._sen[: d[f["sen_len"]]].tolist())
        seniority.inserted = d[f["sen_inserted"]]
        seniority.matched = d[f["sen_matched"]]
        seniority.evicted = d[f["sen_evicted"]]
