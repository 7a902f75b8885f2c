"""The compiled cycle driver: the Python side of its C calls.

:class:`CycleDriver` runs :meth:`Simulator.step`'s whole loop in one C
call (``run_cycles`` in ``repro/common/kernels/driver.c``) and returns to
Python only where Python must act: at the retire target, at a
``run_interval`` detailed-warmup boundary, or at the cycle limit.  Every exit
writes back what Python and the ledger read -- counters, ``cycle``, FTQ
occupancy and depth, the oracle position, the frontend/RAS scalars, the
two-level BTB's promotions, UDP's state and
``steps_executed``/``ff_jumps``/``ff_cycles_skipped`` -- while the pipeline
contents (FTQ entries, MSHRs, in-flight resteers) stay in C, so a compiled
simulator's frontend is only those scalars (:mod:`repro.frontend.compiled`).
The structures' buffers and the oracle's per-block occurrence counts need no
write-back: C updates them in place.

Every preset runs inside the loop.  UDP does (the confidence estimator,
the FDIP gate over the useful-set, the Seniority-FTQ retire hook and the
flush policy; :class:`_UDPState` carries their state across), and so do
the two-level BTB (a second BTB descriptor probed after an L1 miss), the
loop predictor (a table of its own) and the built-in comparators EIP,
MANA and shadow-btb (their native state holders,
:mod:`repro.prefetchers.compiled`).  Two participants stay in Python and
are called back synchronously: a plug-in registry technique, as its
:class:`~repro.prefetchers.registry.Capabilities` declare (the loop calls
``on_demand_access`` and ``on_line_filled`` where :meth:`Simulator.step`
does and applies the returned prefetch lines in C), and UFTQ's controller
(:meth:`~repro.core.uftq.UFTQController.on_event`, told of every on-path
demand miss, useful prefetch and useless eviction, returns the FTQ depth).
A callback that raises ends the run with its exception, after the
write-back.

The same loop runs the functional walk in C: :func:`functional_walk` is
:func:`repro.sim.stepper.walk_true_path` (the functional warmup and the
fast-forward, warming or not) as one call of ``functional_walk`` over a
descriptor of its own.  Everything the walk moved -- counters, the oracle
position, UDP's useful-set -- is written back before it returns, and
nothing stays in C.

A simulator holds the C structures exactly when it is compiled (the
kernels build and neither ``compiled=False`` nor ``REPRO_NO_COMPILED``
opts out, decided once, at construction: every program flattens to the
driver's tables), and the object structures, the oracle, otherwise;
counters are byte-identical either way (``tests/sim/test_driver.py``,
``tests/sim/test_fuzz_modes.py``).
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from functools import partial
from itertools import compress
from typing import TYPE_CHECKING

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


class _Machine:
    """A ``Driver`` descriptor over one simulator's structures and oracle.

    The part both C entry points share: the BTB (both levels of a
    two-level one), loop predictor, iBTB, TAGE, history, L1I, hierarchy and
    backend descriptors and the oracle's occurrence array (used in place),
    the program tables, the oracle position (pc, walked counts, call
    stack), the two-level BTB's promotion count, UDP's state, UFTQ's
    callback and the counter deltas.  The position, the promotions and UDP
    are imported from the Python objects, so only consistent on a clean
    machine; :meth:`_sync` writes them back.
    """

    def __init__(self, sim: "Simulator", layout: dict, values: dict) -> None:
        tables = program_tables(sim.program)
        bpu = sim.bpu
        oracle = sim.oracle
        self._tables = tables
        self._counter_names = layout["counters"]
        self._counters = zeros(len(self._counter_names))
        # Every counter the driver moves gets its slot now, in the driver's
        # order, so the counters' order never depends on which exit first
        # moved one (chained walks pickle like one direct walk).  The
        # comparators' own counters are the exception: like the object
        # techniques' bumps, a sync creates them once they moved.
        slots = sim.counters._values
        for name in self._counter_names[:layout["eager_counters"]]:
            slots.setdefault(name, 0)
        self._call_stack = zeros(oracle.max_stack)
        self._udp = _UDPState(sim, layout) if sim.udp is not None else None
        btb = bpu.btb
        self._btb_l2 = getattr(btb, "l2", None)  # None for a one-level BTB
        # Held here: C only has its address.
        self._on_uftq = sim.uftq.on_event if sim.uftq is not None else None

        desc = zeros(layout["driver_words"])
        values = {
            **values,
            "max_stack": oracle.max_stack,
            "ibtb_hist_bits": bpu.ibtb.history_bits,
            "btb": getattr(btb, "l1", btb)._desc,
            "btb2": self._btb_l2._desc if self._btb_l2 is not None else 0,
            "btb_promotions": getattr(btb, "promotions", 0),
            "loop": bpu.loop._desc if bpu.loop is not None else 0,
            "on_uftq": id(self._on_uftq) if self._on_uftq is not None else 0,
            "ibtb": bpu.ibtb._desc,
            "tage": bpu.tage._desc,
            "hist": bpu.history._desc,
            "l1i": sim.l1i._desc,
            "hier": sim.hierarchy._hdesc,
            "be": sim.backend._bdesc,
            "prog": tables.desc,
            "udp": self._udp.desc if self._udp is not None else 0,
            "counters": address(self._counters),
            "occ": address(oracle._occurrences),
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
        if self._btb_l2 is not None:
            sim.bpu.btb.promotions = d[f["btb_promotions"]]
        if self._udp is not None:
            self._udp.sync(sim.udp)


def functional_walk(
    sim: "Simulator", max_blocks: int, target: int, first_touch: bool, warm: bool
) -> None:
    """Run :func:`repro.sim.stepper.walk_true_path`'s loop as one C call.

    ``functional_walk`` in ``driver.c`` walks over a fresh descriptor, and
    everything it moved is written back before this returns, even when a
    signal handler raises mid-walk, so the walk leaves no state in C.
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
    exit.  The driver keeps no reference to the simulator, so a finished
    simulator and its arrays are freed as soon as the last reference
    drops, instead of waiting for a cyclic collection (which the driver's
    allocation-free loop rarely triggers).  It holds the callbacks, looked
    up on the technique and UFTQ objects here rather than on their
    classes, so a wrapper installed on a class before the simulator was
    built sees every call, and a native technique's holder, whose buffers
    C updates.
    """

    def __init__(self, sim: "Simulator") -> None:
        if sim.cycle != 0:
            raise SimulationError("the cycle driver must start on a clean machine")
        kernels = cc.kernels()
        layout = kernels.driver_layout()
        config = sim.config
        bpu = sim.bpu
        history = bpu.history

        self._ras = zeros(bpu.ras.capacity)
        ftq_cap = sim.ftq.max_physical
        self._ftq = zeros(ftq_cap * layout["ftq_entry_words"])
        mshr_cap = config.memory.l1i.mshr_entries
        self._mshr = zeros(mshr_cap * layout["mshr_entry_words"])
        pool = layout["resteer_pool"]
        self._resteers = zeros(pool * layout["resteer_words"])
        hist_words = len(history._words)
        self._resteer_hist = zeros(pool * (hist_words + history.num_folds))
        prefetcher = sim.prefetcher
        observer = sim._fill_observer
        native = sim.native_technique
        self._technique = prefetcher if native else None
        self._callbacks = (
            prefetcher.on_demand_access if prefetcher is not None and not native else None,
            observer.on_line_filled if observer is not None else None,
            partial(reject_prefetch_line, config.prefetcher.kind),
        )
        on_demand, on_fill, reject = (
            id(callback) if callback is not None else 0 for callback in self._callbacks
        )
        super().__init__(sim, layout, {
            **(prefetcher.driver_fields if native else {}),
            "width": config.core.frontend_width,
            "blocks_per_cycle": config.frontend.ftq_blocks_per_cycle,
            "fdip_lookups": config.frontend.fdip_lookups_per_cycle,
            "fdip_enabled": int(sim.fdip.enabled),
            "perfect_icache": int(config.frontend.perfect_icache),
            "pfc": int(config.frontend.post_fetch_correction),
            "max_cycles": config.cycle_limit,
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
    infinite-storage exact set becomes a byte map over the useful-set's
    ``code_lines``, the program's code lines.
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
        self._exact_base = useful_set.code_lines.start
        self._exact = zeros(len(useful_set.code_lines), "B")

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
