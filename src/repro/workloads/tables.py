"""Read-only per-program tables for the compiled kernels, built once per process.

A :class:`~repro.workloads.program.Program` is immutable, so anything
derived from it alone can be computed once and shared by every simulator
in the process.  :func:`program_cache` is that memo: a dict attached
weakly to the program object (programs are themselves memoized per
process by :mod:`repro.workloads.store`), holding

* the backend's load-dependence flag table, one per (seed, threshold)
  (:func:`repro.backend.core.dep_flags`), and
* the :class:`ProgramTables` the compiled cycle driver walks
  (``repro/common/kernels/driver.c``): block layout, branch kinds and
  static targets, and every branch behaviour compiled to a flat node
  array.

Nothing here is per instruction: block arrays are per basic block, op
bytes are pointed to in place (the program's own ``bytes`` objects), and
behaviours are per static branch.  The program-store format is untouched.
"""

from __future__ import annotations

import weakref
from array import array

from repro.common.packed import address, zeros
from repro.workloads.behavior import (
    AlwaysTaken,
    BiasedBehavior,
    FixedTarget,
    LoopBehavior,
    PatternBehavior,
    PhasedBehavior,
    RotatingTargets,
    WeightedTargets,
    ZipfTargets,
)
from repro.workloads.program import BranchKind, Program

_MASK64 = (1 << 64) - 1
_INT64_MAX = (1 << 63) - 1

_CACHE: "weakref.WeakKeyDictionary[Program, dict]" = weakref.WeakKeyDictionary()

# Behaviour node kinds; must match the enum in kernels/driver.c.
(
    B_ALWAYS, B_BIASED, B_LOOP, B_PATTERN, B_PHASED,
    B_FIXED, B_WEIGHTED, B_ZIPF, B_ROTATING,
) = range(9)


def program_cache(program: Program) -> dict:
    """The per-process memo dict of ``program`` (dropped with the program)."""
    cache = _CACHE.get(program)
    if cache is None:
        cache = _CACHE[program] = {}
    return cache


class _Unsupported(Exception):
    """A branch behaviour (or parameter) the compiled tables cannot express."""


class _Nodes:
    """Flat behaviour-node columns; one node per distinct behaviour object."""

    def __init__(self) -> None:
        self.kind: list[int] = []
        self.seed: list[int] = []
        self.f: list[float] = []
        self.a: list[int] = []
        self.b: list[int] = []
        self.c: list[int] = []
        self._ids: dict[int, int] = {}  # id(behaviour) -> node; the program holds them

    def _add(self, kind, seed=0, f=0.0, a=0, b=0, c=0) -> int:
        for value in (a, b, c):
            if not -_INT64_MAX <= value <= _INT64_MAX:
                raise _Unsupported("behaviour parameter outside int64")
        self.kind.append(kind)
        self.seed.append(seed & _MASK64)
        self.f.append(float(f))
        self.a.append(a)
        self.b.append(b)
        self.c.append(c)
        return len(self.kind) - 1

    def _memo(self, behavior, build) -> int:
        node = self._ids.get(id(behavior))
        if node is None:
            node = self._ids[id(behavior)] = build()
        return node

    def direction(self, behavior) -> int:
        def build() -> int:
            cls = type(behavior)
            if cls is AlwaysTaken:
                return self._add(B_ALWAYS)
            if cls is BiasedBehavior:
                return self._add(B_BIASED, behavior.seed, behavior.p_taken)
            if cls is LoopBehavior:
                return self._add(B_LOOP, a=behavior.trip_count)
            if cls is PatternBehavior:
                if not 0 <= behavior.pattern <= _INT64_MAX or behavior.length <= 0:
                    raise _Unsupported("pattern outside 63 bits")
                return self._add(
                    B_PATTERN, behavior.seed, behavior.noise,
                    a=behavior.pattern, b=behavior.length,
                )
            if cls is PhasedBehavior:
                if behavior.phase_length <= 0:
                    raise _Unsupported("non-positive phase length")
                first = self.direction(behavior.first)
                second = self.direction(behavior.second)
                return self._add(
                    B_PHASED, a=behavior.phase_length, b=first, c=second
                )
            raise _Unsupported(f"direction behaviour {cls.__name__}")

        return self._memo(behavior, build)

    def selector(self, behavior, num_targets: int) -> int:
        cls = type(behavior)
        if cls is FixedTarget:
            # Per branch: the index is range-checked against its own targets.
            if not -num_targets <= behavior.index < num_targets:
                raise _Unsupported("fixed target index out of range")
            return self._add(B_FIXED, a=behavior.index)

        def build() -> int:
            if cls is WeightedTargets:
                return self._add(B_WEIGHTED, behavior.seed, behavior.hot_fraction)
            if cls is ZipfTargets:
                return self._add(B_ZIPF, behavior.seed, behavior.alpha)
            if cls is RotatingTargets:
                return self._add(B_ROTATING)
            raise _Unsupported(f"target behaviour {cls.__name__}")

        return self._memo(behavior, build)


class ProgramTables:
    """One program's ground truth as flat arrays plus their C descriptor.

    ``desc`` is the address of a ``ProgTables`` descriptor
    (``kernels/driver.c``) pointing into the arrays this object owns; it
    stays valid for the object's lifetime.
    """

    # Per-block columns, consecutive runs of one array (one allocation).
    _BLOCK_COLUMNS = (
        "addr", "ninstr", "ops", "kind", "target", "behavior", "targets_off",
        "targets_n",
    )
    # Per-node columns, likewise.
    _NODE_COLUMNS = ("node_kind", "node_seed", "node_f", "node_a", "node_b", "node_c")

    def __init__(self, program: Program, kernels) -> None:
        blocks = program.blocks
        n = len(blocks)
        nodes = _Nodes()
        # Long-lived, so each table is one allocation: several arrays of a
        # few hundred KiB each would pin malloc arenas and raise peak RSS.
        self._blocks = zeros(len(self._BLOCK_COLUMNS) * n)
        columns, pointers = _split(self._blocks, self._BLOCK_COLUMNS, n)
        kind = columns["kind"]
        target = columns["target"]
        behavior = columns["behavior"]
        targets_off = columns["targets_off"]
        targets_n = columns["targets_n"]
        kind[:] = behavior[:] = zeros(n, fill=-1)
        targets: list[int] = []
        for i, block in enumerate(blocks):
            branch = block.branch
            if branch is None:
                continue
            kind[i] = int(branch.kind)
            target[i] = branch.target
            if branch.kind == BranchKind.COND:
                if branch.direction is None:
                    raise _Unsupported("conditional branch without a direction")
                behavior[i] = nodes.direction(branch.direction)
            elif branch.kind.is_indirect:
                if branch.target_behavior is None:
                    raise _Unsupported("indirect branch without a selector")
                behavior[i] = nodes.selector(branch.target_behavior, len(branch.targets))
                targets_off[i] = len(targets)
                targets_n[i] = len(branch.targets)
                targets.extend(branch.targets)
        columns["addr"][:] = array("q", [b.addr for b in blocks])
        columns["ninstr"][:] = array("q", [b.num_instrs for b in blocks])
        # Raw pointers into the program's own op bytes, which live as long
        # as the program (and so as long as these tables, see _CACHE).
        kernels.bytes_addresses([b.ops for b in blocks], pointers["ops"])
        self.targets = array("q", targets or [0])
        m = max(len(nodes.kind), 1)
        self._nodes = zeros(len(self._NODE_COLUMNS) * m)
        node_columns, node_pointers = _split(self._nodes, self._NODE_COLUMNS, m)
        if nodes.kind:
            node_columns["node_kind"][:] = array("q", nodes.kind)
            node_columns["node_seed"].cast("B").cast("Q")[:] = array("Q", nodes.seed)
            node_columns["node_f"].cast("B").cast("d")[:] = array("d", nodes.f)
            node_columns["node_a"][:] = array("q", nodes.a)
            node_columns["node_b"][:] = array("q", nodes.b)
            node_columns["node_c"][:] = array("q", nodes.c)

        layout = kernels.driver_layout()
        fields = layout["prog_fields"]
        di = zeros(layout["prog_words"])
        di[fields["n_blocks"]] = n
        di[fields["code_start"]] = program.code_start
        di[fields["code_end"]] = program.code_end
        di[fields["entry"]] = program.entry
        di[fields["targets"]] = address(self.targets)
        for name, pointer in (*pointers.items(), *node_pointers.items()):
            di[fields[name]] = pointer
        self._di = di
        self.desc = address(di)


def _split(table: array, names: tuple, length: int) -> tuple[dict, dict]:
    """``table`` as consecutive columns of ``length`` items: by name, a
    writable memoryview of each and the address C reads it at."""
    items = memoryview(table)
    base = address(table)
    views = {name: items[k * length:(k + 1) * length] for k, name in enumerate(names)}
    pointers = {name: base + 8 * k * length for k, name in enumerate(names)}
    return views, pointers


def program_tables(program: Program) -> ProgramTables | None:
    """The driver's tables for ``program``; None when a behaviour is not
    compilable (simulators of such programs hold the object structures) or
    no kernels."""
    from repro.common import cc

    kernels = cc.kernels()
    if kernels is None:
        return None
    cache = program_cache(program)
    if "driver_tables" not in cache:
        try:
            cache["driver_tables"] = ProgramTables(program, kernels)
        except _Unsupported:
            cache["driver_tables"] = None
    return cache["driver_tables"]
