"""A program's ground truth as flat columns: the format, its checks, its view.

A :class:`~repro.workloads.program.Program` holds its blocks, branches and
behaviours as the flat columns the compiled cycle driver reads
(``repro/common/kernels/driver.c``), in a :class:`Columns`:

* per block: start address, instruction count, branch kind (-1: none),
  direct target, behaviour node (a COND's direction, an indirect branch's
  target selector; -1: none), and the offset and count of its indirect
  targets;
* per instruction: one op byte, indexed by ``(pc - code_start) >> 2``;
* per behaviour node: kind (the ``B_*`` enum below, which mirrors
  driver.c's), seed, ``f``, ``a``, ``b`` and ``c``;
* the indirect targets.

This module owns that format.  :func:`flatten` builds the buffers when a
program is built from blocks; :func:`checked_columns` validates every
program's buffers, built or stored, before anything reads them
(everything C relies on): the format in Python, the rest in one C pass
(``check_columns``, ``kernels/tables.c``) wherever the kernels build and
in Python otherwise, both raising from one message table;
:func:`unflatten` builds the :class:`~repro.workloads.program.BasicBlock`
view back, the first time Python walks a program; and
:class:`ProgramTables` is the C ``ProgTables`` descriptor over the
program's own buffers.  The program store pickles only the buffers.

:func:`program_cache` is the per-process memo of what is derived from a
program alone: a dict attached weakly to the program object (programs are
themselves memoized per process by :mod:`repro.workloads.store`), holding
the backend's load-dependence flag table, one per (seed, threshold)
(:func:`repro.backend.core.dep_flags`), the driver's
:class:`ProgramTables`, and ``sw-profile``'s offline profile.
"""

from __future__ import annotations

import gc
import math
import weakref
from array import array
from itertools import compress, repeat
from operator import add, mul

from repro.common.addr import INSTR_BYTES
from repro.common.errors import ProgramError
from repro.common.packed import address, zeros
from repro.workloads.program import BasicBlock, Branch, BranchKind, Program

_MASK64 = (1 << 64) - 1

_CACHE: "weakref.WeakKeyDictionary[Program, dict]" = weakref.WeakKeyDictionary()

# Behaviour node kinds; must match the enum in kernels/driver.c.
(
    B_ALWAYS, B_BIASED, B_LOOP, B_PATTERN, B_PHASED,
    B_FIXED, B_WEIGHTED, B_ZIPF, B_ROTATING,
) = range(9)
_DIRECTIONS = frozenset(range(B_ALWAYS, B_PHASED + 1))
_SELECTORS = frozenset(range(B_FIXED, B_ROTATING + 1))

# Per-block columns: consecutive runs of one int64 array, one allocation
# (several arrays of a few hundred KiB each would pin malloc arenas and
# raise peak RSS).  Per-node columns likewise.
BLOCK_COLUMNS = ("addr", "ninstr", "kind", "target", "behavior", "targets_off", "targets_n")
NODE_COLUMNS = ("node_kind", "node_seed", "node_f", "node_a", "node_b", "node_c")

# Code addresses stay below this, as user space does on x86-64: C adds to
# them in int64, and per-pc tables (the backend's dependence flags) are
# indexed from address 0.
_ADDRESS_LIMIT = 1 << 48

_COND = int(BranchKind.COND)
_INDIRECT = frozenset({int(BranchKind.INDIRECT), int(BranchKind.INDIRECT_CALL)})
_DIRECT = frozenset({_COND, int(BranchKind.JUMP), int(BranchKind.CALL)})
_KINDS = frozenset({-1, *map(int, BranchKind)})


def program_cache(program: Program) -> dict:
    """The per-process memo dict of ``program`` (dropped with the program)."""
    cache = _CACHE.get(program)
    if cache is None:
        cache = _CACHE[program] = {}
    return cache


class Columns:
    """A program's flat columns over its four buffers.

    ``blocks`` holds the per-block columns (:data:`BLOCK_COLUMNS`) as
    consecutive runs of one ``int64`` array, ``nodes`` the per-node ones
    (:data:`NODE_COLUMNS`), ``ops`` the op bytes and ``targets`` the
    indirect targets.  Each named column is a read-only memoryview into its
    buffer; ``node_seed`` reads ``uint64`` and ``node_f`` ``double``.
    """

    __slots__ = ("blocks", "ops", "nodes", "targets", "n_blocks", *BLOCK_COLUMNS, *NODE_COLUMNS)

    def __init__(self, blocks: array, ops: bytes, nodes: array, targets: array) -> None:
        self.blocks, self.ops, self.nodes, self.targets = blocks, ops, nodes, targets
        self.n_blocks = len(blocks) // len(BLOCK_COLUMNS)
        for names, table in ((BLOCK_COLUMNS, blocks), (NODE_COLUMNS, nodes)):
            for name, column in zip(names, _split(table, len(names))):
                setattr(self, name, column)
        self.node_seed = self.node_seed.cast("B").cast("Q")
        self.node_f = self.node_f.cast("B").cast("d")

    def state(self) -> tuple:
        """The four buffers: what the program store pickles."""
        return self.blocks, self.ops, self.nodes, self.targets


def _split(table: array, count: int) -> list[memoryview]:
    """``table`` as ``count`` consecutive, equally long read-only columns."""
    items = memoryview(table).toreadonly()
    length = len(table) // count
    return [items[k * length:(k + 1) * length] for k in range(count)]


# -- flatten: blocks -> columns ----------------------------------------------


class _Nodes:
    """Flat behaviour-node columns; one node per distinct behaviour object
    (the classes of :mod:`repro.workloads.behavior`, passed in as
    ``behaviors``).  The nodes' parameters are checked with the rest of the
    columns, by :func:`checked_columns`."""

    def __init__(self, behaviors) -> None:
        self.behaviors = behaviors
        self.columns: tuple[list, ...] = tuple([] for _ in NODE_COLUMNS)
        self._ids: dict[int, int] = {}  # id(behaviour) -> node; the blocks hold them

    def _add(self, kind, seed=0, f=0.0, a=0, b=0, c=0) -> int:
        for column, value in zip(self.columns, (kind, seed & _MASK64, f, a, b, c)):
            column.append(value)
        return len(self.columns[0]) - 1

    def _memo(self, behavior, build) -> int:
        node = self._ids.get(id(behavior))
        if node is None:
            node = self._ids[id(behavior)] = build()
        return node

    def direction(self, behavior) -> int:
        def build() -> int:
            b = self.behaviors
            cls = type(behavior)
            if cls is b.AlwaysTaken:
                return self._add(B_ALWAYS)
            if cls is b.BiasedBehavior:
                return self._add(B_BIASED, behavior.seed, behavior.p_taken)
            if cls is b.LoopBehavior:
                return self._add(B_LOOP, a=behavior.trip_count)
            if cls is b.PatternBehavior:
                return self._add(
                    B_PATTERN, behavior.seed, behavior.noise,
                    a=behavior.pattern, b=behavior.length,
                )
            if cls is b.PhasedBehavior:
                first = self.direction(behavior.first)
                second = self.direction(behavior.second)
                return self._add(
                    B_PHASED, a=behavior.phase_length, b=first, c=second
                )
            raise ProgramError(f"direction behaviour {cls.__name__} has no node kind")

        return self._memo(behavior, build)

    def selector(self, behavior) -> int:
        b = self.behaviors
        cls = type(behavior)
        if cls is b.FixedTarget:
            # One node per branch, not per behaviour object, as stored
            # programs number them.
            return self._add(B_FIXED, a=behavior.index)

        def build() -> int:
            if cls is b.WeightedTargets:
                return self._add(B_WEIGHTED, behavior.seed, behavior.hot_fraction)
            if cls is b.ZipfTargets:
                return self._add(B_ZIPF, behavior.seed, behavior.alpha)
            if cls is b.RotatingTargets:
                return self._add(B_ROTATING)
            raise ProgramError(f"target behaviour {cls.__name__} has no node kind")

        return self._memo(behavior, build)

    def table(self) -> array:
        """The node columns as one ``int64`` array (seeds and ``f`` as bits)."""
        kind, seed, f, a, b, c = self.columns
        try:
            table = array("q", kind)
            table.frombytes(array("Q", seed).tobytes())
            table.frombytes(array("d", f).tobytes())
            for column in (a, b, c):
                table.extend(column)
        except OverflowError:
            raise ProgramError("a behaviour parameter is outside int64") from None
        return table


def flatten(blocks: list[BasicBlock]) -> tuple[array, bytes, array, array]:
    """The buffers of ``blocks`` (sorted, with one op byte per instruction),
    in :class:`Columns` order and not yet checked.

    Raises :class:`~repro.common.errors.ProgramError` for a branch
    behaviour with no node kind, or a value outside int64.
    """
    # The behaviour classes load with a program built from blocks (or with
    # a view, in _behaviours), never for a run over stored columns.
    from repro.workloads import behavior as behaviors

    n = len(blocks)
    kind, target, behavior = [-1] * n, [0] * n, [-1] * n
    targets_off, targets_n = [0] * n, [0] * n
    targets: list[int] = []
    nodes = _Nodes(behaviors)
    for i, block in enumerate(blocks):
        branch = block.branch
        if branch is None:
            continue
        kind[i] = int(branch.kind)
        target[i] = branch.target
        if branch.kind == BranchKind.COND:
            behavior[i] = nodes.direction(branch.direction)
        elif branch.kind.is_indirect:
            behavior[i] = nodes.selector(branch.target_behavior)
            targets_off[i] = len(targets)
            targets_n[i] = len(branch.targets)
            targets.extend(branch.targets)
    try:
        table = array("q", [b.addr for b in blocks])
        for column in ([b.num_instrs for b in blocks], kind, target, behavior, targets_off, targets_n):
            table.extend(column)
        targets_table = array("q", targets)
    except OverflowError:
        raise ProgramError("a block address or branch target is outside int64") from None
    ops = b"".join(block.ops for block in blocks)
    return table, ops, nodes.table(), targets_table


# -- validate: buffers -> columns -----------------------------------------------

# What each load check reports, by number: check_columns (kernels/tables.c)
# and _first_failure make the checks in this order and return the number
# of the first that fails (0: none), and checked_columns raises its message.
_FAILURES = (
    "",
    "empty or unaligned block",
    "blocks do not tile the code region",
    "code region outside the address space",
    "not one op byte per instruction",
    "entry {entry:#x} outside the code region",
    "branch kind out of range",
    "an indirect target is not a block start",
    "a direct target is not a block start",
    "non-finite behaviour parameter",
    "pattern node's pattern outside 63 bits",
    "pattern node's length not positive",
    "phased node's phase length not positive",
    "phased node without earlier direction children",
    "a conditional branch without a direction node",
    "an indirect branch without a selector node",
    "indirect targets outside the targets array",
    "fixed target index out of range",
)
(
    _EMPTY_OR_UNALIGNED, _NOT_TILED, _REGION, _OPS, _ENTRY, _KIND,
    _INDIRECT_TARGET, _DIRECT_TARGET, _NON_FINITE, _PATTERN, _PATTERN_LENGTH,
    _PHASE_LENGTH, _PHASED_CHILDREN, _COND_NODE, _SELECTOR, _TARGETS_RANGE,
    _FIXED_INDEX,
) = range(1, len(_FAILURES))

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def checked_columns(entry, blocks, ops, nodes, targets) -> Columns:
    """A program's buffers as :class:`Columns`, checked first.

    Raises :class:`ValueError` unless everything C relies on holds: the
    buffers have the format's types and whole columns, and the entry is an
    int64; the blocks tile the code region with positive instruction
    counts, the region lies in ``[0, 2**48)``, and there is one op byte per
    instruction; the entry lies in the code; branch kinds are in range;
    direct and indirect targets are block starts; every node's parameters
    are ones C computes with (a finite ``f``, positive pattern and phase
    lengths) and a phased node's children are earlier direction nodes;
    every COND and indirect branch has a behaviour node of its family (a
    direction, a selector); each indirect branch's targets lie inside the
    targets array, and a fixed index inside them.

    The format is checked here, the rest by ``check_columns`` in C wherever
    the kernels build, and otherwise (no compiler, or
    ``REPRO_NO_COMPILED``) by :func:`_first_failure`, its oracle.  So
    checking a program in a process that has not built the kernels yet
    builds them there, as its first simulation would.  Both report the
    first failure in the order above, with one message (:data:`_FAILURES`).
    """
    from repro.common import cc

    if not (
        type(entry) is int and type(ops) is bytes
        and all(type(buf) is array and buf.typecode == "q" for buf in (blocks, nodes, targets))
    ):
        raise ValueError("program buffers are not the flat format")
    if not blocks or len(blocks) % len(BLOCK_COLUMNS) or len(nodes) % len(NODE_COLUMNS):
        raise ValueError("truncated program column")
    if not _INT64_MIN <= entry <= _INT64_MAX:  # C takes an int64, and the code lies inside
        raise ValueError(_FAILURES[_ENTRY].format(entry=entry))
    columns = Columns(blocks, ops, nodes, targets)
    kernels = cc.kernels()
    if kernels is None:
        failure = _first_failure(entry, columns)
    else:
        failure = kernels.check_columns(
            address(blocks), len(blocks), address(nodes), len(nodes),
            address(targets), len(targets), len(ops), entry,
        )
    if failure:
        raise ValueError(_FAILURES[failure].format(entry=entry))
    return columns


def _first_failure(entry: int, columns: Columns) -> int:
    """The number of the first check ``columns`` fail (0: none), in
    :data:`_FAILURES` order: ``check_columns``'s checks in Python."""
    starts, counts = columns.addr.tolist(), columns.ninstr.tolist()
    if min(counts) <= 0 or starts[0] % INSTR_BYTES:
        return _EMPTY_OR_UNALIGNED
    ends = list(map(add, starts, map(mul, counts, repeat(INSTR_BYTES))))
    if ends[:-1] != starts[1:]:
        return _NOT_TILED
    if not 0 <= starts[0] <= ends[-1] <= _ADDRESS_LIMIT:
        return _REGION
    if len(columns.ops) != (ends[-1] - starts[0]) // INSTR_BYTES:
        return _OPS
    if not starts[0] <= entry < ends[-1]:
        return _ENTRY
    kinds = columns.kind.tolist()
    if not _KINDS.issuperset(kinds):
        return _KIND
    block_starts = set(starts)
    if not block_starts.issuperset(columns.targets):
        return _INDIRECT_TARGET
    direct = compress(columns.target.tolist(), map(_DIRECT.__contains__, kinds))
    if not block_starts.issuperset(direct):
        return _DIRECT_TARGET
    node_kinds = columns.node_kind.tolist()
    failure = _first_node_failure(columns, node_kinds)
    if failure:
        return failure
    m, t = len(node_kinds), len(columns.targets)
    behavior = columns.behavior.tolist()
    cond = list(compress(behavior, map(_COND.__eq__, kinds)))
    if cond and not (
        0 <= min(cond) and max(cond) < m
        and _DIRECTIONS.issuperset(map(node_kinds.__getitem__, cond))
    ):
        return _COND_NODE
    first, count, fixed = columns.targets_off, columns.targets_n, columns.node_a
    for i in compress(range(len(kinds)), map(_INDIRECT.__contains__, kinds)):
        node, n = behavior[i], count[i]
        if not (0 <= node < m and node_kinds[node] in _SELECTORS):
            return _SELECTOR
        if not (n > 0 and 0 <= first[i] <= t - n):
            return _TARGETS_RANGE
        if node_kinds[node] == B_FIXED and not -n <= fixed[node] < n:
            return _FIXED_INDEX
    return 0


def _first_node_failure(columns: Columns, node_kinds: list[int]) -> int:
    if not all(map(math.isfinite, columns.node_f.tolist())):
        return _NON_FINITE
    a, b, c = columns.node_a.tolist(), columns.node_b.tolist(), columns.node_c.tolist()
    for j, kind in enumerate(node_kinds):
        if kind == B_PATTERN:
            if a[j] < 0:
                return _PATTERN
            if b[j] <= 0:
                return _PATTERN_LENGTH
        elif kind == B_PHASED:
            if a[j] <= 0:
                return _PHASE_LENGTH
            if not (
                0 <= b[j] < j and 0 <= c[j] < j
                and node_kinds[b[j]] in _DIRECTIONS and node_kinds[c[j]] in _DIRECTIONS
            ):
                return _PHASED_CHILDREN
    return 0


# -- unflatten: columns -> the object view ----------------------------------------


def unflatten(program: Program) -> list[BasicBlock]:
    """``program``'s :class:`BasicBlock` view, built from its columns.

    One block per column entry, in address order with its ``index``; one
    :class:`Branch` per branch; one behaviour object per node, shared by
    the branches that share it.  A block's ``ops`` are its slice of the op
    bytes.  Built with the cyclic GC paused: none of the tens of thousands
    of objects is garbage, and the collector would scan them several times
    over while they are built.
    """
    columns = program.columns
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        behaviours = _behaviours(columns)
        ops, targets = columns.ops, columns.targets.tolist()
        kinds = tuple(BranchKind)  # indexed by value
        blocks: list[BasicBlock] = []
        append = blocks.append
        offset = 0
        rows = zip(*(getattr(columns, name).tolist() for name in BLOCK_COLUMNS))
        for index, (start, count, kind, target, node, first, n) in enumerate(rows):
            branch = None
            if kind >= 0:
                pc = start + (count - 1) * INSTR_BYTES
                if kind == _COND:
                    branch = Branch(pc, kinds[kind], target, behaviours[node])
                elif kind in _INDIRECT:
                    branch = Branch(
                        pc, kinds[kind], target, None,
                        tuple(targets[first:first + n]), behaviours[node],
                    )
                else:
                    branch = Branch(pc, kinds[kind], target)
            append(BasicBlock(start, count, branch, ops[offset:offset + count], index))
            offset += count
        return blocks
    finally:
        if gc_was_enabled:
            gc.enable()


def _behaviours(columns: Columns) -> list:
    """One behaviour object per node; a phased node's children come first."""
    from repro.workloads import behavior as behaviors

    built: list = []
    for kind, seed, f, a, b, c in zip(*(getattr(columns, name).tolist() for name in NODE_COLUMNS)):
        if kind == B_ALWAYS:
            behaviour = behaviors.AlwaysTaken()
        elif kind == B_BIASED:
            behaviour = behaviors.BiasedBehavior(seed, f)
        elif kind == B_LOOP:
            behaviour = behaviors.LoopBehavior(a)
        elif kind == B_PATTERN:
            behaviour = behaviors.PatternBehavior(seed, a, b, f)
        elif kind == B_PHASED:
            behaviour = behaviors.PhasedBehavior(built[b], built[c], a)
        elif kind == B_FIXED:
            behaviour = behaviors.FixedTarget(a)
        elif kind == B_WEIGHTED:
            behaviour = behaviors.WeightedTargets(seed, f)
        elif kind == B_ZIPF:
            behaviour = behaviors.ZipfTargets(seed, f)
        else:
            behaviour = behaviors.RotatingTargets()
        built.append(behaviour)
    return built


# -- the C descriptor ---------------------------------------------------------------


class ProgramTables:
    """The C ``ProgTables`` descriptor over one program's own buffers.

    ``desc`` is its address; it stays valid for this object's lifetime,
    which holds the program's columns.
    """

    def __init__(self, program: Program, kernels) -> None:
        columns = program.columns
        layout = kernels.driver_layout()
        fields = layout["prog_fields"]
        di = zeros(layout["prog_words"])
        for name, value in (
            ("n_blocks", columns.n_blocks),
            ("code_start", program.code_start),
            ("code_end", program.code_end),
            ("entry", program.entry),
            ("ops", kernels.buffer_address(columns.ops)),
            ("targets", address(columns.targets)),
        ):
            di[fields[name]] = value
        for names, table in ((BLOCK_COLUMNS, columns.blocks), (NODE_COLUMNS, columns.nodes)):
            base, length = address(table), len(table) // len(names)
            for k, name in enumerate(names):
                di[fields[name]] = base + 8 * k * length
        self._columns = columns
        self._di = di
        self.desc = address(di)


def program_tables(program: Program) -> ProgramTables | None:
    """The driver's tables for ``program``; None when there are no kernels."""
    from repro.common import cc

    kernels = cc.kernels()
    if kernels is None:
        return None
    cache = program_cache(program)
    tables = cache.get("driver_tables")
    if tables is None:
        tables = cache["driver_tables"] = ProgramTables(program, kernels)
    return tables
