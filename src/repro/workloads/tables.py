"""A program's ground truth as flat columns: the format and its checks.

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

This module owns that format.  :func:`checked_columns` validates every
program's buffers, built or stored, before anything reads them
(everything C relies on): the format in Python, the rest in one C pass
(``check_columns``, ``kernels/tables.c``) wherever the kernels build and
in Python otherwise (:mod:`repro.workloads.checks`), both raising from one
message table; and :class:`ProgramTables` is the C ``ProgTables``
descriptor over the program's own buffers.  The program store pickles only
the buffers.  The block view -- building the buffers from blocks
(``flatten``) and the blocks back from them (``unflatten``) -- is
:mod:`repro.workloads.blocks`, which a compiled run over a stored program
never loads.

:func:`program_cache` is the per-process memo of what is derived from a
program alone: a dict attached weakly to the program object (programs are
themselves memoized per process by :mod:`repro.workloads.store`), holding
the backend's load-dependence flag table, one per (seed, threshold)
(:func:`repro.backend.core.dep_flags`), the driver's
:class:`ProgramTables` with its block index, and ``sw-profile``'s offline
profile.
"""

from __future__ import annotations

import weakref
from array import array

from repro.common.packed import address, zeros
from repro.workloads.program import BranchKind, Program

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


# -- validate: buffers -> columns -----------------------------------------------

# What each load check reports, by number: check_columns (kernels/tables.c)
# and checks.first_failure make the checks in this order and return the number
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
    ``REPRO_NO_COMPILED``) by :func:`repro.workloads.checks.first_failure`,
    its oracle.  So checking a program in a process that has not built the
    kernels yet builds them there, as its first simulation would.  Both
    report the first failure in the order above, with one message
    (:data:`_FAILURES`).
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
        from repro.workloads import checks  # the fallback loads only where it runs

        failure = checks.first_failure(entry, columns)
    else:
        failure = kernels.check_columns(
            address(blocks), len(blocks), address(nodes), len(nodes),
            address(targets), len(targets), len(ops), entry,
        )
    if failure:
        raise ValueError(_FAILURES[failure].format(entry=entry))
    return columns


# -- the C descriptor ---------------------------------------------------------------


class ProgramTables:
    """The C ``ProgTables`` descriptor over one program's own buffers.

    ``desc`` is its address; it stays valid for this object's lifetime,
    which holds the program's columns.  It also holds the driver's block
    index, built here in one C pass (``index_blocks``): per 64-byte line of
    the code region, the block holding the line's first byte, so the
    driver's ``block_at`` is one read plus a scan within the line.  The
    index derives from the columns alone and is never stored.
    """

    def __init__(self, program: Program, kernels) -> None:
        columns = program.columns
        layout = kernels.driver_layout()
        fields = layout["prog_fields"]
        line_base = program.code_start & -64
        n_lines = (program.code_end - line_base + 63) >> 6
        self._line_block = zeros(n_lines)
        di = zeros(layout["prog_words"])
        for name, value in (
            ("n_blocks", columns.n_blocks),
            ("code_start", program.code_start),
            ("code_end", program.code_end),
            ("entry", program.entry),
            ("ops", kernels.buffer_address(columns.ops)),
            ("targets", address(columns.targets)),
            ("line_base", line_base),
            ("n_lines", n_lines),
            ("line_block", address(self._line_block)),
        ):
            di[fields[name]] = value
        for names, table in ((BLOCK_COLUMNS, columns.blocks), (NODE_COLUMNS, columns.nodes)):
            base, length = address(table), len(table) // len(names)
            for k, name in enumerate(names):
                di[fields[name]] = base + 8 * k * length
        self._columns = columns
        self._di = di
        self.desc = address(di)
        kernels.index_blocks(self.desc)


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
