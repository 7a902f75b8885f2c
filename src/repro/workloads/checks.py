"""A program's load checks in Python: the C checker's oracle and fallback.

:func:`repro.workloads.tables.checked_columns` checks a program's format in
Python and the rest in one C pass (``check_columns``,
``kernels/tables.c``) wherever the kernels build.  :func:`first_failure`
makes the same checks in the same order where they do not (no compiler, or
``REPRO_NO_COMPILED``), and is the reference the C pass is tested against
(``tests/workloads/test_load_checks.py``); a process that checks in C never
imports it.
"""

from __future__ import annotations

import math
from itertools import compress, repeat
from operator import add, mul

from repro.common.addr import INSTR_BYTES
from repro.workloads.tables import (
    _ADDRESS_LIMIT,
    _COND,
    _COND_NODE,
    _DIRECT,
    _DIRECT_TARGET,
    _DIRECTIONS,
    _EMPTY_OR_UNALIGNED,
    _ENTRY,
    _FIXED_INDEX,
    _INDIRECT,
    _INDIRECT_TARGET,
    _KIND,
    _KINDS,
    _NON_FINITE,
    _NOT_TILED,
    _OPS,
    _PATTERN,
    _PATTERN_LENGTH,
    _PHASE_LENGTH,
    _PHASED_CHILDREN,
    _REGION,
    _SELECTOR,
    _SELECTORS,
    _TARGETS_RANGE,
    B_FIXED,
    B_PATTERN,
    B_PHASED,
    Columns,
)


def first_failure(entry: int, columns: Columns) -> int:
    """The number of the first check ``columns`` fail (0: none), in
    :data:`~repro.workloads.tables._FAILURES` order: ``check_columns``'s
    checks in Python."""
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
