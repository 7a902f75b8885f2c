"""Packed per-set state: the C export/import against the object classes.

The compiled caches, BTB and iBTB build and load their checkpoint form with
one C call each (``ways_export``/``ways_import``); the object classes build
it in Python.  After any sequence of fills, touches and evictions at the
default geometries, the state must round-trip object -> C -> C (the
hand-off's buffer copy) -> object byte for byte, and the round trip must
rank every set's recency like the original, so both evict the same
victims next.  The compiled structures hold state only (the cycle driver
runs the sequences in C); tests/sim/test_fuzz_modes.py compares whole
driven runs, structure states included, against the object path.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch.btb import BranchTargetBuffer, IndirectTargetBuffer
from repro.branch.compiled import BranchTargetBufferC, IndirectTargetBufferC
from repro.common import cc
from repro.common.config import BranchConfig, MemoryConfig
from repro.memory.cache import SetAssocCache
from repro.memory.compiled import SetAssocCacheC
from repro.workloads.program import BranchKind

pytestmark = pytest.mark.skipif(cc.kernels() is None, reason="no C compiler on this host")

MEMORY = MemoryConfig()
BRANCH = BranchConfig()
CACHES = {"l1i": MEMORY.l1i, "l1d": MEMORY.l1d, "l2": MEMORY.l2, "llc": MEMORY.llc}

# Operation streams: (opcode, set choice, tag, payload).  Tags are drawn
# from a few more than the ways, and sets from both ends plus anywhere, so
# sets fill up and evict.
_SETS = st.one_of(st.sampled_from([0, 1, -1]), st.integers(0, 1 << 16))
_OPS = st.lists(
    st.tuples(st.integers(0, 4), _SETS, st.integers(0, 19), st.integers(0, 15)),
    max_size=300,
)
EXAMPLES = settings(max_examples=25, deadline=None)


def _slot(num_sets: int, choice: int, tag: int) -> int:
    """The index of ``tag`` in set ``choice`` (wrapped into the geometry)."""
    return tag * num_sets + choice % num_sets


def _apply_cache(cache, ops) -> list:
    seen = []
    for op, choice, tag, flags in ops:
        addr = _slot(cache.num_sets, choice, tag) << cache.line_shift
        if op <= 1:  # fill
            cache.install(
                addr,
                prefetch=bool(flags & 1),
                prefetch_off_path=bool(flags & 2),
                prefetch_udp_candidate=bool(flags & 4),
                dirty=bool(flags & 8),
            )
        elif op == 2:  # touch, clearing the prefetch bit as a demand hit does
            line = cache.lookup(addr)
            seen.append(line is not None)
            if line is not None and flags & 1:
                line.prefetch_bit = False
        elif op == 3:
            seen.append(cache.contains(addr))
        else:  # evict
            seen.append(cache.invalidate(addr))
    return seen


def _apply_btb(btb, ops) -> list:
    seen = []
    for op, choice, tag, payload in ops:
        pc = _slot(btb.num_sets, choice, tag) << 2
        if op <= 1:
            btb.fill(pc, BranchKind(payload % len(BranchKind)), 0x40000 + 4 * payload)
        elif op <= 3:
            entry = btb.probe(pc)
            seen.append(None if entry is None else (entry.kind, entry.target))
        else:
            seen.append(btb.contains(pc))
    return seen


def _apply_ibtb(ibtb, ops) -> list:
    seen = []
    for op, choice, tag, payload in ops:
        # History 0 keys the set by the pc alone, so tags collide in a set.
        pc = _slot(ibtb.num_sets, choice, tag) << 2
        history = 0 if payload < 12 else payload
        if op <= 1:
            ibtb.train(pc, history, 0x40000 + 4 * payload)
        else:
            seen.append(ibtb.predict(pc, history))
    return seen


STRUCTURES = {
    **{
        name: (
            lambda config=config: SetAssocCache(config),
            lambda config=config: SetAssocCacheC(config),
            _apply_cache,
        )
        for name, config in CACHES.items()
    },
    "btb": (
        lambda: BranchTargetBuffer(BRANCH.btb_entries, BRANCH.btb_assoc),
        lambda: BranchTargetBufferC(BRANCH.btb_entries, BRANCH.btb_assoc),
        _apply_btb,
    ),
    "ibtb": (
        lambda: IndirectTargetBuffer(BRANCH.ibtb_entries, BRANCH.ibtb_assoc),
        lambda: IndirectTargetBufferC(BRANCH.ibtb_entries, BRANCH.ibtb_assoc),
        _apply_ibtb,
    ),
}


@pytest.mark.parametrize("name", sorted(STRUCTURES))
@EXAMPLES
@given(ops=_OPS, tail=_OPS)
def test_compiled_packed_state_matches_object(name, ops, tail):
    make_object, make_compiled, apply = STRUCTURES[name]
    source = make_object()
    apply(source, ops)
    state = source.state()

    # object -> C -> C -> object, through fresh structures.
    loaded = make_compiled()
    loaded.load_state(state)
    assert loaded.state() == state
    copied = make_compiled()
    copied.copy_from(loaded)
    assert copied.state() == state
    back = make_object()
    back.load_state(copied.state())
    assert back.state() == state

    # The round trip kept every set's recency order: the same operations
    # evict the same victims from here on.
    assert apply(source, tail) == apply(back, tail)
    final = source.state()
    assert back.state() == final
    loaded.load_state(final)
    assert loaded.state() == final
