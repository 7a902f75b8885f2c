"""Branch target buffers: the main BTB and the indirect target buffer.

The BTB is the frontend's *branch discovery* structure: a fetch block is
scanned by probing the BTB for each contained instruction address, and a
branch the BTB does not know about is simply invisible — the decoupled
frontend walks straight past it, which is how wrong-path prefetching after
BTB misses arises (Section II of the paper).

The indirect target buffer (iBTB) predicts targets of indirect jumps/calls
using a path-history-hashed index, falling back to the BTB's last-seen
target on a miss.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.cc import resolve_compiled
from repro.common.config import BranchConfig
from repro.workloads.program import BranchKind


def _check_geometry(sets_state: list, num_sets: int, assoc: int, name: str) -> None:
    """Reject checkpointed sets that do not fit this buffer's geometry."""
    if len(sets_state) != num_sets:
        raise ValueError(f"{name} geometry mismatch")
    if any(len(entries) > assoc for entries in sets_state):
        raise ValueError(f"{name} set holds more entries than ways")


@dataclass
class BTBEntry:
    """One BTB entry: full-tag branch descriptor."""

    pc: int
    kind: BranchKind
    target: int
    lru: int = 0


class BranchTargetBuffer:
    """Set-associative BTB with true-LRU replacement and full tags."""

    def __init__(self, entries: int, assoc: int) -> None:
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        self._sets: list[dict[int, BTBEntry]] = [dict() for _ in range(self.num_sets)]
        self._stamp = 0
        self.hits = 0
        self.misses = 0

    def _set_of(self, pc: int) -> dict[int, BTBEntry]:
        return self._sets[(pc >> 2) % self.num_sets]

    def probe(self, pc: int) -> BTBEntry | None:
        """Look up the branch at ``pc``; update LRU on hit."""
        entry = self._set_of(pc).get(pc)
        self._stamp += 1
        if entry is None:
            self.misses += 1
            return None
        entry.lru = self._stamp
        self.hits += 1
        return entry

    def contains(self, pc: int) -> bool:
        """Tag check without touching LRU or statistics."""
        return pc in self._set_of(pc)

    def fill(self, pc: int, kind: BranchKind, target: int) -> None:
        """Insert or refresh the entry for the branch at ``pc``."""
        way_set = self._set_of(pc)
        self._stamp += 1
        entry = way_set.get(pc)
        if entry is not None:
            entry.kind = kind
            entry.target = target
            entry.lru = self._stamp
            return
        if len(way_set) >= self.assoc:
            victim = min(way_set.values(), key=lambda e: e.lru)
            del way_set[victim.pc]
        way_set[pc] = BTBEntry(pc, kind, target, self._stamp)

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    # -- checkpoint serialization (layout-neutral) --------------------------

    def state_dict(self) -> dict:
        """Per-set ``(pc, kind, target)`` tuples in LRU→MRU order.

        Only the *relative* recency within a set affects future behaviour
        (eviction takes the min stamp), so ordering replaces raw stamps and
        the format round-trips between the dict-based and SoA layouts.
        """
        return {
            "sets": [
                [
                    (e.pc, int(e.kind), e.target)
                    for e in sorted(way_set.values(), key=lambda e: e.lru)
                ]
                for way_set in self._sets
            ],
            "hits": self.hits,
            "misses": self.misses,
        }

    def load_state(self, state: dict) -> None:
        sets_state = state["sets"]
        _check_geometry(sets_state, self.num_sets, self.assoc, "BTB")
        for way_set, entries in zip(self._sets, sets_state):
            way_set.clear()
            for pc, kind, target in entries:
                self._stamp += 1
                way_set[pc] = BTBEntry(pc, BranchKind(kind), target, self._stamp)
        self.hits = state["hits"]
        self.misses = state["misses"]


class BranchTargetBufferC(BranchTargetBuffer):
    """Compiled-kernel BTB: probe/fill run as single C calls over the SoA ways.

    Way payloads (kind, target, tag pc) live in preallocated
    ``(num_sets, assoc)`` int64 ndarrays the kernels address through raw
    pointers.  Replacement state is a monotonic stamp array (victim =
    minimum stamp), which picks the same victim as the object BTB's
    minimum ``lru``.  The layout-neutral ``state_dict`` format (LRU→MRU
    per set) round-trips with :class:`BranchTargetBuffer`.
    """

    def __init__(self, entries: int, assoc: int) -> None:
        import numpy as np

        from repro.common import cc

        kernels = cc.kernels()
        if kernels is None:  # pragma: no cover - factory guards this
            raise RuntimeError("compiled kernels unavailable")
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        self._kinds = np.zeros((self.num_sets, assoc), dtype=np.int64)
        self._targets = np.zeros((self.num_sets, assoc), dtype=np.int64)
        self._pcs = np.full((self.num_sets, assoc), -1, dtype=np.int64)
        self._stamps = np.zeros(self.num_sets * assoc, dtype=np.int64)
        self._sets = None  # entries live in the arrays; fail loudly
        self._pcs_f = memoryview(self._pcs.reshape(-1))
        self._kinds_f = memoryview(self._kinds.reshape(-1))
        self._targets_f = memoryview(self._targets.reshape(-1))
        self._stamps_f = memoryview(self._stamps)
        di = np.zeros(10, dtype=np.int64)
        di[0] = self._pcs.ctypes.data
        di[1] = self._kinds.ctypes.data
        di[2] = self._targets.ctypes.data
        di[3] = self._stamps.ctypes.data
        di[4] = self.num_sets
        di[5] = assoc
        # di[6]=stamp, di[7]=hits, di[8]=misses, di[9]=occupancy
        self._di = di
        self._dmv = memoryview(di)
        self._desc = int(di.ctypes.data)
        self._k_probe = kernels.btb_probe
        self._k_contains = kernels.btb_contains
        self._k_fill = kernels.btb_fill

    def probe(self, pc: int) -> BTBEntry | None:
        """Look up the branch at ``pc``; update recency on hit."""
        g = self._k_probe(self._desc, pc)
        if g < 0:
            return None
        return BTBEntry(pc, BranchKind(self._kinds_f[g]), self._targets_f[g])

    def contains(self, pc: int) -> bool:
        """Tag check without touching recency or statistics."""
        return bool(self._k_contains(self._desc, pc))

    def fill(self, pc: int, kind: BranchKind, target: int) -> None:
        """Insert or refresh the entry for the branch at ``pc``."""
        self._k_fill(self._desc, pc, int(kind), target)

    @property
    def hits(self) -> int:
        return int(self._dmv[7])

    @hits.setter
    def hits(self, value: int) -> None:
        self._di[7] = value

    @property
    def misses(self) -> int:
        return int(self._dmv[8])

    @misses.setter
    def misses(self, value: int) -> None:
        self._di[8] = value

    @property
    def occupancy(self) -> int:
        return int(self._dmv[9])

    def _resident_lru_to_mru(self, set_index: int) -> list[int]:
        base = set_index * self.assoc
        ways = [
            base + w
            for w in range(self.assoc)
            if self._pcs_f[base + w] != -1
        ]
        ways.sort(key=lambda g: self._stamps_f[g])
        return ways

    def state_dict(self) -> dict:
        """Same layout-neutral format as :meth:`BranchTargetBuffer.state_dict`."""
        return {
            "sets": [
                [
                    (
                        int(self._pcs_f[g]),
                        int(self._kinds_f[g]),
                        int(self._targets_f[g]),
                    )
                    for g in self._resident_lru_to_mru(s)
                ]
                for s in range(self.num_sets)
            ],
            "hits": self.hits,
            "misses": self.misses,
        }

    def load_state(self, state: dict) -> None:
        sets_state = state["sets"]
        _check_geometry(sets_state, self.num_sets, self.assoc, "BTB")
        self._pcs[:] = -1
        self._stamps[:] = 0
        stamp = int(self._di[6])
        occupancy = 0
        for s, entries in enumerate(sets_state):
            base = s * self.assoc
            for w, (pc, kind, target) in enumerate(entries):
                stamp += 1
                g = base + w
                self._pcs_f[g] = pc
                self._kinds_f[g] = kind
                self._targets_f[g] = target
                self._stamps_f[g] = stamp
                occupancy += 1
        self._di[6] = stamp
        self._di[9] = occupancy
        self.hits = state["hits"]
        self.misses = state["misses"]


class IndirectTargetBuffer:
    """Path-history-hashed predictor for indirect branch targets."""

    def __init__(self, entries: int, assoc: int, history_bits: int = 12) -> None:
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        self.history_bits = history_bits
        self._sets: list[dict[int, tuple[int, int]]] = [dict() for _ in range(self.num_sets)]
        self._stamp = 0
        self.hits = 0
        self.misses = 0

    def _key(self, pc: int, history: int) -> tuple[int, int]:
        mixed = (pc >> 2) ^ ((history & ((1 << self.history_bits) - 1)) * 0x9E37)
        return mixed % self.num_sets, mixed

    def predict(self, pc: int, history: int) -> int | None:
        """Predicted target for the indirect branch at ``pc``, or None."""
        set_index, tag = self._key(pc, history)
        entry = self._sets[set_index].get(tag)
        self._stamp += 1
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        target, _ = entry
        self._sets[set_index][tag] = (target, self._stamp)
        return target

    def train(self, pc: int, history: int, target: int) -> None:
        """Record the resolved target under the current path history."""
        set_index, tag = self._key(pc, history)
        way_set = self._sets[set_index]
        self._stamp += 1
        if tag not in way_set and len(way_set) >= self.assoc:
            victim = min(way_set.items(), key=lambda kv: kv[1][1])[0]
            del way_set[victim]
        way_set[tag] = (target, self._stamp)

    # -- checkpoint serialization (layout-neutral) --------------------------

    def state_dict(self) -> dict:
        """Per-set ``(tag, target)`` tuples in LRU→MRU order."""
        return {
            "sets": [
                [
                    (tag, entry[0])
                    for tag, entry in sorted(
                        way_set.items(), key=lambda kv: kv[1][1]
                    )
                ]
                for way_set in self._sets
            ],
            "hits": self.hits,
            "misses": self.misses,
        }

    def load_state(self, state: dict) -> None:
        sets_state = state["sets"]
        _check_geometry(sets_state, self.num_sets, self.assoc, "iBTB")
        for way_set, entries in zip(self._sets, sets_state):
            way_set.clear()
            for tag, target in entries:
                self._stamp += 1
                way_set[tag] = (target, self._stamp)
        self.hits = state["hits"]
        self.misses = state["misses"]


class IndirectTargetBufferC(IndirectTargetBuffer):
    """Compiled-kernel iBTB: predict/train as single C calls per branch.

    The set/tag hash stays in Python (a handful of integer ops on values the
    caller already holds); the descriptor shares the BTB kernel's layout with
    tags stored in the ``pcs`` array and the ``kinds`` plane unused.
    """

    def __init__(self, entries: int, assoc: int, history_bits: int = 12) -> None:
        import numpy as np

        from repro.common import cc

        kernels = cc.kernels()
        if kernels is None:  # pragma: no cover - factory guards this
            raise RuntimeError("compiled kernels unavailable")
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        self.history_bits = history_bits
        self._tags = np.full((self.num_sets, assoc), -1, dtype=np.int64)
        self._targets = np.zeros((self.num_sets, assoc), dtype=np.int64)
        self._stamps = np.zeros(self.num_sets * assoc, dtype=np.int64)
        self._sets = None  # entries live in the arrays; fail loudly
        self._tags_f = memoryview(self._tags.reshape(-1))
        self._targets_f = memoryview(self._targets.reshape(-1))
        self._stamps_f = memoryview(self._stamps)
        di = np.zeros(10, dtype=np.int64)
        di[0] = self._tags.ctypes.data
        di[1] = self._targets.ctypes.data  # kinds plane: never touched for iBTB
        di[2] = self._targets.ctypes.data
        di[3] = self._stamps.ctypes.data
        di[4] = self.num_sets
        di[5] = assoc
        # di[6]=stamp, di[7]=hits, di[8]=misses, di[9]=occupancy
        self._di = di
        self._dmv = memoryview(di)
        self._desc = int(di.ctypes.data)
        self._k_predict = kernels.ibtb_predict
        self._k_train = kernels.ibtb_train

    def predict(self, pc: int, history: int) -> int | None:
        """Predicted target for the indirect branch at ``pc``, or None."""
        set_index, tag = self._key(pc, history)
        target = self._k_predict(self._desc, set_index, tag)
        return None if target < 0 else target

    def train(self, pc: int, history: int, target: int) -> None:
        """Record the resolved target under the current path history."""
        set_index, tag = self._key(pc, history)
        self._k_train(self._desc, set_index, tag, target)

    @property
    def hits(self) -> int:
        return int(self._dmv[7])

    @hits.setter
    def hits(self, value: int) -> None:
        self._di[7] = value

    @property
    def misses(self) -> int:
        return int(self._dmv[8])

    @misses.setter
    def misses(self, value: int) -> None:
        self._di[8] = value

    def state_dict(self) -> dict:
        sets_out = []
        for s in range(self.num_sets):
            base = s * self.assoc
            ways = [
                base + w
                for w in range(self.assoc)
                if self._tags_f[base + w] != -1
            ]
            ways.sort(key=lambda g: self._stamps_f[g])
            sets_out.append(
                [(int(self._tags_f[g]), int(self._targets_f[g])) for g in ways]
            )
        return {"sets": sets_out, "hits": self.hits, "misses": self.misses}

    def load_state(self, state: dict) -> None:
        sets_state = state["sets"]
        _check_geometry(sets_state, self.num_sets, self.assoc, "iBTB")
        self._tags[:] = -1
        self._stamps[:] = 0
        stamp = int(self._di[6])
        occupancy = 0
        for s, entries in enumerate(sets_state):
            base = s * self.assoc
            for w, (tag, target) in enumerate(entries):
                stamp += 1
                g = base + w
                self._tags_f[g] = tag
                self._targets_f[g] = target
                self._stamps_f[g] = stamp
                occupancy += 1
        self._di[6] = stamp
        self._di[9] = occupancy
        self.hits = state["hits"]
        self.misses = state["misses"]


def btb_from_config(config: BranchConfig, compiled: bool | None = None):
    """Construct the branch-discovery BTB.

    ``btb_levels == 1`` gives Table II's monolithic BTB; ``2`` gives the
    related-work hierarchical organization (see
    :mod:`repro.branch.two_level_btb`).  ``compiled`` selects the C-kernel
    classes (see :func:`repro.common.cc.resolve_compiled`).
    """
    if config.btb_levels == 2:
        from repro.branch.two_level_btb import TwoLevelBTB

        return TwoLevelBTB(
            l1_entries=config.l1_btb_entries,
            l1_assoc=config.l1_btb_assoc,
            l2_entries=config.btb_entries,
            l2_assoc=config.btb_assoc,
            compiled=compiled,
        )
    cls = BranchTargetBufferC if resolve_compiled(compiled) else BranchTargetBuffer
    return cls(config.btb_entries, config.btb_assoc)


def ibtb_from_config(config: BranchConfig, compiled: bool | None = None):
    """Construct the indirect target buffer per Table II."""
    if resolve_compiled(compiled):
        return IndirectTargetBufferC(config.ibtb_entries, config.ibtb_assoc)
    return IndirectTargetBuffer(config.ibtb_entries, config.ibtb_assoc)
