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

from array import array
from dataclasses import dataclass

from repro.common.cc import resolve_compiled
from repro.common.config import BranchConfig
from repro.common.packed import address, export_ways, import_ways, unpack, zeros
from repro.workloads.program import BranchKind

# The planes of the packed checkpoint form (repro.common.packed), with
# their array typecodes: BTB entries are (pc, kind, target), iBTB entries
# (tag, target).
_BTB_PLANES = {"pcs": "q", "kinds": "B", "targets": "q"}
_IBTB_PLANES = {"tags": "q", "targets": "q"}


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

    def state_packed(self) -> dict:
        """Entries as packed per-set buffers in LRU→MRU order (checkpoint form).

        A ``uint16`` entry count per set, then ``int64`` pcs, ``uint8``
        kinds and ``int64`` targets set-major (:mod:`repro.common.packed`).
        Only the *relative* recency within a set affects future behaviour
        (eviction takes the min stamp), so ordering replaces raw stamps and
        the format round-trips between the dict-based and SoA layouts.
        """
        entries = [
            e
            for way_set in self._sets
            for e in sorted(way_set.values(), key=lambda e: e.lru)
        ]
        return {
            "counts": array("H", [len(way_set) for way_set in self._sets]).tobytes(),
            "pcs": array("q", [e.pc for e in entries]).tobytes(),
            "kinds": bytes(e.kind for e in entries),
            "targets": array("q", [e.target for e in entries]).tobytes(),
            "hits": self.hits,
            "misses": self.misses,
        }

    def load_packed(self, state: dict) -> None:
        """Restore :meth:`state_packed` output in place (validated first)."""
        counts, (pcs, kinds, targets) = unpack(
            state, _BTB_PLANES, self.num_sets, self.assoc, "BTB"
        )
        pcs = pcs.tolist()
        kinds = [BranchKind(kind) for kind in kinds.tolist()]
        targets = targets.tolist()
        hits, misses = int(state["hits"]), int(state["misses"])
        pos = 0
        for way_set, n in zip(self._sets, counts.tolist()):
            way_set.clear()
            for i in range(pos, pos + n):
                self._stamp += 1
                way_set[pcs[i]] = BTBEntry(pcs[i], kinds[i], targets[i], self._stamp)
            pos += n
        self.hits = hits
        self.misses = misses


class BranchTargetBufferC(BranchTargetBuffer):
    """Compiled-kernel BTB: probe/fill run as single C calls over the SoA ways.

    Way payloads (kind, target, tag pc) live in preallocated flat ``int64``
    arrays of ``num_sets * assoc`` ways the kernels address through raw
    pointers.  Replacement state is a monotonic stamp array (victim =
    minimum stamp), which picks the same victim as the object BTB's
    minimum ``lru``.  The packed ``state_packed`` format (LRU→MRU
    per set) round-trips with :class:`BranchTargetBuffer`.
    """

    def __init__(self, entries: int, assoc: int) -> None:
        from repro.common import cc

        kernels = cc.kernels()
        if kernels is None:  # pragma: no cover - factory guards this
            raise RuntimeError("compiled kernels unavailable")
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        ways = self.num_sets * assoc
        self._kinds = zeros(ways)
        self._targets = zeros(ways)
        self._pcs = zeros(ways, fill=-1)
        self._stamps = zeros(ways)
        self._sets = None  # entries live in the arrays; fail loudly
        di = zeros(10)
        di[0] = address(self._pcs)
        di[1] = address(self._kinds)
        di[2] = address(self._targets)
        di[3] = address(self._stamps)
        di[4] = self.num_sets
        di[5] = assoc
        # di[6]=stamp, di[7]=hits, di[8]=misses, di[9]=occupancy
        self._di = di
        self._desc = address(di)
        self._k_probe = kernels.btb_probe
        self._k_contains = kernels.btb_contains
        self._k_fill = kernels.btb_fill
        self._k_export = kernels.ways_export
        self._k_import = kernels.ways_import

    def probe(self, pc: int) -> BTBEntry | None:
        """Look up the branch at ``pc``; update recency on hit."""
        g = self._k_probe(self._desc, pc)
        if g < 0:
            return None
        return BTBEntry(pc, BranchKind(self._kinds[g]), self._targets[g])

    def contains(self, pc: int) -> bool:
        """Tag check without touching recency or statistics."""
        return bool(self._k_contains(self._desc, pc))

    def fill(self, pc: int, kind: BranchKind, target: int) -> None:
        """Insert or refresh the entry for the branch at ``pc``."""
        self._k_fill(self._desc, pc, int(kind), target)

    @property
    def hits(self) -> int:
        return self._di[7]

    @hits.setter
    def hits(self, value: int) -> None:
        self._di[7] = value

    @property
    def misses(self) -> int:
        return self._di[8]

    @misses.setter
    def misses(self, value: int) -> None:
        self._di[8] = value

    @property
    def occupancy(self) -> int:
        return self._di[9]

    def state_packed(self) -> dict:
        """Same packed format as :meth:`BranchTargetBuffer.state_packed`."""
        counts, pcs, kinds, targets = export_ways(
            self._k_export, self._stamps, self.assoc,
            (self._pcs, 8), (self._kinds, 1), (self._targets, 8),
        )
        return {
            "counts": counts,
            "pcs": pcs,
            "kinds": kinds,
            "targets": targets,
            "hits": self.hits,
            "misses": self.misses,
        }

    def load_packed(self, state: dict) -> None:
        """Restore :meth:`state_packed` output in place (validated first)."""
        _, (_, kinds, _) = unpack(state, _BTB_PLANES, self.num_sets, self.assoc, "BTB")
        if kinds and max(kinds) > max(BranchKind):
            raise ValueError("BTB kinds plane holds an unknown branch kind")
        hits, misses = int(state["hits"]), int(state["misses"])
        total = import_ways(
            self._k_import, self._stamps, self.assoc, self._di[6], state,
            (self._pcs, 8, "pcs"), (self._kinds, 1, "kinds"), (self._targets, 8, "targets"),
        )
        self._di[6] += total  # stamp
        self._di[9] = total  # occupancy
        self.hits = hits
        self.misses = misses


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

    def state_packed(self) -> dict:
        """Entries as packed per-set buffers in LRU→MRU order (checkpoint form).

        A ``uint16`` entry count per set, then ``int64`` tags and targets
        set-major, like :meth:`BranchTargetBuffer.state_packed`.
        """
        entries = [
            (tag, target)
            for way_set in self._sets
            for tag, (target, _) in sorted(way_set.items(), key=lambda kv: kv[1][1])
        ]
        return {
            "counts": array("H", [len(way_set) for way_set in self._sets]).tobytes(),
            "tags": array("q", [e[0] for e in entries]).tobytes(),
            "targets": array("q", [e[1] for e in entries]).tobytes(),
            "hits": self.hits,
            "misses": self.misses,
        }

    def load_packed(self, state: dict) -> None:
        """Restore :meth:`state_packed` output in place (validated first)."""
        counts, (tags, targets) = unpack(
            state, _IBTB_PLANES, self.num_sets, self.assoc, "iBTB"
        )
        tags = tags.tolist()
        targets = targets.tolist()
        hits, misses = int(state["hits"]), int(state["misses"])
        pos = 0
        for way_set, n in zip(self._sets, counts.tolist()):
            way_set.clear()
            for i in range(pos, pos + n):
                self._stamp += 1
                way_set[tags[i]] = (targets[i], self._stamp)
            pos += n
        self.hits = hits
        self.misses = misses


class IndirectTargetBufferC(IndirectTargetBuffer):
    """Compiled-kernel iBTB: predict/train as single C calls per branch.

    The set/tag hash stays in Python (a handful of integer ops on values the
    caller already holds); the descriptor shares the BTB kernel's layout with
    tags stored in the ``pcs`` array and the ``kinds`` plane unused.
    """

    def __init__(self, entries: int, assoc: int, history_bits: int = 12) -> None:
        from repro.common import cc

        kernels = cc.kernels()
        if kernels is None:  # pragma: no cover - factory guards this
            raise RuntimeError("compiled kernels unavailable")
        self.entries = entries
        self.assoc = assoc
        self.num_sets = entries // assoc
        self.history_bits = history_bits
        ways = self.num_sets * assoc
        self._tags = zeros(ways, fill=-1)
        self._targets = zeros(ways)
        self._stamps = zeros(ways)
        self._sets = None  # entries live in the arrays; fail loudly
        di = zeros(10)
        di[0] = address(self._tags)
        di[1] = address(self._targets)  # kinds plane: never touched for iBTB
        di[2] = address(self._targets)
        di[3] = address(self._stamps)
        di[4] = self.num_sets
        di[5] = assoc
        # di[6]=stamp, di[7]=hits, di[8]=misses, di[9]=occupancy
        self._di = di
        self._desc = address(di)
        self._k_predict = kernels.ibtb_predict
        self._k_train = kernels.ibtb_train
        self._k_export = kernels.ways_export
        self._k_import = kernels.ways_import

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
        return self._di[7]

    @hits.setter
    def hits(self, value: int) -> None:
        self._di[7] = value

    @property
    def misses(self) -> int:
        return self._di[8]

    @misses.setter
    def misses(self, value: int) -> None:
        self._di[8] = value

    def state_packed(self) -> dict:
        """Same packed format as :meth:`IndirectTargetBuffer.state_packed`."""
        counts, tags, targets = export_ways(
            self._k_export, self._stamps, self.assoc, (self._tags, 8), (self._targets, 8)
        )
        return {
            "counts": counts,
            "tags": tags,
            "targets": targets,
            "hits": self.hits,
            "misses": self.misses,
        }

    def load_packed(self, state: dict) -> None:
        """Restore :meth:`state_packed` output in place (validated first)."""
        unpack(state, _IBTB_PLANES, self.num_sets, self.assoc, "iBTB")
        hits, misses = int(state["hits"]), int(state["misses"])
        total = import_ways(
            self._k_import, self._stamps, self.assoc, self._di[6], state,
            (self._tags, 8, "tags"), (self._targets, 8, "targets"),
        )
        self._di[6] += total  # stamp
        self._di[9] = total  # occupancy
        self.hits = hits
        self.misses = misses


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
