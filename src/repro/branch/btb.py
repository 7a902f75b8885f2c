"""Branch target buffers: the main BTB and the indirect target buffer.

The BTB is the frontend's *branch discovery* structure: a fetch block is
scanned by probing the BTB for each contained instruction address, and a
branch the BTB does not know about is simply invisible — the decoupled
frontend walks straight past it, which is how wrong-path prefetching after
BTB misses arises (Section II of the paper).

The indirect target buffer (iBTB) predicts targets of indirect jumps/calls
using a path-history-hashed index, falling back to the BTB's last-seen
target on a miss.  The compiled cycle driver's twins are in
:mod:`repro.branch.compiled`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.branch.compiled import BTB_PLANES, IBTB_PLANES
from repro.common.packed import Stateful, unpack
from repro.workloads.program import BranchKind


@dataclass
class BTBEntry:
    """One BTB entry: full-tag branch descriptor."""

    pc: int
    kind: BranchKind
    target: int
    lru: int = 0


class BranchTargetBuffer(Stateful):
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

    # -- state protocol (repro.common.packed) --------------------------------

    def state(self) -> dict:
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

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state` output in place (validated first)."""
        counts, (pcs, kinds, targets) = unpack(
            state, BTB_PLANES, self.num_sets, self.assoc, "BTB"
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


class IndirectTargetBuffer(Stateful):
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

    # -- state protocol (repro.common.packed) --------------------------------

    def state(self) -> dict:
        """Entries as packed per-set buffers in LRU→MRU order (checkpoint form).

        A ``uint16`` entry count per set, then ``int64`` tags and targets
        set-major, like :meth:`BranchTargetBuffer.state`.
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

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state` output in place (validated first)."""
        counts, (tags, targets) = unpack(
            state, IBTB_PLANES, self.num_sets, self.assoc, "iBTB"
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
