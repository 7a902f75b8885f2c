"""The built-in comparators' state in flat arrays, for the compiled cycle driver.

Each class here is the compiled twin of a registry technique that the
driver runs in C rather than calling it back: :class:`EIPC` of
:class:`~repro.prefetchers.eip.EntangledInstructionPrefetcher`,
:class:`MANAC` of :class:`~repro.prefetchers.mana.MANAPrefetcher` and
:class:`ShadowBTBC` of
:class:`~repro.prefetchers.shadow_btb.ShadowBranchPrefiller`.  A compiled
simulator builds them through the registry's ``native`` factories.  Their
tables live in buffers C updates in place (``kernels/techniques.c``; the
predecoder, which keeps no table, is in ``kernels/driver.c``); a holder
gives the driver its descriptor (:attr:`driver_fields`) and Python the
layout-neutral :meth:`state` its object twin gives, so the two compare
directly (``tests/sim/test_driver.py``, ``tests/sim/test_fuzz_modes.py``).
The object classes stay the oracle, and a compiled run never imports
them.  What both sides need lives here too: the tables' sizing.
"""

from __future__ import annotations

from array import array

from repro.common.packed import address, zeros
from repro.prefetchers.registry import EIPParams, MANAParams, ShadowBTBParams

# EIP's entry cost: a compressed tag (~4B) plus two compressed destination
# deltas (~4B each), as in the HPCA'21 design.
EIP_BYTES_PER_ENTRY = 12

# MANA's record cost: a HOBPT-compressed trigger tag (~2B) + HOBPT index
# (~1B) + a compressed successor pointer (~2B), then the footprint bits.
MANA_RECORD_BITS = 16 + 8 + 16


def eip_capacity(storage_bytes: int) -> int:
    """EIP's entangling-table entries a storage budget buys (at least 16)."""
    return max(16, storage_bytes // EIP_BYTES_PER_ENTRY)


def mana_record_bytes(params: MANAParams) -> int:
    """One MANA record's storage cost."""
    return (MANA_RECORD_BITS + params.region_lines - 1 + 7) // 8


def mana_capacity(params: MANAParams) -> int:
    """MANA's records the storage budget buys (at least 16)."""
    return max(16, params.storage_bytes // mana_record_bytes(params))


def _descriptor(words: int, fields: dict, values: dict) -> array:
    """A zeroed descriptor of ``words`` with ``values`` at their ``fields``."""
    desc = zeros(words)
    for name, value in values.items():
        desc[fields[name]] = value
    return desc


def _layout() -> dict:
    from repro.common import cc

    kernels = cc.kernels()
    if kernels is None:  # pragma: no cover - the simulator guards this
        raise RuntimeError("compiled kernels unavailable")
    return kernels.driver_layout()


class _LruMap:
    """An ``LruMap`` descriptor: ``cap`` keyed slots in recency order, the
    compiled form of an ``OrderedDict`` (``kernels/techniques.c``)."""

    def __init__(self, cap: int, layout: dict) -> None:
        buckets = 1 << (2 * cap - 1).bit_length()  # a power of two, at least 2 * cap
        self.keys = zeros(cap)
        self._prev = zeros(cap)
        self._next = array("q", range(1, cap + 1))  # every slot free, in order
        self._next[-1] = -1
        self._index = zeros(buckets)
        self._fields = fields = layout["lru_fields"]
        self._di = _descriptor(layout["lru_words"], fields, {
            "keys": address(self.keys),
            "prev": address(self._prev),
            "next": address(self._next),
            "index": address(self._index),
            "index_mask": buckets - 1,
            "cap": cap,
            "oldest": -1,
            "youngest": -1,
        })
        self.desc = address(self._di)

    def slots(self):
        """The used slots, oldest first."""
        slot = self._di[self._fields["oldest"]]
        while slot >= 0:
            yield slot
            slot = self._next[slot]


class EIPC:
    """EIP's entangling table and recent-line FIFO (the driver's ``EipDesc``)."""

    def __init__(self, params: EIPParams) -> None:
        layout = _layout()
        self.capacity = eip_capacity(params.storage_bytes)
        self._per_entry = per_entry = params.targets_per_entry
        self._table = _LruMap(self.capacity, layout)
        self._ntargets = zeros(self.capacity)
        self._targets = zeros(self.capacity * per_entry)
        self._recent = zeros(params.entangling_distance + 1)
        self._out = zeros(per_entry)
        self._fields = fields = layout["eip_fields"]
        self._di = _descriptor(layout["eip_words"], fields, {
            "table": self._table.desc,
            "ntargets": address(self._ntargets),
            "targets": address(self._targets),
            "per_entry": per_entry,
            "recent": address(self._recent),
            "distance": params.entangling_distance,
            "wrong_path_aware": int(params.wrong_path_aware),
            "out": address(self._out),
        })
        self.driver_fields = {"eip": address(self._di)}

    @property
    def trained(self) -> int:
        return self._di[self._fields["trained"]]

    @property
    def triggered(self) -> int:
        return self._di[self._fields["triggered"]]

    def state(self) -> dict:
        """:meth:`~repro.prefetchers.eip.EntangledInstructionPrefetcher.state`'s form."""
        per_entry, targets, keys = self._per_entry, self._targets, self._table.keys
        di, f = self._di, self._fields
        head, ring = di[f["recent_head"]], len(self._recent)
        return {
            "table": [
                (keys[s], tuple(targets[s * per_entry:s * per_entry + self._ntargets[s]]))
                for s in self._table.slots()
            ],
            "recent": [self._recent[(head + i) % ring] for i in range(di[f["recent_len"]])],
            "trained": self.trained,
            "triggered": self.triggered,
        }


class MANAC:
    """MANA's region records, HOBPT and open region (the driver's ``ManaDesc``)."""

    def __init__(self, params: MANAParams) -> None:
        layout = _layout()
        self.capacity = cap = mana_capacity(params)
        # Footprint bits per record: region_lines - 1, in 64-bit words.
        self._words = words = (params.region_lines + 62) // 64
        self._records = _LruMap(cap, layout)
        self._successor = zeros(cap)
        self._footprint = zeros(cap * words, "Q")
        self._hob = _LruMap(params.hob_entries, layout)
        self._cur_footprint = zeros(words, "Q")
        # A replay emits each line once: at most region_lines per distinct
        # record it visits (its footprint and successor), of which there are
        # at most lookahead_records and at most the table's capacity.
        self._out = zeros(min(params.lookahead_records, cap) * params.region_lines)
        self._fields = fields = layout["mana_fields"]
        self._di = _descriptor(layout["mana_words"], fields, {
            "records": self._records.desc,
            "successor": address(self._successor),
            "footprint": address(self._footprint),
            "words": words,
            "hob": self._hob.desc,
            "hob_shift": params.hob_shift,
            "region_lines": params.region_lines,
            "lookahead": params.lookahead_records,
            "cur_trigger": -1,
            "cur_footprint": address(self._cur_footprint),
            "out": address(self._out),
        })
        self.driver_fields = {"mana": address(self._di)}

    @property
    def trained(self) -> int:
        return self._di[self._fields["trained"]]

    @property
    def triggered(self) -> int:
        return self._di[self._fields["triggered"]]

    @property
    def hob_evictions(self) -> int:
        return self._di[self._fields["hob_evictions"]]

    def _bits(self, buf: array, slot: int) -> int:
        at = slot * self._words
        return sum(buf[at + k] << (64 * k) for k in range(self._words))

    def state(self) -> dict:
        """:meth:`~repro.prefetchers.mana.MANAPrefetcher.state`'s form."""
        keys = self._records.keys
        trigger = self._di[self._fields["cur_trigger"]]
        return {
            "records": [
                (
                    keys[s],
                    self._bits(self._footprint, s),
                    self._successor[s] if self._successor[s] >= 0 else None,
                )
                for s in self._records.slots()
            ],
            "hob": [self._hob.keys[s] for s in self._hob.slots()],
            "region": (trigger if trigger >= 0 else None, self._bits(self._cur_footprint, 0)),
            "trained": self.trained,
            "triggered": self.triggered,
            "hob_evictions": self.hob_evictions,
        }


class ShadowBTBC:
    """The shadow-branch predecoder's budget: it keeps no table, and the
    driver predecodes every filled line into the BTB itself."""

    def __init__(self, params: ShadowBTBParams) -> None:
        self.driver_fields = {"shadow_budget": params.max_prefills_per_fill}

    def state(self) -> dict:
        return {}


def build_eip(params: EIPParams, program, hooks) -> EIPC:
    """The ``eip`` registry entry's native factory."""
    return EIPC(params)


def build_mana(params: MANAParams, program, hooks) -> MANAC:
    """The ``mana`` registry entry's native factory."""
    return MANAC(params)


def build_shadow_btb(params: ShadowBTBParams, program, hooks) -> ShadowBTBC:
    """The ``shadow-btb`` registry entry's native factory."""
    return ShadowBTBC(params)
