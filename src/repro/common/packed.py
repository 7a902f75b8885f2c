"""Packed per-set buffers: the checkpoint form of set-associative contents.

The caches, the BTB and the iBTB serialize their contents the same way: a
``uint16`` entry count per set (``counts``), then one flat buffer per
payload plane (line addresses and flags, branch pcs, kinds and targets, ...)
holding every resident entry set-major and LRU->MRU within its set.  Only
relative recency within a set affects future behaviour, so the order
replaces raw stamps, and the same bytes round-trip between the object
classes and their compiled (structure-of-arrays) counterparts.  Pickling
the buffers is a memcpy, and the compiled classes build and scatter them
with a handful of vectorized numpy operations (:func:`resident_order`,
:func:`set_major_slots`).

numpy is imported inside each helper, so importing this module stays free.
"""

from __future__ import annotations

__all__ = ["resident_order", "set_major_slots", "unpack"]


def unpack(
    state: dict,
    planes: dict[str, str],
    num_sets: int,
    assoc: int,
    name: str,
) -> tuple:
    """Validated ``(counts, arrays)`` of a packed state, before any mutation.

    ``planes`` maps each plane's key to its numpy dtype; ``arrays`` follow
    its order.  Raises :class:`ValueError` when ``counts`` does not hold one
    entry per set, a set holds more entries than ways, or a plane's length
    is not ``sum(counts)``, so a load can validate first and never stop
    half-way through its sets.
    """
    import numpy as np

    counts = np.frombuffer(state["counts"], dtype=np.uint16).astype(np.int64)
    if len(counts) != num_sets:
        raise ValueError(
            f"{name} geometry mismatch: {len(counts)} set counts for "
            f"{num_sets} sets"
        )
    if int(counts.max(initial=0)) > assoc:
        raise ValueError(f"{name} set holds more entries than ways")
    total = int(counts.sum())
    arrays = []
    for plane, dtype in planes.items():
        array = np.frombuffer(state[plane], dtype=dtype)
        if len(array) != total:
            raise ValueError(
                f"{name} {plane} plane holds {len(array)} entries, "
                f"the set counts {total}"
            )
        arrays.append(array)
    return counts, arrays


def resident_order(resident, stamps) -> tuple:
    """``(counts, flat)`` of the resident ways of a ``(sets, assoc)`` layout.

    ``resident`` is the boolean occupancy mask and ``stamps`` the flat
    recency stamps (victim = minimum).  ``flat`` lists the flat way indices
    of every resident entry set-major, LRU->MRU within a set: empty ways
    sort last, and the stable sort breaks stamp ties by way index.
    """
    import numpy as np

    num_sets, assoc = resident.shape
    counts = resident.sum(axis=1)
    key = np.where(resident, stamps.reshape(num_sets, assoc), np.iinfo(np.int64).max)
    order = np.argsort(key, axis=1, kind="stable")
    gidx = order + np.arange(num_sets, dtype=np.int64)[:, None] * assoc
    mask = np.arange(assoc, dtype=np.int64)[None, :] < counts[:, None]
    return counts, gidx[mask]


def set_major_slots(counts, assoc: int):
    """Flat way indices placing packed entries in ways ``0..n-1`` of each set."""
    import numpy as np

    total = int(counts.sum())
    sets = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    ways = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    return sets * assoc + ways
