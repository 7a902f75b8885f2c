"""Flat buffers shared with C, and the packed per-set checkpoint form.

Every compiled structure keeps its state in stdlib :mod:`array` buffers
(:func:`zeros`), which it never resizes, and hands C their
:func:`address`; descriptors are ``int64`` arrays whose unsigned and
floating-point words are written through :func:`view`.

The caches, the BTB and the iBTB serialize their contents the same way: a
``uint16`` entry count per set (``counts``), then one flat buffer per
payload plane (line addresses and flags, branch pcs, kinds and targets, ...)
holding every resident entry set-major and LRU->MRU within its set.  Only
relative recency within a set affects future behaviour, so the order
replaces raw stamps, and the same bytes round-trip between the object
classes and their compiled (structure-of-arrays) counterparts.  Pickling
the buffers is a memcpy; the compiled classes build and scatter them with
one C call each (``ways_export``/``ways_import`` in ``kernels/cache.c``).
"""

from __future__ import annotations

from array import array

__all__ = ["address", "export_ways", "import_ways", "put", "unpack", "view", "zeros"]


def zeros(count: int, typecode: str = "q", fill: int = 0) -> array:
    """A buffer of ``max(count, 1)`` items of ``typecode``, all ``fill``."""
    return array(typecode, [fill]) * max(count, 1)


def address(buf: array) -> int:
    """Where ``buf``'s items live (valid while ``buf`` does not resize)."""
    return buf.buffer_info()[0]


def put(buf: array, values) -> None:
    """Write ``values`` over the first items of ``buf``, in place.

    Raises :class:`ValueError` when they do not fit, where a plain slice
    assignment would resize ``buf`` and leave C a dangling pointer.
    """
    items = array(buf.typecode, values)
    memoryview(buf)[: len(items)] = items


def view(buf: array, fmt: str) -> memoryview:
    """``buf``'s bytes as items of struct format ``fmt`` (e.g. ``"Q"``,
    ``"d"``): how a descriptor stores an unsigned or a float word."""
    return memoryview(buf).cast("B").cast(fmt)


def _plane(buffer, typecode: str, name: str, plane: str) -> memoryview:
    items = memoryview(buffer).cast("B")
    width = array(typecode).itemsize
    if len(items) % width:
        raise ValueError(
            f"{name} {plane} plane is {len(items)} bytes, not whole "
            f"{width}-byte entries"
        )
    return items.cast(typecode)


def unpack(
    state: dict,
    planes: dict[str, str],
    num_sets: int,
    assoc: int,
    name: str,
) -> tuple:
    """Validated ``(counts, arrays)`` of a packed state, before any mutation.

    ``planes`` maps each plane's key to its :mod:`array` typecode;
    ``arrays`` are memoryviews in its order.  Raises :class:`ValueError`
    when ``counts`` does not hold one entry per set, a set holds more
    entries than ways, or a plane's length is not ``sum(counts)``, so a
    load can validate first and never stop half-way through its sets.
    """
    counts = _plane(state["counts"], "H", name, "counts")
    if len(counts) != num_sets:
        raise ValueError(
            f"{name} geometry mismatch: {len(counts)} set counts for "
            f"{num_sets} sets"
        )
    if num_sets and max(counts) > assoc:
        raise ValueError(f"{name} set holds more entries than ways")
    total = sum(counts)
    arrays = []
    for plane, typecode in planes.items():
        values = _plane(state[plane], typecode, name, plane)
        if len(values) != total:
            raise ValueError(
                f"{name} {plane} plane holds {len(values)} entries, "
                f"the set counts {total}"
            )
        arrays.append(values)
    return counts, arrays


def export_ways(export, stamps: array, assoc: int, *planes) -> tuple:
    """``(counts, *planes)`` bytes of a compiled structure's resident ways.

    ``export`` is the ``ways_export`` kernel; ``planes`` pairs each flat
    way array with its packed width (8 or 1 bytes), the tag array (``-1``
    marks a free way) first.
    """
    tags = planes[0][0]
    args = [value for ways, width in planes for value in (address(ways), width)]
    return export(address(tags), address(stamps), len(tags) // assoc, assoc, *args)


def import_ways(load, stamps: array, assoc: int, stamp: int, state: dict, *planes) -> int:
    """Scatter a validated packed ``state`` into a compiled structure's ways.

    ``load`` is the ``ways_import`` kernel; ``planes`` are ``(way array,
    width, state key)``, the tag array first.  Entries land in ways
    ``0..n-1`` of their set with stamps ``stamp + 1, stamp + 2, ...``
    counting up set-major LRU->MRU, which ranks them exactly like the object
    layout's per-set order.  Returns the number of entries loaded.
    """
    tags = planes[0][0]
    args = [
        value
        for ways, width, key in planes
        for value in (address(ways), width, state[key])
    ]
    return load(
        address(tags), address(stamps), len(tags) // assoc, assoc, stamp,
        state["counts"], *args,
    )
