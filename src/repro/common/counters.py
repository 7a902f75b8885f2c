"""Lightweight statistics counters.

:class:`Counters` is a plain attribute bag of integer event counters used by
every simulator component.  Derived metrics (IPC, MPKI, ratios) live in
:mod:`repro.sim.metrics` so that raw counts and derived values never get
conflated.

Hot-path components (the per-cycle fetch/dispatch/FDIP loops) do not call
:meth:`Counters.bump` with a string per event — they ask for an *interned
incrementer* once at construction time via :meth:`Counters.incrementer` and
call that closure instead.  The closure pre-registers the counter's slot in
the backing dict, so the per-event cost is a single ``dict[str] += n`` on an
already-present key (no method dispatch, no ``dict.get`` default path).
"""

from __future__ import annotations

from typing import Callable


class Counters:
    """A dynamic bag of named integer counters.

    Unknown names read as 0, so components can bump counters without
    registering them first::

        c = Counters()
        c.bump("icache_hits")
        c.bump("icache_hits", 3)
        assert c["icache_hits"] == 4
        assert c["never_touched"] == 0
    """

    __slots__ = ("_values", "_interned", "hook")

    def __init__(self) -> None:
        self._values: dict[str, int] = {}
        # Names pre-registered by incrementer(); kept at zero across reset()
        # so interned closures never hit a missing key.
        self._interned: set[str] = set()
        # Optional observer called as hook(name, amount) on every bump —
        # used by the pipeline tracer; None in normal operation.
        self.hook = None

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self._values[name] = self._values.get(name, 0) + amount
        if self.hook is not None:
            self.hook(name, amount)

    def incrementer(self, name: str) -> Callable[[int], None]:
        """Return a fast bound incrementer for a hot counter ``name``.

        The returned closure behaves exactly like ``bump(name, amount)``
        (including firing the tracer ``hook``) but skips per-event name
        hashing against a missing key: the slot is preallocated here, once.
        Preallocated zero slots are invisible in :meth:`as_dict`.
        """
        self.intern((name,))
        values = self._values

        def bump(amount: int = 1, _name: str = name, _values: dict = values,
                 _self: "Counters" = self) -> None:
            _values[_name] += amount
            hook = _self.hook
            if hook is not None:
                hook(_name, amount)

        return bump

    def intern(self, names: tuple[str, ...]) -> None:
        """Pre-register the slots of ``names``, in order, and keep them
        across :meth:`reset`: what :meth:`incrementer` does for its counter,
        without the closure."""
        values = self._values
        for name in names:
            values.setdefault(name, 0)
        self._interned.update(names)

    def set(self, name: str, value: int) -> None:
        """Set counter ``name`` to ``value``."""
        self._values[name] = value

    def __getitem__(self, name: str) -> int:
        return self._values.get(name, 0)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def as_dict(self) -> dict[str, int]:
        """Return a copy of all non-zero counters.

        Zero-valued slots (preallocated by :meth:`incrementer`, or explicitly
        ``set`` to 0) are omitted, so results never depend on which counters
        happened to be registered-but-untouched.
        """
        return {name: value for name, value in self._values.items() if value}

    def merge(self, other: "Counters") -> None:
        """Add every counter from ``other`` into this bag.

        Accumulates directly into the backing dict — the tracer ``hook`` is
        *not* fired (merging aggregated results is bookkeeping, not a
        simulated event stream).
        """
        values = self._values
        get = values.get
        for name, value in other._values.items():
            values[name] = get(name, 0) + value

    def snapshot(self) -> dict[str, int]:
        """Alias of :meth:`as_dict` (kept for readability at call sites)."""
        return self.as_dict()

    def delta_since(self, baseline: dict[str, int]) -> dict[str, int]:
        """Return per-counter difference versus an earlier :meth:`snapshot`."""
        out: dict[str, int] = {}
        for name, value in self._values.items():
            diff = value - baseline.get(name, 0)
            if diff:
                out[name] = diff
        return out

    def reset(self) -> None:
        """Zero every counter (interned slots stay registered)."""
        self._values.clear()
        for name in self._interned:
            self._values[name] = 0

    # -- state protocol (repro.common.packed) --------------------------------

    def state(self) -> dict[str, int]:
        """Every counter slot, zero slots included, in slot order."""
        return dict(self._values)

    def load_state(self, state: dict[str, int]) -> None:
        """Replace every counter with :meth:`state` output, validated first.

        In place, keeping ``state``'s slot order: interned incrementers bind
        this exact dict.  An interned name ``state`` lacks gets a zero slot
        after the others.
        """
        if not all(type(name) is str and type(value) is int for name, value in state.items()):
            raise ValueError("counter state is not a {name: int} dict")
        self._load(state)

    def copy_from(self, other: "Counters") -> None:
        """Take ``other``'s slots in place, by direct copy."""
        self._load(other._values)

    def _load(self, slots: dict[str, int]) -> None:
        values = self._values
        values.clear()
        values.update(slots)
        for name in self._interned:
            values.setdefault(name, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        items = ", ".join(f"{k}={v}" for k, v in sorted(self._values.items()))
        return f"Counters({items})"


def ratio(numerator: float, denominator: float, default: float = 0.0) -> float:
    """Safe division returning ``default`` when the denominator is zero."""
    if denominator == 0:
        return default
    return numerator / denominator
